// Checked-in floors for the OPC data-plane perf-smoke lane (E16).
//
// bench_opc fails (exit 1, with OFTT_BENCH_ENFORCE_FLOOR set) when a
// measurement falls below its floor. Two kinds of gate live here:
//
//  - kFloorNotifyPerSec and kFloorBatchedNotifyPerSec are wall-clock
//    (host) throughput of the change-driven group tick path, delivered
//    by callback and through the notification plane, and
//    kFloorTagBuildPerSec the wall-clock rate of building a store. All
//    follow the kernel_floor.h philosophy: set far below dev-machine
//    numbers so shared CI
//    runners pass, tight enough that a wholesale O(changed) -> O(tags)
//    regression (the seed's poll-and-diff cost creeping back) cannot.
//  - kFloorCoalesceRatio and kFloorSwitchoverP99Ns are *sim-domain*
//    and therefore deterministic per seed — they are behaviour gates,
//    not hardware gates, and can sit close to the expected values:
//    frames must be shared across a client's groups (ratio well above
//    1), and warm-passive switchover with sharded tag checkpoints must
//    stay sub-second regardless of tag count.
//
// The logical invariant (notifications per measured tick == changed
// tags exactly) is asserted unconditionally — that one is never a
// hardware question. Update the wall floor when E16 is re-baselined.
#pragma once

namespace oftt::bench {

// Baseline: the in-process change-driven tick path measured
// 1.8M-2.9M notifications/sec on a 1-core dev container across
// N = 10^4..10^6 tags; the floor sits well below the
// worst run. The seed's O(items) poll at N = 10^6 manages ~2k/s of
// *changed*-tag throughput (it re-reads a million points to find a
// thousand changes), so a regression to polling fails by three orders
// of magnitude.
inline constexpr double kFloorNotifyPerSec = 500e3;

// E16a batched row: the same ticks end to end through the notification
// plane — group tick, frame encode, transport, network, decode and the
// OpcConnection sink's name lookup. Smoke mode (N = 10^3, 10^4) on a
// 4-core Xeon VM, three runs each: 2.6M-11M notifications/sec with
// slot-indexed subscriptions and the lean frame path, 1.1M-1.7M with the
// former per-item tree lookups and byte-at-a-time encoder. The floor
// sits well below the slowest run, like kFloorNotifyPerSec.
inline constexpr double kFloorBatchedNotifyPerSec = 750e3;

// E16g: building a store (intern + first set + bind_regions of fresh
// "p<i>" names over 32 shards), wall-clock tags/sec. Release, 4-core
// Xeon VM, median of five runs: 16.3M/s at N = 10^4, 10.3M/s at 10^5
// and 7.4M/s at 10^6 with the name arena and 24-byte cells; 6.8M,
// 6.1M and 3.1M/s with the former per-tag strings and variant columns.
// The floor sits well below every run, like kFloorNotifyPerSec; the
// std::map store the TagStore replaced built at about 1M/s.
inline constexpr double kFloorTagBuildPerSec = 2.5e6;

// E16b: with >= 2 groups per client node, batches per frame must show
// real coalescing (one frame per (client, tick), not per group).
inline constexpr double kFloorCoalesceRatio = 1.5;

// E16c: crash-to-new-primary-progress, p99 across seeds, at every tag
// count. Sim-time, deterministic; 1.5 s leaves headroom over the
// detection timeout + activation path while still failing any
// tag-count-proportional restore cost at N = 10^6.
inline constexpr long long kFloorSwitchoverP99Ns = 1'500'000'000;

}  // namespace oftt::bench
