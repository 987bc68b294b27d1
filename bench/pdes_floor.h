// Checked-in acceptance floors for E17 (bench_pdes): the conservative
// parallel engine must buy real wall-clock speedup on the workload it
// was built for — the N=512 SWIM cluster, whose 512 shard-spread nodes
// give every worker a full plate between windows.
//
// Floors are enforced only when OFTT_BENCH_ENFORCE_FLOOR is set AND the
// host has at least kFloorMinCores hardware threads: speedup is a
// property of the machine, and a 1-core container measuring 1.0x is
// reporting its own cgroup quota, not an engine regression. Hash
// invariance across worker counts, by contrast, is enforced on every
// run — determinism does not depend on the hardware.
#pragma once

namespace oftt::bench {

/// Minimum wall-clock speedup of kParallel workers=4 over workers=1 on
/// the N=512 engine-only SWIM cluster.
inline constexpr double kFloorSpeedupW4N512 = 2.0;

/// Maximum host ns per event of the sequential engine on the same
/// N=512 cluster: ~2x the cost with slot-indexed member bookkeeping
/// (2.1–4.1 µs on a 4-core VM), well under the ~14 µs that node-keyed
/// map lookups on every datagram cost, so a return to those trips it.
/// Checked in smoke runs too: the sequential N=512 lane always runs.
inline constexpr double kFloorSeqNsPerEventN512 = 7000.0;

/// Cores below which the floors are vacuous and skipped.
inline constexpr unsigned kFloorMinCores = 4;

}  // namespace oftt::bench
