// Checked-in flatness ceiling for the queue manager's recoverable
// enqueue path (E10c, bench_store).
//
// bench_store fails (exit 1, with OFTT_BENCH_ENFORCE_FLOOR set) when host
// ns per recoverable enqueue on an unread queue at depth 4 000 is more
// than kCeilingEnqueueFlatness times its cost at depth 500. A ratio of
// two costs on one host, so it needs no per-machine baseline: a
// persistence step that rewrites or re-encodes the whole queue per
// message trips it, hardware speed does not.
#pragma once

namespace oftt::bench {

// One journal record per enqueue plus amortized snapshots: see
// EXPERIMENTS.md E10c for the measured ratios on both sides of the change.
inline constexpr double kCeilingEnqueueFlatness = 2.0;

}  // namespace oftt::bench
