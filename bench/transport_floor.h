// Checked-in flatness ceiling for the session transport's retransmit
// path (E20, bench_transport).
//
// bench_transport fails (exit 1, with OFTT_BENCH_ENFORCE_FLOOR set) when
// host ns per retransmission at the largest in-flight depth D is more
// than kCeilingRetxFlatness times its cost at D = 64, on either peer
// row (silent, 25% loss). A ratio of two costs on one host, so it needs
// no per-machine baseline: a per-frame lookup that grows with D (a
// tree over the in-flight frames, a walk of the reorder buffer per ack)
// trips it, hardware speed does not.
#pragma once

namespace oftt::bench {

// Seq-indexed in-flight range: see EXPERIMENTS.md E20 for the measured
// ratios on both sides of the change.
inline constexpr double kCeilingRetxFlatness = 2.0;

}  // namespace oftt::bench
