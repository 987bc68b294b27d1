// Checked-in events/sec floors for the CI perf-smoke lane (E12).
//
// bench_kernel fails (exit 1, with OFTT_BENCH_ENFORCE_FLOOR set) when a
// workload measures below 70% of its floor — a >30% kernel regression
// gate. Floors are deliberately set well below the numbers measured on
// a development machine (see EXPERIMENTS.md E12): shared CI runners are
// slower and noisy, and the gate exists to catch kernel-shaped
// regressions (an accidental allocation back on the hot path), not to
// measure hardware. Update them when E12 is re-baselined.
#pragma once

namespace oftt::bench {

// Baseline: pool/wheel kernel on a 1-core dev container measured
// 15-22M (schedule_fire), 44-55M (cancel_heavy), 26-28M (timer_heavy)
// events/sec in smoke mode; floors sit at roughly half the worst run.
// The seed kernel's timer-heavy rate (~8M) fails the 70% gate of the
// timer floor, so a wholesale hot-path regression cannot slip through.
inline constexpr double kFloorScheduleFire = 10.0e6;
inline constexpr double kFloorCancelHeavy = 25.0e6;
inline constexpr double kFloorTimerHeavy = 12.0e6;
// fanout_burst (E18): the sorted-run queue measured 1.9-2.8M events/sec
// in smoke mode (RelWithDebInfo, 4-core Xeon VM); the floor sits at about
// half the worst run. The wheel-pop queue before it measured 0.82-0.91M.
inline constexpr double kFloorFanoutBurst = 1.0e6;
// datagram_fanout (E19): interned port ids and flat port/attachment
// tables measured 1.65-2.37M events/sec in smoke mode (RelWithDebInfo,
// 4-core Xeon VM; the string-port parent 1.43-2.02M); the floor sits at
// about half the worst run.
inline constexpr double kFloorDatagramFanout = 0.8e6;

}  // namespace oftt::bench
