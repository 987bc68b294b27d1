// PeriodicTimer: fires a callback every `period` on a strand until
// stopped. Heartbeats, checkpoint periods and PLC scan cycles all use
// this. Safe to stop/restart from inside its own callback.
//
// stop() (and so the destructor) cancels the one pending event, so no
// closure that points at the timer outlives it.
//
// Timers are the timer wheel's bread and butter: each re-arm is a
// short-horizon schedule (O(1) wheel insert, no allocation), and the
// callback is held as an InlineFn — start() forwards it straight into
// inline storage instead of copying through a std::function.
#pragma once

#include <type_traits>
#include <utility>

#include "sim/process.h"

namespace oftt::sim {

class PeriodicTimer {
 public:
  explicit PeriodicTimer(Strand& strand) : strand_(&strand) {}

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  ~PeriodicTimer() { stop(); }

  /// First fire after `period` (or after `initial_delay` if >= 0).
  /// The callable is perfectly forwarded: rvalues move, lvalues copy
  /// once — never the copy-per-(re)start of the std::function era.
  template <typename F, typename = std::enable_if_t<std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void start(SimTime period, F&& fn, SimTime initial_delay = -1) {
    stop();
    period_ = period;
    fn_ = InlineFn(std::forward<F>(fn));
    running_ = true;
    arm(initial_delay >= 0 ? initial_delay : period_);
  }

  void stop() {
    running_ = false;
    EventQueue::cancel_owned(pending_);
  }

  bool running() const { return running_; }
  SimTime period() const { return period_; }

 private:
  void arm(SimTime delay) {
    pending_ = strand_->schedule_after(delay, [this] {
      // Re-arm first: fn_ may stop() or restart the timer.
      arm(period_);
      fn_();
    });
  }

  Strand* strand_;
  SimTime period_ = 0;
  InlineFn fn_;
  bool running_ = false;
  EventHandle pending_;
};

}  // namespace oftt::sim
