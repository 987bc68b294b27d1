// The paper's §4 demonstration workload: "a simulated small office
// telephone system that consists of 5 telephone lines and 10 callers".
//
// Callers alternate think time (exponential) and call attempts; a call
// occupies a free line for an exponential holding time, or is blocked
// when all lines are busy (Erlang-B behaviour). The simulator is both
// an opc::Device (tags readable by an OPC server) and an event source
// (per-call records for the Calling History generator / Message
// Diverter path).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/codec.h"
#include "opc/device.h"

namespace oftt::opc {

/// One call record: the message body the event feed sends through the
/// Message Diverter (`e.encode()`, `CallEvent::decode(body, e)`).
struct CallEvent : codec::Message<CallEvent> {
  enum class Kind : std::uint8_t { kStart = 1, kEnd = 2, kBlocked = 3 };
  friend constexpr bool wire_valid(Kind k) { return k >= Kind::kStart && k <= Kind::kBlocked; }
  Kind kind = Kind::kStart;
  int caller = 0;
  int line = -1;  // -1 for blocked calls
  sim::SimTime at = 0;

  template <class V> void fields(V& v) { v(kind); v(caller); v(line); v(at); }
};

struct TelephoneConfig {
  int lines = 5;
  int callers = 10;
  double mean_think_s = 20.0;  // idle time between a caller's calls
  double mean_hold_s = 8.0;    // call duration
};

class TelephoneSystem final : public Device {
 public:
  using Config = TelephoneConfig;

  explicit TelephoneSystem(Config config = Config());

  void start(sim::Strand& strand, sim::Rng rng) override;

  /// Observe every call start/end/block (the external event feed).
  void set_event_listener(std::function<void(const CallEvent&)> listener) {
    listener_ = std::move(listener);
  }

  int busy_lines() const { return busy_; }
  std::uint64_t total_calls() const { return total_calls_; }
  std::uint64_t blocked_calls() const { return blocked_calls_; }

 private:
  void schedule_caller(int caller);
  void attempt_call(int caller);
  void end_call(int caller, int line);
  void publish_state();
  void emit(CallEvent::Kind kind, int caller, int line);

  Config config_;
  sim::Strand* strand_ = nullptr;
  sim::Rng rng_{0};
  std::vector<bool> line_busy_;
  int busy_ = 0;
  std::uint64_t total_calls_ = 0;
  std::uint64_t blocked_calls_ = 0;
  std::function<void(const CallEvent&)> listener_;
};

}  // namespace oftt::opc
