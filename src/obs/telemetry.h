// Telemetry: the per-simulation observability facade — one event bus,
// one metrics registry, one failover span tracker. The Simulation owns
// an instance and every component reaches it through
// `sim.telemetry()`; nothing else in the system keeps private
// instrumentation state.
//
// The facade also owns the Logger integration: it installs the sim
// clock into the process-wide Logger (so free-text log lines carry
// virtual timestamps) and can mirror published events into the log
// stream, making events and log lines one merged, ordered record.
#pragma once

#include <functional>
#include <memory>

#include "obs/event_bus.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace oftt::obs {

class Telemetry {
 public:
  using ClockFn = std::function<sim::SimTime()>;

  /// `clock` supplies the current sim time for event stamping and log
  /// timestamps; it is also installed as the Logger clock for the
  /// lifetime of this object.
  explicit Telemetry(ClockFn clock);
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  EventBus& bus() { return bus_; }
  const EventBus& bus() const { return bus_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  FailoverSpans& spans() { return spans_; }
  const FailoverSpans& spans() const { return spans_; }

 private:
  ClockFn clock_;
  EventBus bus_;
  MetricsRegistry metrics_;
  FailoverSpans spans_;
};

}  // namespace oftt::obs
