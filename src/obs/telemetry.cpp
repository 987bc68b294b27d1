#include "obs/telemetry.h"

#include "common/logging.h"

namespace oftt::obs {

Telemetry::Telemetry(ClockFn clock)
    : clock_(std::move(clock)), bus_([this] { return clock_(); }), spans_(bus_) {
  Logger::instance().set_clock([this] { return clock_(); });
}

Telemetry::~Telemetry() { Logger::instance().set_clock(nullptr); }

}  // namespace oftt::obs
