#include "opc/device.h"

#include <cmath>

#include "common/logging.h"
#include "obs/event_bus.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace oftt::opc {

ItemState Device::read(const std::string& tag, sim::SimTime now) const {
  TagId id = store_.find(tag);
  if (id == kInvalidTagId) {
    return ItemState{tag, OpcValue(), Quality::kBad, now};
  }
  return ItemState{tag, store_.value(id),
                   faulted_ ? Quality::kBad : store_.quality(id), store_.timestamp(id)};
}

HRESULT Device::write(const std::string& tag, const OpcValue& value, sim::SimTime now) {
  if (faulted_) return E_FAIL;
  TagId id = store_.find(tag);
  if (id == kInvalidTagId) return E_INVALIDARG;
  store_.set(id, value, Quality::kGood, now);
  return S_OK;
}

void Device::set_faulted(bool faulted) {
  if (faulted_ == faulted) return;
  faulted_ = faulted;
  // Quality flipped for every point without a store mutation: force a
  // re-announce so subscribers see the BAD storm (or the recovery).
  hub_.invalidate_all();
  if (host_strand_ != nullptr) {
    auto& sim = host_strand_->process().sim();
    obs::Event e;
    e.kind = obs::EventKind::kOpcDeviceFault;
    e.node = host_strand_->process().node().id();
    e.component = name_;
    e.detail = faulted ? "device faulted" : "device restored";
    e.a = faulted ? 1 : 0;
    sim.telemetry().bus().publish(e);
  }
}

void Device::set_point(const std::string& tag, OpcValue value, sim::SimTime now,
                       Quality quality) {
  store_.set(store_.intern(tag), value, quality, now);
}

OpcValue SineSignal::sample(double t, sim::Rng& rng) {
  double v = offset_ + amplitude_ * std::sin(2.0 * 3.14159265358979 * t / period_s_);
  if (noise_ > 0.0) v += (rng.next_double() - 0.5) * 2.0 * noise_;
  return OpcValue::from_real(v);
}

OpcValue RandomWalkSignal::sample(double, sim::Rng& rng) {
  value_ += (rng.next_double() - 0.5) * 2.0 * step_;
  if (value_ < min_) value_ = min_;
  if (value_ > max_) value_ = max_;
  return OpcValue::from_real(value_);
}

OpcValue SquareSignal::sample(double t, sim::Rng&) {
  return OpcValue::from_bool(std::fmod(t, period_s_) < period_s_ / 2.0);
}

OpcValue CounterSignal::sample(double, sim::Rng&) { return OpcValue::from_int(count_++); }

void PlcDevice::add_input(const std::string& tag, std::unique_ptr<SignalModel> model) {
  Input& in = inputs_[tag];
  in.model = std::move(model);
  set_point(tag, OpcValue(), 0, Quality::kUncertain);  // no scan yet
  in.id = store().find(tag);
}

void PlcDevice::add_output(const std::string& tag, OpcValue initial) {
  outputs_.push_back(tag);
  set_point(tag, std::move(initial), 0);
}

void PlcDevice::start(sim::Strand& strand, sim::Rng rng) {
  Device::start(strand, rng);
  strand_ = &strand;
  rng_ = rng;
  scan_timer_ = std::make_unique<sim::PeriodicTimer>(strand);
  scan_timer_->start(scan_period_, [this] { scan(); });
}

void PlcDevice::scan() {
  if (faulted() || strand_ == nullptr) return;
  sim::SimTime now = strand_->process().sim().now();
  double t = sim::to_seconds(now);
  for (auto& [tag, in] : inputs_) {
    set_point_id(in.id, in.model->sample(t, rng_), now);
  }
  ++scans_;
}

HRESULT PlcDevice::write(const std::string& tag, const OpcValue& value, sim::SimTime now) {
  // Only declared outputs are writable on a PLC.
  for (const auto& out : outputs_) {
    if (out == tag) return Device::write(tag, value, now);
  }
  return has_tag(tag) ? E_FAIL : E_INVALIDARG;
}

}  // namespace oftt::opc
