// Device: the simulated "device driver" an OPC server encapsulates —
// the PLC plus its sensors and actuators. The fieldbus below the driver
// is abstracted away (as it is below a real OPC server): a device's
// points update on its scan cycle inside the hosting process.
//
// Points live in a sharded TagStore (string → dense TagId interning,
// per-shard dirty lists); the string read/write API below is preserved
// from the original std::map-backed device, while subscription groups
// and benches use the TagId fast paths. A SubscriptionHub per device
// routes store changes to groups, so a group tick costs O(changed)
// rather than O(items).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hresult.h"
#include "opc/tag_store.h"
#include "opc/value.h"
#include "sim/process.h"
#include "sim/rng.h"
#include "sim/timer.h"

namespace oftt::opc {

class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  const std::string& name() const { return name_; }

  /// Called once by the hosting process; devices install their timers
  /// on the given strand. Overrides must call the base first — it
  /// records the strand, which fault events publish through.
  virtual void start(sim::Strand& strand, sim::Rng rng) {
    (void)rng;
    host_strand_ = &strand;
  }

  TagStore& store() { return store_; }
  const TagStore& store() const { return store_; }
  SubscriptionHub& hub() { return hub_; }

  std::vector<std::string> tags() const { return store_.sorted_names(); }
  bool has_tag(const std::string& tag) const {
    return store_.find(tag) != kInvalidTagId;
  }

  /// Read a point; unknown tags and faulted devices read back with BAD
  /// quality (OPC semantics — reads do not fail, quality degrades).
  ItemState read(const std::string& tag, sim::SimTime now) const;

  /// Write a point; devices decide which tags are writable.
  virtual HRESULT write(const std::string& tag, const OpcValue& value, sim::SimTime now);

  /// Fault injection: a faulted device answers all reads with BAD
  /// quality (dead fieldbus / dead PLC). Toggling invalidates every
  /// subscription — the BAD-quality storm (and the all-GOOD recovery)
  /// must reach subscribers even though no store value changed.
  void set_faulted(bool faulted);
  bool faulted() const { return faulted_; }

 protected:
  void set_point(const std::string& tag, OpcValue value, sim::SimTime now,
                 Quality quality = Quality::kGood);
  /// TagId fast path for scan loops that pre-intern their tags.
  void set_point_id(TagId id, const OpcValue& value, sim::SimTime now,
                    Quality quality = Quality::kGood) {
    store_.set(id, value, quality, now);
  }

  sim::Strand* host_strand_ = nullptr;

 private:
  std::string name_;
  TagStore store_;
  SubscriptionHub hub_{store_};
  bool faulted_ = false;
};

/// Signal models for simulated analog/discrete inputs.
class SignalModel {
 public:
  virtual ~SignalModel() = default;
  virtual OpcValue sample(double t_seconds, sim::Rng& rng) = 0;
};

class SineSignal final : public SignalModel {
 public:
  SineSignal(double offset, double amplitude, double period_s, double noise = 0.0)
      : offset_(offset), amplitude_(amplitude), period_s_(period_s), noise_(noise) {}
  OpcValue sample(double t, sim::Rng& rng) override;

 private:
  double offset_, amplitude_, period_s_, noise_;
};

class RandomWalkSignal final : public SignalModel {
 public:
  RandomWalkSignal(double start, double step, double min, double max)
      : value_(start), step_(step), min_(min), max_(max) {}
  OpcValue sample(double t, sim::Rng& rng) override;

 private:
  double value_, step_, min_, max_;
};

class SquareSignal final : public SignalModel {
 public:
  explicit SquareSignal(double period_s) : period_s_(period_s) {}
  OpcValue sample(double t, sim::Rng& rng) override;

 private:
  double period_s_;
};

class CounterSignal final : public SignalModel {
 public:
  OpcValue sample(double t, sim::Rng& rng) override;

 private:
  std::int32_t count_ = 0;
};

/// A PLC: inputs sampled from signal models each scan cycle, writable
/// outputs held as commanded.
class PlcDevice : public Device {
 public:
  PlcDevice(std::string name, sim::SimTime scan_period)
      : Device(std::move(name)), scan_period_(scan_period) {}

  void add_input(const std::string& tag, std::unique_ptr<SignalModel> model);
  void add_output(const std::string& tag, OpcValue initial);

  void start(sim::Strand& strand, sim::Rng rng) override;
  HRESULT write(const std::string& tag, const OpcValue& value, sim::SimTime now) override;

  std::uint64_t scan_count() const { return scans_; }

 private:
  void scan();

  struct Input {
    std::unique_ptr<SignalModel> model;
    TagId id = kInvalidTagId;
  };

  sim::SimTime scan_period_;
  /// Lexicographic map: the scan samples inputs (and draws rng_) in tag
  /// order — part of the determinism contract with the seed.
  std::map<std::string, Input> inputs_;
  std::vector<std::string> outputs_;
  std::unique_ptr<sim::PeriodicTimer> scan_timer_;
  sim::Strand* strand_ = nullptr;
  sim::Rng rng_{0};
  std::uint64_t scans_ = 0;
};

}  // namespace oftt::opc
