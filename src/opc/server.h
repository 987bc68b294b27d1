// The OPC server implementation: OpcServerObject (coclass) and its
// groups. A server wraps one Device; each connected client activates
// its own server instance (per-connection COM objects) sharing the
// device. Per the paper, OPC servers are stateless — everything here is
// reconstructible from the device, which is why the OPC-server FTIM
// takes no checkpoints.
//
// Groups are change-driven: instead of re-reading every item each tick
// and diffing (the seed's O(items) poll), a group holds a
// SubscriptionHub subscription over the device's TagStore and consumes
// only the tags that actually changed since its last tick — O(changed).
// Deadband filtering and the announce/suppress decision are evaluated
// against the group's last-notified value exactly as before, so the
// observable update stream is unchanged. Delivery is either the classic
// per-group ORPC OnDataChange (SetCallback) or the coalesced
// notification plane (EnableBatchedNotify).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "com/object.h"
#include "com/runtime.h"
#include "obs/metrics.h"
#include "opc/device.h"
#include "opc/interfaces.h"
#include "sim/timer.h"

namespace oftt::opc {

class OpcGroupObject final : public com::Object<OpcGroupObject, IOPCGroup> {
 public:
  OpcGroupObject(sim::Process& process, std::shared_ptr<Device> device, std::string name,
                 sim::SimTime update_rate);
  ~OpcGroupObject() override;

  void AddItems(const std::vector<std::string>& item_ids, ResultsHandler done) override;
  void SetDeadband(double percent, AckHandler done) override;
  void RemoveItems(const std::vector<std::string>& item_ids, AckHandler done) override;
  void SyncRead(const std::vector<std::string>& item_ids, ReadHandler done) override;
  void AsyncRead(std::uint32_t transaction, AckHandler done) override;
  void Write(const std::vector<std::pair<std::string, OpcValue>>& values,
             ResultsHandler done) override;
  void SetCallback(com::ComPtr<IOPCDataCallback> callback, AckHandler done) override;
  void SetActive(bool active, AckHandler done) override;
  void EnableBatchedNotify(const std::vector<std::string>& item_ids, int sink_node,
                           std::uint32_t sub_id, ItemIdsHandler done) override;

  const std::string& name() const { return name_; }
  std::size_t item_count() const { return items_.size(); }
  std::uint64_t notified_total() const { return notified_total_; }
  std::uint64_t suppressed_total() const { return suppressed_total_; }

 private:
  /// Per-subscribed-tag notify state: the last value/quality announced
  /// to the sink, plus the observed range for percent-deadband
  /// evaluation. `seen` false means the next change always announces
  /// (fresh subscription / re-announce after SetCallback) — the
  /// documented first-sample semantics: the first update of an item is
  /// never deadband-suppressed, and the observed range only ever widens
  /// (warms up monotonically) from the samples the group has seen.
  struct Watch {
    OpcValue value;
    Quality quality = Quality::kBad;
    bool seen = false;
    double range_min = 0.0;
    double range_max = 0.0;
    bool range_init = false;
  };

  std::vector<ItemState> read_items(const std::vector<std::string>& ids) const;
  void update_tick();
  void mark_reannounce();

  sim::Process* process_;
  std::shared_ptr<Device> device_;
  std::string name_;
  sim::SimTime update_rate_;
  bool active_ = true;
  /// Subscribed item name -> its slot in the hub subscription
  /// (lexicographic: AsyncRead and the legacy callback batches announce
  /// in name order, as the seed did). A name is one tag, so the hub
  /// sees each tag once per subscription.
  std::map<std::string, SubscriptionHub::Slot> items_;
  SubscriptionHub::SubId sub_;
  /// Notify state by subscription slot; a free slot holds a fresh Watch.
  std::vector<Watch> watch_;
  double deadband_percent_ = 0.0;
  com::ComPtr<IOPCDataCallback> callback_;
  /// Batched delivery target; batch_node_ < 0 means legacy callback.
  int batch_node_ = -1;
  std::uint32_t batch_sub_ = 0;
  std::vector<SubscriptionHub::Pending> scratch_;
  sim::PeriodicTimer update_timer_;

  std::uint64_t notified_total_ = 0;
  std::uint64_t suppressed_total_ = 0;
  std::uint64_t last_batch_key_ = ~0ull;
  obs::Gauge gauge_items_;
  obs::Counter ctr_notified_;
  obs::Counter ctr_suppressed_;
};

class OpcServerObject final
    : public com::Object<OpcServerObject, IOPCServer, IOPCBrowse> {
 public:
  OpcServerObject(sim::Process& process, std::shared_ptr<Device> device, std::string vendor);

  void GetStatus(StatusHandler done) override;
  void AddGroup(const std::string& name, sim::SimTime update_rate, GroupHandler done) override;
  void RemoveGroup(const std::string& name, AckHandler done) override;
  void BrowseItemIds(const std::string& filter, BrowseHandler done) override;

 private:
  sim::Process* process_;
  std::shared_ptr<Device> device_;
  std::string vendor_;
  sim::SimTime start_time_;
  std::map<std::string, com::ComPtr<OpcGroupObject>> groups_;
};

/// Wire an OPC server application into a process: starts the device,
/// registers the coclass for (remote) activation, and exposes it via
/// the process's ORPC endpoint. Call from the process factory.
void install_opc_server(sim::Process& process, const Clsid& clsid,
                        std::shared_ptr<Device> device, const std::string& vendor);

}  // namespace oftt::opc
