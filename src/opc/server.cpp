#include "opc/server.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"
#include "common/strings.h"
#include "dcom/server.h"
#include "obs/event_bus.h"
#include "opc/notify.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace oftt::opc {

namespace {

/// Deterministic per-process group ordinal, so every group's metric
/// names stay unique even when each connection names its group "sub".
struct GroupOrdinals {
  std::uint64_t next = 0;
};

std::uint64_t log2_bucket(std::uint64_t v) {
  return v == 0 ? 0 : static_cast<std::uint64_t>(64 - std::countl_zero(v));
}

}  // namespace

OpcGroupObject::OpcGroupObject(sim::Process& process, std::shared_ptr<Device> device,
                               std::string name, sim::SimTime update_rate)
    : process_(&process),
      device_(std::move(device)),
      name_(std::move(name)),
      update_rate_(update_rate),
      sub_(device_->hub().add_subscription()),
      update_timer_(process.main_strand()) {
  std::uint64_t ord = process.attachment<GroupOrdinals>().next++;
  auto& metrics = process.sim().telemetry().metrics();
  std::string prefix = cat("oftt.opc.group.n", process.node().id(), ".", device_->name(),
                           ".", name_, "#", ord);
  gauge_items_ = metrics.gauge(cat(prefix, ".items"));
  ctr_notified_ = metrics.counter(cat(prefix, ".notified"));
  ctr_suppressed_ = metrics.counter(cat(prefix, ".suppressed"));
  update_timer_.start(update_rate_, [this] { update_tick(); });
}

OpcGroupObject::~OpcGroupObject() { device_->hub().remove_subscription(sub_); }

void OpcGroupObject::AddItems(const std::vector<std::string>& item_ids, ResultsHandler done) {
  std::vector<HRESULT> results;
  results.reserve(item_ids.size());
  for (const auto& id : item_ids) {
    TagId tag = device_->store().find(id);
    if (tag != kInvalidTagId) {
      auto [it, fresh] = items_.try_emplace(id, SubscriptionHub::kNoSlot);
      if (fresh) {
        it->second = device_->hub().subscribe(sub_, tag);
        if (watch_.size() <= it->second) watch_.resize(it->second + 1);
      }
      results.push_back(S_OK);
    } else {
      results.push_back(E_INVALIDARG);
    }
  }
  gauge_items_.set(static_cast<std::int64_t>(items_.size()));
  if (done) done(S_OK, results);
}

void OpcGroupObject::SetDeadband(double percent, AckHandler done) {
  if (percent < 0.0 || percent > 100.0) {
    if (done) done(E_INVALIDARG);
    return;
  }
  deadband_percent_ = percent;
  if (done) done(S_OK);
}

void OpcGroupObject::RemoveItems(const std::vector<std::string>& item_ids, AckHandler done) {
  for (const auto& id : item_ids) {
    auto it = items_.find(id);
    if (it == items_.end()) continue;
    device_->hub().unsubscribe(sub_, it->second);
    watch_[it->second] = Watch{};
    items_.erase(it);
  }
  gauge_items_.set(static_cast<std::int64_t>(items_.size()));
  if (done) done(S_OK);
}

std::vector<ItemState> OpcGroupObject::read_items(const std::vector<std::string>& ids) const {
  sim::SimTime now = process_->sim().now();
  std::vector<ItemState> out;
  out.reserve(ids.size());
  for (const auto& id : ids) out.push_back(device_->read(id, now));
  return out;
}

void OpcGroupObject::SyncRead(const std::vector<std::string>& item_ids, ReadHandler done) {
  if (done) done(S_OK, read_items(item_ids));
}

void OpcGroupObject::AsyncRead(std::uint32_t transaction, AckHandler done) {
  if (!callback_) {
    if (done) done(E_FAIL);  // no callback registered (CONNECT_E_NOCONNECTION)
    return;
  }
  if (done) done(S_OK);
  std::vector<std::string> ids;
  ids.reserve(items_.size());
  for (const auto& [id, _] : items_) ids.push_back(id);
  // Complete on a later turn, as a real async transaction would.
  auto cb = callback_;
  process_->main_strand().schedule_after(sim::microseconds(50),
                                         [this, cb, transaction, ids = std::move(ids)] {
                                           cb->OnReadComplete(transaction, S_OK, read_items(ids));
                                         });
}

void OpcGroupObject::Write(const std::vector<std::pair<std::string, OpcValue>>& values,
                           ResultsHandler done) {
  sim::SimTime now = process_->sim().now();
  std::vector<HRESULT> results;
  results.reserve(values.size());
  for (const auto& [tag, value] : values) {
    results.push_back(device_->write(tag, value, now));
  }
  if (done) done(S_OK, results);
}

void OpcGroupObject::mark_reannounce() {
  // Last-notified state is void, the observed deadband range survives
  // (the range reflects the item, not the sink).
  for (Watch& w : watch_) w.seen = false;
  device_->hub().mark_all_pending(sub_);
}

void OpcGroupObject::SetCallback(com::ComPtr<IOPCDataCallback> callback, AckHandler done) {
  callback_ = std::move(callback);
  mark_reannounce();  // re-announce everything to the new sink
  if (done) done(S_OK);
}

void OpcGroupObject::SetActive(bool active, AckHandler done) {
  active_ = active;
  if (done) done(S_OK);
}

void OpcGroupObject::EnableBatchedNotify(const std::vector<std::string>& item_ids,
                                         int sink_node, std::uint32_t sub_id,
                                         ItemIdsHandler done) {
  if (sink_node < 0) {
    if (done) done(E_INVALIDARG, {});
    return;
  }
  std::vector<std::uint32_t> tags;
  tags.reserve(item_ids.size());
  for (const auto& id : item_ids) tags.push_back(device_->store().find(id));
  batch_node_ = sink_node;
  batch_sub_ = sub_id;
  mark_reannounce();  // the new sink starts from a full announce
  if (done) done(S_OK, tags);
}

void OpcGroupObject::update_tick() {
  if (!active_ || items_.empty()) return;
  bool batched = batch_node_ >= 0;
  if (!callback_ && !batched) return;
  sim::SimTime now = process_->sim().now();
  SubscriptionHub& hub = device_->hub();
  hub.pump(now);
  hub.take_pending(sub_, scratch_);
  if (scratch_.empty()) return;

  // Values come straight from the store; a faulted device reads BAD,
  // as Device::read does. Only the legacy callback needs names.
  const TagStore& store = device_->store();
  const bool faulted = device_->faulted();
  std::vector<ItemState> changed;
  std::vector<NotifyItem> batch;
  if (batched) batch.reserve(scratch_.size());
  std::uint64_t suppressed = 0;
  for (const SubscriptionHub::Pending& p : scratch_) {
    const OpcValue value = store.value(p.tag);
    const Quality quality = faulted ? Quality::kBad : store.quality(p.tag);
    Watch& w = watch_[p.slot];
    // Track the observed range for percent-deadband evaluation. The
    // current sample joins the range *before* the suppression check
    // (seed behavior): ranges warm up monotonically, and the very
    // first change sees delta == range, which is never below any
    // deadband fraction — first change always notifies.
    const bool numeric = value.is_real() || value.is_int();
    if (numeric) {
      double v = value.as_real();
      if (!w.range_init) {
        w.range_init = true;
        w.range_min = w.range_max = v;
      } else {
        w.range_min = std::min(w.range_min, v);
        w.range_max = std::max(w.range_max, v);
      }
    }
    bool announce = !w.seen || w.quality != quality;
    if (!announce && w.value != value) {
      announce = true;
      if (deadband_percent_ > 0.0 && numeric) {
        double range = w.range_init ? w.range_max - w.range_min : 0.0;
        double delta = std::abs(value.as_real() - w.value.as_real());
        if (range > 0.0 && delta < range * deadband_percent_ / 100.0) {
          announce = false;
          ++suppressed;
        }
      }
    }
    if (announce) {
      w.seen = true;
      w.value = value;
      w.quality = quality;
      if (batched) {
        batch.emplace_back(p.tag, quality, value, store.timestamp(p.tag));
      } else {
        changed.push_back(
            ItemState{std::string(store.name(p.tag)), value, quality, store.timestamp(p.tag)});
      }
    }
  }

  std::uint64_t announced = batched ? batch.size() : changed.size();
  notified_total_ += announced;
  suppressed_total_ += suppressed;
  ctr_notified_.inc(announced);
  ctr_suppressed_.inc(suppressed);
  if (announced + suppressed > 0) {
    // Batch-shape event, rate-bounded: publish only when the log2
    // bucket pair (announced, suppressed) moves — chaos coverage sees
    // every distinct shape class without per-tick event spam.
    std::uint64_t key = (log2_bucket(announced) << 8) | log2_bucket(suppressed);
    if (key != last_batch_key_) {
      last_batch_key_ = key;
      obs::Event e;
      e.kind = obs::EventKind::kOpcBatch;
      e.node = process_->node().id();
      e.component = device_->name();
      e.unit = name_;
      e.a = announced;
      e.b = suppressed;
      process_->sim().telemetry().bus().publish(e);
    }
  }

  if (batched) {
    if (!batch.empty()) {
      // scratch_ (and therefore batch) is TagId-sorted from
      // take_pending — a deterministic compact order for the wire.
      NotifyPlane::of(*process_).enqueue(batch_node_, batch_sub_, std::move(batch));
    }
    return;
  }
  if (!changed.empty()) {
    // The seed announced in lexicographic item order (it walked a
    // std::set<std::string>); preserve that observable order.
    std::sort(changed.begin(), changed.end(),
              [](const ItemState& a, const ItemState& b) { return a.item_id < b.item_id; });
    callback_->OnDataChange(0, changed);
  }
}

OpcServerObject::OpcServerObject(sim::Process& process, std::shared_ptr<Device> device,
                                 std::string vendor)
    : process_(&process),
      device_(std::move(device)),
      vendor_(std::move(vendor)),
      start_time_(process.sim().now()) {}

void OpcServerObject::GetStatus(StatusHandler done) {
  ServerStatus s;
  s.start_time = start_time_;
  s.current_time = process_->sim().now();
  s.group_count = static_cast<std::uint32_t>(groups_.size());
  s.vendor = vendor_;
  s.running = !device_->faulted();
  if (done) done(S_OK, s);
}

void OpcServerObject::AddGroup(const std::string& name, sim::SimTime update_rate,
                               GroupHandler done) {
  if (groups_.count(name) != 0) {
    if (done) done(E_INVALIDARG, {});
    return;
  }
  auto group = OpcGroupObject::create(*process_, device_, name, update_rate);
  groups_[name] = group;
  if (done) done(S_OK, com::ComPtr<IOPCGroup>(group.get()));
}

void OpcServerObject::BrowseItemIds(const std::string& filter, BrowseHandler done) {
  std::vector<std::string> out;
  for (const auto& tag : device_->tags()) {
    if (filter.empty() || tag.find(filter) != std::string::npos) out.push_back(tag);
  }
  if (done) done(S_OK, out);
}

void OpcServerObject::RemoveGroup(const std::string& name, AckHandler done) {
  if (done) done(groups_.erase(name) > 0 ? S_OK : E_INVALIDARG);
}

void install_opc_server(sim::Process& process, const Clsid& clsid,
                        std::shared_ptr<Device> device, const std::string& vendor) {
  ensure_opc_proxy_stubs_registered();
  device->start(process.main_strand(),
                process.sim().fork_rng(device->name()));
  auto& com_rt = com::ComRuntime::of(process);
  auto factory = com::LambdaClassFactory::create(
      [proc = &process, device, vendor](com::REFIID iid, void** ppv) -> HRESULT {
        auto server = OpcServerObject::create(*proc, device, vendor);
        return server->QueryInterface(iid, ppv);
      });
  com_rt.register_class(clsid, com::ComPtr<com::IClassFactory>(factory.get()), vendor);
  dcom::OrpcServer::of(process).register_server_class(clsid, vendor);
}

}  // namespace oftt::opc
