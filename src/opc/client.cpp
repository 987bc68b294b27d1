#include "opc/client.h"

#include <algorithm>

#include "common/logging.h"
#include "opc/notify.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace oftt::opc {

OpcConnection::OpcConnection(sim::Process& process, int server_node, const Clsid& clsid,
                             Config config)
    : process_(&process),
      server_node_(server_node),
      clsid_(clsid),
      config_(config),
      staleness_timer_(process.main_strand()) {
  ensure_opc_proxy_stubs_registered();
}

OpcConnection::~OpcConnection() {
  staleness_timer_.stop();
  if (notify_sub_id_ != 0) NotifyPlane::of(*process_).unregister_sink(notify_sub_id_);
}

void OpcConnection::subscribe(std::vector<std::string> items,
                              std::function<void(const std::vector<ItemState>&)> on_data) {
  items_ = std::move(items);
  on_data_ = std::move(on_data);
  subscribed_ = true;
  if (config_.staleness_timeout > 0) {
    staleness_timer_.start(config_.staleness_timeout, [this] {
      if (!connected()) return;
      sim::SimTime now = process_->sim().now();
      if (now - last_update_ >= config_.staleness_timeout) {
        OFTT_LOG_WARN("opc/client", process_->name(), ": subscription stale, reconnecting");
        fail("staleness", RPC_E_DISCONNECTED);
      }
    });
  }
  connect();
}

void OpcConnection::connect() {
  if (connecting_ || !subscribed_) return;
  connecting_ = true;
  std::uint64_t gen = ++generation_;
  server_ = nullptr;
  group_ = nullptr;

  auto& orpc = dcom::OrpcClient::of(*process_);
  orpc.activate(server_node_, clsid_, IOPCServer::iid(),
                [this, gen](HRESULT hr, const dcom::ObjectRef& ref) {
    if (gen != generation_) return;
    if (FAILED(hr)) {
      fail("activate", hr);
      return;
    }
    auto unk = dcom::OrpcClient::of(*process_).unmarshal(ref);
    server_ = unk.as<IOPCServer>();
    if (!server_) {
      fail("unmarshal", E_NOINTERFACE);
      return;
    }
    server_->AddGroup("sub", config_.update_rate, [this, gen](HRESULT hr2,
                                                              com::ComPtr<IOPCGroup> group) {
      if (gen != generation_) return;
      if (FAILED(hr2)) {
        fail("AddGroup", hr2);
        return;
      }
      group_ = std::move(group);
      group_->AddItems(items_, [this, gen](HRESULT hr3, const std::vector<HRESULT>&) {
        if (gen != generation_) return;
        if (FAILED(hr3)) {
          fail("AddItems", hr3);
          return;
        }
        if (config_.batched_notifications) {
          enable_batched(gen);
          return;
        }
        if (!sink_) {
          sink_ = DataSink::create(
              [this](std::uint32_t, const std::vector<ItemState>& items) { on_update(items); });
        }
        group_->SetCallback(com::ComPtr<IOPCDataCallback>(sink_.get()),
                            [this, gen](HRESULT hr4) {
          if (gen != generation_) return;
          if (FAILED(hr4)) {
            fail("SetCallback", hr4);
            return;
          }
          finish_subscribe(gen);
        });
      });
    });
  });
}

void OpcConnection::enable_batched(std::uint64_t gen) {
  auto& plane = NotifyPlane::of(*process_);
  if (notify_sub_id_ == 0) {
    notify_sub_id_ = plane.allocate_sub_id();
    plane.register_sink(notify_sub_id_, [this](const SubBatch& batch) { on_batch(batch); });
  }
  group_->EnableBatchedNotify(
      items_, process_->node().id(), notify_sub_id_,
      [this, gen](HRESULT hr, const std::vector<std::uint32_t>& tags) {
        if (gen != generation_) return;
        if (FAILED(hr) || tags.size() != items_.size()) {
          fail("EnableBatchedNotify", FAILED(hr) ? hr : E_UNEXPECTED);
          return;
        }
        std::vector<std::pair<TagId, std::size_t>> order;
        order.reserve(tags.size());
        for (std::size_t i = 0; i < tags.size(); ++i) {
          if (tags[i] != kInvalidTagId) order.emplace_back(tags[i], i);
        }
        std::sort(order.begin(), order.end());
        batch_tags_.clear();
        batch_names_.clear();
        for (const auto& [tag, i] : order) {
          if (!batch_tags_.empty() && batch_tags_.back() == tag) continue;  // listed twice
          batch_tags_.push_back(tag);
          batch_names_.push_back(items_[i]);
        }
        finish_subscribe(gen);
      });
}

void OpcConnection::on_batch(const SubBatch& batch) {
  // The server sends a batch in TagId order, so each lookup resumes
  // where the last one stopped, and a run of consecutive tags costs one
  // compare per item; an item out of order restarts the search.
  // batch_items_ keeps its elements: each is overwritten in place.
  std::size_t n = 0;
  std::size_t at = 0;
  for (const NotifyItem& it : batch.items) {
    if (at > 0 && batch_tags_[at - 1] >= it.tag) at = 0;
    if (at == batch_tags_.size() || batch_tags_[at] != it.tag) {
      at = static_cast<std::size_t>(
          std::lower_bound(batch_tags_.begin() + static_cast<std::ptrdiff_t>(at),
                           batch_tags_.end(), it.tag) -
          batch_tags_.begin());
      if (at == batch_tags_.size() || batch_tags_[at] != it.tag) continue;  // stale mapping
    }
    if (n == batch_items_.size()) batch_items_.emplace_back();
    ItemState& s = batch_items_[n++];
    s.item_id = batch_names_[at];
    s.value = it.value;
    s.quality = it.quality;
    s.timestamp = it.timestamp;
    ++at;
  }
  batch_items_.resize(n);
  if (n > 0) on_update(batch_items_);
}

void OpcConnection::finish_subscribe(std::uint64_t gen) {
  if (gen != generation_) return;
  connecting_ = false;
  last_update_ = process_->sim().now();
  OFTT_LOG_INFO("opc/client", process_->name(), ": subscribed to ", items_.size(),
                " items on node ", server_node_,
                config_.batched_notifications ? " (batched)" : "");
}

void OpcConnection::fail(const char* where, HRESULT hr) {
  ++failures_;
  OFTT_LOG_DEBUG("opc/client", process_->name(), ": ", where, " failed: ",
                 hresult_to_string(hr), ", retrying in ",
                 sim::to_millis(config_.retry_backoff), " ms");
  ++generation_;  // invalidate any in-flight continuation
  connecting_ = false;
  server_ = nullptr;
  group_ = nullptr;
  ++reconnects_;
  process_->main_strand().schedule_after(config_.retry_backoff, [this] { connect(); });
}

void OpcConnection::on_update(const std::vector<ItemState>& items) {
  last_update_ = process_->sim().now();
  ++updates_;
  if (on_data_) on_data_(items);
}

void OpcConnection::browse(const std::string& filter, BrowseHandler done) {
  auto& orpc = dcom::OrpcClient::of(*process_);
  orpc.activate(server_node_, clsid_, IOPCBrowse::iid(),
                [this, filter, done](HRESULT hr, const dcom::ObjectRef& ref) {
    if (FAILED(hr)) {
      if (done) done(hr, {});
      return;
    }
    auto browse = dcom::OrpcClient::of(*process_).unmarshal(ref).as<IOPCBrowse>();
    if (!browse) {
      if (done) done(E_NOINTERFACE, {});
      return;
    }
    browse->BrowseItemIds(filter, done);
  });
}

void OpcConnection::read(const std::vector<std::string>& items, ReadHandler done) {
  if (!group_) {
    if (done) done(RPC_E_DISCONNECTED, {});
    return;
  }
  group_->SyncRead(items, std::move(done));
}

void OpcConnection::write(const std::string& tag, const OpcValue& value, AckHandler done) {
  if (!group_) {
    if (done) done(E_FAIL);
    return;
  }
  group_->Write({{tag, value}}, [done](HRESULT hr, const std::vector<HRESULT>& hrs) {
    if (SUCCEEDED(hr) && !hrs.empty()) hr = hrs.front();
    if (done) done(hr);
  });
}

}  // namespace oftt::opc
