// Client-side OPC conveniences: a lambda-backed IOPCDataCallback sink
// and OpcConnection, a small state machine that activates a remote OPC
// server, builds a group/items/callback subscription, and — because
// DCOM "does not behave well in the presence of failures" (§3.3) —
// watches for staleness and reconnects with backoff. This is exactly
// the compensation logic the paper says applications had to add.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "com/object.h"
#include "dcom/client.h"
#include "opc/interfaces.h"
#include "opc/tag_store.h"
#include "sim/timer.h"

namespace oftt::opc {

struct SubBatch;

class DataSink final : public com::Object<DataSink, IOPCDataCallback> {
 public:
  using DataFn = std::function<void(std::uint32_t, const std::vector<ItemState>&)>;
  using ReadFn = std::function<void(std::uint32_t, HRESULT, const std::vector<ItemState>&)>;

  DataSink(DataFn on_data, ReadFn on_read = nullptr)
      : on_data_(std::move(on_data)), on_read_(std::move(on_read)) {}

  void OnDataChange(std::uint32_t transaction, const std::vector<ItemState>& items) override {
    if (on_data_) on_data_(transaction, items);
  }
  void OnReadComplete(std::uint32_t transaction, HRESULT hr,
                      const std::vector<ItemState>& items) override {
    if (on_read_) on_read_(transaction, hr, items);
  }

 private:
  DataFn on_data_;
  ReadFn on_read_;
};

struct OpcConnectionConfig {
  sim::SimTime update_rate = sim::milliseconds(100);
  sim::SimTime retry_backoff = sim::milliseconds(500);
  /// 0 disables the staleness watchdog; otherwise reconnect when no
  /// update arrives for this long.
  sim::SimTime staleness_timeout = 0;
  /// Subscribe through the coalesced notification plane
  /// (EnableBatchedNotify) instead of a per-group ORPC callback. The
  /// observable update stream is identical; updates for all batched
  /// groups of this client arrive coalesced into one frame per tick.
  bool batched_notifications = false;
};

class OpcConnection {
 public:
  using Config = OpcConnectionConfig;

  OpcConnection(sim::Process& process, int server_node, const Clsid& clsid,
                Config config = Config());
  ~OpcConnection();

  OpcConnection(const OpcConnection&) = delete;
  OpcConnection& operator=(const OpcConnection&) = delete;

  /// Begin (and maintain) a subscription; `on_data` runs for every
  /// OnDataChange batch.
  void subscribe(std::vector<std::string> items,
                 std::function<void(const std::vector<ItemState>&)> on_data);

  /// Browse the server's address space (works even before subscribe;
  /// activates its own stateless server instance).
  void browse(const std::string& filter, BrowseHandler done);

  /// One-shot read through the live group (fails if not connected).
  void read(const std::vector<std::string>& items, ReadHandler done);
  /// Write through the live group (fails if not connected).
  void write(const std::string& tag, const OpcValue& value, AckHandler done);

  bool connected() const { return static_cast<bool>(group_); }
  std::uint64_t updates_received() const { return updates_; }
  std::uint64_t reconnects() const { return reconnects_; }
  std::uint64_t failures_seen() const { return failures_; }

 private:
  void connect();
  void fail(const char* where, HRESULT hr);
  void on_update(const std::vector<ItemState>& items);
  void finish_subscribe(std::uint64_t gen);
  void enable_batched(std::uint64_t gen);
  void on_batch(const SubBatch& batch);

  sim::Process* process_;
  int server_node_;
  Clsid clsid_;
  Config config_;
  std::uint64_t generation_ = 0;  // invalidates in-flight setup steps
  bool subscribed_ = false;
  std::vector<std::string> items_;
  std::function<void(const std::vector<ItemState>&)> on_data_;
  com::ComPtr<IOPCServer> server_;
  com::ComPtr<IOPCGroup> group_;
  com::ComPtr<DataSink> sink_;
  /// Batched mode: the NotifyPlane demux key (0 until first connect)
  /// and the TagId -> item name mapping learned from
  /// EnableBatchedNotify, as two parallel arrays sorted by TagId.
  std::uint32_t notify_sub_id_ = 0;
  std::vector<TagId> batch_tags_;
  std::vector<std::string> batch_names_;
  /// The last batch's items; reused so a batch allocates nothing.
  std::vector<ItemState> batch_items_;
  sim::SimTime last_update_ = 0;
  std::uint64_t updates_ = 0, reconnects_ = 0, failures_ = 0;
  sim::PeriodicTimer staleness_timer_;
  bool connecting_ = false;
};

}  // namespace oftt::opc
