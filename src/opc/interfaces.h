// The OPC Data Access COM interfaces (v1-era shape, async-first).
//
// Methods take completion callbacks instead of synchronous out-params:
// in-process servers complete them inline, remote proxies complete them
// when the ORPC response (or timeout) arrives. This mirrors how OPC
// clients actually consume data — IOPCAsyncIO transactions answered
// through IOPCDataCallback — while keeping one signature for local and
// remote use.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "com/unknown.h"
#include "opc/value.h"

namespace oftt::opc {

struct ServerStatus {
  sim::SimTime start_time = 0;
  sim::SimTime current_time = 0;
  std::uint32_t group_count = 0;
  std::string vendor;
  bool running = false;

  template <class V> void fields(V& v) {
    v(start_time); v(current_time); v(group_count); v(vendor); v(running);
  }
};

using AckHandler = std::function<void(HRESULT)>;
using ResultsHandler = std::function<void(HRESULT, const std::vector<HRESULT>&)>;
using ReadHandler = std::function<void(HRESULT, const std::vector<ItemState>&)>;
using StatusHandler = std::function<void(HRESULT, const ServerStatus&)>;
/// EnableBatchedNotify completion: per-item dense TagIds, aligned with
/// the request's item list (kInvalidTagId slots mark unknown items).
using ItemIdsHandler = std::function<void(HRESULT, const std::vector<std::uint32_t>&)>;

/// Client-implemented sink for subscription updates and async IO
/// completions. Both methods are one-way (no response expected).
struct IOPCDataCallback : com::IUnknown {
  OFTT_COM_INTERFACE_ID(IOPCDataCallback)
  virtual void OnDataChange(std::uint32_t transaction, const std::vector<ItemState>& items) = 0;
  virtual void OnReadComplete(std::uint32_t transaction, HRESULT hr,
                              const std::vector<ItemState>& items) = 0;
};

struct IOPCGroup : com::IUnknown {
  OFTT_COM_INTERFACE_ID(IOPCGroup)
  virtual void AddItems(const std::vector<std::string>& item_ids, ResultsHandler done) = 0;
  /// OPC DA percent deadband: numeric items are only re-announced when
  /// they move more than `percent` of their observed range since the
  /// last announcement. 0 disables (every change announced).
  virtual void SetDeadband(double percent, AckHandler done) = 0;
  virtual void RemoveItems(const std::vector<std::string>& item_ids, AckHandler done) = 0;
  virtual void SyncRead(const std::vector<std::string>& item_ids, ReadHandler done) = 0;
  /// Read all items of the group; results delivered via the registered
  /// callback's OnReadComplete with this transaction id.
  virtual void AsyncRead(std::uint32_t transaction, AckHandler done) = 0;
  virtual void Write(const std::vector<std::pair<std::string, OpcValue>>& values,
                     ResultsHandler done) = 0;
  virtual void SetCallback(com::ComPtr<IOPCDataCallback> callback, AckHandler done) = 0;
  virtual void SetActive(bool active, AckHandler done) = 0;
  /// Switch the group's data delivery from per-group ORPC OnDataChange
  /// calls to the coalesced notification plane: updates for `item_ids`
  /// are batched as (TagId, value, quality, timestamp) tuples and ride
  /// one transport frame per (client node, tick) shared with every
  /// other batched group of that client. `sub_id` is the client-side
  /// demux key (NotifyPlane::allocate_sub_id). Item names cross the
  /// wire here for the last time; `done` returns the dense TagIds the
  /// frames will carry, aligned with `item_ids`.
  virtual void EnableBatchedNotify(const std::vector<std::string>& item_ids, int sink_node,
                                   std::uint32_t sub_id, ItemIdsHandler done) = 0;
};

using GroupHandler = std::function<void(HRESULT, com::ComPtr<IOPCGroup>)>;
using BrowseHandler = std::function<void(HRESULT, const std::vector<std::string>&)>;

/// Address-space browsing (the OPC browse interface): enumerate the
/// item ids the server's device exposes, optionally filtered by
/// substring. Stateless, so any server instance answers.
struct IOPCBrowse : com::IUnknown {
  OFTT_COM_INTERFACE_ID(IOPCBrowse)
  virtual void BrowseItemIds(const std::string& filter, BrowseHandler done) = 0;
};

struct IOPCServer : com::IUnknown {
  OFTT_COM_INTERFACE_ID(IOPCServer)
  virtual void GetStatus(StatusHandler done) = 0;
  virtual void AddGroup(const std::string& name, sim::SimTime update_rate, GroupHandler done) = 0;
  virtual void RemoveGroup(const std::string& name, AckHandler done) = 0;
};

// Method ordinals for the hand-written proxy/stub pairs (proxy_stub.cpp).
namespace methods {
enum OpcServerMethod : std::uint16_t { kGetStatus = 1, kAddGroup = 2, kRemoveGroup = 3 };
enum OpcGroupMethod : std::uint16_t {
  kAddItems = 1,
  kSetDeadband = 8,
  kRemoveItems = 2,
  kSyncRead = 3,
  kAsyncRead = 4,
  kWrite = 5,
  kSetCallback = 6,
  kSetActive = 7,
  kEnableBatchedNotify = 9,
};
enum OpcCallbackMethod : std::uint16_t { kOnDataChange = 1, kOnReadComplete = 2 };
enum OpcBrowseMethod : std::uint16_t { kBrowseItemIds = 1 };
}  // namespace methods

/// Install the OPC proxy/stub pairs into the interface registry
/// (idempotent). The OPC server host and OpcConnection call this; call
/// it yourself before hand-marshaling OPC interfaces.
void ensure_opc_proxy_stubs_registered();

}  // namespace oftt::opc
