// Hand-written proxy/stub pairs for the OPC interfaces — the simulated
// equivalent of the MIDL-generated proxy/stub DLLs whose "generation and
// installation ... increase extra development and configuration
// management effort" (paper §3.3). Every marshalable interface still
// needs this kind of translation unit, written per interface, but its
// argument layouts are field lists (common/codec.h): the proxy's
// codec::encode(a, b) and the stub's codec::read(args, a, b) name the
// same fields, and a malformed argument list fails with E_INVALIDARG.
#include "com/object.h"
#include "common/codec.h"
#include "common/logging.h"
#include "dcom/marshal.h"
#include "dcom/registry.h"
#include "opc/interfaces.h"

namespace oftt::opc {
namespace {

using com::ComPtr;
using com::IUnknown;
using dcom::ObjectRef;
using dcom::OrpcClient;
using dcom::OrpcServer;
using dcom::StubDispatch;

// ---------------------------------------------------------------------
// IOPCServer
// ---------------------------------------------------------------------

class OpcServerProxy final : public com::Object<OpcServerProxy, IOPCServer>,
                             public dcom::ProxyBase {
 public:
  OpcServerProxy(OrpcClient& client, ObjectRef ref) : ProxyBase(client, std::move(ref)) {}

  void GetStatus(StatusHandler done) override {
    invoke(methods::kGetStatus, {}, [done](HRESULT hr, BinaryReader& r) {
      ServerStatus s;
      if (SUCCEEDED(hr) && !codec::read(r, s)) hr = E_UNEXPECTED;
      if (done) done(hr, s);
    });
  }

  void AddGroup(const std::string& name, sim::SimTime update_rate, GroupHandler done) override {
    OrpcClient* cl = &client();
    invoke(methods::kAddGroup, codec::encode(name, update_rate),
           [cl, done](HRESULT hr, BinaryReader& r) {
             ComPtr<IOPCGroup> group;
             if (SUCCEEDED(hr)) {
               group = dcom::unmarshal_interface<IOPCGroup>(*cl, r);
               if (!group) hr = E_UNEXPECTED;
             }
             if (done) done(hr, std::move(group));
           });
  }

  void RemoveGroup(const std::string& name, AckHandler done) override {
    invoke(methods::kRemoveGroup, codec::encode(name),
           [done](HRESULT hr, BinaryReader&) {
             if (done) done(hr);
           });
  }
};

StubDispatch make_opc_server_stub(ComPtr<IUnknown> obj, OrpcServer& server) {
  ComPtr<IOPCServer> target = obj.as<IOPCServer>();
  OrpcServer* srv = &server;
  return [target, srv](std::uint16_t method, BinaryReader& args,
                       BinaryWriter& result) -> HRESULT {
    if (!target) return E_NOINTERFACE;
    HRESULT out = E_UNEXPECTED;
    switch (method) {
      case methods::kGetStatus:
        target->GetStatus([&](HRESULT hr, const ServerStatus& s) {
          out = hr;
          if (SUCCEEDED(hr)) codec::write(result, s);
        });
        return out;
      case methods::kAddGroup: {
        std::string name;
        sim::SimTime rate = 0;
        if (!codec::read(args, name, rate)) return E_INVALIDARG;
        target->AddGroup(name, rate, [&](HRESULT hr, ComPtr<IOPCGroup> group) {
          out = hr;
          if (SUCCEEDED(hr)) codec::write(result, dcom::marshal_interface(*srv, group));
        });
        return out;
      }
      case methods::kRemoveGroup: {
        std::string name;
        if (!codec::read(args, name)) return E_INVALIDARG;
        target->RemoveGroup(name, [&](HRESULT hr) { out = hr; });
        return out;
      }
      default: return E_NOTIMPL;
    }
  };
}

// ---------------------------------------------------------------------
// IOPCGroup
// ---------------------------------------------------------------------

class OpcGroupProxy final : public com::Object<OpcGroupProxy, IOPCGroup>,
                            public dcom::ProxyBase {
 public:
  OpcGroupProxy(OrpcClient& client, ObjectRef ref) : ProxyBase(client, std::move(ref)) {}

  void AddItems(const std::vector<std::string>& item_ids, ResultsHandler done) override {
    invoke(methods::kAddItems, codec::encode(item_ids), results_handler(std::move(done)));
  }

  void SetDeadband(double percent, AckHandler done) override {
    invoke(methods::kSetDeadband, codec::encode(percent), ack_handler(std::move(done)));
  }

  void RemoveItems(const std::vector<std::string>& item_ids, AckHandler done) override {
    invoke(methods::kRemoveItems, codec::encode(item_ids), ack_handler(std::move(done)));
  }

  void SyncRead(const std::vector<std::string>& item_ids, ReadHandler done) override {
    invoke(methods::kSyncRead, codec::encode(item_ids), [done](HRESULT hr, BinaryReader& r) {
      std::vector<ItemState> items;
      if (SUCCEEDED(hr) && !codec::read(r, items)) hr = E_UNEXPECTED;
      if (done) done(hr, items);
    });
  }

  void AsyncRead(std::uint32_t transaction, AckHandler done) override {
    invoke(methods::kAsyncRead, codec::encode(transaction), ack_handler(std::move(done)));
  }

  void Write(const std::vector<std::pair<std::string, OpcValue>>& values,
             ResultsHandler done) override {
    invoke(methods::kWrite, codec::encode(values), results_handler(std::move(done)));
  }

  void SetCallback(ComPtr<IOPCDataCallback> callback, AckHandler done) override {
    // The callback lives in *this* (client) process: export it here so
    // the server can call back.
    invoke(methods::kSetCallback,
           codec::encode(dcom::marshal_interface(OrpcServer::of(client().process()), callback)),
           ack_handler(std::move(done)));
  }

  void SetActive(bool active, AckHandler done) override {
    invoke(methods::kSetActive, codec::encode(active), ack_handler(std::move(done)));
  }

  void EnableBatchedNotify(const std::vector<std::string>& item_ids, int sink_node,
                           std::uint32_t sub_id, ItemIdsHandler done) override {
    invoke(methods::kEnableBatchedNotify, codec::encode(item_ids, sink_node, sub_id),
           [done](HRESULT hr, BinaryReader& r) {
             std::vector<std::uint32_t> tags;
             if (SUCCEEDED(hr) && !codec::read(r, tags)) hr = E_UNEXPECTED;
             if (done) done(hr, tags);
           });
  }

 private:
  static OrpcClient::ResultHandler ack_handler(AckHandler done) {
    return [done = std::move(done)](HRESULT hr, BinaryReader&) {
      if (done) done(hr);
    };
  }
  static OrpcClient::ResultHandler results_handler(ResultsHandler done) {
    return [done = std::move(done)](HRESULT hr, BinaryReader& r) {
      std::vector<HRESULT> results;
      if (SUCCEEDED(hr) && !codec::read(r, results)) hr = E_UNEXPECTED;
      if (done) done(hr, results);
    };
  }
};

StubDispatch make_opc_group_stub(ComPtr<IUnknown> obj, OrpcServer& server) {
  ComPtr<IOPCGroup> target = obj.as<IOPCGroup>();
  OrpcServer* srv = &server;
  return [target, srv](std::uint16_t method, BinaryReader& args,
                       BinaryWriter& result) -> HRESULT {
    if (!target) return E_NOINTERFACE;
    HRESULT out = E_UNEXPECTED;
    switch (method) {
      case methods::kAddItems: {
        std::vector<std::string> ids;
        if (!codec::read(args, ids)) return E_INVALIDARG;
        target->AddItems(ids, [&](HRESULT hr, const std::vector<HRESULT>& hrs) {
          out = hr;
          if (SUCCEEDED(hr)) codec::write(result, hrs);
        });
        return out;
      }
      case methods::kSetDeadband: {
        double percent = 0;
        if (!codec::read(args, percent)) return E_INVALIDARG;
        target->SetDeadband(percent, [&](HRESULT hr) { out = hr; });
        return out;
      }
      case methods::kRemoveItems: {
        std::vector<std::string> ids;
        if (!codec::read(args, ids)) return E_INVALIDARG;
        target->RemoveItems(ids, [&](HRESULT hr) { out = hr; });
        return out;
      }
      case methods::kSyncRead: {
        std::vector<std::string> ids;
        if (!codec::read(args, ids)) return E_INVALIDARG;
        target->SyncRead(ids, [&](HRESULT hr, const std::vector<ItemState>& items) {
          out = hr;
          if (SUCCEEDED(hr)) codec::write(result, items);
        });
        return out;
      }
      case methods::kAsyncRead: {
        std::uint32_t transaction = 0;
        if (!codec::read(args, transaction)) return E_INVALIDARG;
        target->AsyncRead(transaction, [&](HRESULT hr) { out = hr; });
        return out;
      }
      case methods::kWrite: {
        std::vector<std::pair<std::string, OpcValue>> values;
        if (!codec::read(args, values)) return E_INVALIDARG;
        target->Write(values, [&](HRESULT hr, const std::vector<HRESULT>& hrs) {
          out = hr;
          if (SUCCEEDED(hr)) codec::write(result, hrs);
        });
        return out;
      }
      case methods::kSetCallback: {
        auto callback =
            dcom::unmarshal_interface<IOPCDataCallback>(OrpcClient::of(srv->process()), args);
        if (args.failed()) return E_INVALIDARG;
        target->SetCallback(std::move(callback), [&](HRESULT hr) { out = hr; });
        return out;
      }
      case methods::kSetActive: {
        bool active = false;
        if (!codec::read(args, active)) return E_INVALIDARG;
        target->SetActive(active, [&](HRESULT hr) { out = hr; });
        return out;
      }
      case methods::kEnableBatchedNotify: {
        std::vector<std::string> ids;
        int sink_node = -1;
        std::uint32_t sub_id = 0;
        if (!codec::read(args, ids, sink_node, sub_id)) return E_INVALIDARG;
        target->EnableBatchedNotify(
            ids, sink_node, sub_id, [&](HRESULT hr, const std::vector<std::uint32_t>& tags) {
              out = hr;
              if (SUCCEEDED(hr)) codec::write(result, tags);
            });
        return out;
      }
      default: return E_NOTIMPL;
    }
  };
}

// ---------------------------------------------------------------------
// IOPCDataCallback (one-way methods)
// ---------------------------------------------------------------------

class OpcCallbackProxy final : public com::Object<OpcCallbackProxy, IOPCDataCallback>,
                               public dcom::ProxyBase {
 public:
  OpcCallbackProxy(OrpcClient& client, ObjectRef ref) : ProxyBase(client, std::move(ref)) {}

  void OnDataChange(std::uint32_t transaction, const std::vector<ItemState>& items) override {
    invoke(methods::kOnDataChange, codec::encode(transaction, items), nullptr);
  }

  void OnReadComplete(std::uint32_t transaction, HRESULT hr,
                      const std::vector<ItemState>& items) override {
    invoke(methods::kOnReadComplete, codec::encode(transaction, hr, items), nullptr);
  }
};

StubDispatch make_opc_callback_stub(ComPtr<IUnknown> obj, OrpcServer&) {
  ComPtr<IOPCDataCallback> target = obj.as<IOPCDataCallback>();
  return [target](std::uint16_t method, BinaryReader& args, BinaryWriter&) -> HRESULT {
    if (!target) return E_NOINTERFACE;
    switch (method) {
      case methods::kOnDataChange: {
        std::uint32_t transaction = 0;
        std::vector<ItemState> items;
        if (!codec::read(args, transaction, items)) return E_INVALIDARG;
        target->OnDataChange(transaction, items);
        return S_OK;
      }
      case methods::kOnReadComplete: {
        std::uint32_t transaction = 0;
        HRESULT hr = S_OK;
        std::vector<ItemState> items;
        if (!codec::read(args, transaction, hr, items)) return E_INVALIDARG;
        target->OnReadComplete(transaction, hr, items);
        return S_OK;
      }
      default: return E_NOTIMPL;
    }
  };
}

// ---------------------------------------------------------------------
// IOPCBrowse
// ---------------------------------------------------------------------

class OpcBrowseProxy final : public com::Object<OpcBrowseProxy, IOPCBrowse>,
                             public dcom::ProxyBase {
 public:
  OpcBrowseProxy(OrpcClient& client, ObjectRef ref) : ProxyBase(client, std::move(ref)) {}

  void BrowseItemIds(const std::string& filter, BrowseHandler done) override {
    invoke(methods::kBrowseItemIds, codec::encode(filter), [done](HRESULT hr, BinaryReader& r) {
      std::vector<std::string> ids;
      if (SUCCEEDED(hr) && !codec::read(r, ids)) hr = E_UNEXPECTED;
      if (done) done(hr, ids);
    });
  }
};

StubDispatch make_opc_browse_stub(ComPtr<IUnknown> obj, OrpcServer&) {
  ComPtr<IOPCBrowse> target = obj.as<IOPCBrowse>();
  return [target](std::uint16_t method, BinaryReader& args, BinaryWriter& result) -> HRESULT {
    if (!target) return E_NOINTERFACE;
    if (method != methods::kBrowseItemIds) return E_NOTIMPL;
    std::string filter;
    if (!codec::read(args, filter)) return E_INVALIDARG;
    HRESULT out = E_UNEXPECTED;
    target->BrowseItemIds(filter, [&](HRESULT hr, const std::vector<std::string>& ids) {
      out = hr;
      if (SUCCEEDED(hr)) codec::write(result, ids);
    });
    return out;
  };
}

template <typename Proxy>
com::ComPtr<IUnknown> make_proxy(OrpcClient& client, const ObjectRef& ref) {
  auto proxy = Proxy::create(client, ref);
  return proxy.template as<IUnknown>();
}

}  // namespace

// Explicit, idempotent "proxy/stub DLL installation" — called from the
// OPC entry points (a static registrar would be dropped when nothing in
// this archive member is otherwise referenced).
void ensure_opc_proxy_stubs_registered() {
  static const bool registered = [] {
    auto& reg = dcom::InterfaceRegistry::instance();
    reg.register_interface(IOPCServer::iid(), make_opc_server_stub,
                           make_proxy<OpcServerProxy>);
    reg.register_interface(IOPCGroup::iid(), make_opc_group_stub, make_proxy<OpcGroupProxy>);
    reg.register_interface(IOPCDataCallback::iid(), make_opc_callback_stub,
                           make_proxy<OpcCallbackProxy>);
    reg.register_interface(IOPCBrowse::iid(), make_opc_browse_stub,
                           make_proxy<OpcBrowseProxy>);
    return true;
  }();
  (void)registered;
}

}  // namespace oftt::opc
