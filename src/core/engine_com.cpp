#include "core/engine_com.h"

#include "com/object.h"
#include "com/runtime.h"
#include "dcom/client.h"
#include "dcom/marshal.h"
#include "dcom/registry.h"
#include "dcom/server.h"
#include "sim/node.h"

namespace oftt::core {
namespace {

using com::ComPtr;
using com::IUnknown;

enum EngineMethod : std::uint16_t {
  kGetStatus = 1,
  kRequestSwitchover = 2,
  kSetRecoveryRule = 3,
};

/// Server-side implementation wrapping the live Engine of its process.
class EngineComObject final : public com::Object<EngineComObject, IOFTTEngine> {
 public:
  explicit EngineComObject(sim::Process& process) : process_(&process) {}

  void GetStatus(StatusFn done) override {
    Engine* engine = engine_of();
    if (engine == nullptr) {
      if (done) done(OFTT_E_ENGINE_DOWN, {});
      return;
    }
    StatusReport sr;
    sr.unit = engine->unit();
    sr.node = process_->node().id();
    sr.role = engine->role();
    sr.incarnation = engine->incarnation();
    sr.peer_visible = engine->peer_visible();
    for (const auto& [name, c] : engine->components()) {
      sr.components.push_back(
          ComponentStatus{c.reg.component, c.state, c.restarts, c.heartbeats});
    }
    if (done) done(S_OK, sr);
  }

  void RequestSwitchover(const std::string& reason, AckFn done) override {
    Engine* engine = engine_of();
    HRESULT hr = engine ? engine->request_switchover(reason) : OFTT_E_ENGINE_DOWN;
    if (done) done(hr);
  }

  void SetRecoveryRule(const std::string& component, int max_local_restarts,
                       int switchover_on_permanent, AckFn done) override {
    Engine* engine = engine_of();
    HRESULT hr = engine ? engine->set_recovery_rule(component, max_local_restarts,
                                                    switchover_on_permanent)
                        : OFTT_E_ENGINE_DOWN;
    if (done) done(hr);
  }

 private:
  Engine* engine_of() { return process_->find_attachment<Engine>(); }
  sim::Process* process_;
};

dcom::StubDispatch make_engine_stub(ComPtr<IUnknown> obj, dcom::OrpcServer&) {
  ComPtr<IOFTTEngine> target = obj.as<IOFTTEngine>();
  return [target](std::uint16_t method, BinaryReader& args, BinaryWriter& result) -> HRESULT {
    if (!target) return E_NOINTERFACE;
    HRESULT out = E_UNEXPECTED;
    switch (method) {
      case kGetStatus:
        target->GetStatus([&](HRESULT hr, const StatusReport& sr) {
          out = hr;
          if (SUCCEEDED(hr)) codec::write(result, sr.encode());
        });
        return out;
      case kRequestSwitchover: {
        std::string reason;
        if (!codec::read(args, reason)) return E_INVALIDARG;
        target->RequestSwitchover(reason, [&](HRESULT hr) { out = hr; });
        return out;
      }
      case kSetRecoveryRule: {
        std::string component;
        int restarts = 0;
        int switchover = 0;
        if (!codec::read(args, component, restarts, switchover)) return E_INVALIDARG;
        target->SetRecoveryRule(component, restarts, switchover,
                                [&](HRESULT hr) { out = hr; });
        return out;
      }
      default: return E_NOTIMPL;
    }
  };
}

class EngineProxy final : public com::Object<EngineProxy, IOFTTEngine>,
                          public dcom::ProxyBase {
 public:
  EngineProxy(dcom::OrpcClient& client, dcom::ObjectRef ref)
      : ProxyBase(client, std::move(ref)) {}

  void GetStatus(StatusFn done) override {
    invoke(kGetStatus, {}, [done](HRESULT hr, BinaryReader& r) {
      StatusReport sr;
      ByteView blob;
      if (SUCCEEDED(hr) && !(codec::read(r, blob) && StatusReport::decode(blob, sr))) {
        hr = E_UNEXPECTED;
      }
      if (done) done(hr, sr);
    });
  }

  void RequestSwitchover(const std::string& reason, AckFn done) override {
    invoke(kRequestSwitchover, codec::encode(reason), [done](HRESULT hr, BinaryReader&) {
      if (done) done(hr);
    });
  }

  void SetRecoveryRule(const std::string& component, int max_local_restarts,
                       int switchover_on_permanent, AckFn done) override {
    invoke(kSetRecoveryRule, codec::encode(component, max_local_restarts, switchover_on_permanent),
           [done](HRESULT hr, BinaryReader&) {
             if (done) done(hr);
           });
  }
};

com::ComPtr<IUnknown> make_engine_proxy(dcom::OrpcClient& client, const dcom::ObjectRef& ref) {
  return EngineProxy::create(client, ref).as<IUnknown>();
}

}  // namespace

const Clsid& clsid_oftt_engine() {
  static const Clsid clsid = Guid::from_name("CLSID_OFTTEngine");
  return clsid;
}

void ensure_engine_proxy_stub_registered() {
  static const bool registered = [] {
    dcom::InterfaceRegistry::instance().register_interface(IOFTTEngine::iid(),
                                                           make_engine_stub,
                                                           make_engine_proxy);
    return true;
  }();
  (void)registered;
}

void install_engine_com(sim::Process& engine_process) {
  ensure_engine_proxy_stub_registered();
  auto& com_rt = com::ComRuntime::of(engine_process);
  auto factory = com::LambdaClassFactory::create(
      [proc = &engine_process](com::REFIID iid, void** ppv) -> HRESULT {
        auto obj = EngineComObject::create(*proc);
        return obj->QueryInterface(iid, ppv);
      });
  com_rt.register_class(clsid_oftt_engine(), com::ComPtr<com::IClassFactory>(factory.get()),
                        "OFTT Engine");
  dcom::OrpcServer::of(engine_process).register_server_class(clsid_oftt_engine(),
                                                             "OFTT Engine");
}

void connect_engine(sim::Process& process, int node,
                    std::function<void(HRESULT, com::ComPtr<IOFTTEngine>)> done) {
  ensure_engine_proxy_stub_registered();
  auto& orpc = dcom::OrpcClient::of(process);
  orpc.activate(node, clsid_oftt_engine(), IOFTTEngine::iid(),
                [&process, done](HRESULT hr, const dcom::ObjectRef& ref) {
                  com::ComPtr<IOFTTEngine> engine;
                  if (SUCCEEDED(hr)) {
                    engine = dcom::OrpcClient::of(process).unmarshal(ref).as<IOFTTEngine>();
                    if (!engine) hr = E_NOINTERFACE;
                  }
                  if (done) done(hr, std::move(engine));
                });
}

}  // namespace oftt::core
