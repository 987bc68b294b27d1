// Proxy/stub registration — the simulated equivalent of building and
// installing the MIDL-generated proxy/stub DLLs the paper complains
// about (§3.3: "generation and installation of the DCOM server object
// proxy and stub increase extra development and configuration
// management effort"). An interface that never registered here cannot
// be marshaled: activation and interface-marshaling fail, which is the
// authentic misconfiguration failure mode.
#pragma once

#include <functional>
#include <map>
#include <mutex>

#include "com/unknown.h"
#include "common/bytes.h"
#include "dcom/orpc.h"

namespace oftt::dcom {

class OrpcClient;
class OrpcServer;

/// Server side: turns a live object into a method dispatcher. The
/// OrpcServer is passed so stubs can export interface out-params.
using StubDispatch =
    std::function<HRESULT(std::uint16_t method, BinaryReader& args, BinaryWriter& result)>;
using StubFactory =
    std::function<StubDispatch(com::ComPtr<com::IUnknown> object, OrpcServer& server)>;

/// Client side: turns an ObjectRef into a typed proxy (as IUnknown).
using ProxyFactory =
    std::function<com::ComPtr<com::IUnknown>(OrpcClient& client, const ObjectRef& ref)>;

/// Thread-safe: proxy/stub "DLL installation" happens lazily from the
/// first activation on whichever thread gets there first, and parallel
/// seed-sweep workers can race it. Registration never overwrites an
/// existing entry (first one wins), so factory pointers handed out by
/// find_* stay valid and immutable for the process lifetime (std::map
/// nodes are stable; entries are never erased).
class InterfaceRegistry {
 public:
  static InterfaceRegistry& instance();

  void register_interface(const Iid& iid, StubFactory stub, ProxyFactory proxy);

  const StubFactory* find_stub(const Iid& iid) const;
  const ProxyFactory* find_proxy(const Iid& iid) const;

 private:
  mutable std::mutex mu_;
  std::map<Iid, StubFactory> stubs_;
  std::map<Iid, ProxyFactory> proxies_;
};

/// Static registrar: place
///   OFTT_REGISTER_PROXY_STUB(IFoo, MakeFooStub, MakeFooProxy);
/// at namespace scope in the interface's proxy/stub translation unit.
struct ProxyStubRegistrar {
  ProxyStubRegistrar(const Iid& iid, StubFactory stub, ProxyFactory proxy) {
    InterfaceRegistry::instance().register_interface(iid, std::move(stub), std::move(proxy));
  }
};

#define OFTT_REGISTER_PROXY_STUB(Interface, StubFn, ProxyFn)             \
  static const ::oftt::dcom::ProxyStubRegistrar oftt_ps_reg_##Interface( \
      Interface::iid(), StubFn, ProxyFn)

}  // namespace oftt::dcom
