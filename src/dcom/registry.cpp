#include "dcom/registry.h"

namespace oftt::dcom {

InterfaceRegistry& InterfaceRegistry::instance() {
  static InterfaceRegistry reg;
  return reg;
}

void InterfaceRegistry::register_interface(const Iid& iid, StubFactory stub, ProxyFactory proxy) {
  std::lock_guard<std::mutex> lock(mu_);
  // emplace, not operator[]: a concurrent (or repeated) registration of
  // the same interface must not replace the factories another thread
  // may already hold pointers to.
  stubs_.emplace(iid, std::move(stub));
  proxies_.emplace(iid, std::move(proxy));
}

const StubFactory* InterfaceRegistry::find_stub(const Iid& iid) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stubs_.find(iid);
  return it == stubs_.end() ? nullptr : &it->second;
}

const ProxyFactory* InterfaceRegistry::find_proxy(const Iid& iid) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = proxies_.find(iid);
  return it == proxies_.end() ? nullptr : &it->second;
}

}  // namespace oftt::dcom
