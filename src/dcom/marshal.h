// Interface-pointer marshaling helpers used by hand-written proxy/stub
// code: an interface argument or result crosses the wire as an
// ObjectRef (exported on the sending side, proxied on the receiving
// side). Works symmetrically — a client marshaling a callback sink
// exports it on its own OrpcServer, exactly like DCOM.
#pragma once

#include "dcom/client.h"
#include "dcom/server.h"

namespace oftt::dcom {

template <typename I>
void marshal_interface(OrpcServer& server, BinaryWriter& w, const com::ComPtr<I>& obj) {
  if (!obj) {
    w.u8(0);
    return;
  }
  // If the object is itself a proxy, re-marshal its original reference
  // instead of proxying a proxy.
  if (auto* proxy = dynamic_cast<ProxyBase*>(obj.get())) {
    w.u8(1);
    codec::write(w, proxy->ref());
    return;
  }
  com::ComPtr<com::IUnknown> unk = obj.template as<com::IUnknown>();
  ObjectRef ref = server.export_object(unk, I::iid());
  if (!ref.valid()) {
    w.u8(0);  // no proxy/stub installed; degrade to null (logged by server)
    return;
  }
  w.u8(1);
  codec::write(w, ref);
}

template <typename I>
com::ComPtr<I> unmarshal_interface(OrpcClient& client, BinaryReader& r) {
  if (r.u8() == 0) return {};
  ObjectRef ref;
  if (!codec::read(r, ref)) return {};
  com::ComPtr<com::IUnknown> unk = client.unmarshal(ref);
  if (!unk) return {};
  return unk.template as<I>();
}

}  // namespace oftt::dcom
