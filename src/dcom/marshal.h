// Interface-pointer marshaling helpers used by hand-written proxy/stub
// code: an interface argument or result crosses the wire as an
// InterfaceRef (exported on the sending side, proxied on the receiving
// side). Works symmetrically — a client marshaling a callback sink
// exports it on its own OrpcServer, exactly like DCOM.
#pragma once

#include "common/codec.h"
#include "dcom/client.h"
#include "dcom/server.h"

namespace oftt::dcom {

/// An interface pointer on the wire: a presence byte, then the
/// ObjectRef when present. A null pointer travels as absent.
struct InterfaceRef {
  ObjectRef ref;
  template <class V> void fields(V& v) { v.optional(ref, ref.valid()); }
};

/// The wire form of `obj`, exported on `server` when it is a local
/// object. A proxy re-marshals its original reference instead of
/// proxying a proxy; an object with no proxy/stub installed degrades to
/// null (logged by the server).
template <typename I>
InterfaceRef marshal_interface(OrpcServer& server, const com::ComPtr<I>& obj) {
  if (!obj) return {};
  if (auto* proxy = dynamic_cast<ProxyBase*>(obj.get())) return {proxy->ref()};
  return {server.export_object(obj.template as<com::IUnknown>(), I::iid())};
}

/// Read an InterfaceRef and proxy it; null when absent, unreadable or
/// not an I.
template <typename I>
com::ComPtr<I> unmarshal_interface(OrpcClient& client, BinaryReader& r) {
  InterfaceRef in;
  if (!codec::read(r, in)) return {};
  com::ComPtr<com::IUnknown> unk = client.unmarshal(in.ref);
  if (!unk) return {};
  return unk.template as<I>();
}

}  // namespace oftt::dcom
