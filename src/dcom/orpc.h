// ORPC-lite: the wire protocol of the simulated DCOM layer.
//
// Real DCOM frames MSRPC PDUs carrying an OBJREF; here an ObjectRef
// names (node, server port, object id, interface) and four packet kinds
// flow over the datagram network: REQUEST, RESPONSE, PING, ACTIVATE(+
// its RESPONSE reuses the same response frame). Reliability is the
// caller's problem — precisely the deficiency the paper calls out in
// §3.3 ("its RPC service does not behave well in the presence of
// failures") and which the OFTT core has to compensate for.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/guid.h"
#include "common/hresult.h"
#include "sim/time.h"

namespace oftt::dcom {

/// Marshaled object reference (OBJREF analogue).
struct ObjectRef {
  int node = -1;
  std::string port;  // ORPC endpoint of the owning process
  std::uint64_t oid = 0;
  Iid iid;

  bool valid() const { return node >= 0 && oid != 0; }
  bool operator==(const ObjectRef&) const = default;

  template <class V> void fields(V& v) {
    v(node); v(port); v(oid); v(iid);
  }

  std::string to_string() const;
};

enum class PacketKind : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
  kPing = 3,
  kActivate = 4,
};

// Each packet lists its layout once (common/codec.h); decoding is
// fail-closed, and the ping's oid count is bounded by the bytes present.
struct RequestPacket {
  std::uint64_t call_id = 0;
  std::uint64_t oid = 0;
  Iid iid;
  std::uint16_t method = 0;
  Buffer args;
  int reply_node = -1;
  std::string reply_port;
  template <class V> void fields(V& v) {
    v.tag(PacketKind::kRequest);
    v(call_id); v(oid); v(iid); v(method); v(args); v(reply_node); v(reply_port);
  }
};

struct ResponsePacket {
  std::uint64_t call_id = 0;
  HRESULT hr = S_OK;
  Buffer result;
  template <class V> void fields(V& v) {
    v.tag(PacketKind::kResponse);
    v(call_id); v(hr); v(result);
  }
};

/// Clients ping the exports they hold at this period, and servers sweep
/// for unpinged exports at the same period; both sides must agree.
inline constexpr sim::SimTime kPingPeriod = sim::seconds(2);

struct PingPacket {
  std::vector<std::uint64_t> oids;
  template <class V> void fields(V& v) {
    v.tag(PacketKind::kPing);
    v(oids);
  }
};

struct ActivatePacket {
  std::uint64_t call_id = 0;
  Clsid clsid;
  Iid iid;
  int reply_node = -1;
  std::string reply_port;
  template <class V> void fields(V& v) {
    v.tag(PacketKind::kActivate);
    v(call_id); v(clsid); v(iid); v(reply_node); v(reply_port);
  }
};

inline Buffer encode_request(const RequestPacket& p) { return codec::encode(p); }
inline Buffer encode_response(const ResponsePacket& p) { return codec::encode(p); }
inline Buffer encode_ping(const PingPacket& p) { return codec::encode(p); }
inline Buffer encode_activate(const ActivatePacket& p) { return codec::encode(p); }

/// Peek the packet kind (first byte); returns 0 on empty payload.
inline std::uint8_t packet_kind(const Buffer& payload) { return payload.empty() ? 0 : payload[0]; }

inline bool decode_request(const Buffer& b, RequestPacket& out) { return codec::decode(b, out); }
inline bool decode_response(const Buffer& b, ResponsePacket& out) { return codec::decode(b, out); }
inline bool decode_ping(const Buffer& b, PingPacket& out) { return codec::decode(b, out); }
inline bool decode_activate(const Buffer& b, ActivatePacket& out) { return codec::decode(b, out); }

}  // namespace oftt::dcom
