// Datagram: the unit of network delivery. All higher protocols (ORPC,
// MSMQ, OFTT heartbeats and checkpoints) are framed inside datagram
// payloads. Delivery is best-effort — loss, partition and node death
// silently drop datagrams, and reliability is the *protocol's* problem,
// exactly as on the paper's Ethernet.
#pragma once

#include <cstdint>
#include <functional>

#include "common/bytes.h"

namespace oftt::sim {

/// An interned datagram port name (Simulation::port). Senders and
/// binders resolve their names once, at construction or bind time, so a
/// datagram carries two integers instead of two strings and a delivery
/// is an integer compare. Ids are opaque: only equality means anything.
/// Their numbering follows interning order, which under the parallel
/// engine depends on how workers interleave, so no history may depend
/// on an id's value. The default id is the unnamed port "".
class PortId {
 public:
  constexpr PortId() = default;
  constexpr explicit PortId(std::uint32_t v) : v_(v) {}
  constexpr std::uint32_t value() const { return v_; }
  /// False for the unnamed port.
  constexpr explicit operator bool() const { return v_ != 0; }
  friend constexpr bool operator==(PortId, PortId) = default;

 private:
  std::uint32_t v_ = 0;
};

struct Datagram {
  int network_id = -1;
  int src_node = -1;
  PortId src_port;
  int dst_node = -1;
  PortId dst_port;
  Buffer payload;
};

using MessageHandler = std::function<void(const Datagram&)>;

}  // namespace oftt::sim
