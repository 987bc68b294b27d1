// MSMQ-like message model and wire frames.
//
// Two planes:
//   app <-> local queue manager:  SEND / SUBSCRIBE / DELIVER / RECV-ACK
//   queue manager <-> queue manager:  XFER (store-and-forward, riding
//   the reliable transport session — see src/transport/)
//
// Express messages live in memory only; recoverable messages are
// persisted to the node's disk store and survive a reboot — the
// property the Message Diverter's "non-delivery is detected and
// retried" guarantee rests on.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "common/codec.h"
#include "sim/time.h"

namespace oftt::msmq {

enum class DeliveryMode : std::uint8_t { kExpress = 0, kRecoverable = 1 };
constexpr bool wire_valid(DeliveryMode m) { return m <= DeliveryMode::kRecoverable; }

struct Message {
  std::uint64_t id = 0;  // globally unique: (src_node << 48) | seq
  int src_node = -1;
  std::string queue;  // destination queue name
  std::string label;
  Buffer body;
  DeliveryMode mode = DeliveryMode::kExpress;
  sim::SimTime enqueued_at = 0;

  template <class V> void fields(V& v) {
    v(id); v(src_node); v(queue); v(label); v(body); v(mode); v(enqueued_at);
  }
};

enum class MqPacket : std::uint8_t {
  kSend = 1,       // app -> local QM
  kSubscribe = 2,  // app -> local QM
  kDeliver = 3,    // QM -> app
  kRecvAck = 4,    // app -> QM
  kXfer = 5,       // QM -> QM (session-delivered)
  /// Retired: QM-to-QM acknowledgement now comes from the transport
  /// session's ack watermark. Value stays reserved so old captures and
  /// the transport kind-byte pin keep their meaning.
  kXferAck = 6,
};

// Each packet lists its layout once (common/codec.h): the kind byte,
// then its fields. Decoding is whole-frame and fail-closed.

/// kSend, kDeliver and kXfer carry one whole message under their own
/// kind byte.
template <MqPacket K>
struct MessagePacket : codec::Message<MessagePacket<K>> {
  msmq::Message msg;
  template <class V> void fields(V& v) { v.tag(K); v(msg); }
};
using SendPacket = MessagePacket<MqPacket::kSend>;
using DeliverPacket = MessagePacket<MqPacket::kDeliver>;
using XferPacket = MessagePacket<MqPacket::kXfer>;

struct SubscribePacket : codec::Message<SubscribePacket> {
  std::string queue;
  std::string port;  // the subscriber's receive port on the same node
  template <class V> void fields(V& v) { v.tag(MqPacket::kSubscribe); v(queue); v(port); }
};

struct RecvAckPacket : codec::Message<RecvAckPacket> {
  std::uint64_t id = 0;
  std::string queue;
  template <class V> void fields(V& v) { v.tag(MqPacket::kRecvAck); v(id); v(queue); }
};

/// Encode `msg` as a K packet. The message moves through the packet and
/// back, so its body is not copied.
template <MqPacket K>
Buffer encode_packet(Message& msg) {
  MessagePacket<K> p;
  p.msg = std::move(msg);
  Buffer frame = p.encode();
  msg = std::move(p.msg);
  return frame;
}

/// A persisted queue (the disk blob behind every recoverable queue and
/// the outgoing transfers): a u32 count, then each recoverable message.
/// `each(visit)` calls visit(msg) for every message of the live
/// containers, so nothing is copied into a vector first.
template <class Each>
Buffer encode_queue_blob(Each each) {
  std::uint32_t count = 0;
  each([&](const Message& m) { count += m.mode == DeliveryMode::kRecoverable ? 1 : 0; });
  BinaryWriter w;
  codec::write(w, count);
  each([&](const Message& m) {
    if (m.mode == DeliveryMode::kRecoverable) codec::write(w, m);
  });
  return std::move(w).take();
}

/// Calls restore(msg) for each message of a queue blob. It reads message
/// by message, so a damaged blob still restores the messages in front
/// of the damage.
template <class Restore>
void decode_queue_blob(ByteView blob, Restore restore) {
  BinaryReader r(blob);
  std::uint32_t count = 0;
  if (!codec::read(r, count)) return;
  for (std::uint32_t i = 0; i < count; ++i) {
    Message m;
    if (!codec::read(r, m)) return;
    restore(std::move(m));
  }
}

/// Well-known queue-manager port on every node.
inline constexpr const char* kMsmqPort = "msmq";
/// Name of the local dead-letter queue.
inline constexpr const char* kDeadLetterQueue = "DEADLETTER";

}  // namespace oftt::msmq
