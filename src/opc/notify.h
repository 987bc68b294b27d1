// The coalesced OPC notification plane.
//
// The seed's subscription path shipped one ORPC OnDataChange call per
// (group, tick), each carrying string-keyed ItemStates — per-group
// datagrams with tag names repeated on every update. At 10⁴ clients
// that is the dominant traffic. This plane replaces it for subscribed
// data flow:
//
//  - a compact frame encoding: TagId + value + quality + timestamp per
//    item. Strings cross the wire exactly once, at AddItems /
//    EnableBatchedNotify time.
//  - coalescing: every group batch destined for the same client node in
//    the same sim tick rides ONE transport frame (scheduled flush at
//    t+0), on the kClassNotify traffic class of a reliable
//    transport::Endpoint — checkpoint-adjacent bulk traffic with its
//    own byte meter.
//  - fail-closed decode (common/codec.h): count guards sized against
//    the remaining bytes, quality and value-tag whitelists, strict
//    end-of-frame — garbage or truncation yields `false`, never a
//    partial batch (same contract as the SWIM wire frames).
//
// One NotifyPlane attaches per process (server side enqueues, client
// side registers per-subscription sinks); both halves share the single
// "opc.notify" port binding. Overload is surfaced, not absorbed: when
// the endpoint rejects a frame the batch is dropped, counted, and a
// kOpcBatchDrop event is published — subscribers re-learn state from
// the next change (OPC semantics: the current value is what matters).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "obs/metrics.h"
#include "opc/tag_store.h"
#include "opc/value.h"
#include "sim/process.h"
#include "transport/session.h"

namespace oftt::opc {

/// First payload byte of a coalesced notification frame. Chosen outside
/// every MsgKind / MqPacket / transport discriminator range.
inline constexpr std::uint8_t kNotifyFrame = 0x9E;
inline constexpr std::uint8_t kNotifyVersion = 1;

struct NotifyItem {
  TagId tag = 0;
  Quality quality = Quality::kBad;
  OpcValue value;
  sim::SimTime timestamp = 0;

  template <class V> void fields(V& v) {
    v(tag); v(quality); v(value); v(timestamp);
  }
  bool operator==(const NotifyItem&) const = default;
};

/// One group's batch within a frame, addressed by the subscription id
/// the client allocated at EnableBatchedNotify time.
struct SubBatch {
  std::uint32_t sub_id = 0;
  std::vector<NotifyItem> items;

  template <class V> void fields(V& v) {
    v(sub_id); v(items);
  }
  bool operator==(const SubBatch&) const = default;
};

struct NotifyFrame : codec::Message<NotifyFrame> {
  std::vector<SubBatch> batches;
  template <class V> void fields(V& v) {
    v.tag(kNotifyFrame); v.tag(kNotifyVersion); v(batches);
  }
};

/// Takes the batches by value: a caller done with them moves them in.
Buffer encode_notify_frame(std::vector<SubBatch> batches);
/// Fail-closed: returns false (and leaves *out empty) on any malformed,
/// truncated or trailing-garbage input.
bool decode_notify_frame(ByteView payload, std::vector<SubBatch>* out);

class NotifyPlane {
 public:
  using SinkFn = std::function<void(const SubBatch&)>;

  explicit NotifyPlane(sim::Process& process,
                       transport::SessionConfig config = default_config());
  /// Per-process singleton (first call constructs with defaults; tests
  /// that need a custom SessionConfig construct the attachment first).
  static NotifyPlane& of(sim::Process& process);

  static transport::SessionConfig default_config();

  /// Client side: allocate a subscription id unique within this plane.
  std::uint32_t allocate_sub_id() { return next_sub_id_++; }
  void register_sink(std::uint32_t sub_id, SinkFn fn) { sinks_[sub_id] = std::move(fn); }
  void unregister_sink(std::uint32_t sub_id) { sinks_.erase(sub_id); }

  /// Server side: queue a batch for `client_node`; all batches enqueued
  /// in the same tick leave as one frame on the next scheduled turn.
  void enqueue(int client_node, std::uint32_t sub_id, std::vector<NotifyItem> items);

  transport::Endpoint& endpoint() { return *ep_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_received() const { return frames_received_; }
  std::uint64_t frames_rejected() const { return frames_rejected_; }
  std::uint64_t batches_dropped() const { return batches_dropped_; }
  std::uint64_t notifications_sent() const { return notifications_sent_; }
  std::uint64_t notifications_received() const { return notifications_received_; }

 private:
  /// Server side, per client node: the frame being filled this tick.
  /// Kept across flushes, so a steady tick allocates no bookkeeping.
  struct Outbox {
    NotifyFrame frame;
    bool flush_scheduled = false;
    obs::Gauge pending_gauge;
  };

  void flush(int client_node);
  void on_frame(int src_node, ByteView payload);
  Outbox& outbox(int client_node);

  sim::Process* process_;
  std::unique_ptr<transport::Endpoint> ep_;
  std::map<int, Outbox> outboxes_;
  std::map<std::uint32_t, SinkFn> sinks_;
  /// Client side: every received frame decodes into this one, so a
  /// steady stream of frames reuses its vectors.
  NotifyFrame rx_frame_;
  std::uint32_t next_sub_id_ = 1;
  sim::SimTime started_at_ = 0;

  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
  std::uint64_t frames_rejected_ = 0;
  std::uint64_t batches_dropped_ = 0;
  std::uint64_t notifications_sent_ = 0;
  std::uint64_t notifications_received_ = 0;

  obs::Counter ctr_notifications_;
  obs::Counter ctr_bytes_;
  obs::Counter ctr_frames_;
  obs::Counter ctr_drops_;
  obs::Gauge rate_notifications_;
  obs::Gauge rate_bytes_;
  obs::Histogram hist_latency_;
};

}  // namespace oftt::opc
