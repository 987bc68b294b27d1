// Reliable, ordered session transport over sim::Network datagrams.
//
// Before this layer existed, three subsystems each improvised reliability
// on raw datagrams: FTIM carried its own checkpoint acks plus a bounded
// stash for deltas that reordered under latency jitter, the cluster's
// view gossip simply tolerated loss, and the MSMQ queue manager ran a
// fixed 200 ms retry timer. An Endpoint subsumes all three: per-peer
// sessions with sequence numbers, cumulative + selective acks,
// retransmission with exponential backoff and jitter, a reorder buffer,
// an in-flight byte window for backpressure, and session reset keyed on
// peer incarnation so a rebooted node never sees stale frames.
//
// What deliberately does NOT ride this layer: engine heartbeats and
// probes. Failure detection must *feel* loss — a heartbeat that is
// retransmitted until it gets through would mask the very silence the
// detector exists to observe. See DESIGN.md §transport.
//
// Wire format (DataFrame and AckFrame below; the first payload byte
// discriminates, with values chosen outside every MsgKind/MqPacket range
// so handle() can cheaply reject app frames):
//   data  [u8 0xD1][u64 epoch][u64 seq][u8 flags][blob payload]
//   ack   [u8 0xD2][u64 rx_instance][u64 tx_epoch][u64 cum][u64 sack]
// flags bit 0 marks a *void* frame: a cancelled payload whose sequence
// slot must still advance the receiver's cumulative counter (otherwise a
// cancel would leave a hole that stalls everything behind it).
// `epoch` identifies one tx-session incarnation (monotonic per
// Simulation, never reused); `rx_instance` identifies the receiving
// Endpoint's lifetime, so a sender notices a peer reboot from the first
// ack the reborn peer emits and resets the session — renumbering and
// re-dispatching everything unacknowledged under a fresh epoch.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "obs/metrics.h"
#include "sim/message.h"
#include "sim/process.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace oftt::transport {

/// Frame discriminator bytes. MsgKind stops well below 0xD0 and MqPacket
/// below 0x10; wire_test pins the non-collision.
inline constexpr std::uint8_t kDataFrame = 0xD1;
inline constexpr std::uint8_t kAckFrame = 0xD2;

/// Data frame: one payload in a session's sequence space. The payload
/// decodes as a view into the arriving datagram, so delivery stays in
/// place.
struct DataFrame : codec::Message<DataFrame> {
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  std::uint8_t flags = 0;  // bit 0: void frame
  ByteView payload;
  template <class V> void fields(V& v) {
    v.tag(kDataFrame); v(epoch); v(seq); v(flags); v(payload);
  }
};

/// Ack frame: the receiver's lifetime id, the sender epoch it acks, the
/// cumulative watermark and the selective-ack bits above it.
struct AckFrame : codec::Message<AckFrame> {
  std::uint64_t rx_instance = 0;
  std::uint64_t tx_epoch = 0;
  std::uint64_t cum = 0;
  std::uint64_t sack = 0;
  template <class V> void fields(V& v) {
    v.tag(kAckFrame); v(rx_instance); v(tx_epoch); v(cum); v(sack);
  }
};

/// Cheap pre-parse test: does this payload claim to be a transport frame?
inline bool is_transport_frame(ByteView payload) {
  return !payload.empty() && (payload[0] == kDataFrame || payload[0] == kAckFrame);
}

/// Traffic classes: independent ack-watermark lanes within one session.
/// Frames of every class share the sequence space, window and queue
/// (ordering across classes is preserved — a decision shipped after a
/// checkpoint arrives after it), but acked_tag(peer, cls) tracks each
/// class separately so checkpoint progress and decision-log progress
/// never clobber each other's watermark.
inline constexpr std::uint8_t kClassControl = 0;
inline constexpr std::uint8_t kClassCheckpoint = 1;
inline constexpr std::uint8_t kClassDecision = 2;
/// Coalesced OPC data-change notification frames — checkpoint-adjacent
/// bulk traffic whose byte meter must not pollute the control lane.
inline constexpr std::uint8_t kClassNotify = 3;
inline constexpr std::uint8_t kTrafficClasses = 4;

/// What to do when the send queue (frames waiting for window space) is
/// full. kReject makes send() return false — FTIM uses that as a signal
/// to fall back to a full checkpoint. kDropOldest sheds the oldest
/// queued frame — right for gossip, where only the newest view matters.
enum class QueuePolicy { kReject, kDropOldest };

struct SessionConfig {
  /// Networks to send on; retransmissions alternate across them (the
  /// paper's dual-Ethernet trick: a retry should not trust the path
  /// that just failed).
  std::vector<int> networks;
  /// Max unacknowledged payload bytes per peer before frames queue.
  /// A frame larger than the whole window is still admitted when the
  /// session is idle, alone.
  std::size_t window_bytes = 256 * 1024;
  /// Max frames queued behind the window per peer.
  std::size_t queue_cap = 1024;
  QueuePolicy queue_policy = QueuePolicy::kReject;
  /// Retransmission timeout: doubles per attempt from rto_initial up
  /// to rto_max, then is stretched by up to 10% (uniform) so
  /// synchronized senders decorrelate.
  sim::SimTime rto_initial = sim::milliseconds(50);
  sim::SimTime rto_max = sim::milliseconds(500);
};

/// One reliable endpoint bound to (strand, port). The owner keeps the
/// datagram port bound and funnels arriving datagrams through handle();
/// non-transport traffic on the same port passes through untouched, so
/// session and raw frames can share a port during refactors.
class Endpoint {
 public:
  /// Delivery callback: exactly-once, in-order per (peer, rx lifetime).
  /// The payload is a view into the arriving datagram (or the reorder
  /// buffer), valid for the duration of the call.
  using DeliverFn = std::function<void(int src_node, int network_id, ByteView payload)>;
  /// Per-frame ack callback, invoked when the peer acknowledges the
  /// frame. `tag` is the caller's opaque id from send(). It may call
  /// send() and cancel(), even to cancel the session's last live frame.
  using AckFn = std::function<void(std::uint64_t tag)>;

  Endpoint(sim::Strand& strand, sim::PortId port, SessionConfig config);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  void on_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Feed an arriving datagram. Returns true when the datagram was a
  /// transport frame (consumed — including malformed ones, which are
  /// dropped and counted); false means "not mine, parse it yourself".
  bool handle(const sim::Datagram& d);

  /// Queue a payload for reliable in-order delivery to `peer`. Returns
  /// false only when the queue is full under QueuePolicy::kReject.
  /// `tag` (optional, non-zero) names the frame for acked_tag()/cancel();
  /// `on_acked` (optional) fires when the peer acknowledges it; `cls`
  /// picks the traffic class whose watermark the tag advances.
  bool send(int peer, Buffer payload, std::uint64_t tag = 0, AckFn on_acked = nullptr,
            std::uint8_t cls = kClassControl);

  /// Drop every queued or in-flight frame to `peer` carrying `tag`
  /// (non-zero). Queued frames are removed outright; in-flight ones are
  /// *voided* (their sequence slot still completes, empty, so later
  /// frames are not stalled). Returns how many frames were cancelled.
  /// Frames already delivered are beyond recall.
  std::size_t cancel(int peer, std::uint64_t tag);

  /// Highest tag of traffic class `cls` the peer has acknowledged (its
  /// rx has delivered it to the application). 0 until the first tagged
  /// ack. Watermark survives session resets — it reflects what the peer
  /// *processed*, which a reboot does not un-process.
  std::uint64_t acked_tag(int peer, std::uint8_t cls) const;

  /// Payload bytes admitted per traffic class (first transmissions only,
  /// not retransmits) — the governor's checkpoint/decision byte meters.
  std::uint64_t class_bytes_sent(std::uint8_t cls) const {
    return cls < kTrafficClasses ? class_bytes_[cls] : 0;
  }

  // Introspection for callers, tests and benches.
  std::uint64_t data_sent() const { return data_sent_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t duplicate_frames() const { return duplicate_frames_; }
  std::uint64_t stale_frames() const { return stale_frames_; }
  std::uint64_t session_resets() const { return session_resets_; }
  std::uint64_t malformed_frames() const { return malformed_frames_; }
  std::uint64_t queue_drops() const { return queue_drops_; }
  std::size_t inflight_bytes() const;
  std::size_t queued_frames() const;

 private:
  /// One unacked frame: queued for window space, then in flight.
  struct TxFrame {
    Buffer payload;
    std::uint64_t tag = 0;
    AckFn on_acked;
    std::uint8_t cls = kClassControl;
    int attempts = 0;
    bool voided = false;
    /// Selectively acknowledged: the peer holds it in its reorder buffer
    /// but has NOT delivered it yet. Suppresses retransmission only —
    /// the frame is retired (and its callback fired) when the peer's
    /// cumulative counter passes it, and it must survive to be
    /// re-dispatched on a session reset: a sacked-but-undelivered frame
    /// dies with the peer's reorder buffer if the peer reboots.
    bool sacked = false;
  };
  struct TxSession {
    std::uint64_t epoch = 0;
    std::uint64_t next_seq = 1;
    /// rx_instance of the peer endpoint we last heard from; 0 = unknown.
    std::uint64_t peer_instance = 0;
    /// Every unacked frame in send order. The first `in_flight` hold
    /// seqs [first_seq(), next_seq); the rest wait for window space.
    /// Seqs are handed out in order and cumulative acks retire only from
    /// the front, so the in-flight frames are one contiguous range and a
    /// seq finds its frame by index.
    std::deque<TxFrame> frames;
    std::size_t in_flight = 0;
    std::size_t inflight_bytes = 0;
    std::array<std::uint64_t, kTrafficClasses> max_acked_by_cls{};

    std::size_t queued() const { return frames.size() - in_flight; }
    std::uint64_t first_seq() const { return next_seq - in_flight; }
    /// The in-flight frame numbered `seq`; null once it has retired.
    TxFrame* frame(std::uint64_t seq) {
      const std::uint64_t i = seq - first_seq();  // wraps below the range
      return i < in_flight ? &frames[i] : nullptr;
    }
  };
  struct ReorderEntry {
    std::uint64_t seq = 0;
    Buffer payload;
    bool voided = false;
  };
  struct RxSession {
    std::uint64_t epoch = 0;
    std::uint64_t cum = 0;  // highest in-order seq delivered
    /// Frames parked above the cum + 1 hole, ascending seq; at most
    /// kReorderCap (64) entries, so a flat array.
    std::vector<ReorderEntry> reorder;
  };

  TxSession& tx_session(int peer);
  /// Transmit the oldest queued frame under the next seq.
  void admit(int peer, TxSession& ts);
  void pump(int peer, TxSession& ts);
  void transmit(int peer, TxSession& ts, std::uint64_t seq, TxFrame& f);
  void on_rto(int peer, std::uint64_t epoch, std::uint64_t seq);
  void reset_session(int peer, TxSession& ts, std::uint64_t new_peer_instance);
  void handle_data(const sim::Datagram& d);
  void handle_ack(const sim::Datagram& d);
  void send_ack(const sim::Datagram& d, const RxSession& rx);
  /// Retire the oldest in-flight frame and fire its callback. False when
  /// the callback dropped the session (cancel() of its last live frame),
  /// so `ts` must not be touched again.
  bool retire_front(int peer, TxSession& ts);

  sim::Strand* strand_;
  sim::Process* process_;
  sim::PortId port_;
  SessionConfig config_;
  sim::Rng rng_;
  /// This endpoint's lifetime id, stamped into every ack we emit.
  std::uint64_t instance_;
  DeliverFn deliver_;
  std::map<int, TxSession> tx_;
  std::map<int, RxSession> rx_;
  /// max_acked_by_cls of sessions cancel() dropped, until the next
  /// send() to that peer reopens one.
  std::map<int, std::array<std::uint64_t, kTrafficClasses>> dropped_watermarks_;
  /// Sessions cancel() has dropped; lets an ack callback's cancel() be
  /// noticed without a lookup per retired frame.
  std::uint64_t sessions_dropped_ = 0;

  std::uint64_t data_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t duplicate_frames_ = 0;
  std::uint64_t stale_frames_ = 0;
  std::uint64_t session_resets_ = 0;
  std::uint64_t malformed_frames_ = 0;
  std::uint64_t queue_drops_ = 0;
  std::array<std::uint64_t, kTrafficClasses> class_bytes_{};

  obs::Counter ctr_data_sent_;
  obs::Counter ctr_retransmits_;
  obs::Counter ctr_dup_frames_;
  obs::Counter ctr_stale_frames_;
  obs::Counter ctr_session_resets_;
  obs::Gauge gauge_inflight_bytes_;
  obs::Histogram hist_rto_ms_;
  obs::Histogram hist_reorder_depth_;
};

}  // namespace oftt::transport
