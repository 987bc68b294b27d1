#include "transport/session.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "obs/event.h"
#include "obs/telemetry.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace oftt::transport {

namespace {
/// Selective-ack width: bit i acknowledges seq `cum + 2 + i` (cum + 1 is
/// by definition the missing frame, so it never needs a bit).
constexpr std::uint64_t kSackBits = 64;
constexpr std::uint8_t kFlagVoid = 0x01;
/// The retransmission timeout doubles per attempt (up to rto_max) and is
/// stretched by up to this fraction, so synchronized senders decorrelate.
constexpr double kRtoBackoff = 2.0;
constexpr double kRtoJitter = 0.1;
/// Max out-of-order frames buffered per peer; beyond this, gapped frames
/// are dropped and retransmission fills the hole.
constexpr std::size_t kReorderCap = 64;
}  // namespace

Endpoint::Endpoint(sim::Strand& strand, sim::PortId port, SessionConfig config)
    : strand_(&strand),
      process_(&strand.process()),
      port_(port),
      config_(std::move(config)),
      rng_(strand.process().sim().fork_rng(
          cat("transport:", strand.process().name(), ":", process_->sim().port_name(port_)))),
      instance_(strand.process().sim().next_epoch()) {
  if (config_.networks.empty()) config_.networks.push_back(0);
  auto& m = process_->sim().telemetry().metrics();
  ctr_data_sent_ = m.counter("transport.data_sent");
  ctr_retransmits_ = m.counter("transport.retransmits");
  ctr_dup_frames_ = m.counter("transport.duplicate_frames");
  ctr_stale_frames_ = m.counter("transport.stale_frames");
  ctr_session_resets_ = m.counter("transport.session_resets");
  gauge_inflight_bytes_ = m.gauge("transport.inflight_bytes");
  hist_rto_ms_ = m.histogram("transport.rto_ms", {1, 2, 5, 10, 25, 50, 100, 250, 500, 1000});
  hist_reorder_depth_ = m.histogram("transport.reorder_depth", {1, 2, 4, 8, 16, 32, 64});
}

Endpoint::~Endpoint() {
  // The registry outlives every endpoint (it is declared first in
  // Simulation); un-count our in-flight bytes so the gauge reflects
  // only live sessions after a process dies.
  for (const auto& [peer, ts] : tx_) {
    gauge_inflight_bytes_.add(-static_cast<std::int64_t>(ts.inflight_bytes));
  }
}

std::size_t Endpoint::inflight_bytes() const {
  std::size_t total = 0;
  for (const auto& [peer, ts] : tx_) total += ts.inflight_bytes;
  return total;
}

std::size_t Endpoint::queued_frames() const {
  std::size_t total = 0;
  for (const auto& [peer, ts] : tx_) total += ts.queue.size();
  return total;
}

std::uint64_t Endpoint::acked_tag(int peer, std::uint8_t cls) const {
  auto it = tx_.find(peer);
  if (it == tx_.end() || cls >= kTrafficClasses) return 0;
  return it->second.max_acked_by_cls[cls];
}

Endpoint::TxSession& Endpoint::tx_session(int peer) {
  auto it = tx_.find(peer);
  if (it != tx_.end()) return it->second;
  TxSession ts;
  ts.epoch = process_->sim().next_epoch();
  return tx_.emplace(peer, std::move(ts)).first->second;
}

bool Endpoint::send(int peer, Buffer payload, std::uint64_t tag, AckFn on_acked,
                    std::uint8_t cls) {
  TxSession& ts = tx_session(peer);
  if (cls >= kTrafficClasses) cls = kClassControl;
  QueuedFrame qf{std::move(payload), tag, std::move(on_acked), cls};
  // An oversized frame is admitted when it would be alone in flight —
  // otherwise nothing larger than the window could ever be sent.
  if (ts.queue.empty() &&
      (ts.inflight.empty() ||
       ts.inflight_bytes + qf.payload.size() <= config_.window_bytes)) {
    admit(peer, ts, std::move(qf));
    return true;
  }
  if (ts.queue.size() >= config_.queue_cap) {
    if (config_.queue_policy == QueuePolicy::kReject) return false;
    ts.queue.pop_front();
    ++queue_drops_;
  }
  ts.queue.push_back(std::move(qf));
  return true;
}

void Endpoint::admit(int peer, TxSession& ts, QueuedFrame qf) {
  std::uint64_t seq = ts.next_seq++;
  auto it = ts.inflight
                .emplace(seq, InflightFrame{std::move(qf.payload), qf.tag,
                                            std::move(qf.on_acked), qf.cls, 0})
                .first;
  ts.inflight_bytes += it->second.payload.size();
  class_bytes_[it->second.cls] += it->second.payload.size();
  gauge_inflight_bytes_.add(static_cast<std::int64_t>(it->second.payload.size()));
  transmit(peer, ts, seq);
}

void Endpoint::pump(int peer, TxSession& ts) {
  while (!ts.queue.empty() &&
         (ts.inflight.empty() ||
          ts.inflight_bytes + ts.queue.front().payload.size() <= config_.window_bytes)) {
    QueuedFrame qf = std::move(ts.queue.front());
    ts.queue.pop_front();
    admit(peer, ts, std::move(qf));
  }
}

void Endpoint::transmit(int peer, TxSession& ts, std::uint64_t seq) {
  auto it = ts.inflight.find(seq);
  if (it == ts.inflight.end()) return;
  InflightFrame& f = it->second;
  const DataFrame frame{{}, ts.epoch, seq, f.voided ? kFlagVoid : std::uint8_t{0}, f.payload};
  int net = config_.networks[static_cast<std::size_t>(f.attempts) % config_.networks.size()];
  process_->send(net, peer, port_, frame.encode(), port_);
  if (f.attempts == 0) {
    ++data_sent_;
    ctr_data_sent_.inc();
  } else {
    ++retransmits_;
    ctr_retransmits_.inc();
  }
  double scale = 1.0;
  for (int i = 0; i < f.attempts && scale * static_cast<double>(config_.rto_initial) <
                                        static_cast<double>(config_.rto_max);
       ++i) {
    scale *= kRtoBackoff;
  }
  double rto_ns = std::min(static_cast<double>(config_.rto_initial) * scale,
                           static_cast<double>(config_.rto_max));
  hist_rto_ms_.record(static_cast<std::int64_t>(rto_ns / 1e6));
  rto_ns *= 1.0 + kRtoJitter * rng_.next_double();
  std::uint64_t epoch = ts.epoch;
  strand_->schedule_after(static_cast<sim::SimTime>(rto_ns),
                          [this, peer, epoch, seq] { on_rto(peer, epoch, seq); });
}

void Endpoint::on_rto(int peer, std::uint64_t epoch, std::uint64_t seq) {
  auto t = tx_.find(peer);
  if (t == tx_.end() || t->second.epoch != epoch) return;
  auto it = t->second.inflight.find(seq);
  if (it == t->second.inflight.end()) return;
  if (it->second.sacked) return;  // peer holds it; a cum ack will retire it
  ++it->second.attempts;
  transmit(peer, t->second, seq);
}

bool Endpoint::handle(const sim::Datagram& d) {
  if (!is_transport_frame(d.payload)) return false;
  if (d.payload[0] == kDataFrame) {
    handle_data(d);
  } else {
    handle_ack(d);
  }
  return true;
}

void Endpoint::handle_data(const sim::Datagram& d) {
  // Delivered in place: the payload stays inside the datagram, and only
  // a frame parked in the reorder buffer is copied out.
  DataFrame frame;
  if (!DataFrame::decode(d.payload, frame) || frame.seq == 0 || frame.epoch == 0) {
    ++malformed_frames_;
    return;
  }
  const std::uint64_t epoch = frame.epoch;
  const std::uint64_t seq = frame.seq;
  const ByteView payload = frame.payload;
  const bool voided = (frame.flags & kFlagVoid) != 0;
  RxSession& rx = rx_[d.src_node];
  if (epoch < rx.epoch) {
    // A frame from a session incarnation we have moved past: the sender
    // rebooted or reset since. Never deliver; never ack (an ack would
    // carry our current epoch, meaningless to that sender).
    ++stale_frames_;
    ctr_stale_frames_.inc();
    return;
  }
  if (epoch > rx.epoch) {
    rx.epoch = epoch;
    rx.cum = 0;
    rx.reorder.clear();
  }
  if (seq <= rx.cum) {
    ++duplicate_frames_;
    ctr_dup_frames_.inc();
    send_ack(d, rx);  // our previous ack may have been lost; re-ack
    return;
  }
  if (seq == rx.cum + 1) {
    rx.cum = seq;
    // Deliver before acking: in the single-threaded sim the application
    // handler runs to completion here, so anything we acknowledge has
    // genuinely been processed (and journaled, for FTIM) by the app.
    if (!voided && deliver_) deliver_(d.src_node, d.network_id, payload);
    auto it = rx.reorder.begin();
    while (it != rx.reorder.end() && it->first == rx.cum + 1) {
      rx.cum = it->first;
      ReorderEntry e = std::move(it->second);
      it = rx.reorder.erase(it);
      if (!e.voided && deliver_) deliver_(d.src_node, d.network_id, e.payload);
    }
  } else if (rx.reorder.count(seq) != 0) {
    ++duplicate_frames_;
    ctr_dup_frames_.inc();
  } else if (rx.reorder.size() < kReorderCap) {
    rx.reorder.emplace(seq, ReorderEntry{Buffer(payload.begin(), payload.end()), voided});
    hist_reorder_depth_.record(static_cast<std::int64_t>(rx.reorder.size()));
  }
  // else: reorder buffer full — drop; retransmission refills the hole.
  send_ack(d, rx);
}

void Endpoint::send_ack(const sim::Datagram& d, const RxSession& rx) {
  AckFrame ack{{}, instance_, rx.epoch, rx.cum, 0};
  for (const auto& [seq, entry] : rx.reorder) {
    std::uint64_t off = seq - rx.cum;
    if (off >= 2 && off <= kSackBits + 1) ack.sack |= std::uint64_t{1} << (off - 2);
  }
  int net = d.network_id >= 0 ? d.network_id : config_.networks.front();
  process_->send(net, d.src_node, d.src_port ? d.src_port : port_, ack.encode(), port_);
}

void Endpoint::handle_ack(const sim::Datagram& d) {
  AckFrame ack;
  if (!AckFrame::decode(d.payload, ack) || ack.rx_instance == 0) {
    ++malformed_frames_;
    return;
  }
  auto t = tx_.find(d.src_node);
  if (t == tx_.end()) return;
  TxSession& ts = t->second;
  if (ack.tx_epoch != ts.epoch) {
    // Ack for an epoch we have already abandoned — a straggler.
    ++stale_frames_;
    ctr_stale_frames_.inc();
    return;
  }
  if (ts.peer_instance == 0) {
    ts.peer_instance = ack.rx_instance;
  } else if (ack.rx_instance != ts.peer_instance) {
    // The peer endpoint was reborn: whatever it acked in a past life is
    // gone from its memory. Renumber and re-dispatch everything
    // unacknowledged under a fresh epoch so it sees a clean stream.
    reset_session(d.src_node, ts, ack.rx_instance);
    return;
  }
  // Only cumulatively covered frames retire — a sack bit means "parked
  // in the peer's reorder buffer", which a peer reboot erases, so the
  // frame must stay re-dispatchable. Sack merely silences its
  // retransmission; the cum+1 hole is never sacked and keeps probing,
  // so a lost final ack cannot stall the session.
  for (std::uint64_t i = 0; i < kSackBits; ++i) {
    if ((ack.sack & (std::uint64_t{1} << i)) == 0) continue;
    auto it = ts.inflight.find(ack.cum + 2 + i);
    if (it != ts.inflight.end()) it->second.sacked = true;
  }
  // Collect first, retire second: an on_acked callback may re-enter
  // send()/cancel() and disturb the map mid-iteration.
  std::vector<std::uint64_t> done;
  for (const auto& [seq, f] : ts.inflight) {
    if (seq > ack.cum) break;
    done.push_back(seq);
  }
  for (std::uint64_t seq : done) {
    auto it = ts.inflight.find(seq);
    if (it != ts.inflight.end()) retire(ts, it);
  }
  pump(d.src_node, ts);
}

void Endpoint::retire(TxSession& ts, std::map<std::uint64_t, InflightFrame>::iterator it) {
  InflightFrame& f = it->second;
  ts.inflight_bytes -= f.payload.size();
  gauge_inflight_bytes_.add(-static_cast<std::int64_t>(f.payload.size()));
  if (f.tag > ts.max_acked_by_cls[f.cls] && !f.voided) ts.max_acked_by_cls[f.cls] = f.tag;
  AckFn fn = std::move(f.on_acked);
  std::uint64_t tag = f.tag;
  bool voided = f.voided;
  ts.inflight.erase(it);
  if (fn && !voided) fn(tag);
}

void Endpoint::reset_session(int peer, TxSession& ts, std::uint64_t new_peer_instance) {
  std::deque<QueuedFrame> pending;
  for (auto& [seq, f] : ts.inflight) {
    gauge_inflight_bytes_.add(-static_cast<std::int64_t>(f.payload.size()));
    if (f.voided) continue;  // a cancelled frame need not survive the reset
    pending.push_back(QueuedFrame{std::move(f.payload), f.tag, std::move(f.on_acked), f.cls});
  }
  for (auto& qf : ts.queue) pending.push_back(std::move(qf));
  ts.inflight.clear();
  ts.inflight_bytes = 0;
  ts.queue = std::move(pending);
  ts.epoch = process_->sim().next_epoch();
  ts.next_seq = 1;
  ts.peer_instance = new_peer_instance;
  ++session_resets_;
  ctr_session_resets_.inc();
  obs::Event e;
  e.kind = obs::EventKind::kSessionReset;
  e.node = process_->node().id();
  e.component = process_->name();
  e.unit = process_->sim().port_name(port_);
  e.detail = "peer incarnation changed; re-dispatching unacked frames";
  e.a = static_cast<std::uint64_t>(peer);
  e.b = ts.epoch;
  process_->sim().telemetry().bus().publish(std::move(e));
  pump(peer, ts);
}

std::size_t Endpoint::cancel(int peer, std::uint64_t tag) {
  if (tag == 0) return 0;
  auto t = tx_.find(peer);
  if (t == tx_.end()) return 0;
  TxSession& ts = t->second;
  std::size_t n = 0;
  bool any_live = false;
  for (auto& [seq, f] : ts.inflight) {
    if (f.tag == tag && !f.voided) {
      // Void in place: the sequence slot still completes (empty) so the
      // frames behind it are not stalled by a hole.
      ts.inflight_bytes -= f.payload.size();
      gauge_inflight_bytes_.add(-static_cast<std::int64_t>(f.payload.size()));
      f.payload.clear();
      f.voided = true;
      f.tag = 0;
      f.on_acked = nullptr;
      ++n;
    } else if (!f.voided) {
      any_live = true;
    }
  }
  for (auto it = ts.queue.begin(); it != ts.queue.end();) {
    if (it->tag == tag) {
      it = ts.queue.erase(it);
      ++n;
    } else {
      any_live = true;
      ++it;
    }
  }
  if (!any_live) {
    // Nothing real left: drop the whole session instead of retransmitting
    // void frames at a possibly-dead peer forever. The next send() opens
    // a fresh epoch; the peer's rx state resets on its first frame.
    tx_.erase(t);
    return n;
  }
  if (n > 0) pump(peer, ts);
  return n;
}

}  // namespace oftt::transport
