#include "transport/session.h"

#include <algorithm>
#include <bit>
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
  for (const auto& [peer, ts] : tx_) total += ts.queued();
  return total;
}

std::uint64_t Endpoint::acked_tag(int peer, std::uint8_t cls) const {
  if (cls >= kTrafficClasses) return 0;
  if (auto it = tx_.find(peer); it != tx_.end()) return it->second.max_acked_by_cls[cls];
  auto kept = dropped_watermarks_.find(peer);
  return kept == dropped_watermarks_.end() ? 0 : kept->second[cls];
}

Endpoint::TxSession& Endpoint::tx_session(int peer) {
  auto it = tx_.find(peer);
  if (it != tx_.end()) return it->second;
  TxSession ts;
  ts.epoch = process_->sim().next_epoch();
  if (auto kept = dropped_watermarks_.find(peer); kept != dropped_watermarks_.end()) {
    ts.max_acked_by_cls = kept->second;
    dropped_watermarks_.erase(kept);
  }
  return tx_.emplace(peer, std::move(ts)).first->second;
}

bool Endpoint::send(int peer, Buffer payload, std::uint64_t tag, AckFn on_acked,
                    std::uint8_t cls) {
  TxSession& ts = tx_session(peer);
  if (cls >= kTrafficClasses) cls = kClassControl;
  // An oversized frame is admitted when it would be alone in flight —
  // otherwise nothing larger than the window could ever be sent.
  const bool admit_now =
      ts.queued() == 0 &&
      (ts.in_flight == 0 || ts.inflight_bytes + payload.size() <= config_.window_bytes);
  if (!admit_now && ts.queued() >= config_.queue_cap) {
    if (config_.queue_policy == QueuePolicy::kReject) return false;
    ts.frames.erase(ts.frames.begin() + static_cast<std::ptrdiff_t>(ts.in_flight));
    ++queue_drops_;
  }
  ts.frames.push_back(TxFrame{std::move(payload), tag, std::move(on_acked), cls});
  if (admit_now) admit(peer, ts);
  return true;
}

void Endpoint::admit(int peer, TxSession& ts) {
  TxFrame& f = ts.frames[ts.in_flight++];
  const std::uint64_t seq = ts.next_seq++;
  ts.inflight_bytes += f.payload.size();
  class_bytes_[f.cls] += f.payload.size();
  gauge_inflight_bytes_.add(static_cast<std::int64_t>(f.payload.size()));
  transmit(peer, ts, seq, f);
}

void Endpoint::pump(int peer, TxSession& ts) {
  while (ts.queued() > 0 &&
         (ts.in_flight == 0 ||
          ts.inflight_bytes + ts.frames[ts.in_flight].payload.size() <= config_.window_bytes)) {
    admit(peer, ts);
  }
}

void Endpoint::transmit(int peer, TxSession& ts, std::uint64_t seq, TxFrame& f) {
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
  TxFrame* f = t->second.frame(seq);
  // Retired, or sacked: the peer holds it and a cum ack will retire it.
  if (f == nullptr || f->sacked) return;
  ++f->attempts;
  transmit(peer, t->second, seq, *f);
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
    // Deliver before acking: in the single-threaded sim the application
    // handler runs to completion here, so anything we acknowledge has
    // genuinely been processed (and journaled, for FTIM) by the app.
    if (deliver(d, payload, voided)) rx.cum = seq;
  } else {
    auto at = std::lower_bound(rx.reorder.begin(), rx.reorder.end(), seq,
                               [](const ReorderEntry& e, std::uint64_t s) { return e.seq < s; });
    if (at != rx.reorder.end() && at->seq == seq) {
      ++duplicate_frames_;
      ctr_dup_frames_.inc();
    } else if (rx.reorder.size() < kReorderCap) {
      rx.reorder.insert(at, ReorderEntry{seq, Buffer(payload.begin(), payload.end()), voided});
      hist_reorder_depth_.record(static_cast<std::int64_t>(rx.reorder.size()));
    }
    // else: reorder buffer full — drop; retransmission refills the hole.
  }
  // Then the run of parked frames the hole was holding back. A parked
  // frame the callback refused stays at the head (its sender holds it
  // as sacked) and is offered again when the next frame arrives.
  std::size_t n = 0;
  for (; n < rx.reorder.size() && rx.reorder[n].seq <= rx.cum + 1; ++n) {
    const ReorderEntry& e = rx.reorder[n];
    if (e.seq <= rx.cum) continue;  // a refused frame that arrived again and was taken
    if (!deliver(d, e.payload, e.voided)) break;
    rx.cum = e.seq;
  }
  rx.reorder.erase(rx.reorder.begin(), rx.reorder.begin() + static_cast<std::ptrdiff_t>(n));
  send_ack(d, rx);
}

bool Endpoint::deliver(const sim::Datagram& d, ByteView payload, bool voided) {
  refused_ = false;
  if (!voided && deliver_) deliver_(d.src_node, d.network_id, payload);
  return !refused_;
}

void Endpoint::send_ack(const sim::Datagram& d, const RxSession& rx) {
  AckFrame ack{{}, instance_, rx.epoch, rx.cum, 0};
  // Parked frames sit at cum + 2 or above (cum + 1 is the hole); the
  // sack bits reach only to cum + 65.
  for (const ReorderEntry& e : rx.reorder) {
    const std::uint64_t off = e.seq - rx.cum;
    if (off < 2) continue;  // a refused frame waiting at the head
    if (off > kSackBits + 1) break;
    ack.sack |= std::uint64_t{1} << (off - 2);
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
  for (std::uint64_t bits = ack.sack; bits != 0; bits &= bits - 1) {
    TxFrame* f = ts.frame(ack.cum + 2 + static_cast<std::uint64_t>(std::countr_zero(bits)));
    if (f != nullptr) f->sacked = true;
  }
  // Retire the covered frames oldest first. Each callback runs before
  // the next frame retires, so what it does (send(), cancel()) is seen
  // by the frames after it; frames it admits are not covered by this ack.
  const std::uint64_t last = std::min(ack.cum, ts.next_seq - 1);
  while (ts.in_flight > 0 && ts.first_seq() <= last) {
    if (!retire_front(d.src_node, ts)) return;
  }
  pump(d.src_node, ts);
}

bool Endpoint::retire_front(int peer, TxSession& ts) {
  TxFrame f = std::move(ts.frames.front());
  ts.frames.pop_front();
  --ts.in_flight;
  ts.inflight_bytes -= f.payload.size();
  gauge_inflight_bytes_.add(-static_cast<std::int64_t>(f.payload.size()));
  if (f.voided) return true;
  if (f.tag > ts.max_acked_by_cls[f.cls]) ts.max_acked_by_cls[f.cls] = f.tag;
  if (!f.on_acked) return true;
  const std::uint64_t epoch = ts.epoch;
  const std::uint64_t dropped = sessions_dropped_;
  f.on_acked(f.tag);
  if (sessions_dropped_ == dropped) return true;
  // Some session was dropped: was it this one?
  auto t = tx_.find(peer);
  return t != tx_.end() && t->second.epoch == epoch;
}

void Endpoint::reset_session(int peer, TxSession& ts, std::uint64_t new_peer_instance) {
  // Every unacked frame queues again, in order; a cancelled frame need
  // not survive the reset.
  const auto in_flight_end = ts.frames.begin() + static_cast<std::ptrdiff_t>(ts.in_flight);
  for (auto it = ts.frames.begin(); it != in_flight_end; ++it) {
    gauge_inflight_bytes_.add(-static_cast<std::int64_t>(it->payload.size()));
    it->attempts = 0;
    it->sacked = false;
  }
  ts.frames.erase(std::remove_if(ts.frames.begin(), in_flight_end,
                                 [](const TxFrame& f) { return f.voided; }),
                  in_flight_end);
  ts.in_flight = 0;
  ts.inflight_bytes = 0;
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
  for (std::size_t i = 0; i < ts.in_flight; ++i) {
    TxFrame& f = ts.frames[i];
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
  // Queued frames are removed outright.
  const auto queued_begin = ts.frames.begin() + static_cast<std::ptrdiff_t>(ts.in_flight);
  const auto kept_end = std::remove_if(queued_begin, ts.frames.end(),
                                       [tag](const TxFrame& f) { return f.tag == tag; });
  n += static_cast<std::size_t>(ts.frames.end() - kept_end);
  if (kept_end != queued_begin) any_live = true;
  ts.frames.erase(kept_end, ts.frames.end());
  if (!any_live) {
    // Nothing real left: drop the whole session instead of retransmitting
    // void frames at a possibly-dead peer forever. The next send() opens
    // a fresh epoch; the peer's rx state resets on its first frame.
    // The ack watermarks outlive the session: they record what the
    // peer processed.
    dropped_watermarks_[peer] = ts.max_acked_by_cls;
    tx_.erase(t);
    ++sessions_dropped_;
    return n;
  }
  if (n > 0) pump(peer, ts);
  return n;
}

}  // namespace oftt::transport
