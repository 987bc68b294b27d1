#include "msmq/queue_manager.h"

#include "common/logging.h"
#include "common/strings.h"
#include "sim/simulation.h"

namespace oftt::msmq {
namespace {

/// Message sequence numbers are journaled as taken this many at a time.
constexpr std::uint64_t kSeqBlock = 1024;
/// A message delivered but not acknowledged for this long is requeued;
/// the sweep runs at the same period.
constexpr sim::SimTime kRedeliveryTimeout = sim::milliseconds(500);

}  // namespace

QueueManager::QueueManager(sim::Process& process)
    : process_(&process),
      port_(process.sim().port(kMsmqPort)),
      journal_(process.sim(), process.node().id(), kJournal),
      ctr_bad_packet_(process.sim().telemetry().metrics().counter("msmq.bad_packet")),
      ctr_quota_rejected_(
          process.sim().telemetry().metrics().counter("msmq.quota_rejected")),
      ctr_dead_lettered_(process.sim().telemetry().metrics().counter("msmq.dead_lettered")),
      outgoing_depth_gauge_(process.sim().telemetry().metrics().gauge(
          cat("msmq.outgoing_depth.", process.node().name()))),
      redelivery_timer_(process.main_strand()) {
  process_->bind(port_, [this](const sim::Datagram& d) { on_datagram(d); });
  transport::SessionConfig sc;
  sc.networks = {0};
  sc.rto_initial = sim::milliseconds(200);
  sc.rto_max = sim::milliseconds(500);
  sc.queue_cap = 1 << 20;  // store-and-forward: the disk is the limit
  sc.queue_policy = transport::QueuePolicy::kReject;
  ep_ = std::make_unique<transport::Endpoint>(process.main_strand(), port_, std::move(sc));
  ep_->on_deliver([this](int, int, ByteView payload) {
    XferPacket p;
    if (!XferPacket::decode(payload, p)) {
      ctr_bad_packet_.inc();
      return;
    }
    if (!handle_xfer(std::move(p.msg))) ep_->refuse();
  });
  JournalImage img = replay(journal_);
  next_seq_ = reserved_seq_ = img.next_seq;
  for (auto& [key, m] : img.local) {
    LocalQueue& q = queue_ref(key.first);
    q.seen_ids.insert(m.id);
    q.ready.push_back(std::move(m));
  }
  for (auto& [id, m] : img.outgoing) {
    outgoing_[id] = OutgoingEntry{std::move(m), process_->sim().now()};
  }
  outgoing_depth_gauge_.set(static_cast<std::int64_t>(outgoing_.size()));
  // Transfers restored from disk dispatch one tick later, so a boot
  // script's synchronous set_route() can repoint them first.
  process_->main_strand().schedule_after(sim::milliseconds(1), [this] {
    std::vector<std::uint64_t> ids;
    for (const auto& [id, e] : outgoing_) {
      if (e.dispatched_to < 0) ids.push_back(id);
    }
    for (std::uint64_t id : ids) dispatch_entry(id);
  });
  redelivery_timer_.start(kRedeliveryTimeout, [this] {
    sim::SimTime now = process_->sim().now();
    for (auto& [qname, q] : queues_) {
      bool changed = false;
      for (auto it = q.unacked.begin(); it != q.unacked.end();) {
        if (now - it->second.delivered_at >= kRedeliveryTimeout) {
          q.ready.push_back(std::move(it->second.msg));
          it = q.unacked.erase(it);
          changed = true;
        } else {
          ++it;
        }
      }
      if (changed) pump_queue(qname);
    }
  });
}

QueueManager* QueueManager::find(sim::Node& node) {
  auto proc = node.find_process("msmq");
  if (!proc || !proc->alive()) return nullptr;
  return proc->find_attachment<QueueManager>();
}

std::shared_ptr<sim::Process> QueueManager::install(sim::Node& node) {
  return node.start_process("msmq", [](sim::Process& proc) {
    proc.attachment<QueueManager>(proc);
  });
}

void QueueManager::set_route(const std::string& queue, int node) {
  if (node < 0) {
    routes_.erase(queue);
  } else {
    routes_[queue] = node;
  }
  // Chase the new destination: any outgoing transfer whose resolved
  // route no longer matches where it sits in a session gets cancelled
  // there and re-dispatched (possibly delivered locally).
  std::vector<std::uint64_t> stale;
  for (const auto& [id, e] : outgoing_) {
    if (e.msg.queue != queue) continue;
    int dest = route(e.msg.queue);
    if (dest == e.dispatched_to) continue;
    stale.push_back(id);
  }
  for (std::uint64_t id : stale) {
    OutgoingEntry& e = outgoing_[id];
    if (e.dispatched_to >= 0) ep_->cancel(e.dispatched_to, id);
    e.dispatched_to = -1;
    dispatch_entry(id);
  }
}

int QueueManager::route(const std::string& queue) const {
  auto it = routes_.find(queue);
  return it == routes_.end() ? -1 : it->second;
}

std::size_t QueueManager::local_depth(const std::string& queue) const {
  auto it = queues_.find(queue);
  return it == queues_.end() ? 0 : it->second.ready.size() + it->second.unacked.size();
}

std::size_t QueueManager::outgoing_depth() const { return outgoing_.size(); }

void QueueManager::on_datagram(const sim::Datagram& d) {
  snapshot_if_due();
  if (ep_ && ep_->handle(d)) return;
  // Any frame that does not decode whole (unknown kind, unknown delivery
  // mode, truncation, trailing bytes) is counted and dropped. Transfers
  // arrive only through the session (ep_), never as raw datagrams.
  SendPacket send;
  SubscribePacket sub;
  RecvAckPacket ack;
  bool ok = false;
  switch (static_cast<MqPacket>(d.payload.empty() ? 0 : d.payload[0])) {
    case MqPacket::kSend:
      if ((ok = codec::decode(d.payload, send))) handle_send(std::move(send.msg));
      break;
    case MqPacket::kSubscribe:
      if ((ok = codec::decode(d.payload, sub))) handle_subscribe(sub);
      break;
    case MqPacket::kRecvAck:
      if ((ok = codec::decode(d.payload, ack))) handle_recv_ack(ack);
      break;
    default: break;
  }
  if (!ok) ctr_bad_packet_.inc();
}

void QueueManager::handle_send(Message msg) {
  sim::Node& node = process_->node();
  // Assign a globally unique id: node | boot generation | sequence. The
  // sequence resumes from the journal, so a QM restarted within one
  // boot does not hand out ids its peers have already seen.
  if (next_seq_ >= reserved_seq_) {
    reserved_seq_ = next_seq_ + kSeqBlock;
    journal(QmReserve{reserved_seq_});
  }
  msg.id = (static_cast<std::uint64_t>(node.id()) << 48) |
           (static_cast<std::uint64_t>(node.boot_count() & 0xff) << 40) | next_seq_++;
  msg.src_node = node.id();
  msg.enqueued_at = process_->sim().now();

  int dest = route(msg.queue);
  if (dest < 0 || dest == node.id()) {
    accept_local(std::move(msg));
    return;
  }
  OutgoingEntry entry;
  entry.msg = std::move(msg);
  entry.first_attempt = process_->sim().now();
  std::uint64_t id = entry.msg.id;
  bool recoverable = entry.msg.mode == DeliveryMode::kRecoverable;
  if (recoverable) journal(QmEnqueue{true, entry.msg});
  outgoing_.emplace(id, std::move(entry));
  dispatch_entry(id);
  outgoing_depth_gauge_.set(static_cast<std::int64_t>(outgoing_.size()));
}

void QueueManager::dispatch_entry(std::uint64_t id) {
  auto it = outgoing_.find(id);
  if (it == outgoing_.end()) return;
  OutgoingEntry& e = it->second;
  int dest = route(e.msg.queue);
  if (dest < 0 || dest == process_->node().id()) {
    // Route points home: deliver locally, then retire the entry, so a
    // crash between the two writes leaves a duplicate, never a loss.
    Message msg = std::move(e.msg);
    bool recoverable = msg.mode == DeliveryMode::kRecoverable;
    outgoing_.erase(it);
    outgoing_depth_gauge_.set(static_cast<std::int64_t>(outgoing_.size()));
    accept_local(std::move(msg));
    if (recoverable) journal(QmRetire{true, {}, id});
    return;
  }
  if (e.dispatched_to < 0) {
    // First dispatch: arm the time-to-reach-queue deadline. The check
    // re-reads the entry, so completion or rerouting in the meantime is
    // harmless.
    sim::SimTime ttl = config_.time_to_reach_queue;
    sim::SimTime elapsed = process_->sim().now() - e.first_attempt;
    sim::SimTime delay = ttl > elapsed ? ttl - elapsed : 0;
    process_->main_strand().schedule_after(delay + sim::milliseconds(1),
                                           [this, id] { dead_letter_entry(id); });
  }
  e.dispatched_to = dest;
  ep_->send(dest, encode_packet<MqPacket::kXfer>(e.msg), /*tag=*/id,
            [this, id](std::uint64_t) { complete_entry(id); });
}

void QueueManager::complete_entry(std::uint64_t id) {
  auto it = outgoing_.find(id);
  if (it == outgoing_.end()) return;
  bool recoverable = it->second.msg.mode == DeliveryMode::kRecoverable;
  outgoing_.erase(it);
  if (recoverable) journal(QmRetire{true, {}, id});
  outgoing_depth_gauge_.set(static_cast<std::int64_t>(outgoing_.size()));
}

void QueueManager::dead_letter_entry(std::uint64_t id) {
  auto it = outgoing_.find(id);
  if (it == outgoing_.end()) return;  // delivered or rerouted home
  OutgoingEntry& e = it->second;
  if (process_->sim().now() - e.first_attempt < config_.time_to_reach_queue) return;
  OFTT_LOG_WARN("msmq", process_->node().name(), ": dead-lettering msg ", e.msg.id,
                " for queue ", e.msg.queue);
  ctr_dead_lettered_.inc();
  if (e.dispatched_to >= 0) ep_->cancel(e.dispatched_to, id);
  Message dl = std::move(e.msg);
  dl.label = cat("DLQ:", dl.queue, ":", dl.label);
  dl.queue = kDeadLetterQueue;
  bool recoverable = dl.mode == DeliveryMode::kRecoverable;
  outgoing_.erase(it);
  outgoing_depth_gauge_.set(static_cast<std::int64_t>(outgoing_.size()));
  accept_local(std::move(dl));  // enqueue before retiring, as in dispatch_entry
  if (recoverable) journal(QmRetire{true, {}, id});
}

void QueueManager::handle_subscribe(const SubscribePacket& sub) {
  const std::string& queue = sub.queue;
  LocalQueue& q = queue_ref(queue);
  q.subscriber = Subscriber{process_->node().id(), process_->sim().port(sub.port), true};
  // A fresh subscriber (e.g. restarted app) inherits unacked messages:
  // push them back for redelivery immediately.
  for (auto it = q.unacked.begin(); it != q.unacked.end();) {
    q.ready.push_back(std::move(it->second.msg));
    it = q.unacked.erase(it);
  }
  pump_queue(queue);
}

void QueueManager::handle_recv_ack(const RecvAckPacket& ack) {
  auto it = queues_.find(ack.queue);
  if (it == queues_.end()) return;
  auto u = it->second.unacked.find(ack.id);
  if (u == it->second.unacked.end()) return;
  bool recoverable = u->second.msg.mode == DeliveryMode::kRecoverable;
  it->second.unacked.erase(u);
  if (recoverable) journal(QmRetire{false, ack.queue, ack.id});
}

bool QueueManager::handle_xfer(Message msg) {
  // The session already suppressed retransmitted duplicates; this
  // message-id check catches what it cannot — the same transfer
  // re-dispatched on a different session after a reroute or a sender
  // session reset.
  LocalQueue& q = queue_ref(msg.queue);
  const std::uint64_t id = msg.id;
  if (!q.seen_ids.insert(id).second) {
    ++duplicates_dropped_;
    return true;
  }
  if (accept_local(std::move(msg))) return true;
  q.seen_ids.erase(id);  // the retransmission is taken again
  return false;
}

std::size_t QueueManager::purge(const std::string& queue) {
  auto it = queues_.find(queue);
  if (it == queues_.end()) return 0;
  LocalQueue& q = it->second;
  std::size_t n = q.ready.size() + q.unacked.size();
  const auto retire = [&](const Message& m) {
    if (m.mode == DeliveryMode::kRecoverable) journal(QmRetire{false, queue, m.id});
  };
  for (const Message& m : q.ready) retire(m);
  for (const auto& [id, inflight] : q.unacked) retire(inflight.msg);
  q.ready.clear();
  q.unacked.clear();
  return n;
}

bool QueueManager::accept_local(Message msg) {
  std::string qname = msg.queue;
  LocalQueue& q = queue_ref(qname);
  if (config_.queue_quota > 0 &&
      q.ready.size() + q.unacked.size() >= config_.queue_quota) {
    ++quota_rejections_;
    ctr_quota_rejected_.inc();
    return true;
  }
  const bool durable = msg.mode != DeliveryMode::kRecoverable || journal(QmEnqueue{false, msg});
  q.ready.push_back(std::move(msg));
  pump_queue(qname);
  return durable;
}

void QueueManager::pump_queue(const std::string& qname) {
  LocalQueue& q = queue_ref(qname);
  if (!q.subscriber.active) return;
  while (!q.ready.empty()) {
    Message msg = std::move(q.ready.front());
    q.ready.pop_front();
    Buffer frame = encode_packet<MqPacket::kDeliver>(msg);
    std::uint64_t id = msg.id;
    q.unacked.emplace(id,
                      InFlightDelivery{std::move(msg), process_->sim().now()});
    process_->send(0, process_->node().id(), q.subscriber.port, std::move(frame), port_);
  }
}

bool QueueManager::journal(const QmRecord& rec) {
  const Buffer payload = codec::encode(rec);
  if (!journal_.append(store::RecordType::kMessage, 0, 0, payload)) {
    snapshot_due_ = true;  // the snapshot carries what this record missed
    return false;
  }
  since_snapshot_ += payload.size();
  return true;
}

void QueueManager::snapshot_if_due() {
  // After a refusal, retry once the disk takes an append again.
  if (since_snapshot_ < (snapshot_due_ ? 1 : std::max(store::JournalOptions{}.segment_bytes,
                                                       snapshot_bytes_))) {
    return;
  }
  BinaryWriter w;
  codec::write(w, QmRecord{QmReserve{reserved_seq_}});
  const auto put = [&w](bool outgoing, const Message& m) {
    if (m.mode == DeliveryMode::kRecoverable) codec::write(w, QmRecord{QmEnqueue{outgoing, m}});
  };
  for (const auto& [qname, q] : queues_) {
    for (const Message& m : q.ready) put(false, m);
    for (const auto& [id, inflight] : q.unacked) put(false, inflight.msg);
  }
  for (const auto& [id, e] : outgoing_) put(true, e.msg);
  const Buffer payload = std::move(w).take();
  snapshot_due_ = !journal_.append(store::RecordType::kSnapshot, 0, 0, payload);
  if (!snapshot_due_) snapshot_bytes_ = payload.size();
  since_snapshot_ = 0;
}

QueueManager::JournalImage QueueManager::replay(const store::Journal& journal) {
  JournalImage img;
  journal.scan([&img](const store::RecordView& r) {
    if (r.type == store::RecordType::kSnapshot) img = JournalImage{};
    BinaryReader in(r.payload);
    QmRecord rec;
    while (!in.at_end() && codec::read(in, rec)) {
      if (auto* e = std::get_if<QmEnqueue>(&rec)) {
        if (e->outgoing) {
          img.outgoing[e->msg.id] = std::move(e->msg);
        } else {
          std::pair key{e->msg.queue, e->msg.id};
          img.local[std::move(key)] = std::move(e->msg);
        }
      } else if (auto* x = std::get_if<QmRetire>(&rec)) {
        if (x->outgoing) img.outgoing.erase(x->id);
        else img.local.erase({x->queue, x->id});
      } else {
        img.next_seq = std::max(img.next_seq, std::get<QmReserve>(rec).next_seq);
      }
    }
  });
  return img;
}

MsmqApi::MsmqApi(sim::Process& process)
    : process_(&process),
      recv_port_name_(cat("mqr.", process.name())),
      recv_port_(process.sim().port(recv_port_name_)),
      qm_port_(process.sim().port(kMsmqPort)) {
  process_->bind(recv_port_, [this](const sim::Datagram& d) { on_deliver(d); });
}

void MsmqApi::send(const std::string& queue, const std::string& label, Buffer body,
                   DeliveryMode mode) {
  SendPacket p;
  p.msg.queue = queue;
  p.msg.label = label;
  p.msg.body = std::move(body);
  p.msg.mode = mode;
  process_->send(0, process_->node().id(), qm_port_, p.encode(), recv_port_);
}

void MsmqApi::subscribe(const std::string& queue, std::function<void(const Message&)> handler) {
  handlers_[queue] = std::move(handler);
  process_->send(0, process_->node().id(), qm_port_,
                 SubscribePacket{{}, queue, recv_port_name_}.encode(), recv_port_);
}

void MsmqApi::on_deliver(const sim::Datagram& d) {
  DeliverPacket p;
  if (!DeliverPacket::decode(d.payload, p)) return;
  const Message& m = p.msg;
  auto it = handlers_.find(m.queue);
  if (it != handlers_.end()) {
    it->second(m);
  }
  // Ack after the handler ran to completion; a crash inside the handler
  // kills this strand before the ack is sent -> redelivery.
  process_->send(0, process_->node().id(), qm_port_, RecvAckPacket{{}, m.id, m.queue}.encode(),
                 recv_port_);
}

}  // namespace oftt::msmq
