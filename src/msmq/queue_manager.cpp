#include "msmq/queue_manager.h"

#include "common/logging.h"
#include "common/strings.h"
#include "sim/simulation.h"

namespace oftt::msmq {
namespace {

constexpr const char* kQueuePersistPrefix = "mq.q.";
constexpr const char* kOutgoingPersistKey = "mq.out";
/// A message delivered but not acknowledged for this long is requeued;
/// the sweep runs at the same period.
constexpr sim::SimTime kRedeliveryTimeout = sim::milliseconds(500);

}  // namespace

QueueManager::QueueManager(sim::Process& process)
    : process_(&process),
      port_(process.sim().port(kMsmqPort)),
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
    handle_xfer(std::move(p.msg));
  });
  restore_from_disk();
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
  // Assign a globally unique id: node | boot generation | sequence.
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
  outgoing_.emplace(id, std::move(entry));
  if (recoverable) persist_outgoing();
  dispatch_entry(id);
  outgoing_depth_gauge_.set(static_cast<std::int64_t>(outgoing_.size()));
}

void QueueManager::dispatch_entry(std::uint64_t id) {
  auto it = outgoing_.find(id);
  if (it == outgoing_.end()) return;
  OutgoingEntry& e = it->second;
  int dest = route(e.msg.queue);
  if (dest < 0 || dest == process_->node().id()) {
    // Route points home: deliver locally and retire the entry.
    Message msg = std::move(e.msg);
    bool recoverable = msg.mode == DeliveryMode::kRecoverable;
    outgoing_.erase(it);
    if (recoverable) persist_outgoing();
    outgoing_depth_gauge_.set(static_cast<std::int64_t>(outgoing_.size()));
    accept_local(std::move(msg));
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
  if (recoverable) persist_outgoing();
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
  outgoing_.erase(it);
  persist_outgoing();
  outgoing_depth_gauge_.set(static_cast<std::int64_t>(outgoing_.size()));
  accept_local(std::move(dl));
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
  if (it->second.unacked.erase(ack.id) > 0) {
    persist_queue(ack.queue);
  }
}

void QueueManager::handle_xfer(Message msg) {
  // The session already suppressed retransmitted duplicates; this
  // message-id check catches what it cannot — the same transfer
  // re-dispatched on a different session after a reroute or a sender
  // session reset.
  LocalQueue& q = queue_ref(msg.queue);
  if (!q.seen_ids.insert(msg.id).second) {
    ++duplicates_dropped_;
    return;
  }
  accept_local(std::move(msg));
}

std::size_t QueueManager::purge(const std::string& queue) {
  auto it = queues_.find(queue);
  if (it == queues_.end()) return 0;
  std::size_t n = it->second.ready.size() + it->second.unacked.size();
  it->second.ready.clear();
  it->second.unacked.clear();
  persist_queue(queue);
  return n;
}

void QueueManager::accept_local(Message msg) {
  std::string qname = msg.queue;
  LocalQueue& q = queue_ref(qname);
  if (config_.queue_quota > 0 &&
      q.ready.size() + q.unacked.size() >= config_.queue_quota) {
    ++quota_rejections_;
    ctr_quota_rejected_.inc();
    return;
  }
  q.ready.push_back(std::move(msg));
  if (q.ready.back().mode == DeliveryMode::kRecoverable) persist_queue(qname);
  pump_queue(qname);
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

void QueueManager::persist_queue(const std::string& qname) {
  auto it = queues_.find(qname);
  if (it == queues_.end()) return;
  const LocalQueue& q = it->second;
  Buffer blob = encode_queue_blob([&](auto visit) {
    for (const Message& m : q.ready) visit(m);
    for (const auto& [_, inflight] : q.unacked) visit(inflight.msg);
  });
  sim::DiskStore::of(process_->sim())
      .write(process_->node().id(), cat(kQueuePersistPrefix, qname), std::move(blob));
}

void QueueManager::persist_outgoing() {
  Buffer blob = encode_queue_blob([&](auto visit) {
    for (const auto& [_, e] : outgoing_) visit(e.msg);
  });
  sim::DiskStore::of(process_->sim())
      .write(process_->node().id(), kOutgoingPersistKey, std::move(blob));
}

void QueueManager::restore_from_disk() {
  auto& disk = sim::DiskStore::of(process_->sim());
  int node = process_->node().id();
  for (const auto& key : disk.keys_with_prefix(node, kQueuePersistPrefix)) {
    auto blob = disk.read(node, key);
    if (!blob) continue;
    decode_queue_blob(*blob, [&](Message m) {
      LocalQueue& q = queue_ref(m.queue);
      q.seen_ids.insert(m.id);
      q.ready.push_back(std::move(m));
    });
  }
  if (auto blob = disk.read(node, kOutgoingPersistKey)) {
    decode_queue_blob(*blob, [&](Message m) {
      OutgoingEntry e;
      e.first_attempt = process_->sim().now();
      e.msg = std::move(m);
      outgoing_.emplace(e.msg.id, std::move(e));
    });
    outgoing_depth_gauge_.set(static_cast<std::int64_t>(outgoing_.size()));
  }
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
