// QueueManager: the per-node MSMQ service. Runs inside its own process
// ("msmq") so middleware failure can be injected against it.
//
// Responsibilities:
//   * local queues: arrival storage, subscriber delivery with
//     redelivery until the app acks (at-least-once to the app; the
//     arrival path QM->QM is exactly-once via the transport session,
//     belt-and-braces message-id dedup on top);
//   * outgoing store-and-forward: QM-to-QM transfers ride a reliable
//     transport session (retransmission with backoff replaced the old
//     fixed-period retry sweep); a route change cancels the in-flight
//     frame and re-dispatches to the new destination (the hook the
//     Message Diverter uses to chase the current primary);
//   * dead-lettering when a message exhausts its time-to-reach-queue;
//   * persistence of recoverable messages to the node's disk.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "msmq/message.h"
#include "obs/metrics.h"
#include "sim/disk.h"
#include "sim/node.h"
#include "sim/timer.h"
#include "transport/session.h"

namespace oftt::msmq {

struct QueueManagerConfig {
  /// Per-queue quota (messages); arrivals beyond it are rejected and
  /// counted, like an MSMQ quota-full queue. 0 = unlimited.
  std::size_t queue_quota = 0;
  sim::SimTime time_to_reach_queue = sim::seconds(30);  // then dead-letter
};

class QueueManager {
 public:
  explicit QueueManager(sim::Process& process);

  /// Find the QM service on a node; null while the service is down.
  static QueueManager* find(sim::Node& node);

  /// Start the "msmq" service process on a node.
  static std::shared_ptr<sim::Process> install(sim::Node& node);

  QueueManagerConfig& config() { return config_; }

  // --- routing control plane (used by the Message Diverter) ---

  /// Route `queue` to a node's QM; -1 clears (queue becomes local).
  void set_route(const std::string& queue, int node);
  int route(const std::string& queue) const;

  // --- introspection ---
  std::size_t local_depth(const std::string& queue) const;
  std::size_t outgoing_depth() const;
  std::size_t dead_letter_count() const { return local_depth(kDeadLetterQueue); }
  /// Total QM-to-QM frame transmissions (first sends + retransmits).
  std::uint64_t transmits() const { return ep_->data_sent() + ep_->retransmits(); }
  /// Retransmissions the session layer performed on our behalf.
  std::uint64_t retries() const { return ep_->retransmits(); }
  /// Transfers suppressed as duplicates: by the session's sequence check
  /// (lost acks) plus the message-id dedup (session resets, reroutes).
  std::uint64_t duplicates_dropped() const {
    return duplicates_dropped_ + ep_->duplicate_frames();
  }
  std::uint64_t quota_rejections() const { return quota_rejections_; }

  /// Administrative purge of a local queue; returns messages removed.
  std::size_t purge(const std::string& queue);

 private:
  friend class MsmqApi;

  struct Subscriber {
    int node = -1;          // always local node; kept for clarity
    sim::PortId port;       // app-side delivery port
    bool active = false;
  };
  struct InFlightDelivery {
    Message msg;
    sim::SimTime delivered_at;
  };
  struct LocalQueue {
    std::deque<Message> ready;
    std::map<std::uint64_t, InFlightDelivery> unacked;  // delivery tag = msg id
    Subscriber subscriber;
    std::set<std::uint64_t> seen_ids;  // dedup of QM->QM transfers
  };
  struct OutgoingEntry {
    Message msg;
    sim::SimTime first_attempt = 0;
    /// Node the transfer is currently dispatched to on the session
    /// (tagged with the message id); -1 = not dispatched yet.
    int dispatched_to = -1;
  };

  void on_datagram(const sim::Datagram& d);
  void handle_send(Message msg);
  void handle_subscribe(const SubscribePacket& sub);
  void handle_recv_ack(const RecvAckPacket& ack);
  void handle_xfer(Message msg);

  void accept_local(Message msg);
  void pump_queue(const std::string& queue);
  /// Resolve the route and hand the transfer to the session (or deliver
  /// locally when the route points home). Arms the TTL dead-letter
  /// deadline on first dispatch.
  void dispatch_entry(std::uint64_t id);
  /// Peer acked the transfer: the entry's job is done.
  void complete_entry(std::uint64_t id);
  void dead_letter_entry(std::uint64_t id);
  void persist_queue(const std::string& queue);
  void persist_outgoing();
  void restore_from_disk();
  LocalQueue& queue_ref(const std::string& queue) { return queues_[queue]; }

  sim::Process* process_;
  sim::PortId port_;  // kMsmqPort
  QueueManagerConfig config_;
  std::map<std::string, LocalQueue> queues_;
  std::map<std::uint64_t, OutgoingEntry> outgoing_;  // by message id
  std::map<std::string, int> routes_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t duplicates_dropped_ = 0;
  std::uint64_t quota_rejections_ = 0;
  /// Reliable QM-to-QM sessions: transfers are tagged with the message
  /// id so a route change can cancel the in-flight frame by id and the
  /// ack callback can retire exactly the right outgoing entry.
  std::unique_ptr<transport::Endpoint> ep_;
  // Pre-resolved metric handles (shared cells across all QM instances);
  // the outgoing-depth gauge is per-process state.
  obs::Counter ctr_bad_packet_;
  obs::Counter ctr_quota_rejected_;
  obs::Counter ctr_dead_lettered_;
  obs::Gauge outgoing_depth_gauge_;
  sim::PeriodicTimer redelivery_timer_;
};

/// Per-application MSMQ client library (attachment on the app process).
class MsmqApi {
 public:
  explicit MsmqApi(sim::Process& process);

  static MsmqApi& of(sim::Process& process) { return process.attachment<MsmqApi>(process); }

  /// Enqueue for the (possibly remote, diverter-routed) queue.
  void send(const std::string& queue, const std::string& label, Buffer body,
            DeliveryMode mode = DeliveryMode::kRecoverable);

  /// Receive pushed messages from the named local queue. The handler
  /// runs on the app's main strand; the receive is acked after the
  /// handler returns (so a crash mid-handler causes redelivery).
  void subscribe(const std::string& queue, std::function<void(const Message&)> handler);

 private:
  void on_deliver(const sim::Datagram& d);

  sim::Process* process_;
  std::string recv_port_name_;  // sent in kSubscribe
  sim::PortId recv_port_;
  sim::PortId qm_port_;  // kMsmqPort
  std::map<std::string, std::function<void(const Message&)>> handlers_;
};

}  // namespace oftt::msmq
