// The Message Diverter (§2.2.3): lets the primary/backup pair appear as
// one logical unit to external non-replicated sources. Built on MSMQ —
// the diverter tracks which node is primary (role subscriptions to both
// engines) and keeps the local queue manager's route for the unit's
// logical queue pointed at it; MSMQ's store-and-forward retry then
// guarantees that "if a message is sent during a switchover, the
// message non-delivery is detected and retried".
#pragma once

#include <string>
#include <tuple>
#include <vector>

#include "core/config.h"
#include "core/wire.h"
#include "msmq/queue_manager.h"
#include "sim/timer.h"
#include "store/journal.h"

namespace oftt::core {

struct DiverterOptions {
  std::string unit;
  std::string queue;  // logical queue the unit's application consumes
  int node_a = -1;
  int node_b = -1;
  /// Cluster mode: every replica's node id. When non-empty this takes
  /// precedence over node_a/node_b — the diverter subscribes to every
  /// member's engine, since any of them can become primary.
  std::vector<int> nodes;
};

/// The send journal's record (store::RecordType::kMessage): one
/// recoverable send, replayed through the local QM after a restart. The
/// body is a view into the caller's buffer when encoding and into the
/// record when decoding.
struct JournaledSend : codec::Message<JournaledSend> {
  std::string label;
  ByteView body;
  msmq::DeliveryMode mode = msmq::DeliveryMode::kRecoverable;
  template <class V> void fields(V& v) { v(label); v(body); v(mode); }
};

class MessageDiverter {
 public:
  MessageDiverter(sim::Process& process, DiverterOptions options);

  /// Send a message to the logical unit (current primary).
  void send(const std::string& label, Buffer body,
            msmq::DeliveryMode mode = msmq::DeliveryMode::kRecoverable);

  int current_primary() const { return primary_node_; }
  std::uint64_t reroutes() const { return reroutes_; }
  /// Recoverable sends re-driven from the journal after a restart.
  std::uint64_t replayed_sends() const { return replayed_sends_; }
  std::uint64_t journaled_sends() const { return journaled_sends_; }

 private:
  void on_announce(const sim::Datagram& d);
  void subscribe();
  void apply_route();
  void replay_journal();

  sim::Process* process_;
  DiverterOptions options_;
  std::string port_name_;  // announced in SubscribeRoles
  sim::PortId port_;
  sim::PortId engine_port_;
  int primary_node_ = -1;
  int last_primary_ = -1;  // survives transient "no primary" gaps
  std::uint32_t primary_incarnation_ = 0;
  std::uint64_t reroutes_ = 0;
  /// Recoverable sends, journaled to the node-local durable store and
  /// replayed after a restart: covers the window where the message left
  /// the application but the local QM died before persisting it.
  /// MSMQ's at-least-once contract makes the possible duplicate benign.
  store::Journal journal_;
  std::uint64_t msg_seq_ = 0;
  std::uint64_t replayed_sends_ = 0;
  std::uint64_t journaled_sends_ = 0;
  /// Sends made before the first route reached the QM (the journal
  /// replay among them): without a route the QM would keep them in its
  /// own local queue, where no consumer reads them.
  std::vector<std::tuple<std::string, Buffer, msmq::DeliveryMode>> held_;
  bool routed_ = false;
  sim::PeriodicTimer resubscribe_timer_;
};

}  // namespace oftt::core
