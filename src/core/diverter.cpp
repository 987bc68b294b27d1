#include "core/diverter.h"

#include "common/logging.h"
#include "common/strings.h"
#include "sim/simulation.h"

namespace oftt::core {
namespace {
constexpr sim::SimTime kResubscribePeriod = sim::seconds(1);

store::JournalOptions send_journal_options() {
  store::JournalOptions jopts;
  jopts.auto_compact = false;  // a pure message log has no snapshots
  // No snapshots to compact against either: bound the journal by
  // dropping its oldest segment.
  jopts.max_segments = 4;
  return jopts;
}
}  // namespace

MessageDiverter::MessageDiverter(sim::Process& process, DiverterOptions options)
    : process_(&process),
      options_(std::move(options)),
      port_name_(cat("oftt.divert.", process.name())),
      port_(process.sim().port(port_name_)),
      engine_port_(process.sim().port(kEnginePort)),
      journal_(process.sim(), process.node().id(), "oftt.dvrt." + options_.unit,
               send_journal_options()),
      resubscribe_timer_(process.main_strand()) {
  process_->bind(port_, [this](const sim::Datagram& d) { on_announce(d); });
  replay_journal();
  subscribe();
  resubscribe_timer_.start(kResubscribePeriod, [this] {
    subscribe();
    apply_route();  // re-assert the route (the QM may have restarted)
  });
}

void MessageDiverter::replay_journal() {
  std::vector<store::Record> records = journal_.recover();
  if (records.empty()) return;
  // Re-drive every journaled recoverable send through the fresh QM.
  // wipe() first: send() re-journals each message, so surviving ones
  // stay durable without accumulating duplicates across restarts.
  journal_.wipe();
  for (const store::Record& r : records) {
    JournaledSend js;
    if (r.type != store::RecordType::kMessage || !JournaledSend::decode(r.payload, js)) continue;
    ++replayed_sends_;
    send(js.label, Buffer(js.body.begin(), js.body.end()), js.mode);
  }
  if (replayed_sends_ > 0) {
    OFTT_LOG_INFO("oftt/diverter", process_->name(), ": replayed ", replayed_sends_,
                  " journaled sends for unit '", options_.unit, "'");
  }
}

void MessageDiverter::subscribe() {
  SubscribeRoles sub;
  sub.subscriber_node = process_->node().id();
  sub.subscriber_port = port_name_;
  Buffer payload = sub.encode();
  std::vector<int> targets = options_.nodes;
  if (targets.empty()) targets = {options_.node_a, options_.node_b};
  for (int node : targets) {
    if (node < 0) continue;
    int net = sim::pick_network(process_->sim(), process_->node().id(), node);
    if (net < 0) continue;
    process_->send(net, node, engine_port_, payload, port_);
  }
}

void MessageDiverter::on_announce(const sim::Datagram& d) {
  RoleAnnounce ra;
  if (!RoleAnnounce::decode(d.payload, ra)) return;
  if (ra.unit != options_.unit) return;
  if (ra.role == Role::kPrimary) {
    // Newest incarnation wins; ignore echoes of deposed primaries.
    if (ra.node != primary_node_ && ra.incarnation >= primary_incarnation_) {
      if (last_primary_ >= 0 && ra.node != last_primary_) ++reroutes_;
      last_primary_ = ra.node;
      OFTT_LOG_INFO("oftt/diverter", process_->name(), ": unit '", options_.unit,
                    "' primary is now node ", ra.node, " (inc ", ra.incarnation, ")");
      primary_node_ = ra.node;
      primary_incarnation_ = ra.incarnation;
      apply_route();
      // Closes the failover trace: external traffic now reaches the
      // new primary again.
      obs::Event e;
      e.kind = obs::EventKind::kDiverterReroute;
      e.node = process_->node().id();
      e.unit = options_.unit;
      e.detail = options_.queue;
      e.a = static_cast<std::uint64_t>(ra.node);
      e.b = ra.incarnation;
      process_->sim().telemetry().bus().publish(std::move(e));
    } else if (ra.node == primary_node_) {
      primary_incarnation_ = ra.incarnation;
    }
  } else if (ra.node == primary_node_ && ra.incarnation >= primary_incarnation_) {
    // Our primary says it is no longer primary; await the new one.
    primary_node_ = -1;
  }
}

void MessageDiverter::apply_route() {
  if (primary_node_ < 0) return;
  msmq::QueueManager* qm = msmq::QueueManager::find(process_->node());
  if (qm == nullptr) return;  // QM down; retried on next period
  qm->set_route(options_.queue, primary_node_);
}

void MessageDiverter::send(const std::string& label, Buffer body, msmq::DeliveryMode mode) {
  // Journal BEFORE handing off: if this process dies inside the QM call
  // the message is still re-driven on restart. Express messages are
  // explicitly lossy, so only recoverable ones are journaled.
  if (mode == msmq::DeliveryMode::kRecoverable) {
    if (journal_.append(store::RecordType::kMessage, ++msg_seq_, 0,
                         JournaledSend{{}, label, body, mode}.encode())) {
      ++journaled_sends_;
    }
  }
  msmq::MsmqApi::of(*process_).send(options_.queue, label, std::move(body), mode);
}

}  // namespace oftt::core
