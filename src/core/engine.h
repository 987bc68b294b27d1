// The OFTT Engine: "the core of the OFTT toolkit [that] controls all
// aspects of fault tolerance" (§2.2.1).
//
//  * Role management — primary/backup negotiation at startup (with the
//    §3.2 retry logic) and at switchover, incarnation-numbered to
//    resolve dual-primary collisions after partitions.
//  * Failure detection — per-component heartbeats from every FTIM on
//    this node, reliable watchdog deadlines, and the peer engine's
//    heartbeat over one or both Ethernet segments (cluster mode: SWIM
//    probes instead, the only liveness source there).
//  * Recovery management — static rules: up to N local restarts for
//    transient faults, then transfer of control to the backup node.
//  * Status reporting — periodic StatusReports to the System Monitor
//    and RoleAnnounces to subscribers (the Message Diverter).
//
// Runs as its own process ("oftt_engine"), started by the application —
// which is also who restarts it if it dies (failure class d).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/membership.h"
#include "cluster/quorum.h"
#include "cluster/slots.h"
#include "cluster/succession.h"
#include "common/hresult.h"
#include "core/config.h"
#include "core/wire.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "sim/node.h"
#include "sim/timer.h"
#include "swim/detector.h"
#include "transport/session.h"

namespace oftt::core {

/// Throws std::invalid_argument for swim settings a cluster engine
/// cannot run with. Engine::install and ClusterDeployment both call it,
/// so a config passes or fails the same way through either.
void validate_swim_settings(const OfttConfig& config);

class Engine {
 public:
  Engine(sim::Process& process, OfttConfig config);

  /// Start the engine process on a node. Call from boot scripts.
  static std::shared_ptr<sim::Process> install(sim::Node& node, OfttConfig config);
  /// Find a node's engine; null while the engine process is down.
  static Engine* find(sim::Node& node);

  Role role() const { return role_; }
  std::uint32_t incarnation() const { return incarnation_; }
  const std::string& unit() const { return config_.unit_name; }
  bool peer_visible() const;
  const OfttConfig& config() const { return config_; }

  struct WatchdogState {
    sim::SimTime deadline = sim::kNever;
    sim::SimTime period = 0;  // remembered for Reset-without-timeout
  };
  struct Component {
    FtRegister reg;
    /// reg.ftim_port, interned when the registration is stored.
    sim::PortId ftim_port;
    /// Set by a run-time SetRule: the dynamic rule outlives component
    /// re-registration (which would otherwise reinstate the static one).
    bool rule_overridden = false;
    sim::SimTime last_hb = 0;
    ComponentState state = ComponentState::kUp;
    int restarts = 0;
    std::uint64_t heartbeats = 0;
    std::map<std::string, WatchdogState> watchdogs;
    /// Replication-policy view, piggybacked on the FTIM heartbeat.
    ReplicationMode policy = ReplicationMode::kColdPassive;
    bool replica_ready = true;
    sim::SimTime last_applied_at = 0;
  };
  const std::map<std::string, Component>& components() const { return components_; }

  /// Every OPC-client component on this node is promotion-ready per its
  /// replication policy (true when none registered — nothing to hold
  /// back). Piggybacked on peer heartbeats and swim frames so
  /// succession can prefer nodes whose replicas are fresh.
  bool node_replica_ready() const;

  /// Operator-initiated switchover (System Monitor / tests).
  HRESULT request_switchover(const std::string& reason);

  /// Run-time recovery-rule change (the paper's dynamic-decision
  /// extension); -1 restores the engine default for that field.
  HRESULT set_recovery_rule(const std::string& component, int max_local_restarts,
                            int switchover_on_permanent);

  // Introspection for tests and benches.
  int startup_probe_rounds() const { return probe_rounds_; }
  std::uint64_t takeovers() const { return takeovers_; }
  /// True when this engine seeded its incarnation clock from the
  /// on-disk role hint a previous incarnation persisted (cold restart).
  bool role_hint_restored() const { return role_hint_restored_; }

  /// Cluster mode (config().cluster_mode()): this engine's current
  /// membership view and whether a promotion campaign is in flight.
  const cluster::MembershipView& view() const { return view_; }
  bool campaigning() const { return campaign_.active; }
  /// Members this engine presumes live (self included): every member
  /// its detector has not confirmed dead. The quorum and succession
  /// input.
  cluster::MemberSet live_members() const;

  /// Cluster mode: this engine's SWIM failure detector; null in pair
  /// mode, which keeps the paper's heartbeat exchange.
  const swim::Detector* swim_detector() const { return swim_.get(); }

  /// Bounded in-memory event history (role changes, failures,
  /// recoveries) — what an operator pulls after an incident. Every
  /// entry is also published on the simulation-wide telemetry bus;
  /// this is the engine-local bounded copy. Cap comes from
  /// OfttConfig::event_history_cap.
  const obs::EventLog& event_log() const { return event_log_; }

 private:
  void on_datagram(const sim::Datagram& d);
  /// The shared message switch: raw datagrams land here after the
  /// session endpoint declines them; session-delivered payloads arrive
  /// re-wrapped so both paths hit the same dispatch.
  void dispatch(const sim::Datagram& d);

  // startup negotiation
  void probe_round();
  void resolve_with_peer(Role peer_role, std::uint32_t peer_inc, int peer_node);
  void decide_alone();

  // role transitions
  void promote(const std::string& reason);
  void demote(const std::string& reason);
  void enter_role(Role role);
  void set_components_active(bool active);
  /// Durable role hint ("oftt.role.<unit>" on the node's disk): written
  /// on every role change, read at boot so a rebooted engine rejoins
  /// with a current incarnation clock instead of a stale one.
  void persist_role_hint();
  void restore_role_hint();

  // detection & recovery
  void tick();
  void check_components(sim::SimTime now);
  void component_failed(Component& c, const std::string& why);
  void do_switchover(const std::string& reason);
  void restart_component(Component& c);

  // cluster mode (N-replica role management)
  void cluster_tick(sim::SimTime now);
  /// `among` minus the peers whose last swim frame reported a replica not
  /// ready to promote (self is left to the caller).
  cluster::MemberSet ready_peers(cluster::MemberSet among) const;
  void start_campaign(sim::SimTime now, const std::string& reason, sim::SimTime evidence,
                      bool had_primary);
  void send_campaign_requests();
  void maybe_promote_on_quorum();
  void cluster_handoff(const std::string& reason);
  void gossip_view();
  void handle_view_gossip(const ViewGossip& g);
  void handle_promote_request(const sim::Datagram& d, const PromoteRequest& req);
  void handle_promote_ack(const PromoteAck& ack);

  // swim failure detection (cluster mode)
  sim::SimTime swim_suspicion_timeout() const;
  void swim_tick(sim::SimTime now);
  void swim_publish(const std::vector<swim::Transition>& transitions);
  /// Shared prologue for every received swim frame: liveness + readiness
  /// bookkeeping and dual-primary arbitration riding detection traffic.
  void swim_note_sender(int node, Role role, std::uint32_t inc, bool ready,
                        sim::SimTime now);
  void swim_absorb(const std::vector<swim::Update>& updates, sim::SimTime now);
  /// Stamp `f` (one of the engine's tx frames) with this engine's id,
  /// role, incarnation and replica readiness.
  template <class Frame> Frame& swim_frame(Frame& f) const;
  /// Answer probe round (`origin`, `seq`) to whoever delivered `d`.
  void swim_ack(const sim::Datagram& d, int origin, std::uint64_t seq);
  /// Immediate one-update broadcast for rare, failover-critical news
  /// (death confirmations, our own refutation) — collapses worst-case
  /// epidemic latency to one datagram hop.
  void swim_burst(const swim::Update& u);
  void handle_swim_probe(const sim::Datagram& d, const SwimProbe& p, sim::SimTime now);
  void handle_swim_ack(const sim::Datagram& d, const SwimAck& a, sim::SimTime now);
  void handle_swim_ping_req(const sim::Datagram& d, const SwimPingReq& req,
                            sim::SimTime now);

  /// Both engines claim PRIMARY (e.g. after a healed partition): the
  /// higher incarnation wins, ties go to the lower node id. A no-op
  /// unless this engine and the sender both claim the role.
  void arbitrate_dual_primary(int node, Role sender_role, std::uint32_t inc);
  /// A pair-protocol frame (Probe, ProbeReply, PeerHeartbeat, Takeover)
  /// counts only in pair mode, sent by the configured peer and naming it
  /// (`node`). Cluster engines and pair engines drop everything else.
  bool from_pair_peer(const sim::Datagram& d, int node) const;

  // messaging
  void send_peer(const Buffer& payload);
  void send_to_member(int node, Buffer payload);
  void send_status();
  void announce_role();
  void send_set_active(const Component& c, bool active);

  /// Stamp unit/node, append to the local incident log, publish on the
  /// telemetry bus.
  void record(obs::Event e);

  sim::Process* process_;
  sim::PortId port_;          // kEnginePort
  sim::PortId monitor_port_;  // kMonitorPort
  OfttConfig config_;
  Role role_ = Role::kNegotiating;
  std::uint32_t incarnation_ = 0;
  int probe_rounds_ = 0;
  bool negotiation_resolved_ = false;
  bool role_hint_restored_ = false;
  std::uint64_t hb_seq_ = 0;
  std::uint64_t takeovers_ = 0;

  std::map<int, sim::SimTime> peer_last_hb_;  // by network id
  std::uint32_t peer_incarnation_ = 0;

  // Cluster mode (empty / inert when config_.cluster_mode() is false).
  /// Reliable sessions for view gossip and promotion rounds: a single
  /// lost datagram must not stall a view change or an election.
  /// Heartbeats and probes deliberately stay raw — failure detection
  /// must feel loss (see DESIGN.md, transport section).
  std::unique_ptr<transport::Endpoint> ep_;
  cluster::MembershipView view_;
  /// One dense slot per configured member, built once from
  /// cluster_nodes (the configured set is static). Empty in pair mode,
  /// so there every wire node id counts as unconfigured.
  cluster::SlotIndex slots_;
  /// cluster_peers(self) in configured order — the order every fan-out
  /// and readmission scan walks.
  std::vector<int> peers_;
  /// Peers whose last swim frame reported a replica not ready to
  /// promote (succession prefers ready members; members not heard from
  /// yet count as ready).
  cluster::MemberSet not_ready_;
  cluster::VoteLedger votes_;
  cluster::Campaign campaign_;
  sim::SimTime started_at_ = 0;

  /// The cluster's only liveness source (null in pair mode).
  std::unique_ptr<swim::Detector> swim_;
  /// Round-robin cursor for the primary's O(1)-per-tick view refresh (a
  /// full broadcast every tick would put the O(N) cost back).
  std::size_t view_refresh_rr_ = 0;

  std::map<std::string, Component> components_;
  /// (node, port name) -> that port's id, resolved when the
  /// subscription is stored; announce_role walks it in name order.
  std::map<std::pair<int, std::string>, sim::PortId> role_subscribers_;
  /// Swim frames reused for every datagram, so their update lists keep
  /// their capacity: received frames decode in place, and each sent
  /// frame is stamped, filled and encoded before the next is built (no
  /// send delivers synchronously, so none of this re-enters).
  SwimProbe rx_probe_, tx_probe_;
  SwimAck rx_ack_, tx_ack_;
  SwimPingReq rx_ping_req_, tx_ping_req_;
  obs::EventLog event_log_;

  // Pre-resolved metric handles (no string-keyed lookups at use sites).
  obs::Counter ctr_takeovers_;
  obs::Counter ctr_startup_shutdown_;
  obs::Counter ctr_component_failures_;
  obs::Counter ctr_local_restarts_;
  obs::Counter ctr_watchdog_expired_;
  obs::Counter ctr_dual_primary_;
  obs::Counter ctr_distress_;
  obs::Counter ctr_bad_packet_;
  obs::Counter ctr_swim_probes_sent_;
  obs::Counter ctr_swim_probes_acked_;
  obs::Counter ctr_swim_indirect_;
  obs::Counter ctr_swim_false_positive_;
  obs::Histogram hist_swim_suspicion_ms_;

  sim::PeriodicTimer hb_timer_;
  sim::PeriodicTimer status_timer_;
};

}  // namespace oftt::core
