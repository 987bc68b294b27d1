#include "core/engine.h"

#include "core/engine_com.h"

#include <algorithm>
#include <stdexcept>

#include "common/logging.h"
#include "common/strings.h"
#include "sim/disk.h"
#include "sim/simulation.h"

namespace oftt::core {
namespace {
constexpr const char* kEngineProcess = "oftt_engine";

// obs cannot see core's Role enum (it sits below core in the layering),
// so the span tracker keys on a mirrored constant. Keep them in sync.
static_assert(static_cast<std::uint64_t>(Role::kPrimary) == obs::kRoleChangePrimary,
              "obs::kRoleChangePrimary must mirror core::Role::kPrimary");

/// Swim: proxies asked to probe on the origin's behalf after a direct
/// miss (the paper's k).
constexpr int kSwimIndirectProbes = 3;
constexpr sim::SimTime kStatusReportPeriod = sim::seconds(1);
/// The static recovery rule (paper: "the current implementation only
/// supports static decision") for components that register without
/// their own: one local restart for a transient fault, then switchover.
constexpr int kDefaultMaxLocalRestarts = 1;
constexpr bool kDefaultSwitchoverOnPermanent = true;
}

Engine::Engine(sim::Process& process, OfttConfig config)
    : process_(&process),
      port_(process.sim().port(kEnginePort)),
      monitor_port_(process.sim().port(kMonitorPort)),
      config_(std::move(config)),
      event_log_(config_.event_history_cap),
      ctr_takeovers_(process.sim().telemetry().metrics().counter("oftt.takeovers")),
      ctr_startup_shutdown_(
          process.sim().telemetry().metrics().counter("oftt.startup_shutdown")),
      ctr_component_failures_(
          process.sim().telemetry().metrics().counter("oftt.component_failures")),
      ctr_local_restarts_(process.sim().telemetry().metrics().counter("oftt.local_restarts")),
      ctr_watchdog_expired_(
          process.sim().telemetry().metrics().counter("oftt.watchdog_expired")),
      ctr_dual_primary_(
          process.sim().telemetry().metrics().counter("oftt.dual_primary_detected")),
      ctr_distress_(process.sim().telemetry().metrics().counter("oftt.distress")),
      ctr_bad_packet_(process.sim().telemetry().metrics().counter("oftt.engine_bad_packet")),
      ctr_swim_probes_sent_(
          process.sim().telemetry().metrics().counter("oftt.swim_probes_sent")),
      ctr_swim_probes_acked_(
          process.sim().telemetry().metrics().counter("oftt.swim_probes_acked")),
      ctr_swim_indirect_(
          process.sim().telemetry().metrics().counter("oftt.swim_indirect_probes")),
      ctr_swim_false_positive_(
          process.sim().telemetry().metrics().counter("oftt.swim_false_positive")),
      hist_swim_suspicion_ms_(process.sim().telemetry().metrics().histogram(
          "oftt.swim_suspicion_ms", {50, 100, 250, 500, 1000, 2000, 4000, 8000})),
      hb_timer_(process.main_strand()),
      status_timer_(process.main_strand()) {
  process_->bind(port_, [this](const sim::Datagram& d) { on_datagram(d); });
  hb_timer_.start(config_.heartbeat_period, [this] { tick(); });
  status_timer_.start(kStatusReportPeriod, [this] {
    send_status();
    announce_role();  // refresh subscribers even without changes
  });
  started_at_ = process_->sim().now();
  restore_role_hint();
  if (config_.cluster_mode()) {
    // N-replica role management: no pairwise probe exchange. The
    // engine starts from the configured rank-ordered view; the initial
    // primary emerges through the same quorum-gated election that
    // handles failover (see cluster_tick).
    view_ = cluster::MembershipView::initial(config_.cluster_nodes);
    slots_ = cluster::SlotIndex(config_.cluster_nodes);
    peers_ = config_.cluster_peers(process_->node().id());
    not_ready_ = cluster::MemberSet(slots_);
    // View gossip and promotion rounds ride reliable sessions so a
    // single lost datagram never stalls a view change or an election.
    // Small window + drop-oldest queue: only the newest view matters,
    // and a dead member must not accumulate an unbounded backlog.
    transport::SessionConfig scfg;
    scfg.networks = config_.networks;
    scfg.window_bytes = 4096;
    scfg.queue_cap = 8;
    scfg.queue_policy = transport::QueuePolicy::kDropOldest;
    scfg.rto_initial = sim::milliseconds(50);
    scfg.rto_max = sim::milliseconds(400);
    ep_ = std::make_unique<transport::Endpoint>(process.main_strand(), port_, scfg);
    ep_->on_deliver([this](int src_node, int network_id, ByteView payload) {
      sim::Datagram d;
      d.network_id = network_id;
      d.src_node = src_node;
      d.src_port = port_;
      d.dst_node = process_->node().id();
      d.dst_port = port_;
      d.payload.assign(payload.begin(), payload.end());
      dispatch(d);
    });
    swim::DetectorConfig dc;
    dc.self = process_->node().id();
    dc.members = config_.cluster_nodes;
    dc.suspicion_timeout = swim_suspicion_timeout();
    // Per-node fork name: every detector draws from its own stream, so
    // N detectors shuffle independently and adding one never perturbs
    // another (or any non-swim module).
    swim_ = std::make_unique<swim::Detector>(
        dc, process_->sim().fork_rng(cat("swim.", process_->node().id())));
    swim_->announce(process_->node().id());  // join: disseminate alive@0
    OFTT_LOG_INFO("oftt/engine", process_->node().name(), ": engine up, unit '",
                  config_.unit_name, "', cluster of ", config_.cluster_nodes.size(),
                  " (quorum ", view_.quorum(), ")");
    return;
  }
  OFTT_LOG_INFO("oftt/engine", process_->node().name(), ": engine up, unit '",
                config_.unit_name, "', peer node ", config_.peer_node);
  probe_round();
}

void validate_swim_settings(const OfttConfig& config) {
  if (config.heartbeat_period <= kSwimProbeTimeout) {
    throw std::invalid_argument(
        cat("swim config: heartbeat_period (", config.heartbeat_period,
            " ns) must exceed the swim probe timeout (", kSwimProbeTimeout,
            " ns) so the indirect round fits inside one protocol period"));
  }
  if (config.swim_suspicion_timeout < 0) {
    throw std::invalid_argument("swim config: swim_suspicion_timeout must be >= 0");
  }
  if (config.swim_suspicion_timeout > 0 &&
      config.swim_suspicion_timeout < config.heartbeat_period) {
    throw std::invalid_argument(
        cat("swim config: swim_suspicion_timeout (", config.swim_suspicion_timeout,
            " ns) below heartbeat_period leaves the accused no protocol period in which "
            "to refute"));
  }
}

std::shared_ptr<sim::Process> Engine::install(sim::Node& node, OfttConfig config) {
  if (config.peer_node == node.id()) {
    throw std::invalid_argument(
        cat("Engine::install: peer_node ", config.peer_node,
            " is this node — a node cannot be its own backup"));
  }
  if (config.replication != ReplicationMode::kColdPassive && config.peer_node < 0 &&
      !config.cluster_mode()) {
    throw std::invalid_argument(
        cat("Engine::install: replication mode '", replication_mode_name(config.replication),
            "' needs a replica to stream to — set peer_node or cluster_nodes"));
  }
  if (config.cluster_mode()) {
    std::vector<int> sorted = config.cluster_nodes;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      throw std::invalid_argument(
          "Engine::install: cluster_nodes contains a duplicate node id");
    }
    if (std::find(sorted.begin(), sorted.end(), node.id()) == sorted.end()) {
      throw std::invalid_argument(
          cat("Engine::install: cluster_nodes must include this node (", node.id(), ")"));
    }
    validate_swim_settings(config);
  }
  return node.start_process(kEngineProcess, [config](sim::Process& proc) {
    proc.attachment<Engine>(proc, config);
    install_engine_com(proc);  // the engine's remotely activatable COM face
  });
}

Engine* Engine::find(sim::Node& node) {
  auto proc = node.find_process(kEngineProcess);
  if (!proc || !proc->alive()) return nullptr;
  return proc->find_attachment<Engine>();
}

bool Engine::node_replica_ready() const {
  for (const auto& [name, c] : components_) {
    if (c.reg.kind != FtimKind::kOpcClient) continue;
    if (!c.replica_ready) return false;
  }
  return true;
}

bool Engine::peer_visible() const {
  if (config_.cluster_mode()) {
    // A peer is visible while the detector has not confirmed it dead.
    return std::any_of(peers_.begin(), peers_.end(),
                       [this](int peer) { return swim_->presumed_live(peer); });
  }
  sim::SimTime now = process_->sim().now();
  for (const auto& [net, last] : peer_last_hb_) {
    if (now - last < config_.peer_timeout) return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// Startup negotiation (§3.2)
// ---------------------------------------------------------------------

void Engine::probe_round() {
  if (role_ != Role::kNegotiating || negotiation_resolved_) return;
  ++probe_rounds_;
  Probe p;
  p.node = process_->node().id();
  p.boot_count = process_->node().boot_count();
  p.incarnation = incarnation_;
  p.role = role_;
  send_peer(p.encode(/*reply=*/false));
  process_->main_strand().schedule_after(config_.startup_probe_timeout, [this] {
    if (role_ != Role::kNegotiating || negotiation_resolved_) return;
    if (probe_rounds_ <= config_.startup_retries) {
      OFTT_LOG_INFO("oftt/engine", process_->node().name(), ": no peer response, retry ",
                    probe_rounds_, "/", config_.startup_retries);
      probe_round();
    } else {
      decide_alone();
    }
  });
}

void Engine::resolve_with_peer(Role peer_role, std::uint32_t peer_inc, int peer_node) {
  if (role_ != Role::kNegotiating || negotiation_resolved_) return;
  negotiation_resolved_ = true;
  peer_incarnation_ = peer_inc;
  // We just heard from the peer; prime liveness so a backup does not
  // promote spuriously before the first heartbeat lands.
  for (int net : config_.networks) peer_last_hb_[net] = process_->sim().now();
  switch (peer_role) {
    case Role::kPrimary:
      incarnation_ = peer_inc;
      enter_role(Role::kBackup);
      break;
    case Role::kBackup:
      incarnation_ = peer_inc + 1;
      enter_role(Role::kPrimary);
      break;
    default:
      // Both negotiating: deterministic tie-break, lower node id wins.
      if (process_->node().id() < peer_node) {
        ++incarnation_;
        enter_role(Role::kPrimary);
      } else {
        enter_role(Role::kBackup);
      }
      break;
  }
}

void Engine::decide_alone() {
  if (config_.alone_policy == AloneStartupPolicy::kBecomePrimary) {
    OFTT_LOG_WARN("oftt/engine", process_->node().name(),
                  ": no peer found after retries — becoming primary alone");
    negotiation_resolved_ = true;
    ++incarnation_;
    enter_role(Role::kPrimary);
  } else {
    // The paper's original conservative logic: a node that cannot see
    // its peer shuts down to avoid dual-primary across a dead network.
    OFTT_LOG_WARN("oftt/engine", process_->node().name(),
                  ": no peer found after retries — shutting down");
    ctr_startup_shutdown_.inc();
    obs::Event e;
    e.kind = obs::EventKind::kStartupShutdown;
    e.detail = "no peer found after startup retries";
    e.a = static_cast<std::uint64_t>(probe_rounds_);
    record(std::move(e));
    role_ = Role::kShutdown;
    announce_role();
    send_status();
    process_->exit_self("startup: no peer");
  }
}

// ---------------------------------------------------------------------
// Role transitions
// ---------------------------------------------------------------------

void Engine::record(obs::Event e) {
  e.node = process_->node().id();
  if (e.unit.empty()) e.unit = config_.unit_name;
  e.at = process_->sim().now();
  event_log_.append(e);  // bounded local copy for the operator
  process_->sim().telemetry().bus().publish(std::move(e));
}

void Engine::enter_role(Role role) {
  if (role_ == role) return;
  OFTT_LOG_INFO("oftt/engine", process_->node().name(), ": ", role_name(role_), " -> ",
                role_name(role), " (incarnation ", incarnation_, ")");
  obs::Event e;
  e.kind = obs::EventKind::kRoleChange;
  e.detail = cat("role ", role_name(role_), " -> ", role_name(role));
  e.a = static_cast<std::uint64_t>(role);
  e.b = incarnation_;
  record(std::move(e));
  role_ = role;
  persist_role_hint();
  set_components_active(role_ == Role::kPrimary);
  announce_role();
  send_status();
}

void Engine::persist_role_hint() {
  sim::DiskStore::of(process_->sim())
      .write(process_->node().id(), "oftt.role." + config_.unit_name,
             codec::encode(role_, incarnation_));
}

void Engine::restore_role_hint() {
  auto blob = sim::DiskStore::of(process_->sim())
                  .read(process_->node().id(), "oftt.role." + config_.unit_name);
  if (!blob) return;
  BinaryReader r(*blob);
  Role stored_role = Role::kUnknown;
  std::uint32_t stored_inc = 0;
  if (!codec::read(r, stored_role, stored_inc) || !r.at_end()) {
    OFTT_LOG_WARN("oftt/engine", process_->node().name(), ": ignored malformed role hint (",
                  blob->size(), " bytes)");
    return;
  }
  // Seed the incarnation clock from before the reboot: a former primary
  // must not come back announcing a *stale* incarnation, or its probes
  // would look older than the promoted peer's reign and the negotiation
  // could regress. The role itself is still negotiated fresh — the hint
  // only says what this node last was, not what it is now.
  incarnation_ = std::max(incarnation_, stored_inc);
  role_hint_restored_ = true;
  OFTT_LOG_INFO("oftt/engine", process_->node().name(), ": restored role hint (last ",
                role_name(stored_role), ", incarnation ", stored_inc, ")");
}

void Engine::promote(const std::string& reason) {
  if (role_ == Role::kPrimary) return;
  OFTT_LOG_WARN("oftt/engine", process_->node().name(), ": PROMOTING — ", reason);
  ++takeovers_;
  ctr_takeovers_.inc();
  incarnation_ = std::max(incarnation_, peer_incarnation_) + 1;
  negotiation_resolved_ = true;
  enter_role(Role::kPrimary);
}

void Engine::demote(const std::string& reason) {
  if (role_ == Role::kBackup) return;
  OFTT_LOG_WARN("oftt/engine", process_->node().name(), ": DEMOTING — ", reason);
  enter_role(Role::kBackup);
}

void Engine::set_components_active(bool active) {
  for (auto& [name, c] : components_) {
    send_set_active(c, active);
  }
}

void Engine::send_set_active(const Component& c, bool active) {
  SetActive msg;
  msg.active = active;
  msg.incarnation = incarnation_;
  msg.role = role_;
  process_->send(0, process_->node().id(), c.ftim_port, msg.encode(), port_);
}

// ---------------------------------------------------------------------
// Detection & recovery
// ---------------------------------------------------------------------

void Engine::tick() {
  sim::SimTime now = process_->sim().now();

  if (config_.cluster_mode()) {
    cluster_tick(now);
    check_components(now);
    return;
  }

  // Peer heartbeat out, on every configured network.
  PeerHeartbeat hb;
  hb.node = process_->node().id();
  hb.role = role_;
  hb.incarnation = incarnation_;
  hb.seq = ++hb_seq_;
  hb.replica_ready = node_replica_ready();
  send_peer(hb.encode());

  // Peer liveness: a backup promotes when the primary's heartbeat is
  // stale on *every* configured network.
  if (role_ == Role::kBackup && negotiation_resolved_ && !peer_visible()) {
    // Open the failover trace: evidence is the last moment the primary
    // was provably alive (freshest heartbeat on any network).
    sim::SimTime evidence = 0;
    for (const auto& [net, last] : peer_last_hb_) evidence = std::max(evidence, last);
    obs::Event fe;
    fe.kind = obs::EventKind::kFailureDetected;
    fe.detail = cat("peer heartbeat timeout (", sim::to_millis(config_.peer_timeout), " ms)");
    fe.a = static_cast<std::uint64_t>(evidence);
    record(std::move(fe));
    promote(cat("peer heartbeat timeout (", sim::to_millis(config_.peer_timeout), " ms)"));
  }

  check_components(now);
}

void Engine::check_components(sim::SimTime now) {
  // Component heartbeats and watchdogs.
  for (auto& [name, c] : components_) {
    if (c.state == ComponentState::kUp && now - c.last_hb > config_.component_timeout) {
      component_failed(c, "heartbeat timeout");
      continue;
    }
    for (auto it = c.watchdogs.begin(); it != c.watchdogs.end();) {
      if (it->second.deadline != sim::kNever && now > it->second.deadline) {
        std::string wd = it->first;
        it = c.watchdogs.erase(it);
        ctr_watchdog_expired_.inc();
        obs::Event we;
        we.kind = obs::EventKind::kWatchdogExpired;
        we.component = c.reg.component;
        we.detail = cat("watchdog '", wd, "' expired");
        record(std::move(we));
        component_failed(c, cat("watchdog '", wd, "' expired"));
        break;  // component_failed may restart the process; stop iterating
      } else {
        ++it;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Cluster mode: membership view, ranked succession, quorum-gated
// promotion
// ---------------------------------------------------------------------

cluster::MemberSet Engine::live_members() const {
  cluster::MemberSet live(slots_);
  live.insert(process_->node().id());
  for (int peer : peers_) {
    // Suspects count as live — a member is removed from quorum and
    // succession math only once its suspicion timeout expired without
    // refutation (never merely on a missed probe).
    if (swim_->presumed_live(peer)) live.insert(peer);
  }
  return live;
}

cluster::MemberSet Engine::ready_peers(cluster::MemberSet among) const {
  for (int peer : peers_) {
    if (not_ready_.contains(peer)) among.erase(peer);
  }
  return among;
}

void Engine::cluster_tick(sim::SimTime now) {
  int self = process_->node().id();

  // One direct probe (plus a scheduled indirect fan-out): per-node send
  // cost is O(1) per period regardless of cluster size.
  swim_tick(now);

  if (role_ == Role::kPrimary) {
    cluster::MemberSet dead(slots_);
    for (const auto& m : view_.members) {
      if (m.role == cluster::MemberRole::kDead) dead.insert(m.node);
    }
    // Readmit rebooted members: a dead member refuting its death
    // certificate with a bumped incarnation rejoins as a backup at the
    // back of the succession order. Rejoins happen in configured-peer
    // order; a rejoin never changes another member's role, so `dead`
    // stays current.
    for (int peer : peers_) {
      if (!dead.contains(peer)) continue;
      if (swim_->state(peer) == swim::MemberState::kAlive &&
          cluster::SuccessionPlanner::rejoin(view_, peer)) {
        obs::Event e;
        e.kind = obs::EventKind::kViewChange;
        e.detail = cat("member ", peer, " rejoined: ", view_.summary());
        e.a = view_.version;
        e.b = view_.incarnation;
        record(std::move(e));
        // The view refreshes round-robin (one member per tick), so a
        // membership *change* broadcasts once to cut its staleness
        // window from O(N) ticks to one.
        gossip_view();
      }
    }
    // Quorum stepdown: a primary that cannot see a live majority of the
    // configured membership must stop serving (it may be the minority
    // side of a partition while the majority elects a successor).
    const std::size_t live = live_members().size();
    if (static_cast<int>(live) < view_.quorum()) {
      demote(cat("quorum lost: ", live, " live of ", view_.size(), ", need ",
                 view_.quorum()));
      return;
    }
    // O(1) view refresh: one member per tick, full traversal every N
    // ticks. View *changes* broadcast at the change site.
    if (!peers_.empty()) {
      ViewGossip g;
      g.from_node = self;
      g.unit = config_.unit_name;
      g.view = view_;
      ep_->send(peers_[view_refresh_rr_++ % peers_.size()], g.encode());
    }
    return;
  }

  // Backup / negotiating: watch the primary; campaign when we are the
  // designated successor and the primary is provably stale.
  const cluster::Member* prim = view_.primary();
  if (prim != nullptr) {
    // Campaign only on a *confirmed* death — a mere suspect may still
    // refute. This is what keeps the false-failover rate at the
    // detector's false-positive rate, not its suspicion rate.
    if (swim_->presumed_live(prim->node)) {
      if (campaign_.active) campaign_.clear();  // primary is back
      return;
    }
  } else {
    // No primary has ever been elected (startup). Give the other
    // members the startup probe window to boot and be counted before
    // the lowest-ranked live member claims the role.
    if (now - started_at_ < config_.startup_probe_timeout) return;
  }

  const cluster::MemberSet live = live_members();
  if (campaign_.active) {
    // Retransmit on a fixed cadence; give up after a few rounds so the
    // successor choice can be recomputed against fresh liveness.
    if (now - campaign_.started >=
        2 * config_.heartbeat_period * (campaign_.retries + 1)) {
      if (++campaign_.retries > 4) {
        OFTT_LOG_WARN("oftt/engine", process_->node().name(),
                      ": promotion campaign for incarnation ", campaign_.incarnation,
                      " timed out without quorum");
        campaign_.clear();
      } else {
        send_campaign_requests();
      }
    }
    return;
  }
  // Succession prefers members whose replicas are fresh enough to
  // promote per their policy (piggybacked on peer heartbeats); if no
  // live member qualifies, the planner falls back to plain seniority.
  cluster::MemberSet eligible = ready_peers(live);
  if (!node_replica_ready()) eligible.erase(self);
  if (cluster::SuccessionPlanner::successor(view_, live, eligible) !=
      process_->node().id()) {
    return;
  }

  if (prim != nullptr) {
    start_campaign(now,
                   cat("primary node ", prim->node, " confirmed dead (swim, incarnation ",
                       swim_->incarnation(prim->node), ")"),
                   std::max(swim_->last_heard(prim->node), started_at_),
                   /*had_primary=*/true);
  } else {
    start_campaign(now, "startup election", now, /*had_primary=*/false);
  }
}

void Engine::start_campaign(sim::SimTime now, const std::string& reason,
                            sim::SimTime evidence, bool had_primary) {
  campaign_.clear();
  campaign_.active = true;
  campaign_.votes = cluster::MemberSet(slots_);
  // Propose above every incarnation this engine has voted for: reusing
  // one it granted a rival would count a self-vote it no longer has, and
  // voters that granted the same rival would refuse every later round.
  campaign_.incarnation =
      std::max({incarnation_, view_.incarnation, votes_.granted_incarnation()}) + 1;
  campaign_.started = now;
  campaign_.reason = reason;
  campaign_.evidence = evidence;
  // Our own ledger entry: we will refuse any rival candidate at this
  // incarnation, which is what makes concurrent candidates mutually
  // exclusive.
  votes_.grant(campaign_.incarnation, process_->node().id());
  if (had_primary) {
    // Open the failover trace. Startup elections record no failure:
    // nothing failed, there is simply no primary yet.
    obs::Event fe;
    fe.kind = obs::EventKind::kFailureDetected;
    fe.detail = reason;
    fe.a = static_cast<std::uint64_t>(evidence);
    record(std::move(fe));
  }
  obs::Event e;
  e.kind = obs::EventKind::kPromotionRequested;
  e.detail = cat("campaigning for incarnation ", campaign_.incarnation, ": ", reason);
  e.a = campaign_.incarnation;
  e.b = static_cast<std::uint64_t>(view_.quorum());
  record(std::move(e));
  send_campaign_requests();
  maybe_promote_on_quorum();  // N=2: our own vote already is a majority
}

void Engine::send_campaign_requests() {
  PromoteRequest req;
  req.candidate = process_->node().id();
  req.unit = config_.unit_name;
  req.incarnation = campaign_.incarnation;
  req.view_version = view_.version;
  req.reason = campaign_.reason;
  Buffer payload = req.encode();
  for (int peer : peers_) ep_->send(peer, payload);
}

void Engine::maybe_promote_on_quorum() {
  if (!campaign_.active || campaign_.tally() < view_.quorum()) return;
  obs::Event e;
  e.kind = obs::EventKind::kPromotionQuorum;
  e.detail = cat("quorum for incarnation ", campaign_.incarnation, ": ", campaign_.tally(),
                 " of ", view_.quorum(), " votes");
  e.a = static_cast<std::uint64_t>(campaign_.tally());
  e.b = static_cast<std::uint64_t>(view_.quorum());
  record(std::move(e));
  std::string reason = campaign_.reason;
  std::uint32_t inc = campaign_.incarnation;
  campaign_.clear();
  cluster::SuccessionPlanner::promote(view_, process_->node().id(), inc, live_members());
  incarnation_ = inc;
  negotiation_resolved_ = true;
  ++takeovers_;
  ctr_takeovers_.inc();
  OFTT_LOG_WARN("oftt/engine", process_->node().name(), ": PROMOTING (quorum) — ", reason);
  enter_role(Role::kPrimary);
  gossip_view();
}

void Engine::cluster_handoff(const std::string& reason) {
  sim::SimTime now = process_->sim().now();
  const cluster::MemberSet live = live_members();
  cluster::MemberSet others = live;
  others.erase(process_->node().id());
  int succ = cluster::SuccessionPlanner::successor(view_, others, ready_peers(others));
  if (succ < 0) return;  // callers check peer_visible() first
  // Primary-led view change: no quorum round needed — the incumbent
  // still owns the view and simply publishes its successor.
  obs::Event fe;
  fe.kind = obs::EventKind::kFailureDetected;
  fe.detail = cat("switchover: ", reason);
  fe.a = static_cast<std::uint64_t>(now);
  record(std::move(fe));
  cluster::SuccessionPlanner::promote(view_, succ, incarnation_ + 1, live);
  obs::Event ve;
  ve.kind = obs::EventKind::kViewChange;
  ve.detail = cat("handoff to node ", succ, ": ", view_.summary());
  ve.a = view_.version;
  ve.b = view_.incarnation;
  record(std::move(ve));
  gossip_view();
  demote(cat("switchover: ", reason));
}

void Engine::gossip_view() {
  ViewGossip g;
  g.from_node = process_->node().id();
  g.unit = config_.unit_name;
  g.view = view_;
  Buffer payload = g.encode();
  // Every configured member, dead ones included: a rebooted node
  // resynchronizes its view from this broadcast, no join protocol.
  // Rides the session — the drop-oldest queue sheds superseded views
  // to unreachable members instead of hoarding them.
  for (int peer : peers_) ep_->send(peer, payload);
}

void Engine::handle_view_gossip(const ViewGossip& g) {
  bool changed = view_.merge(g.view);
  if (changed) {
    obs::Event e;
    e.kind = obs::EventKind::kViewChange;
    e.detail = cat("adopted view from node ", g.from_node, ": ", view_.summary());
    e.a = view_.version;
    e.b = view_.incarnation;
    record(std::move(e));
  }
  // A view at or beyond our proposed incarnation means someone already
  // won (or the primary is alive and publishing): stand down.
  if (campaign_.active && view_.incarnation >= campaign_.incarnation) campaign_.clear();

  const cluster::Member* prim = view_.primary();
  if (prim == nullptr) return;
  int self = process_->node().id();
  if (prim->node == self) {
    if (role_ != Role::kPrimary) {
      // Handoff: the incumbent planned our promotion and published it.
      incarnation_ = view_.incarnation;
      negotiation_resolved_ = true;
      ++takeovers_;
      ctr_takeovers_.inc();
      OFTT_LOG_WARN("oftt/engine", process_->node().name(),
                    ": PROMOTING — designated by view ", view_.summary());
      enter_role(Role::kPrimary);
      gossip_view();
    } else {
      incarnation_ = std::max(incarnation_, view_.incarnation);
    }
    return;
  }
  if (role_ == Role::kPrimary && view_.incarnation >= incarnation_) {
    demote(cat("superseded by node ", prim->node, " (incarnation ", view_.incarnation, ")"));
    return;
  }
  if (role_ != Role::kPrimary) {
    incarnation_ = view_.incarnation;
    if (role_ == Role::kNegotiating) {
      negotiation_resolved_ = true;
      enter_role(Role::kBackup);
    }
  }
}

void Engine::handle_promote_request(const sim::Datagram& d, const PromoteRequest& req) {
  bool granted = false;
  if (role_ != Role::kPrimary && req.incarnation > view_.incarnation) {
    // Partition safety: refuse while the primary is undisputed to us —
    // we hold neither a suspicion nor a confirmation against it — even
    // if it looks dead to the candidate. By the time a candidate has
    // confirmed the death the suspicion has disseminated, so honest
    // voters are at least suspecting and therefore grant.
    const cluster::Member* prim = view_.primary();
    if (prim == nullptr || swim_->state(prim->node) != swim::MemberState::kAlive) {
      granted = votes_.grant(req.incarnation, req.candidate);
    }
  }
  if (granted && campaign_.active && req.candidate != process_->node().id() &&
      req.incarnation >= campaign_.incarnation) {
    // We just endorsed a rival at a higher incarnation; our own
    // campaign can no longer win this round.
    campaign_.clear();
  }
  PromoteAck ack;
  ack.voter = process_->node().id();
  ack.candidate = req.candidate;
  ack.incarnation = req.incarnation;
  ack.granted = granted;
  // The vote rides the session back to the candidate: losing a granted
  // ack would stall the election for a full campaign retry.
  ep_->send(d.src_node, ack.encode());
}

void Engine::handle_promote_ack(const PromoteAck& ack) {
  if (!campaign_.active || ack.candidate != process_->node().id() ||
      ack.incarnation != campaign_.incarnation || !ack.granted) {
    return;
  }
  campaign_.votes.insert(ack.voter);
  maybe_promote_on_quorum();
}

// ---------------------------------------------------------------------
// Swim failure detection (cluster mode with detection = kSwim)
// ---------------------------------------------------------------------

sim::SimTime Engine::swim_suspicion_timeout() const {
  if (config_.swim_suspicion_timeout > 0) return config_.swim_suspicion_timeout;
  // Auto: a suspicion needs ~log2(N) piggyback rounds to reach the
  // accused and the refutation needs ~log2(N) to come back, plus slack
  // for probe-timeout phases and loss. Growing with log N (not N) is
  // what keeps failover p99 at N=512 within ~2x of a 9-node cluster.
  int log2n = 1;
  while ((std::size_t{1} << log2n) < config_.cluster_nodes.size()) ++log2n;
  return (2 * log2n + 6) * config_.heartbeat_period;
}

template <class Frame>
Frame& Engine::swim_frame(Frame& f) const {
  f.from = process_->node().id();
  f.role = role_;
  f.incarnation = incarnation_;
  f.replica_ready = node_replica_ready();
  return f;
}

void Engine::swim_tick(sim::SimTime now) {
  std::vector<swim::Transition> trs;
  swim_->tick(now, trs);
  swim_publish(trs);

  int target = swim_->next_target(now);
  if (target < 0) return;  // every peer confirmed dead
  SwimProbe& p = swim_frame(tx_probe_);
  p.origin = p.from;
  p.seq = swim_->probe_seq();
  // piggyback_for: when we hold a suspicion/confirmation against the
  // target itself it leads the batch, so the accused can refute on this
  // very round trip.
  swim_->piggyback_for(target, p.updates);
  send_to_member(target, p.encode());
  ctr_swim_probes_sent_.inc();

  std::uint64_t seq = swim_->probe_seq();
  process_->main_strand().schedule_after(kSwimProbeTimeout, [this, target, seq] {
    // Only escalate the round we armed for: an ack, a crash-restart or
    // a newer round all void this deadline.
    const bool armed = swim_->probe_outstanding() && swim_->probe_target() == target &&
                       swim_->probe_seq() == seq;
    if (!armed) return;
    SwimPingReq& req = swim_frame(tx_ping_req_);
    req.target = target;
    req.seq = seq;
    for (int proxy : swim_->proxies(target, kSwimIndirectProbes)) {
      swim_->piggyback(req.updates);
      send_to_member(proxy, req.encode());
      ctr_swim_indirect_.inc();
    }
  });
}

void Engine::swim_publish(const std::vector<swim::Transition>& transitions) {
  int self = process_->node().id();
  for (const auto& tr : transitions) {
    switch (tr.to) {
      case swim::MemberState::kSuspect: {
        obs::Event e;
        e.kind = obs::EventKind::kSwimSuspect;
        e.detail = cat("suspecting node ", tr.node, " (incarnation ", tr.incarnation, ")");
        e.a = static_cast<std::uint64_t>(tr.node);
        e.b = tr.incarnation;
        record(std::move(e));
        break;
      }
      case swim::MemberState::kDead: {
        obs::Event e;
        e.kind = obs::EventKind::kSwimDeadConfirm;
        e.detail = cat("node ", tr.node, " confirmed dead (incarnation ", tr.incarnation,
                       ", suspected ", sim::to_millis(tr.suspected_for), " ms)");
        e.a = static_cast<std::uint64_t>(tr.node);
        e.b = tr.incarnation;
        record(std::move(e));
        if (tr.from == swim::MemberState::kSuspect) {
          hist_swim_suspicion_ms_.record(sim::to_millis(tr.suspected_for));
        }
        // A death certificate is failover-critical news: burst it to
        // every member now instead of waiting on epidemic luck, so the
        // successor's campaign finds voters already convinced.
        swim_burst(swim::Update{tr.node, tr.incarnation, swim::MemberState::kDead});
        break;
      }
      case swim::MemberState::kAlive: {
        obs::Event e;
        e.kind = obs::EventKind::kSwimRefute;
        e.detail = tr.node == self
                       ? cat("refuting accusation, incarnation now ", tr.incarnation)
                       : cat("node ", tr.node, " refuted ",
                             tr.refuted_death ? "death" : "suspicion",
                             " (incarnation ", tr.incarnation, ")");
        e.a = static_cast<std::uint64_t>(tr.node);
        e.b = tr.incarnation;
        record(std::move(e));
        if (tr.from == swim::MemberState::kSuspect) {
          hist_swim_suspicion_ms_.record(sim::to_millis(tr.suspected_for));
        }
        // A retracted death certificate is a detector false positive
        // (counted at the observers, not at the refuting member).
        if (tr.refuted_death && tr.node != self) ctr_swim_false_positive_.inc();
        // Our own refutation races a pending election: burst it.
        if (tr.node == self) {
          swim_burst(swim::Update{self, tr.incarnation, swim::MemberState::kAlive});
        }
        break;
      }
    }
  }
}

void Engine::swim_burst(const swim::Update& u) {
  SwimProbe& p = swim_frame(tx_probe_);
  p.origin = p.from;
  p.seq = 0;  // never matches a probe round (round seqs start at 1)
  p.updates.assign(1, u);
  Buffer payload = p.encode();
  for (int peer : peers_) send_to_member(peer, payload);
}

void Engine::swim_note_sender(int node, Role sender_role, std::uint32_t inc, bool ready,
                              sim::SimTime now) {
  if (ready) {
    not_ready_.erase(node);
  } else {
    not_ready_.insert(node);
  }
  swim_->heard_from(node, now);
  // Swim frames carry the sender's engine role so dual-primary
  // arbitration rides detection traffic.
  arbitrate_dual_primary(node, sender_role, inc);
}

void Engine::swim_absorb(const std::vector<swim::Update>& updates, sim::SimTime now) {
  std::vector<swim::Transition> trs;
  for (const auto& u : updates) swim_->absorb(u, now, trs);
  swim_publish(trs);
}

void Engine::handle_swim_probe(const sim::Datagram& d, const SwimProbe& p,
                               sim::SimTime now) {
  swim_note_sender(p.from, p.role, p.incarnation, p.replica_ready, now);
  swim_absorb(p.updates, now);
  swim_ack(d, p.origin, p.seq);
}

void Engine::swim_ack(const sim::Datagram& d, int origin, std::uint64_t seq) {
  // Ack to whoever delivered the probe (the origin, or the relaying
  // proxy); the ack's origin field routes it the rest of the way back.
  SwimAck& ack = swim_frame(tx_ack_);
  ack.origin = origin;
  ack.seq = seq;
  swim_->piggyback_for(d.src_node, ack.updates);
  process_->send(d.network_id, d.src_node, port_, ack.encode(), port_);
}

void Engine::handle_swim_ack(const sim::Datagram& d, const SwimAck& a, sim::SimTime now) {
  swim_note_sender(a.from, a.role, a.incarnation, a.replica_ready, now);
  swim_absorb(a.updates, now);
  if (a.origin == process_->node().id()) {
    bool closes_round = swim_->probe_outstanding() && swim_->probe_target() == a.from &&
                        swim_->probe_seq() == a.seq;
    swim_->on_ack(a.from, a.seq, now);
    if (closes_round) ctr_swim_probes_acked_.inc();
    return;
  }
  // We proxied this round: forward the target's ack verbatim to the
  // origin whose probe it answers.
  process_->send(d.network_id, a.origin, port_, d.payload, port_);
}

void Engine::handle_swim_ping_req(const sim::Datagram& d, const SwimPingReq& req,
                                  sim::SimTime now) {
  swim_note_sender(req.from, req.role, req.incarnation, req.replica_ready, now);
  swim_absorb(req.updates, now);
  if (req.target == process_->node().id()) {
    // Degenerate (a confused origin asking us to probe ourselves):
    // answer the round directly.
    swim_ack(d, req.from, req.seq);
    return;
  }
  // Relay: probe the target on the origin's behalf, keeping the
  // origin's round identity so its detector can match the ack.
  SwimProbe& p = swim_frame(tx_probe_);
  p.origin = req.from;
  p.seq = req.seq;
  swim_->piggyback_for(req.target, p.updates);
  send_to_member(req.target, p.encode());
}

void Engine::arbitrate_dual_primary(int node, Role sender_role, std::uint32_t inc) {
  const int self = process_->node().id();
  if (role_ != Role::kPrimary || sender_role != Role::kPrimary || node == self) return;
  // Dual primary after a healed partition: highest incarnation wins,
  // ties go to the lower node id.
  ctr_dual_primary_.inc();
  obs::Event e;
  e.kind = obs::EventKind::kDualPrimary;
  e.detail = cat("dual primary with node ", node, " (peer inc ", inc, ", ours ", incarnation_,
                 ")");
  e.a = static_cast<std::uint64_t>(node);
  e.b = inc;
  record(std::move(e));
  if (inc > incarnation_ || (inc == incarnation_ && node < self)) {
    demote("dual-primary resolution");
  }
}

void Engine::component_failed(Component& c, const std::string& why) {
  OFTT_LOG_WARN("oftt/engine", process_->node().name(), ": component '", c.reg.component,
                "' FAILED: ", why);
  ctr_component_failures_.inc();
  obs::Event e;
  e.kind = obs::EventKind::kComponentFailed;
  e.component = c.reg.component;
  e.detail = cat("component '", c.reg.component, "' failed: ", why);
  record(std::move(e));
  c.state = ComponentState::kFailed;
  send_status();

  int max_restarts = c.reg.max_local_restarts >= 0 ? c.reg.max_local_restarts
                                                   : kDefaultMaxLocalRestarts;
  bool switchover = c.reg.switchover_on_permanent >= 0 ? c.reg.switchover_on_permanent != 0
                                                       : kDefaultSwitchoverOnPermanent;

  if (c.restarts < max_restarts) {
    // Transient-fault provision: local restart.
    restart_component(c);
    return;
  }
  // Permanent fault.
  if (switchover && role_ == Role::kPrimary && peer_visible()) {
    do_switchover(cat("component '", c.reg.component, "' permanent failure"));
    // Restore redundancy: bring the app back (passively) on this node.
    c.restarts = 0;
    restart_component(c);
  } else {
    // No healthy peer (or rule says stay): keep trying locally.
    restart_component(c);
  }
}

void Engine::restart_component(Component& c) {
  c.state = ComponentState::kRestarting;
  ++c.restarts;
  ctr_local_restarts_.inc();
  sim::Node& node = process_->node();
  OFTT_LOG_INFO("oftt/engine", node.name(), ": restarting process '", c.reg.process_name, "'");
  obs::Event e;
  e.kind = obs::EventKind::kComponentRestart;
  e.component = c.reg.component;
  e.detail = cat("local restart #", c.restarts, " of '", c.reg.component, "'");
  e.a = static_cast<std::uint64_t>(c.restarts);
  record(std::move(e));
  // Grace so the fresh instance has time to register and heartbeat.
  c.last_hb = process_->sim().now() + config_.component_timeout;
  c.watchdogs.clear();
  node.restart_process(c.reg.process_name);
}

void Engine::do_switchover(const std::string& reason) {
  if (config_.cluster_mode()) {
    cluster_handoff(reason);
    return;
  }
  // A deliberate transfer of control still opens a failover trace: the
  // "evidence" and the decision coincide (detection phase is zero), and
  // the peer's promotion / activation / reroute milestones follow.
  obs::Event fe;
  fe.kind = obs::EventKind::kFailureDetected;
  fe.detail = cat("switchover: ", reason);
  fe.a = static_cast<std::uint64_t>(process_->sim().now());
  record(std::move(fe));
  Takeover t;
  t.from_node = process_->node().id();
  t.incarnation = incarnation_;
  t.reason = reason;
  send_peer(t.encode());
  demote(cat("switchover: ", reason));
}

HRESULT Engine::set_recovery_rule(const std::string& component, int max_local_restarts,
                                  int switchover_on_permanent) {
  auto it = components_.find(component);
  if (it == components_.end()) return E_INVALIDARG;
  it->second.reg.max_local_restarts = max_local_restarts;
  it->second.reg.switchover_on_permanent = switchover_on_permanent;
  it->second.rule_overridden = true;
  // A relaxed rule also forgives past restarts, so the fresh budget
  // applies from now.
  it->second.restarts = 0;
  OFTT_LOG_INFO("oftt/engine", process_->node().name(), ": recovery rule for '", component,
                "' now restarts=", max_local_restarts,
                " switchover=", switchover_on_permanent);
  return S_OK;
}

HRESULT Engine::request_switchover(const std::string& reason) {
  if (role_ != Role::kPrimary) return OFTT_E_NOT_PRIMARY;
  if (!peer_visible()) return OFTT_E_NO_PEER;
  do_switchover(cat("operator request: ", reason));
  return S_OK;
}

// ---------------------------------------------------------------------
// Messaging
// ---------------------------------------------------------------------

void Engine::send_peer(const Buffer& payload) {
  if (config_.peer_node < 0) return;
  for (int net : config_.networks) {
    process_->send(net, config_.peer_node, port_, payload, port_);
  }
}

void Engine::send_to_member(int node, Buffer payload) {
  // Copies for all networks but the last, which takes the buffer itself:
  // a freshly encoded probe costs no copy on a single network.
  const std::vector<int>& nets = config_.networks;
  for (std::size_t i = 0; i + 1 < nets.size(); ++i) {
    process_->send(nets[i], node, port_, payload, port_);
  }
  if (!nets.empty()) process_->send(nets.back(), node, port_, std::move(payload), port_);
}

void Engine::send_status() {
  if (config_.monitor_node < 0) return;
  StatusReport sr;
  sr.unit = config_.unit_name;
  sr.node = process_->node().id();
  sr.role = role_;
  sr.incarnation = incarnation_;
  sr.peer_visible = peer_visible();
  if (config_.cluster_mode()) {
    sr.view = view_;
    // Our per-member verdicts (self included) for the monitor's board.
    for (int n : config_.cluster_nodes) {
      sr.swim_members.push_back(swim::Update{n, swim_->incarnation(n), swim_->state(n)});
    }
  }
  for (const auto& [name, c] : components_) {
    sr.components.push_back(ComponentStatus{c.reg.component, c.state, c.restarts,
                                            c.heartbeats, c.policy, c.replica_ready});
  }
  int net = sim::pick_network(process_->sim(), process_->node().id(), config_.monitor_node);
  if (net < 0) return;
  process_->send(net, config_.monitor_node, monitor_port_, sr.encode(), port_);
}

void Engine::announce_role() {
  RoleAnnounce ra;
  ra.unit = config_.unit_name;
  ra.node = process_->node().id();
  ra.role = role_;
  ra.incarnation = incarnation_;
  Buffer payload = ra.encode();
  for (const auto& [sub, port] : role_subscribers_) {
    const int node = sub.first;
    int net = sim::pick_network(process_->sim(), process_->node().id(), node);
    if (net < 0) continue;
    process_->send(net, node, port, payload, port_);
  }
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

void Engine::on_datagram(const sim::Datagram& d) {
  // Session frames (cluster gossip / promotion) are consumed by the
  // endpoint and re-delivered through dispatch(); everything else —
  // heartbeats, probes, FTIM loopback, role subscriptions — is raw by
  // design. Only configured members may open a session here: a frame
  // from any other node would otherwise get its payload re-delivered
  // into dispatch as if a member had sent it.
  if (ep_ && transport::is_transport_frame(d.payload)) {
    if (slots_.contains(d.src_node)) ep_->handle(d);
    return;
  }
  dispatch(d);
}

bool Engine::from_pair_peer(const sim::Datagram& d, int node) const {
  return !config_.cluster_mode() && d.src_node == config_.peer_node &&
         node == config_.peer_node;
}

void Engine::dispatch(const sim::Datagram& d) {
  sim::SimTime now = process_->sim().now();
  const auto kind = static_cast<MsgKind>(wire_kind(d.payload));
  // FTIM -> engine kinds are loopback only (Ftim::send_engine). From any
  // other node, raw or re-delivered by the cluster session, they would
  // plant phantom components or force a switchover.
  if (kind >= MsgKind::kFtRegister && kind <= MsgKind::kSetRule &&
      d.src_node != process_->node().id()) {
    return;
  }
  switch (kind) {
    case MsgKind::kProbe: {
      Probe p;
      if (!Probe::decode(d.payload, p, false) || !from_pair_peer(d, p.node)) return;
      Probe reply;
      reply.node = process_->node().id();
      reply.boot_count = process_->node().boot_count();
      reply.incarnation = incarnation_;
      reply.role = role_;
      process_->send(d.network_id, d.src_node, port_, reply.encode(true), port_);
      if (role_ == Role::kNegotiating) resolve_with_peer(p.role, p.incarnation, p.node);
      break;
    }
    case MsgKind::kProbeReply: {
      Probe p;
      if (!Probe::decode(d.payload, p, true) || !from_pair_peer(d, p.node)) return;
      if (role_ == Role::kNegotiating) resolve_with_peer(p.role, p.incarnation, p.node);
      break;
    }
    case MsgKind::kPeerHeartbeat: {
      PeerHeartbeat hb;
      if (!PeerHeartbeat::decode(d.payload, hb) || !from_pair_peer(d, hb.node)) return;
      peer_last_hb_[d.network_id] = now;
      peer_incarnation_ = hb.incarnation;
      if (role_ == Role::kNegotiating &&
          (hb.role == Role::kPrimary || hb.role == Role::kBackup)) {
        resolve_with_peer(hb.role, hb.incarnation, hb.node);
      } else {
        arbitrate_dual_primary(hb.node, hb.role, hb.incarnation);
      }
      break;
    }
    case MsgKind::kTakeover: {
      Takeover t;
      if (!Takeover::decode(d.payload, t) || !from_pair_peer(d, t.from_node)) return;
      peer_incarnation_ = t.incarnation;
      if (role_ != Role::kPrimary) {
        promote(cat("takeover handoff: ", t.reason));
      }
      break;
    }
    case MsgKind::kViewGossip: {
      ViewGossip g;
      if (!ViewGossip::decode(d.payload, g)) return;
      if (!slots_.contains(g.from_node)) return;
      handle_view_gossip(g);
      break;
    }
    case MsgKind::kPromoteRequest: {
      PromoteRequest req;
      if (!PromoteRequest::decode(d.payload, req)) return;
      if (!slots_.contains(req.candidate)) return;
      handle_promote_request(d, req);
      break;
    }
    case MsgKind::kPromoteAck: {
      PromoteAck ack;
      if (!PromoteAck::decode(d.payload, ack)) return;
      if (!slots_.contains(ack.voter)) return;
      handle_promote_ack(ack);
      break;
    }
    case MsgKind::kSwimProbe: {
      const SwimProbe& p = rx_probe_;
      if (!SwimProbe::decode(d.payload, rx_probe_)) return;
      if (!slots_.contains(p.from) || !slots_.contains(p.origin)) return;
      handle_swim_probe(d, p, now);
      break;
    }
    case MsgKind::kSwimAck: {
      const SwimAck& a = rx_ack_;
      if (!SwimAck::decode(d.payload, rx_ack_)) return;
      if (!slots_.contains(a.from) || !slots_.contains(a.origin)) return;
      handle_swim_ack(d, a, now);
      break;
    }
    case MsgKind::kSwimPingReq: {
      const SwimPingReq& req = rx_ping_req_;
      if (!SwimPingReq::decode(d.payload, rx_ping_req_)) return;
      if (!slots_.contains(req.from) || !slots_.contains(req.target)) return;
      handle_swim_ping_req(d, req, now);
      break;
    }
    case MsgKind::kFtRegister: {
      FtRegister reg;
      if (!FtRegister::decode(d.payload, reg)) return;
      auto it = components_.find(reg.component);
      if (it == components_.end()) {
        Component c;
        c.reg = reg;
        c.ftim_port = process_->sim().port(reg.ftim_port);
        c.last_hb = now;
        components_.emplace(reg.component, std::move(c));
        OFTT_LOG_INFO("oftt/engine", process_->node().name(), ": registered component '",
                      reg.component, "' (", reg.process_name, ")");
      } else {
        if (it->second.rule_overridden) {
          // Keep the dynamic rule over the registrant's static one.
          reg.max_local_restarts = it->second.reg.max_local_restarts;
          reg.switchover_on_permanent = it->second.reg.switchover_on_permanent;
        }
        it->second.ftim_port = process_->sim().port(reg.ftim_port);
        it->second.reg = reg;
        it->second.last_hb = now;
        if (it->second.state != ComponentState::kUp) {
          it->second.state = ComponentState::kUp;
        }
      }
      // A still-active component means this node was the live primary
      // before an engine restart: adopt that, don't renegotiate over
      // running state.
      if (role_ == Role::kNegotiating && reg.currently_active) {
        incarnation_ = std::max(incarnation_, reg.incarnation);
        negotiation_resolved_ = true;
        OFTT_LOG_INFO("oftt/engine", process_->node().name(),
                      ": adopting live PRIMARY role from active component '",
                      reg.component, "'");
        enter_role(Role::kPrimary);
      }
      // Tell the (re)registered FTIM its role immediately.
      send_set_active(components_.at(reg.component), role_ == Role::kPrimary);
      break;
    }
    case MsgKind::kFtHeartbeat: {
      FtHeartbeat hb;
      if (!FtHeartbeat::decode(d.payload, hb)) return;
      auto it = components_.find(hb.component);
      if (it == components_.end()) return;
      it->second.last_hb = now;
      ++it->second.heartbeats;
      it->second.policy = hb.policy;
      it->second.replica_ready = hb.ready;
      it->second.last_applied_at = hb.applied_at;
      if (it->second.state == ComponentState::kRestarting ||
          it->second.state == ComponentState::kSuspect) {
        it->second.state = ComponentState::kUp;
      }
      break;
    }
    case MsgKind::kFtDistress: {
      FtDistress distress;
      if (!FtDistress::decode(d.payload, distress)) return;
      OFTT_LOG_WARN("oftt/engine", process_->node().name(), ": DISTRESS from '",
                    distress.component, "': ", distress.reason);
      ctr_distress_.inc();
      obs::Event e;
      e.kind = obs::EventKind::kDistress;
      e.component = distress.component;
      e.detail = cat("distress from '", distress.component, "': ", distress.reason);
      record(std::move(e));
      if (role_ == Role::kPrimary && peer_visible()) {
        do_switchover(cat("distress from '", distress.component, "': ", distress.reason));
      }
      break;
    }
    case MsgKind::kWatchdogCreate:
    case MsgKind::kWatchdogReset:
    case MsgKind::kWatchdogDelete: {
      WatchdogMsg wd;
      if (!WatchdogMsg::decode(d.payload, wd)) return;
      auto it = components_.find(wd.component);
      if (it == components_.end()) return;
      if (wd.op == MsgKind::kWatchdogDelete) {
        it->second.watchdogs.erase(wd.watchdog);
      } else {
        WatchdogState& state = it->second.watchdogs[wd.watchdog];
        if (wd.timeout > 0) state.period = wd.timeout;
        // Create with no timeout leaves the watchdog unarmed; Set/Reset
        // (re)arm using the explicit or remembered period.
        state.deadline = state.period > 0 ? now + state.period : sim::kNever;
        if (wd.op == MsgKind::kWatchdogCreate && wd.timeout <= 0) {
          state.deadline = sim::kNever;
        }
      }
      break;
    }
    case MsgKind::kSetRule: {
      SetRule rule;
      if (!SetRule::decode(d.payload, rule)) return;
      set_recovery_rule(rule.component, rule.max_local_restarts,
                        rule.switchover_on_permanent);
      break;
    }
    case MsgKind::kSubscribeRoles: {
      SubscribeRoles sub;
      if (!SubscribeRoles::decode(d.payload, sub)) return;
      auto key = std::make_pair(sub.subscriber_node, sub.subscriber_port);
      auto it = role_subscribers_.find(key);
      if (it == role_subscribers_.end()) {
        it = role_subscribers_.emplace(key, process_->sim().port(sub.subscriber_port)).first;
      }
      const sim::PortId port = it->second;
      // Answer immediately so the diverter learns the current role.
      RoleAnnounce ra;
      ra.unit = config_.unit_name;
      ra.node = process_->node().id();
      ra.role = role_;
      ra.incarnation = incarnation_;
      int net = sim::pick_network(process_->sim(), process_->node().id(), sub.subscriber_node);
      if (net >= 0) {
        process_->send(net, sub.subscriber_node, port, ra.encode(), port_);
      }
      break;
    }
    default:
      ctr_bad_packet_.inc();
      break;
  }
}

}  // namespace oftt::core
