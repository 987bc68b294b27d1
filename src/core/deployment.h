// PairDeployment: assembles the paper's reference configuration —
// a redundant node pair (one or dual Ethernet, Fig. 1) plus the
// test-and-interface PC running the System Monitor (Fig. 3 / Table 1).
//
// Each pair node boots: SCM (DCOM activation), the MSMQ queue manager,
// the OFTT engine, and the application process (whose factory the
// caller provides; the application calls OFTTInitialize itself, as a
// real OFTT application would). Reboot re-runs the same script.
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/diverter.h"
#include "core/engine.h"
#include "core/ftim.h"
#include "core/monitor.h"
#include "dcom/scm.h"
#include "msmq/queue_manager.h"
#include "sim/simulation.h"

namespace oftt::core {

struct PairDeploymentOptions {
  std::string unit = "unit";
  std::string app_process = "app";
  /// Creates the application inside its process (both nodes run the
  /// same image). Null for engine-only deployments.
  std::function<void(sim::Process&)> app_factory;

  /// Engine timing/policy knobs; peer/monitor/unit fields are filled in
  /// per node by the deployment. The heartbeat tuning knobs that matter
  /// for failover behaviour:
  ///   engine.heartbeat_period   how often engines heartbeat each other
  ///                             and FTIMs heartbeat their engine
  ///   engine.peer_timeout       staleness after which the backup
  ///                             declares the primary dead (must be
  ///                             >= heartbeat_period, typically 3-5x —
  ///                             below ~2x a single delayed heartbeat
  ///                             triggers a spurious failover)
  ///   engine.component_timeout  staleness after which the engine
  ///                             declares a local component failed
  /// The deployment constructor rejects nonsensical combinations
  /// (zero/negative periods, timeout shorter than the period) with
  /// std::invalid_argument rather than simulating a config that can
  /// only misbehave.
  OfttConfig engine;

  bool dual_network = false;
  sim::SimTime net_latency_min = sim::microseconds(100);
  sim::SimTime net_latency_max = sim::microseconds(300);
  double net_loss = 0.0;

  bool with_msmq = true;
  bool with_scm = true;
  bool with_monitor = true;
  /// Opt-in: run a Message Diverter on the test PC, routing
  /// `diverter_queue` to the unit's current primary. Off by default
  /// because it needs with_msmq and adds a process to every
  /// deployment; turn it on when external senders must keep reaching
  /// the unit across failovers, or when a test/bench needs the full
  /// failover timeline — the replay phase (detection -> ... -> diverter
  /// reroute) only completes with a diverter deployed.
  bool with_diverter = false;
  std::string diverter_queue = "unit.q";
  /// Skew node B's boot by this much after node A (both at 0 = together).
  sim::SimTime node_b_boot_delay = 0;
  bool autostart = true;  // boot the pair immediately
};

namespace detail {
/// Shared sanity checks for deployment options. A zero heartbeat
/// period would spin the engine timer at the scheduler's resolution; a
/// timeout below the period can never see a heartbeat before expiring.
inline void validate_engine_timing(const OfttConfig& engine, double net_loss) {
  if (engine.heartbeat_period <= 0) {
    throw std::invalid_argument(
        cat("deployment: engine.heartbeat_period must be > 0 (got ",
            engine.heartbeat_period, " ns)"));
  }
  if (engine.peer_timeout < engine.heartbeat_period) {
    throw std::invalid_argument(
        cat("deployment: engine.peer_timeout (", engine.peer_timeout,
            " ns) must be >= heartbeat_period (", engine.heartbeat_period,
            " ns) — the backup would declare the primary dead between heartbeats"));
  }
  if (engine.component_timeout <= 0) {
    throw std::invalid_argument(
        cat("deployment: engine.component_timeout must be > 0 (got ",
            engine.component_timeout, " ns)"));
  }
  if (engine.status_report_period <= 0) {
    throw std::invalid_argument("deployment: engine.status_report_period must be > 0");
  }
  if (net_loss < 0.0 || net_loss > 1.0) {
    throw std::invalid_argument(
        cat("deployment: net_loss must be within [0, 1] (got ", net_loss, ")"));
  }
}

/// Replication-knob sanity for a deployment. The per-FTIM combinations
/// (delta periods, dirty-range tracking, governor windows) are checked
/// by validate_ftim_options when the FTIM is built; this catches the
/// deployment-shape mistakes that would otherwise only surface as a
/// silently-cold pair.
inline void validate_replication(const OfttConfig& engine, bool has_app) {
  const auto mode = static_cast<int>(engine.replication);
  if (mode < 0 || mode > static_cast<int>(ReplicationMode::kSemiActive)) {
    throw std::invalid_argument(
        cat("deployment: unknown replication mode (", mode, ")"));
  }
  if (engine.replication != ReplicationMode::kColdPassive && !has_app) {
    throw std::invalid_argument(
        cat("deployment: replication mode '", replication_mode_name(engine.replication),
            "' configured but no app_factory — there is no application state to stream"));
  }
}
}  // namespace detail

class PairDeployment {
 public:
  PairDeployment(sim::Simulation& sim, PairDeploymentOptions options)
      : sim_(&sim), options_(std::move(options)) {
    detail::validate_engine_timing(options_.engine, options_.net_loss);
    detail::validate_replication(options_.engine, options_.app_factory != nullptr);
    if (options_.node_b_boot_delay < 0) {
      throw std::invalid_argument("PairDeployment: node_b_boot_delay must be >= 0");
    }
    node_a_ = &sim.add_node("nodeA");
    node_b_ = &sim.add_node("nodeB");
    monitor_node_ = &sim.add_node("testpc");

    auto& lan0 = sim.add_network("lan0");
    for (auto* n : {node_a_, node_b_, monitor_node_}) lan0.attach(n->id());
    lan0.set_latency(options_.net_latency_min, options_.net_latency_max);
    lan0.set_loss(options_.net_loss);
    if (options_.dual_network) {
      auto& lan1 = sim.add_network("lan1");
      lan1.attach(node_a_->id());
      lan1.attach(node_b_->id());
      lan1.set_latency(options_.net_latency_min, options_.net_latency_max);
      lan1.set_loss(options_.net_loss);
    }

    node_a_->set_boot_script(make_boot_script(node_b_->id()));
    node_b_->set_boot_script(make_boot_script(node_a_->id()));
    monitor_node_->set_boot_script([this](sim::Node& node) {
      if (options_.with_scm) dcom::install_scm(node);
      if (options_.with_msmq) msmq::QueueManager::install(node);
      if (options_.with_monitor) {
        node.start_process("system_monitor", [](sim::Process& p) {
          p.attachment<SystemMonitor>(p);
        });
      }
      if (options_.with_diverter && options_.with_msmq) {
        DiverterOptions dopts;
        dopts.unit = options_.unit;
        dopts.queue = options_.diverter_queue;
        dopts.node_a = node_a_->id();
        dopts.node_b = node_b_->id();
        node.start_process("diverter", [dopts](sim::Process& p) {
          p.attachment<MessageDiverter>(p, dopts);
        });
      }
    });

    monitor_node_->boot();
    if (options_.autostart) {
      node_a_->boot();
      if (options_.node_b_boot_delay > 0) {
        node_b_->reboot(options_.node_b_boot_delay);
      } else {
        node_b_->boot();
      }
    }
  }

  sim::Simulation& sim() { return *sim_; }
  sim::Node& node_a() { return *node_a_; }
  sim::Node& node_b() { return *node_b_; }
  sim::Node& monitor_node() { return *monitor_node_; }

  Engine* engine_a() { return Engine::find(*node_a_); }
  Engine* engine_b() { return Engine::find(*node_b_); }

  SystemMonitor* monitor() {
    auto proc = monitor_node_->find_process("system_monitor");
    return proc ? proc->find_attachment<SystemMonitor>() : nullptr;
  }

  MessageDiverter* diverter() {
    auto proc = monitor_node_->find_process("diverter");
    return proc ? proc->find_attachment<MessageDiverter>() : nullptr;
  }

  Ftim* ftim_on(sim::Node& node) {
    auto proc = node.find_process(options_.app_process);
    return proc && proc->alive() ? Ftim::find(*proc) : nullptr;
  }

  /// The node currently holding the primary role (engine view); -1 if
  /// neither claims it.
  int primary_node() {
    if (Engine* e = engine_a(); e && e->role() == Role::kPrimary) return node_a_->id();
    if (Engine* e = engine_b(); e && e->role() == Role::kPrimary) return node_b_->id();
    return -1;
  }
  int backup_node() {
    if (Engine* e = engine_a(); e && e->role() == Role::kBackup) return node_a_->id();
    if (Engine* e = engine_b(); e && e->role() == Role::kBackup) return node_b_->id();
    return -1;
  }

  sim::Node* node_by_id(int id) {
    if (id == node_a_->id()) return node_a_;
    if (id == node_b_->id()) return node_b_;
    if (id == monitor_node_->id()) return monitor_node_;
    return nullptr;
  }

 private:
  sim::Node::BootScript make_boot_script(int peer) {
    return [this, peer](sim::Node& node) {
      if (options_.with_scm) dcom::install_scm(node);
      if (options_.with_msmq) msmq::QueueManager::install(node);
      OfttConfig cfg = options_.engine;
      cfg.unit_name = options_.unit;
      cfg.peer_node = peer;
      cfg.monitor_node = options_.with_monitor ? monitor_node_->id() : -1;
      cfg.networks = options_.dual_network ? std::vector<int>{0, 1} : std::vector<int>{0};
      Engine::install(node, cfg);
      if (options_.app_factory) {
        node.start_process(options_.app_process, options_.app_factory);
      }
    };
  }

  sim::Simulation* sim_;
  PairDeploymentOptions options_;
  sim::Node* node_a_ = nullptr;
  sim::Node* node_b_ = nullptr;
  sim::Node* monitor_node_ = nullptr;
};

// ---------------------------------------------------------------------
// ClusterDeployment: the N-replica generalization (extension beyond the
// paper). N nodes each run the full per-node stack (SCM, MSMQ, Engine
// in cluster mode, one application replica); the test PC runs the
// System Monitor and optionally one shared Message Diverter subscribed
// to every member's engine. The engines manage roles through the
// membership view / quorum-gated promotion machinery in src/cluster/.
// ---------------------------------------------------------------------

struct ClusterDeploymentOptions {
  std::string unit = "unit";
  std::string app_process = "app";
  /// Creates the application inside its process (every replica runs the
  /// same image). Null for engine-only deployments.
  std::function<void(sim::Process&)> app_factory;

  /// Engine timing/policy knobs; cluster_nodes/monitor/unit fields are
  /// filled in per node by the deployment. Same tuning guidance as
  /// PairDeploymentOptions::engine.
  OfttConfig engine;

  /// Number of replicas (>= 2). Replica i boots node "node<i>" with
  /// initial succession rank i; quorum is a majority of this count.
  int replicas = 3;

  sim::SimTime net_latency_min = sim::microseconds(100);
  sim::SimTime net_latency_max = sim::microseconds(300);
  double net_loss = 0.0;

  bool with_msmq = true;
  bool with_scm = true;
  bool with_monitor = true;
  /// One shared Message Diverter on the test PC, subscribed to every
  /// member engine (any replica can become primary).
  bool with_diverter = false;
  std::string diverter_queue = "unit.q";
  bool autostart = true;  // boot all replicas immediately
};

class ClusterDeployment {
 public:
  ClusterDeployment(sim::Simulation& sim, ClusterDeploymentOptions options)
      : sim_(&sim), options_(std::move(options)) {
    detail::validate_engine_timing(options_.engine, options_.net_loss);
    detail::validate_replication(options_.engine, options_.app_factory != nullptr);
    validate_swim_settings(options_.engine);
    if (options_.replicas < 2) {
      throw std::invalid_argument(
          cat("ClusterDeployment: replicas must be >= 2 (got ", options_.replicas, ")"));
    }
    for (int i = 0; i < options_.replicas; ++i) {
      nodes_.push_back(&sim.add_node(cat("node", i)));
    }
    monitor_node_ = &sim.add_node("testpc");

    auto& lan0 = sim.add_network("lan0");
    for (auto* n : nodes_) lan0.attach(n->id());
    lan0.attach(monitor_node_->id());
    lan0.set_latency(options_.net_latency_min, options_.net_latency_max);
    lan0.set_loss(options_.net_loss);

    std::vector<int> member_ids;
    for (auto* n : nodes_) member_ids.push_back(n->id());

    for (auto* n : nodes_) {
      n->set_boot_script([this, member_ids](sim::Node& node) {
        if (options_.with_scm) dcom::install_scm(node);
        if (options_.with_msmq) msmq::QueueManager::install(node);
        OfttConfig cfg = options_.engine;
        cfg.unit_name = options_.unit;
        cfg.cluster_nodes = member_ids;
        cfg.monitor_node = options_.with_monitor ? monitor_node_->id() : -1;
        cfg.networks = {0};
        Engine::install(node, cfg);
        if (options_.app_factory) {
          node.start_process(options_.app_process, options_.app_factory);
        }
      });
    }
    monitor_node_->set_boot_script([this, member_ids](sim::Node& node) {
      if (options_.with_scm) dcom::install_scm(node);
      if (options_.with_msmq) msmq::QueueManager::install(node);
      if (options_.with_monitor) {
        node.start_process("system_monitor",
                           [](sim::Process& p) { p.attachment<SystemMonitor>(p); });
      }
      if (options_.with_diverter && options_.with_msmq) {
        DiverterOptions dopts;
        dopts.unit = options_.unit;
        dopts.queue = options_.diverter_queue;
        dopts.nodes = member_ids;
        node.start_process("diverter",
                           [dopts](sim::Process& p) { p.attachment<MessageDiverter>(p, dopts); });
      }
    });

    monitor_node_->boot();
    if (options_.autostart) {
      for (auto* n : nodes_) n->boot();
    }
  }

  sim::Simulation& sim() { return *sim_; }
  int replicas() const { return options_.replicas; }
  sim::Node& node(int i) { return *nodes_.at(static_cast<std::size_t>(i)); }
  sim::Node& monitor_node() { return *monitor_node_; }

  Engine* engine(int i) { return Engine::find(node(i)); }

  SystemMonitor* monitor() {
    auto proc = monitor_node_->find_process("system_monitor");
    return proc ? proc->find_attachment<SystemMonitor>() : nullptr;
  }

  MessageDiverter* diverter() {
    auto proc = monitor_node_->find_process("diverter");
    return proc ? proc->find_attachment<MessageDiverter>() : nullptr;
  }

  Ftim* ftim_on(sim::Node& node) {
    auto proc = node.find_process(options_.app_process);
    return proc && proc->alive() ? Ftim::find(*proc) : nullptr;
  }

  /// Node id of the current primary; -1 if none claims the role.
  int primary_node() {
    for (auto* n : nodes_) {
      if (Engine* e = Engine::find(*n); e && e->role() == Role::kPrimary) return n->id();
    }
    return -1;
  }
  /// How many live engines currently claim PRIMARY (the split-brain
  /// invariant: never > 1 once views converge).
  int primary_count() {
    int count = 0;
    for (auto* n : nodes_) {
      if (Engine* e = Engine::find(*n); e && e->role() == Role::kPrimary) ++count;
    }
    return count;
  }

  sim::Node* node_by_id(int id) {
    for (auto* n : nodes_) {
      if (n->id() == id) return n;
    }
    if (id == monitor_node_->id()) return monitor_node_;
    return nullptr;
  }

 private:
  sim::Simulation* sim_;
  ClusterDeploymentOptions options_;
  std::vector<sim::Node*> nodes_;
  sim::Node* monitor_node_ = nullptr;
};

}  // namespace oftt::core
