// The System Monitor (§2.2.4): displays the status of hardware, OS,
// OFTT components and applications. Purely observational — "it does not
// need to be present for the operation of the OFTT fault tolerance
// provisions".
//
// Two feeds: StatusReports arrive as datagrams from each engine (the
// networked, lossy view an operator's screen shows), while the role
// transition history comes from the telemetry event bus — typed
// kRoleChange events, filtered by subscription mask, with a liveness
// guard so a killed monitor process stops receiving deliveries without
// any bookkeeping at the death site.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/wire.h"
#include "obs/event_bus.h"
#include "sim/process.h"

namespace oftt::sim {
class FaultPlan;
}

namespace oftt::core {

class SystemMonitor {
 public:
  explicit SystemMonitor(sim::Process& process);
  ~SystemMonitor();

  SystemMonitor(const SystemMonitor&) = delete;
  SystemMonitor& operator=(const SystemMonitor&) = delete;

  struct NodeView {
    StatusReport report;
    sim::SimTime last_seen = 0;
  };
  struct Transition {
    sim::SimTime at = 0;
    std::string unit;
    int node = -1;
    Role from = Role::kUnknown;
    Role to = Role::kUnknown;
  };

  /// Latest report for (unit, node); null if never seen.
  const NodeView* view(const std::string& unit, int node) const;
  /// Current primary node of a unit, or -1.
  int primary_of(const std::string& unit) const;
  /// Cluster mode: the freshest membership view reported for a unit
  /// (highest (incarnation, version) across reporters). Null when no
  /// reporter carries one (pair mode).
  const cluster::MembershipView* membership_of(const std::string& unit) const;
  /// Cluster mode: per-member swim verdict tallies across every reporter
  /// of a unit — how many reporters currently call the member alive /
  /// suspect / dead, and the highest incarnation any of them holds.
  /// Empty when no reporter runs swim (pair mode).
  struct SwimTally {
    int alive = 0;
    int suspect = 0;
    int dead = 0;
    std::uint32_t incarnation = 0;
  };
  std::map<int, SwimTally> swim_board_of(const std::string& unit) const;
  /// True when no report from (unit, node) within `staleness`.
  bool node_silent(const std::string& unit, int node, sim::SimTime staleness) const;

  const std::vector<Transition>& transitions() const { return transitions_; }
  std::uint64_t reports_received() const { return reports_; }

  /// ASCII status board (what the operator's screen would show).
  std::string render() const;

  /// Parallel-engine board: windows executed, events per worker lane,
  /// horizon-stall time and mailbox high-water/spill counts, read from
  /// the "oftt.pdes." metrics namespace. Empty string on a sequential
  /// run (the default engine publishes nothing there).
  std::string pdes_board() const;

  /// Render an injected fault schedule: every fired injection with its
  /// timestamp, then the still-pending ops. What the operator's screen
  /// shows during a chaos campaign ("what has the harness done to my
  /// plant, and what is still coming").
  static std::string render_fault_plan(const sim::FaultPlan& plan);

 private:
  void on_report(const sim::Datagram& d);
  void on_role_event(const obs::Event& e);

  sim::Process* process_;
  std::map<std::pair<std::string, int>, NodeView> views_;
  std::vector<Transition> transitions_;
  // Last role seen per (unit, node) on the bus — gives each transition
  // its `from` side.
  std::map<std::pair<std::string, int>, Role> last_roles_;
  std::uint64_t reports_ = 0;
  obs::EventBus::SubscriberId sub_ = 0;
};

}  // namespace oftt::core
