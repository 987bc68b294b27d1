// OFTT configuration: identity of the redundant pair, failure-detection
// timing, and the startup policy whose original form caused the §3.2
// erroneous-shutdown bug.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "sim/time.h"

namespace oftt::core {

enum class Role : std::uint8_t {
  kUnknown = 0,
  kNegotiating = 1,
  kPrimary = 2,
  kBackup = 3,
  kShutdown = 4,
};

const char* role_name(Role r);
/// Wire and disk validity (every wire enum has one; see common/codec.h).
constexpr bool wire_valid(Role r) { return r <= Role::kShutdown; }

/// How the execution unit keeps its backups restorable. The numeric
/// values travel on the wire (FtHeartbeat, PolicySwitch) and in the
/// policy journal — append, never renumber.
enum class ReplicationMode : std::uint8_t {
  /// The paper's scheme: periodic checkpoints held serialized on the
  /// backup, bulk restore at switchover.
  kColdPassive = 0,
  /// Continuous dirty-range delta streaming; backups fold every image
  /// into their live runtime on receipt, so switchover skips the bulk
  /// restore.
  kWarmPassive = 1,
  /// Leader-follower (LLFT-style): followers execute the workload from
  /// the leader's compact decision log; switchover is promotion-only.
  kSemiActive = 2,
};

const char* replication_mode_name(ReplicationMode m);
constexpr bool wire_valid(ReplicationMode m) { return m <= ReplicationMode::kSemiActive; }

/// Cluster mode always detects failures with SWIM: each period one
/// random direct probe, k indirect probes on miss, suspect-before-dead
/// with incarnation-numbered refutation; membership piggybacks on probe
/// traffic (O(1) per node per period). Nothing reads this type or
/// OfttConfig::detection any more; both remain only because the
/// perfbench harness still assigns the field, and go once it stops.
enum class DetectionMode : std::uint8_t { kSwim };

/// What a node does when startup probing finds no peer.
enum class AloneStartupPolicy : std::uint8_t {
  /// The paper's conservative choice: shut down rather than risk
  /// dual-primary across a dead network.
  kShutdown = 0,
  /// Become primary and serve alone (risks dual-primary if the network,
  /// not the peer, was down).
  kBecomePrimary = 1,
};

struct OfttConfig {
  std::string unit_name = "unit";  // logical execution unit (the pair)
  int peer_node = -1;              // node id of the partner
  std::vector<int> networks = {0};  // one or dual Ethernet (Fig. 1)
  int monitor_node = -1;            // where the System Monitor lives (-1: none)

  /// Cluster mode (N-replica role management): node ids of every member
  /// of the execution unit, self included, in initial succession-rank
  /// order. Size >= 2 switches the engine from pair negotiation to
  /// SWIM failure detection, membership-view gossip and quorum-gated
  /// promotion; empty keeps the paper's pair protocol.
  std::vector<int> cluster_nodes;

  bool cluster_mode() const { return cluster_nodes.size() >= 2; }
  std::vector<int> cluster_peers(int self) const {
    std::vector<int> peers = cluster_nodes;
    peers.erase(std::remove(peers.begin(), peers.end(), self), peers.end());
    return peers;
  }

  // Failure detection.
  sim::SimTime heartbeat_period = sim::milliseconds(100);
  sim::SimTime component_timeout = sim::milliseconds(400);
  /// Pair mode: backup promotes once the peer's heartbeat is this stale
  /// on every network. Cluster mode detects through the swim_* settings.
  sim::SimTime peer_timeout = sim::milliseconds(500);

  /// Unused: see DetectionMode.
  DetectionMode detection = DetectionMode::kSwim;
  /// Swim: how long a suspect may refute before it is confirmed dead.
  /// 0 = auto: (2*ceil(log2 N) + 6) * heartbeat_period — long enough
  /// for a refutation to disseminate, short enough to keep failover
  /// p99 within 2x of a 9-node cluster at N=512.
  sim::SimTime swim_suspicion_timeout = 0;

  // Startup negotiation (§3.2).
  sim::SimTime startup_probe_timeout = sim::milliseconds(800);
  int startup_retries = 3;  // 0 reproduces the paper's original logic
  AloneStartupPolicy alone_policy = AloneStartupPolicy::kShutdown;

  /// Default replication policy for the unit's components. FTIMs that
  /// do not spell out their own mode inherit this through
  /// OFTTInitialize. Warm-passive and semi-active need at least one
  /// replication peer (peer_node or cluster_nodes) — Engine::install
  /// rejects the combination otherwise.
  ReplicationMode replication = ReplicationMode::kColdPassive;

  // Telemetry: bound on the engine's operator-facing incident log
  // (oldest entries evicted first once the cap is reached).
  std::size_t event_history_cap = 256;
};

/// Swim: direct-probe ack deadline before fanning out the indirect
/// probes. It must leave room inside one heartbeat_period for the
/// indirect round trip, so validate_swim_settings rejects any
/// heartbeat_period at or below it.
inline constexpr sim::SimTime kSwimProbeTimeout = sim::milliseconds(40);

/// Well-known ports.
inline constexpr const char* kEnginePort = "oftt.engine";
inline constexpr const char* kMonitorPort = "oftt.monitor";
/// FTIM port is "oftt.ftim.<process name>" on both nodes of the pair.
std::string ftim_port(const std::string& process_name);

}  // namespace oftt::core
