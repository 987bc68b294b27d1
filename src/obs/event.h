// The telemetry event taxonomy: one typed record for everything the
// OFTT components report about themselves. Replaces the three ad-hoc
// mechanisms that grew before it (the Logger free-text stream, the
// Simulation string-keyed counter map, and the Engine's private event
// deque) with a single stream the System Monitor, the failover span
// tracker, and the benches all consume.
//
// Events are timestamped in *sim* time, so a given seed produces a
// byte-identical event history — the property the §4 measurements and
// the deterministic-trace tests rely on.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace oftt::obs {

/// Every kind of thing an OFTT component can report. Grouped by the
/// subsystem that publishes it; the numeric value is stable (it is part
/// of the exported JSON) — append, never renumber.
enum class EventKind : std::uint32_t {
  // Engine: role management and failure handling.
  kRoleChange = 0,        // a = new Role, b = incarnation
  kFailureDetected = 1,   // opens a failover trace; a = evidence time (ns)
  kComponentFailed = 2,
  kComponentRestart = 3,  // a = restart count
  kDistress = 4,
  kWatchdogExpired = 5,
  kDualPrimary = 6,
  kStartupShutdown = 7,
  // FTIM: checkpointing and activation.
  kComponentActivated = 8,    // a = checkpoint seq restored (0 = cold)
  kComponentDeactivated = 9,
  kCheckpointTaken = 10,      // a = seq, b = bytes
  kCheckpointApplied = 11,    // a = seq
  kEngineRestart = 12,        // FTIM restarted a dead engine
  // Diverter: external routing.
  kDiverterReroute = 13,      // a = new primary node id
  // Simulation: node-level faults.
  kNodeDown = 14,             // a = NodeFailureKind
  kNodeUp = 15,               // a = boot count
  // Cluster: N-replica role management (quorum-gated promotion).
  kPromotionRequested = 16,   // a = proposed incarnation, b = votes needed
  kPromotionQuorum = 17,      // a = votes collected (incl self), b = votes needed
  kViewChange = 18,           // a = view version, b = view incarnation
  // Durable store: local journal recovery and resync after reboot.
  kJournalRecovered = 19,     // a = records replayed, b = recovered seq
  kResyncDelta = 20,          // a = deltas shipped, b = bytes shipped
  kResyncFull = 21,           // a = seq shipped, b = bytes shipped
  // Transport: reliable session layer.
  kSessionReset = 22,         // a = peer node id, b = new tx epoch
  // Replication: live policy switches (governor- or app-driven).
  kPolicySwitch = 23,         // a = new ReplicationMode, b = old
  // Swim failure detection (cluster mode).
  kSwimSuspect = 24,          // a = suspected node, b = accused incarnation
  kSwimRefute = 25,           // a = refuting node, b = new incarnation
  kSwimDeadConfirm = 26,      // a = confirmed node, b = incarnation
  // OPC data plane: batched change notifications and device health.
  kOpcBatch = 27,             // a = batch item count, b = deadband-suppressed
  kOpcBatchDrop = 28,         // a = client node, b = drops so far
  kOpcDeviceFault = 29,       // a = 1 faulted / 0 restored
  kMaxKind = 30,              // one past the last kind (mask width)
};

const char* event_kind_name(EventKind kind);

/// Value of a kRoleChange event's `a` field when the new role is
/// PRIMARY. Mirrors core::Role::kPrimary — obs cannot include core
/// headers (core sits above it), so the publish site in core/engine.cpp
/// static_asserts the two stay equal.
inline constexpr std::uint64_t kRoleChangePrimary = 2;

/// Bitmask over EventKind for subscriber filters.
using EventMask = std::uint64_t;

constexpr EventMask mask_of(EventKind kind) {
  return EventMask{1} << static_cast<std::uint32_t>(kind);
}
constexpr EventMask kAllEvents = ~EventMask{0};

template <typename... Kinds>
constexpr EventMask mask_of(EventKind first, Kinds... rest) {
  return (mask_of(first) | ... | mask_of(rest));
}

struct Event {
  sim::SimTime at = 0;     // stamped by the bus at publish time
  EventKind kind = EventKind::kRoleChange;
  int node = -1;           // originating node, -1 if not node-scoped
  std::string unit;        // logical execution unit ("" if none)
  std::string component;   // component/process scope ("" if none)
  std::string detail;      // human-readable description
  std::uint64_t a = 0;     // kind-specific numeric payload
  std::uint64_t b = 0;     // second kind-specific numeric payload
};

}  // namespace oftt::obs
