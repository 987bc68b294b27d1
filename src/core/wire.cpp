#include "core/wire.h"

namespace oftt::core {

const char* role_name(Role r) {
  switch (r) {
    case Role::kUnknown: return "UNKNOWN";
    case Role::kNegotiating: return "NEGOTIATING";
    case Role::kPrimary: return "PRIMARY";
    case Role::kBackup: return "BACKUP";
    case Role::kShutdown: return "SHUTDOWN";
  }
  return "?";
}

const char* replication_mode_name(ReplicationMode m) {
  switch (m) {
    case ReplicationMode::kColdPassive: return "cold-passive";
    case ReplicationMode::kWarmPassive: return "warm-passive";
    case ReplicationMode::kSemiActive: return "semi-active";
  }
  return "?";
}

const char* detection_mode_name(DetectionMode m) {
  switch (m) {
    case DetectionMode::kGossip: return "gossip";
    case DetectionMode::kSwim: return "swim";
  }
  return "?";
}

const char* component_state_name(ComponentState s) {
  switch (s) {
    case ComponentState::kUp: return "UP";
    case ComponentState::kSuspect: return "SUSPECT";
    case ComponentState::kFailed: return "FAILED";
    case ComponentState::kRestarting: return "RESTARTING";
  }
  return "?";
}

std::string ftim_port(const std::string& process_name) { return "oftt.ftim." + process_name; }

std::uint8_t wire_kind(const Buffer& payload) { return payload.empty() ? 0 : payload[0]; }

Buffer Probe::encode(bool reply) const {
  Probe p = *this;
  p.kind = reply ? MsgKind::kProbeReply : MsgKind::kProbe;
  return codec::encode(p);
}

bool Probe::decode(const Buffer& b, Probe& out, bool reply) {
  return codec::decode(b, out) && out.kind == (reply ? MsgKind::kProbeReply : MsgKind::kProbe);
}

Buffer encode_checkpoint(std::string component, Buffer image) {
  return CheckpointFrame{{}, std::move(component), std::move(image)}.encode();
}

Buffer encode_checkpoint_nack(std::string component, std::uint64_t have_seq) {
  return CheckpointNack{{}, std::move(component), have_seq}.encode();
}

}  // namespace oftt::core
