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

std::uint8_t wire_kind(ByteView payload) { return payload.empty() ? 0 : payload[0]; }

Buffer Probe::encode(bool reply) const {
  Probe p = *this;
  p.kind = reply ? MsgKind::kProbeReply : MsgKind::kProbe;
  return codec::encode(p);
}

bool Probe::decode(const Buffer& b, Probe& out, bool reply) {
  return codec::decode(b, out) && out.kind == (reply ? MsgKind::kProbeReply : MsgKind::kProbe);
}

Buffer encode_checkpoint(const std::string& component, ByteView image) {
  return CheckpointFrameView{{}, component, image}.encode();
}

std::size_t begin_checkpoint_frame(BinaryWriter& w, const std::string& component,
                                   std::size_t image_bytes) {
  // The header of a frame with an empty image; its length field is the
  // last four bytes, patched once the image is written.
  const CheckpointFrameView header{{}, component, {}};
  w.reserve(w.size() + codec::min_size<CheckpointFrameView>() + component.size() + image_bytes);
  codec::write(w, header);
  return w.size();
}

void end_checkpoint_frame(BinaryWriter& w, std::size_t image_at) {
  w.patch_u32(image_at - 4, static_cast<std::uint32_t>(w.size() - image_at));
}

Buffer encode_checkpoint_nack(std::string component, std::uint64_t have_seq) {
  return CheckpointNack{{}, std::move(component), have_seq}.encode();
}

}  // namespace oftt::core
