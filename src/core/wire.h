// OFTT control-plane wire messages.
//
// Three conversations share the engine port, distinguished by kind:
//   engine <-> engine  (pair: probes, heartbeats, takeover handoff;
//                       cluster: swim frames, view gossip, promotion votes)
//   FTIM   <-> engine  (registration, component heartbeats, distress,
//                       watchdog management; loopback only)
//   diverter/monitor <-> engine (role subscription, status reports)
// Checkpoints flow FTIM -> peer FTIM on the FTIM port directly (Fig. 2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/membership.h"
#include "common/bytes.h"
#include "common/codec.h"
#include "core/config.h"
#include "swim/swim.h"

namespace oftt::core {

enum class MsgKind : std::uint8_t {
  // engine <-> engine
  kProbe = 1,
  kProbeReply = 2,
  kPeerHeartbeat = 3,
  kTakeover = 4,
  // FTIM -> engine (loopback: the engine drops these from any other node)
  kFtRegister = 10,
  kFtHeartbeat = 11,
  kFtDistress = 12,
  kWatchdogCreate = 13,
  kWatchdogReset = 14,
  kWatchdogDelete = 15,
  kSetRule = 16,
  // engine -> FTIM (loopback; 21 was kEngineHello, which was never sent)
  kSetActive = 20,
  // engine -> monitor / diverter
  kStatusReport = 30,
  kRoleAnnounce = 31,
  // diverter -> engine
  kSubscribeRoles = 32,
  // FTIM -> FTIM (all of it rides transport::Endpoint sessions, which
  // provide ordering, retransmission and the ack watermark; 41/43 were
  // kCheckpointAck/kCheckpointBatch before the session layer subsumed
  // per-checkpoint acks and the one-frame batch workaround)
  kCheckpoint = 40,
  kCheckpointNack = 41,
  kCheckpointPull = 42,
  /// Semi-active: leader -> follower ordering decision (LLFT-style).
  kDecision = 43,
  /// Replication-policy switch announcement (active FTIM -> replicas).
  kPolicySwitch = 44,
  // engine <-> engine, cluster mode (N-replica role management)
  kViewGossip = 50,
  kPromoteRequest = 51,
  kPromoteAck = 52,
  // engine <-> engine, SWIM failure detection (cluster mode). Raw
  // datagrams like the pair heartbeats:
  // detection must feel loss (DESIGN §5.7), so none of these ride the
  // session layer. Values stay clear of transport's 0xD1/0xD2 frames.
  kSwimProbe = 60,
  kSwimAck = 61,
  kSwimPingReq = 62,
};

/// Version tag carried by the cluster messages so mixed-version
/// clusters fail closed: a decoder that sees an unknown version rejects
/// the frame instead of misparsing it.
inline constexpr std::uint8_t kClusterWireVersion = 2;

std::uint8_t wire_kind(ByteView payload);

// Every message below lists its layout once, in fields() (see
// common/codec.h): the kind byte first, then the fields in wire order.
// codec::Message supplies `msg.encode()` and `T::decode(buf, out)`.

/// Probe and its reply share one layout under two kind bytes.
struct Probe {
  MsgKind kind = MsgKind::kProbe;  // kProbe or kProbeReply
  int node = -1;
  int boot_count = 0;
  std::uint32_t incarnation = 0;
  Role role = Role::kUnknown;
  template <class V> void fields(V& v) {
    v.one_of(kind, {MsgKind::kProbe, MsgKind::kProbeReply});
    v(node); v(boot_count); v(incarnation); v(role);
  }
  Buffer encode(bool reply) const;
  static bool decode(const Buffer& b, Probe& out, bool reply);
};

struct PeerHeartbeat : codec::Message<PeerHeartbeat> {
  int node = -1;
  Role role = Role::kUnknown;
  std::uint32_t incarnation = 0;
  std::uint64_t seq = 0;
  /// Every local replica is fresh enough (per its policy's staleness
  /// bound) to take over. Succession prefers ready nodes.
  bool replica_ready = true;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kPeerHeartbeat);
    v(node); v(role); v(incarnation); v(seq); v(replica_ready);
  }
};

struct Takeover : codec::Message<Takeover> {
  int from_node = -1;
  std::uint32_t incarnation = 0;
  std::string reason;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kTakeover);
    v(from_node); v(incarnation); v(reason);
  }
};

enum class FtimKind : std::uint8_t { kOpcClient = 0, kOpcServer = 1 };
constexpr bool wire_valid(FtimKind k) { return k <= FtimKind::kOpcServer; }

struct FtRegister : codec::Message<FtRegister> {
  std::string component;     // logical component name
  std::string process_name;  // for engine-driven restart
  std::string ftim_port;
  FtimKind kind = FtimKind::kOpcClient;
  int max_local_restarts = -1;       // -1: use engine default rule
  int switchover_on_permanent = -1;  // tri-state: -1 default, 0 no, 1 yes
  /// Set on re-registration: lets a freshly restarted engine adopt the
  /// node's live role instead of renegotiating over running state.
  bool currently_active = false;
  std::uint32_t incarnation = 0;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kFtRegister);
    v(component); v(process_name); v(ftim_port); v(kind); v(max_local_restarts);
    v(switchover_on_permanent); v(currently_active); v(incarnation);
  }
};

struct FtHeartbeat : codec::Message<FtHeartbeat> {
  std::string component;
  std::uint64_t seq = 0;
  /// Active replication policy, so the engine can aggregate per-node
  /// promotion readiness and the monitor can render it.
  ReplicationMode policy = ReplicationMode::kColdPassive;
  /// Promotion readiness per the policy's staleness bound (always true
  /// on the active side and under cold-passive).
  bool ready = true;
  /// When the newest replica state this FTIM holds was applied (sim
  /// time; 0 = nothing applied yet).
  sim::SimTime applied_at = 0;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kFtHeartbeat);
    v(component); v(seq); v(policy); v(ready); v(applied_at);
  }
};

struct FtDistress : codec::Message<FtDistress> {
  std::string component;
  std::string reason;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kFtDistress);
    v(component); v(reason);
  }
};

struct WatchdogMsg : codec::Message<WatchdogMsg> {
  MsgKind op = MsgKind::kWatchdogCreate;
  std::string component;
  std::string watchdog;
  sim::SimTime timeout = 0;  // create/reset
  template <class V> void fields(V& v) {
    v.one_of(op, {MsgKind::kWatchdogCreate, MsgKind::kWatchdogReset, MsgKind::kWatchdogDelete});
    v(component); v(watchdog); v(timeout);
  }
};

/// Run-time recovery-rule update — the paper's stated extension ("An
/// application that uses the OFTT can explicitly specify the recovery
/// rule either statically at compilation time or dynamically at
/// run-time. The current implementation only supports static
/// decision."); this implementation supports both.
struct SetRule : codec::Message<SetRule> {
  std::string component;
  int max_local_restarts = -1;
  int switchover_on_permanent = -1;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kSetRule);
    v(component); v(max_local_restarts); v(switchover_on_permanent);
  }
};

struct SetActive : codec::Message<SetActive> {
  bool active = false;
  std::uint32_t incarnation = 0;
  Role role = Role::kUnknown;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kSetActive);
    v(active); v(incarnation); v(role);
  }
};

enum class ComponentState : std::uint8_t {
  kUp = 0,
  kSuspect = 1,
  kFailed = 2,
  kRestarting = 3,
};
const char* component_state_name(ComponentState s);
constexpr bool wire_valid(ComponentState s) { return s <= ComponentState::kRestarting; }

struct ComponentStatus {
  std::string name;
  ComponentState state = ComponentState::kUp;
  int restarts = 0;
  std::uint64_t heartbeats = 0;
  ReplicationMode policy = ReplicationMode::kColdPassive;
  bool ready = true;
  template <class V> void fields(V& v) {
    v(name); v(state); v(restarts); v(heartbeats); v(policy); v(ready);
  }
};

struct StatusReport : codec::Message<StatusReport> {
  std::string unit;
  int node = -1;
  Role role = Role::kUnknown;
  std::uint32_t incarnation = 0;
  bool peer_visible = false;
  std::vector<ComponentStatus> components;
  /// Cluster mode only: the reporter's membership view (empty members
  /// list in pair mode — the monitor falls back to the pair rendering).
  cluster::MembershipView view;
  /// Cluster mode only: this reporter's per-member swim verdicts (alive
  /// / suspect / dead with incarnation numbers) — what the monitor's
  /// swim board renders. Empty in pair mode.
  std::vector<swim::Update> swim_members;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kStatusReport);
    v(unit); v(node); v(role); v(incarnation); v(peer_visible); v(components);
    v.optional(view, !view.members.empty());
    v(swim_members);
  }
};

struct RoleAnnounce : codec::Message<RoleAnnounce> {
  std::string unit;
  int node = -1;
  Role role = Role::kUnknown;
  std::uint32_t incarnation = 0;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kRoleAnnounce);
    v(unit); v(node); v(role); v(incarnation);
  }
};

struct SubscribeRoles : codec::Message<SubscribeRoles> {
  int subscriber_node = -1;
  std::string subscriber_port;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kSubscribeRoles);
    v(subscriber_node); v(subscriber_port);
  }
};

/// The primary's periodic membership broadcast (cluster mode). Sent to
/// every configured member — including ones marked dead, so a rebooted
/// node resynchronizes its view without a separate join protocol.
struct ViewGossip : codec::Message<ViewGossip> {
  int from_node = -1;
  std::string unit;
  cluster::MembershipView view;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kViewGossip); v.tag(kClusterWireVersion);
    v(from_node); v(unit); v(view);
  }
};

/// A backup that believes the primary failed asks the surviving members
/// to ack its promotion at `incarnation` (see cluster/quorum.h).
struct PromoteRequest : codec::Message<PromoteRequest> {
  int candidate = -1;
  std::string unit;
  std::uint32_t incarnation = 0;   // proposed (current + 1)
  std::uint64_t view_version = 0;  // candidate's view when it decided
  std::string reason;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kPromoteRequest); v.tag(kClusterWireVersion);
    v(candidate); v(unit); v(incarnation); v(view_version); v(reason);
  }
};

/// Voter's reply. `granted` is false when the voter still sees a live
/// primary or already voted for a different candidate this incarnation.
struct PromoteAck : codec::Message<PromoteAck> {
  int voter = -1;
  int candidate = -1;
  std::uint32_t incarnation = 0;
  bool granted = false;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kPromoteAck); v.tag(kClusterWireVersion);
    v(voter); v(candidate); v(incarnation); v(granted);
  }
};

/// Semi-active ordering decision (leader -> followers, over the same
/// FTIM session as checkpoints but on its own traffic class). Followers
/// apply decisions in seq order through the application's registered
/// decision handler; a gap means a lost leader epoch and triggers a
/// full-checkpoint resync.
struct DecisionMsg : codec::Message<DecisionMsg> {
  std::string component;
  std::uint64_t seq = 0;
  sim::SimTime decided_at = 0;
  Buffer payload;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kDecision);
    v(component); v(seq); v(decided_at); v(payload);
  }
};

/// Live policy switch: the active FTIM tells its replicas which policy
/// governs the stream from (incarnation, at_seq) onward so both sides
/// change discipline at the same point in the checkpoint sequence.
struct PolicySwitchMsg : codec::Message<PolicySwitchMsg> {
  std::string component;
  ReplicationMode to = ReplicationMode::kColdPassive;
  std::uint32_t incarnation = 0;
  std::uint64_t at_seq = 0;        // checkpoint seq the switch takes effect at
  std::uint64_t decision_seq = 0;  // decision-log watermark at the switch
  std::string reason;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kPolicySwitch);
    v(component); v(to); v(incarnation); v(at_seq); v(decision_seq); v(reason);
  }
};

/// SWIM direct probe (origin -> target, or proxy -> target on behalf of
/// origin). The target acks to whoever delivered the probe; the ack's
/// `origin` routes it back to the member whose probe round it answers.
/// Every swim frame carries the sender's engine role/incarnation
/// (dual-primary arbitration rides detection traffic — cluster mode has
/// no all-to-all heartbeats to carry it) plus the bounded,
/// freshness-prioritized piggyback batch that disseminates membership.
struct SwimProbe : codec::Message<SwimProbe> {
  int from = -1;    // sending member (prober, or the relaying proxy)
  int origin = -1;  // member whose probe round this is
  std::uint64_t seq = 0;
  Role role = Role::kUnknown;          // sender's engine role
  std::uint32_t incarnation = 0;       // sender's engine incarnation
  bool replica_ready = true;
  std::vector<swim::Update> updates;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kSwimProbe); v.tag(kClusterWireVersion);
    v(from); v(origin); v(seq); v(role); v(incarnation); v(replica_ready);
    v.template list<std::uint8_t>(updates);
  }
};

/// Probe acknowledgement. `from` is the acking member (the probed
/// target); a proxy that receives an ack whose origin is not itself
/// forwards the frame verbatim to `origin`.
struct SwimAck : codec::Message<SwimAck> {
  int from = -1;
  int origin = -1;
  std::uint64_t seq = 0;
  Role role = Role::kUnknown;
  std::uint32_t incarnation = 0;
  bool replica_ready = true;
  std::vector<swim::Update> updates;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kSwimAck); v.tag(kClusterWireVersion);
    v(from); v(origin); v(seq); v(role); v(incarnation); v(replica_ready);
    v.template list<std::uint8_t>(updates);
  }
};

/// Indirect-probe request (origin -> proxy): "probe `target` for me".
/// Sent to k random proxies when the direct probe misses its ack — the
/// k extra paths separate a dead member from a lossy or one-way link.
struct SwimPingReq : codec::Message<SwimPingReq> {
  int from = -1;    // the origin asking for help
  int target = -1;  // the member to probe
  std::uint64_t seq = 0;
  Role role = Role::kUnknown;
  std::uint32_t incarnation = 0;
  bool replica_ready = true;
  std::vector<swim::Update> updates;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kSwimPingReq); v.tag(kClusterWireVersion);
    v(from); v(target); v(seq); v(role); v(incarnation); v(replica_ready);
    v.template list<std::uint8_t>(updates);
  }
};

/// Checkpoint frame: kind byte + component + image blob. One field list,
/// two ownerships of the image: CheckpointFrame owns it, and
/// CheckpointFrameView decodes it in place — a view into the received
/// frame, so a multi-megabyte image is not copied just to be parsed.
template <class Image>
struct BasicCheckpointFrame : codec::Message<BasicCheckpointFrame<Image>> {
  std::string component;
  Image image;
  template <class V> void fields(V& v) { v.tag(MsgKind::kCheckpoint); v(component); v(image); }
};
using CheckpointFrame = BasicCheckpointFrame<Buffer>;
using CheckpointFrameView = BasicCheckpointFrame<ByteView>;
Buffer encode_checkpoint(const std::string& component, ByteView image);
/// Build a checkpoint frame around an image marshalled in place: write
/// the header (sizing `w` for an image of `image_bytes`), append the
/// image to `w`, then close the frame. The image is written into the
/// frame once instead of being copied in. begin_checkpoint_frame
/// returns the image's offset in the frame.
std::size_t begin_checkpoint_frame(BinaryWriter& w, const std::string& component,
                                   std::size_t image_bytes);
void end_checkpoint_frame(BinaryWriter& w, std::size_t image_at);

/// Delta nack: a backup received a delta it cannot apply from its
/// current state (sequence gap ahead of what it holds, or a newer
/// incarnation it has no base for) and needs a self-contained image to
/// resync. Per-checkpoint *acks* no longer exist on the wire — the
/// transport session's ack watermark carries replication progress.
struct CheckpointNack : codec::Message<CheckpointNack> {
  std::string component;
  std::uint64_t have_seq = 0;
  template <class V> void fields(V& v) { v.tag(MsgKind::kCheckpointNack); v(component); v(have_seq); }
};
Buffer encode_checkpoint_nack(std::string component, std::uint64_t have_seq);

/// Cold-restart resync request (FTIM -> primary FTIM): "I recovered my
/// local journal up to (have_incarnation, have_seq) — send me what I'm
/// missing." The primary replies with the chained delta suffix as
/// individual session frames (the session keeps them in order) when the
/// requester's state is a valid base, or broadcasts a fresh full image
/// otherwise.
struct CheckpointPull : codec::Message<CheckpointPull> {
  std::string component;
  std::uint64_t have_seq = 0;
  std::uint32_t have_incarnation = 0;
  int from_node = -1;
  template <class V> void fields(V& v) {
    v.tag(MsgKind::kCheckpointPull);
    v(component); v(have_seq); v(have_incarnation); v(from_node);
  }
};

}  // namespace oftt::core
