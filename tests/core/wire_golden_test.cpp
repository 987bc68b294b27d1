// Golden bytes for every control-plane, notify and ORPC frame, the MSMQ
// and transport frames, checkpoint images and the COM argument lists.
//
// Each frame below is one populated sample of a message layout; its
// exact encoding is pinned as (length, CRC-32C). A layout change of any
// kind — a reordered field, a different count width, a dropped
// presence flag — moves the pin, so the codecs can be rewritten freely
// as long as this test keeps passing unmodified. On a mismatch the
// failure prints the frame's hex so the offending bytes can be found.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/diverter.h"
#include "core/wire.h"
#include "dcom/orpc.h"
#include "msmq/message.h"
#include "nt/task.h"
#include "opc/devices/telephone.h"
#include "opc/notify.h"
#include "transport/session.h"

namespace oftt {
namespace {

using namespace core;

std::vector<swim::Update> sample_updates() {
  return {swim::Update{4, 7, swim::MemberState::kSuspect},
          swim::Update{0, 2, swim::MemberState::kAlive},
          swim::Update{9, 11, swim::MemberState::kDead}};
}

cluster::MembershipView sample_view() {
  cluster::MembershipView v;
  v.version = 12;
  v.incarnation = 3;
  v.members = {cluster::Member{2, 0, cluster::MemberRole::kPrimary},
               cluster::Member{0, 1, cluster::MemberRole::kBackup},
               cluster::Member{1, 2, cluster::MemberRole::kDead}};
  return v;
}

template <class Swim>
Swim sample_swim(int a, int b) {
  Swim s;
  s.from = a;
  s.seq = 0x0102030405060708ull;
  s.role = Role::kBackup;
  s.incarnation = 6;
  s.replica_ready = false;
  s.updates = sample_updates();
  if constexpr (requires { s.origin; }) s.origin = b;
  else s.target = b;
  return s;
}

msmq::Message sample_message(std::uint64_t id, std::string label) {
  msmq::Message m;
  m.id = id;
  m.src_node = 1;
  m.queue = "plant";
  m.label = std::move(label);
  m.body = {1, 2, 3, 4};
  m.mode = msmq::DeliveryMode::kRecoverable;
  m.enqueued_at = 1'500'000;
  return m;
}

nt::TaskContext sample_context() {
  nt::TaskContext c;
  c.start_address = 0x401000;
  c.instruction_pointer = 0x401234;
  c.stack_pointer = 0x7ffe0000;
  c.stack = {7, 0, 7};
  return c;
}

CheckpointImage sample_image() {
  CheckpointImage img;
  img.seq = 9;
  img.decision_seq = 4;
  img.incarnation = 3;
  img.mode = CheckpointMode::kFull;
  img.taken_at = 2'000'000;
  img.regions["globals"] = {1, 2, 3, 4, 5, 6, 7, 8};
  img.regions["tags"] = {0xAA, 0xBB};
  img.cells.push_back(SelectiveCell{"globals", 4, {9, 9}});
  img.task_contexts["main"] = sample_context().encode();
  img.task_contexts["poller"] = Buffer{};
  return img;
}

std::vector<std::pair<std::string, Buffer>> golden_frames() {
  std::vector<std::pair<std::string, Buffer>> f;
  Probe probe;
  probe.node = 1;
  probe.boot_count = 3;
  probe.incarnation = 5;
  probe.role = Role::kNegotiating;
  f.emplace_back("Probe", probe.encode(false));
  f.emplace_back("ProbeReply", probe.encode(true));

  PeerHeartbeat hb;
  hb.node = 2;
  hb.role = Role::kPrimary;
  hb.incarnation = 9;
  hb.seq = 4242;
  hb.replica_ready = false;
  f.emplace_back("PeerHeartbeat", hb.encode());

  Takeover to;
  to.from_node = 0;
  to.incarnation = 10;
  to.reason = "component 'app' permanent failure";
  f.emplace_back("Takeover", to.encode());

  FtRegister reg;
  reg.component = "calltrack";
  reg.process_name = "calltrack_proc";
  reg.ftim_port = "oftt.ftim.calltrack_proc";
  reg.kind = FtimKind::kOpcServer;
  reg.max_local_restarts = 2;
  reg.switchover_on_permanent = 0;
  reg.currently_active = true;
  reg.incarnation = 5;
  f.emplace_back("FtRegister", reg.encode());

  FtHeartbeat fhb;
  fhb.component = "calltrack";
  fhb.seq = 77;
  fhb.policy = ReplicationMode::kSemiActive;
  fhb.ready = false;
  fhb.applied_at = 123'456'789;
  f.emplace_back("FtHeartbeat", fhb.encode());

  FtDistress distress;
  distress.component = "calltrack";
  distress.reason = "sensor bus";
  f.emplace_back("FtDistress", distress.encode());

  for (MsgKind op : {MsgKind::kWatchdogCreate, MsgKind::kWatchdogReset, MsgKind::kWatchdogDelete}) {
    WatchdogMsg wd;
    wd.op = op;
    wd.component = "app";
    wd.watchdog = "loop";
    wd.timeout = 300'000'000;
    f.emplace_back("Watchdog" + std::to_string(static_cast<int>(op)), wd.encode());
  }

  SetRule rule;
  rule.component = "app";
  rule.max_local_restarts = 7;
  rule.switchover_on_permanent = 1;
  f.emplace_back("SetRule", rule.encode());

  SetActive act;
  act.active = true;
  act.incarnation = 4;
  act.role = Role::kPrimary;
  f.emplace_back("SetActive", act.encode());

  StatusReport sr;
  sr.unit = "calltrack";
  sr.node = 2;
  sr.role = Role::kPrimary;
  sr.incarnation = 3;
  sr.peer_visible = true;
  sr.components.push_back(ComponentStatus{"app", ComponentState::kRestarting, 2, 900,
                                          ReplicationMode::kWarmPassive, false});
  sr.components.push_back(ComponentStatus{"opc", ComponentState::kUp, 0, 12,
                                          ReplicationMode::kColdPassive, true});
  sr.view = sample_view();
  sr.swim_members = sample_updates();
  f.emplace_back("StatusReport", sr.encode());
  StatusReport pair_sr;
  pair_sr.unit = "pair";
  pair_sr.node = 0;
  pair_sr.role = Role::kBackup;
  f.emplace_back("StatusReportPair", pair_sr.encode());

  RoleAnnounce ra;
  ra.unit = "calltrack";
  ra.node = 1;
  ra.role = Role::kBackup;
  ra.incarnation = 8;
  f.emplace_back("RoleAnnounce", ra.encode());

  SubscribeRoles sub;
  sub.subscriber_node = 2;
  sub.subscriber_port = "oftt.divert.telsim";
  f.emplace_back("SubscribeRoles", sub.encode());

  f.emplace_back("Checkpoint", encode_checkpoint("calltrack", Buffer{9, 8, 7, 6, 0, 255}));
  f.emplace_back("CheckpointNack", encode_checkpoint_nack("calltrack", 41));

  CheckpointPull pull;
  pull.component = "calltrack";
  pull.have_seq = 33;
  pull.have_incarnation = 2;
  pull.from_node = 1;
  f.emplace_back("CheckpointPull", pull.encode());

  DecisionMsg dec;
  dec.component = "calltrack";
  dec.seq = 19;
  dec.decided_at = 5'000'000;
  dec.payload = {0xDE, 0xAD, 0xBE, 0xEF};
  f.emplace_back("Decision", dec.encode());

  PolicySwitchMsg ps;
  ps.component = "calltrack";
  ps.to = ReplicationMode::kWarmPassive;
  ps.incarnation = 3;
  ps.at_seq = 100;
  ps.decision_seq = 7;
  ps.reason = "governor";
  f.emplace_back("PolicySwitch", ps.encode());

  ViewGossip vg;
  vg.from_node = 2;
  vg.unit = "calltrack";
  vg.view = sample_view();
  f.emplace_back("ViewGossip", vg.encode());

  PromoteRequest preq;
  preq.candidate = 1;
  preq.unit = "calltrack";
  preq.incarnation = 4;
  preq.view_version = 12;
  preq.reason = "primary silent";
  f.emplace_back("PromoteRequest", preq.encode());

  PromoteAck pack;
  pack.voter = 0;
  pack.candidate = 1;
  pack.incarnation = 4;
  pack.granted = true;
  f.emplace_back("PromoteAck", pack.encode());

  f.emplace_back("SwimProbe", sample_swim<SwimProbe>(3, 5).encode());
  f.emplace_back("SwimAck", sample_swim<SwimAck>(5, 3).encode());
  f.emplace_back("SwimPingReq", sample_swim<SwimPingReq>(3, 8).encode());

  std::vector<opc::SubBatch> batches(2);
  batches[0].sub_id = 7;
  batches[0].items = {
      opc::NotifyItem{0, opc::Quality::kGood, opc::OpcValue::from_real(3.5), 1000},
      opc::NotifyItem{9, opc::Quality::kUncertain, opc::OpcValue::from_int(-4), 1001},
      opc::NotifyItem{2, opc::Quality::kBad, opc::OpcValue(), 0}};
  batches[1].sub_id = 19;
  batches[1].items = {
      opc::NotifyItem{123456, opc::Quality::kGood, opc::OpcValue::from_bool(true), 77},
      opc::NotifyItem{3, opc::Quality::kGood, opc::OpcValue::from_string("mode: auto"), 78}};
  f.emplace_back("NotifyFrame", opc::encode_notify_frame(batches));

  dcom::RequestPacket req;
  req.call_id = 7;
  req.oid = 9;
  req.iid = Guid::from_name("IID_X");
  req.method = 3;
  req.args = {1, 2, 3};
  req.reply_node = 4;
  req.reply_port = "orpcc.app";
  f.emplace_back("OrpcRequest", dcom::encode_request(req));

  dcom::ResponsePacket resp;
  resp.call_id = 7;
  resp.hr = RPC_E_SERVERFAULT;
  resp.result = {5, 6};
  f.emplace_back("OrpcResponse", dcom::encode_response(resp));

  dcom::PingPacket ping;
  ping.oids = {1, 5, 0xFFFFFFFFFFull};
  f.emplace_back("OrpcPing", dcom::encode_ping(ping));

  dcom::ActivatePacket activate;
  activate.call_id = 8;
  activate.clsid = Guid::from_name("CLSID_Y");
  activate.iid = Guid::from_name("IID_X");
  activate.reply_node = 1;
  activate.reply_port = "orpcc.hmi";
  f.emplace_back("OrpcActivate", dcom::encode_activate(activate));

  // MSMQ app <-> queue manager packets, the QM <-> QM transfer, and a
  // persisted queue blob (u32 count, then each recoverable message).
  msmq::Message msg = sample_message(0x0001000000000007ull, "call");
  f.emplace_back("MqSend", msmq::encode_packet<msmq::MqPacket::kSend>(msg));
  f.emplace_back("MqDeliver", msmq::encode_packet<msmq::MqPacket::kDeliver>(msg));
  f.emplace_back("MqXfer", msmq::encode_packet<msmq::MqPacket::kXfer>(msg));
  f.emplace_back("MqSubscribe", msmq::SubscribePacket{{}, "plant", "mqr.app"}.encode());
  f.emplace_back("MqRecvAck", msmq::RecvAckPacket{{}, msg.id, "plant"}.encode());
  const msmq::Message hangup = sample_message(0x0001000000000008ull, "hangup");
  f.emplace_back("MqQueueBlob", msmq::encode_queue_blob([&](auto visit) {
                   visit(msg);
                   visit(hangup);
                 }));

  // Transport session frames.
  const Buffer payload{5, 6, 7};
  f.emplace_back("TransportData", transport::DataFrame{{}, 3, 17, 1, payload}.encode());
  f.emplace_back("TransportAck", transport::AckFrame{{}, 0x1234, 3, 16, 0b101}.encode());

  // Diverter journal record payload: label, body, delivery mode.
  const Buffer body{1, 2, 3};
  f.emplace_back("DiverterSend",
                 JournaledSend{{}, "call", body, msmq::DeliveryMode::kRecoverable}.encode());
  opc::CallEvent call;
  call.kind = opc::CallEvent::Kind::kEnd;
  call.caller = 4;
  call.line = 2;
  call.at = 123'456'789;
  f.emplace_back("CallEvent", call.encode());

  // Checkpoint images and a task context. An image pins without its
  // CRC-32C trailer: the CRC of bytes followed by their own CRC is the
  // same constant for every image, so only the body's CRC tells two
  // images apart (and the trailer is that CRC).
  const auto without_trailer = [](Buffer image) {
    image.resize(image.size() - CheckpointImage::kTrailerBytes);
    return image;
  };
  f.emplace_back("CheckpointImage", without_trailer(sample_image().marshal()));
  {
    CheckpointImage delta;
    delta.seq = 10;
    delta.base_seq = 9;
    delta.incarnation = 3;
    delta.mode = CheckpointMode::kDelta;
    delta.taken_at = 2'250'000;
    delta.cells.push_back(SelectiveCell{"tags", 1, {0xCC}});
    delta.task_contexts["main"] = sample_context().encode();
    f.emplace_back("CheckpointDelta", without_trailer(delta.marshal()));
  }
  f.emplace_back("TaskContext", sample_context().encode());

  // COM argument lists: IOPCServer::AddGroup, IOFTTEngine::
  // SetRecoveryRule, IOPCBrowse::BrowseItemIds.
  f.emplace_back("ArgsAddGroup", codec::encode(std::string("fast"), sim::SimTime{250'000'000}));
  f.emplace_back("ArgsSetRecoveryRule", codec::encode(std::string("app"), 3, -1));
  f.emplace_back("ArgsBrowseItemIds", codec::encode(std::string("Line*")));
  return f;
}

struct Pin {
  const char* name;
  std::size_t size;
  std::uint32_t crc;
};

// Pinned at the hand-written codecs these frames were first encoded
// with. Never edit a row to make the test pass: a moved pin is a wire
// format change, which breaks mixed-version peers and every pinned
// history hash.
constexpr Pin kPins[] = {
    {"Probe", 14, 0x212e04e4u},
    {"ProbeReply", 14, 0xdd27fb2eu},
    {"PeerHeartbeat", 19, 0xc4c5aa02u},
    {"Takeover", 46, 0x9075c2e1u},
    {"FtRegister", 74, 0x49f7272eu},
    {"FtHeartbeat", 32, 0x5021b192u},
    {"FtDistress", 28, 0xf7ad18acu},
    {"Watchdog13", 24, 0x647bd4bau},
    {"Watchdog14", 24, 0xaf47e5d9u},
    {"Watchdog15", 24, 0x15082757u},
    {"SetRule", 16, 0x64c42007u},
    {"SetActive", 7, 0x6ccbf044u},
    {"StatusReport", 145, 0xfaf7a087u},
    {"StatusReportPair", 28, 0x0013ea76u},
    {"RoleAnnounce", 23, 0x67dd85f9u},
    {"SubscribeRoles", 27, 0x8e587cbeu},
    {"Checkpoint", 24, 0xde31bc61u},
    {"CheckpointNack", 22, 0xf9f3cf9du},
    {"CheckpointPull", 30, 0x6106204bu},
    {"Decision", 38, 0x58b0bfacu},
    {"PolicySwitch", 47, 0xcbcf1be4u},
    {"ViewGossip", 60, 0x5d240adcu},
    {"PromoteRequest", 49, 0x58e191b1u},
    {"PromoteAck", 15, 0x2b4c3dc8u},
    {"SwimProbe", 52, 0x46b45fceu},
    {"SwimAck", 52, 0x288541a5u},
    {"SwimPingReq", 52, 0x4563b25eu},
    {"NotifyFrame", 119, 0x08cb418fu},
    {"OrpcRequest", 59, 0x90c60cb0u},
    {"OrpcResponse", 19, 0xee449b8au},
    {"OrpcPing", 29, 0x603fd4a7u},
    {"OrpcActivate", 58, 0x049d64c0u},
    {"MqSend", 47, 0xdbff32adu},
    {"MqDeliver", 47, 0x45ef3c15u},
    {"MqXfer", 47, 0xe233592cu},
    {"MqSubscribe", 21, 0x468d0aa5u},
    {"MqRecvAck", 18, 0xc0487f20u},
    {"MqQueueBlob", 98, 0x914823b0u},
    {"TransportData", 25, 0x72e61553u},
    {"TransportAck", 33, 0x9639353au},
    {"DiverterSend", 16, 0x4a581f7eu},
    {"CallEvent", 17, 0x134742b2u},
    {"CheckpointImage", 164, 0x6e7a8bf5u},
    {"CheckpointDelta", 109, 0xbbc36e6au},
    {"TaskContext", 31, 0x2f796a55u},
    {"ArgsAddGroup", 16, 0x5788a36du},
    {"ArgsSetRecoveryRule", 15, 0x285cdaafu},
    {"ArgsBrowseItemIds", 9, 0x8dcfe831u},
};

std::string hex(const Buffer& b) {
  std::string s;
  char byte[3];
  for (std::uint8_t c : b) {
    std::snprintf(byte, sizeof byte, "%02x", c);
    s += byte;
  }
  return s;
}

TEST(WireGolden, EveryFrameMatchesItsPinnedBytes) {
  auto frames = golden_frames();
  ASSERT_EQ(frames.size(), std::size(kPins));
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto& [name, bytes] = frames[i];
    EXPECT_EQ(name, kPins[i].name);
    char row[96];
    std::snprintf(row, sizeof row, "{\"%s\", %zu, 0x%08xu},", name.c_str(), bytes.size(),
                  crc32c(bytes));
    EXPECT_EQ(bytes.size(), kPins[i].size) << row << "\n" << hex(bytes);
    EXPECT_EQ(crc32c(bytes), kPins[i].crc) << row << "\n" << hex(bytes);
  }
}

TEST(WireGolden, EveryMsgKindHasAPinnedSample) {
  std::vector<bool> seen(256, false);
  for (const auto& [name, bytes] : golden_frames()) {
    ASSERT_FALSE(bytes.empty()) << name;
    seen[bytes[0]] = true;
  }
  const MsgKind kinds[] = {
      MsgKind::kProbe,          MsgKind::kProbeReply,     MsgKind::kPeerHeartbeat,
      MsgKind::kTakeover,       MsgKind::kFtRegister,     MsgKind::kFtHeartbeat,
      MsgKind::kFtDistress,     MsgKind::kWatchdogCreate, MsgKind::kWatchdogReset,
      MsgKind::kWatchdogDelete, MsgKind::kSetRule,        MsgKind::kSetActive,
      MsgKind::kStatusReport,   MsgKind::kRoleAnnounce,   MsgKind::kSubscribeRoles,
      MsgKind::kCheckpoint,     MsgKind::kCheckpointNack, MsgKind::kCheckpointPull,
      MsgKind::kDecision,       MsgKind::kPolicySwitch,   MsgKind::kViewGossip,
      MsgKind::kPromoteRequest, MsgKind::kPromoteAck,     MsgKind::kSwimProbe,
      MsgKind::kSwimAck,        MsgKind::kSwimPingReq};
  for (MsgKind k : kinds) EXPECT_TRUE(seen[static_cast<std::uint8_t>(k)]) << int(k);
}

}  // namespace
}  // namespace oftt
