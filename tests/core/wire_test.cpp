// Wire-format tests: every OFTT control message round-trips, kind
// confusion is rejected, and truncated frames decode to failure rather
// than garbage (half-dead peers send half messages).
#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/wire.h"
#include "msmq/message.h"
#include "transport/session.h"

namespace oftt::core {
namespace {

TEST(Wire, ProbeRoundTrip) {
  Probe p;
  p.node = 3;
  p.boot_count = 2;
  p.incarnation = 9;
  p.role = Role::kNegotiating;
  Probe out;
  ASSERT_TRUE(Probe::decode(p.encode(false), out, false));
  EXPECT_EQ(out.node, 3);
  EXPECT_EQ(out.boot_count, 2);
  EXPECT_EQ(out.incarnation, 9u);
  EXPECT_EQ(out.role, Role::kNegotiating);
  // Probe and reply are distinct kinds.
  EXPECT_FALSE(Probe::decode(p.encode(false), out, true));
  ASSERT_TRUE(Probe::decode(p.encode(true), out, true));
}

TEST(Wire, PeerHeartbeatRoundTrip) {
  PeerHeartbeat hb;
  hb.node = 1;
  hb.role = Role::kPrimary;
  hb.incarnation = 4;
  hb.seq = 777;
  PeerHeartbeat out;
  ASSERT_TRUE(PeerHeartbeat::decode(hb.encode(), out));
  EXPECT_EQ(out.seq, 777u);
  EXPECT_EQ(out.role, Role::kPrimary);
}

TEST(Wire, TakeoverRoundTrip) {
  Takeover t;
  t.from_node = 0;
  t.incarnation = 12;
  t.reason = "component 'app' permanent failure";
  Takeover out;
  ASSERT_TRUE(Takeover::decode(t.encode(), out));
  EXPECT_EQ(out.reason, t.reason);
  EXPECT_EQ(out.incarnation, 12u);
}

TEST(Wire, FtRegisterRoundTripWithLiveState) {
  FtRegister reg;
  reg.component = "calltrack";
  reg.process_name = "calltrack_proc";
  reg.ftim_port = "oftt.ftim.calltrack_proc";
  reg.kind = FtimKind::kOpcServer;
  reg.max_local_restarts = 2;
  reg.switchover_on_permanent = 0;
  reg.currently_active = true;
  reg.incarnation = 5;
  FtRegister out;
  ASSERT_TRUE(FtRegister::decode(reg.encode(), out));
  EXPECT_EQ(out.component, "calltrack");
  EXPECT_EQ(out.kind, FtimKind::kOpcServer);
  EXPECT_EQ(out.max_local_restarts, 2);
  EXPECT_EQ(out.switchover_on_permanent, 0);
  EXPECT_TRUE(out.currently_active);
  EXPECT_EQ(out.incarnation, 5u);
}

TEST(Wire, HeartbeatAndDistressRoundTrip) {
  FtHeartbeat hb;
  hb.component = "c";
  hb.seq = 1;
  FtHeartbeat hout;
  ASSERT_TRUE(FtHeartbeat::decode(hb.encode(), hout));
  EXPECT_EQ(hout.component, "c");

  FtDistress d;
  d.component = "c";
  d.reason = "sensor bus";
  FtDistress dout;
  ASSERT_TRUE(FtDistress::decode(d.encode(), dout));
  EXPECT_EQ(dout.reason, "sensor bus");
}

TEST(Wire, WatchdogOpsPreserveKind) {
  for (MsgKind op :
       {MsgKind::kWatchdogCreate, MsgKind::kWatchdogReset, MsgKind::kWatchdogDelete}) {
    WatchdogMsg wd;
    wd.op = op;
    wd.component = "app";
    wd.watchdog = "loop";
    wd.timeout = sim::milliseconds(300);
    WatchdogMsg out;
    ASSERT_TRUE(WatchdogMsg::decode(wd.encode(), out));
    EXPECT_EQ(out.op, op);
    EXPECT_EQ(out.timeout, sim::milliseconds(300));
  }
  WatchdogMsg out;
  EXPECT_FALSE(WatchdogMsg::decode(FtHeartbeat{}.encode(), out));
}

TEST(Wire, SetRuleRoundTrip) {
  SetRule rule;
  rule.component = "app";
  rule.max_local_restarts = 7;
  rule.switchover_on_permanent = 0;
  SetRule out;
  ASSERT_TRUE(SetRule::decode(rule.encode(), out));
  EXPECT_EQ(out.max_local_restarts, 7);
  EXPECT_EQ(out.switchover_on_permanent, 0);
}

TEST(Wire, StatusReportRoundTripManyComponents) {
  StatusReport sr;
  sr.unit = "calltrack";
  sr.node = 1;
  sr.role = Role::kBackup;
  sr.incarnation = 3;
  sr.peer_visible = true;
  for (int i = 0; i < 20; ++i) {
    sr.components.push_back(ComponentStatus{"comp" + std::to_string(i),
                                            ComponentState::kRestarting, i,
                                            static_cast<std::uint64_t>(i) * 100});
  }
  StatusReport out;
  ASSERT_TRUE(StatusReport::decode(sr.encode(), out));
  ASSERT_EQ(out.components.size(), 20u);
  EXPECT_EQ(out.components[7].restarts, 7);
  EXPECT_EQ(out.components[7].state, ComponentState::kRestarting);
}

TEST(Wire, RoleAnnounceAndSubscribeRoundTrip) {
  RoleAnnounce ra;
  ra.unit = "u";
  ra.node = 2;
  ra.role = Role::kPrimary;
  ra.incarnation = 8;
  RoleAnnounce raout;
  ASSERT_TRUE(RoleAnnounce::decode(ra.encode(), raout));
  EXPECT_EQ(raout.incarnation, 8u);

  SubscribeRoles sub;
  sub.subscriber_node = 2;
  sub.subscriber_port = "oftt.divert.telsim";
  SubscribeRoles sout;
  ASSERT_TRUE(SubscribeRoles::decode(sub.encode(), sout));
  EXPECT_EQ(sout.subscriber_port, "oftt.divert.telsim");
}

TEST(Wire, CheckpointFrameRoundTrip) {
  Buffer image{9, 8, 7, 6};
  Buffer frame = encode_checkpoint("calltrack", image);
  CheckpointFrame out;
  ASSERT_TRUE(CheckpointFrame::decode(frame, out));
  EXPECT_EQ(out.component, "calltrack");
  EXPECT_EQ(out.image, image);
}

TEST(Wire, CheckpointFrameBuiltInPlaceMatchesEncodeAndDecodesAsView) {
  CheckpointImage img;
  img.seq = 7;
  img.incarnation = 2;
  img.regions["globals"] = Buffer(300, 0xAB);
  img.task_contexts["main"] = Buffer{1, 2, 3};
  const Buffer image = img.marshal();
  ASSERT_EQ(image.size(), img.marshalled_size());

  BinaryWriter w;
  const std::size_t image_at = begin_checkpoint_frame(w, "calltrack", img.marshalled_size());
  img.marshal(w);
  end_checkpoint_frame(w, image_at);
  const Buffer frame = std::move(w).take();
  EXPECT_EQ(frame, encode_checkpoint("calltrack", image)) << "same bytes as a copied-in image";

  CheckpointFrameView view;
  ASSERT_TRUE(CheckpointFrameView::decode(frame, view));
  EXPECT_EQ(view.component, "calltrack");
  EXPECT_EQ(view.image.data(), frame.data() + image_at) << "the image is read in place";
  EXPECT_EQ(Buffer(view.image.begin(), view.image.end()), image);
  CheckpointImage out;
  ASSERT_TRUE(CheckpointImage::unmarshal(view.image, out));
  EXPECT_EQ(out.regions, img.regions);
  EXPECT_EQ(CheckpointImage::crc32c_of_marshalled(view.image), crc32c(image));
}

TEST(Wire, CheckpointNackRoundTrip) {
  Buffer frame = encode_checkpoint_nack("calltrack", 41);
  CheckpointNack out;
  ASSERT_TRUE(CheckpointNack::decode(frame, out));
  EXPECT_EQ(out.component, "calltrack");
  EXPECT_EQ(out.have_seq, 41u);
}

TEST(Wire, CheckpointNackRejectsTruncationAndTrailingGarbage) {
  Buffer frame = encode_checkpoint_nack("c", 7);
  CheckpointNack out;
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    Buffer t(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(CheckpointNack::decode(t, out)) << "cut at " << cut;
  }
  Buffer padded = frame;
  padded.push_back(0xEE);
  EXPECT_FALSE(CheckpointNack::decode(padded, out));
}

// A declared element count far past the remaining bytes must fail the
// count guard, not attempt a giant allocation. The count sits right
// after the fixed header fields, so stomp the 4 bytes preceding the
// first element and feed the result back through decode.
TEST(Wire, StatusReportCountGuardRejectsBogusCounts) {
  StatusReport sr;
  sr.unit = "u";
  sr.node = 1;
  Buffer b = sr.encode();  // zero components: count is the last 4 bytes
  ASSERT_GE(b.size(), 4u);
  for (std::size_t i = b.size() - 4; i < b.size(); ++i) b[i] = 0xFF;
  StatusReport out;
  EXPECT_FALSE(StatusReport::decode(b, out));
}

// Deterministic fuzz: random byte soup must never decode successfully
// into any frame type (the leading kind byte alone filters most, the
// fail-closed reader catches the rest) — and must never crash or
// allocate absurdly. Seeded LCG keeps the test reproducible.
TEST(Wire, FuzzGarbageFramesNeverDecode) {
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  auto next = [&s]() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint8_t>(s >> 56);
  };
  for (int trial = 0; trial < 2000; ++trial) {
    Buffer junk(static_cast<std::size_t>(next()) % 64);
    for (auto& byte : junk) byte = next();
    // Force the correct kind byte half the time so decoding exercises
    // the body parsers, not just the kind check.
    StatusReport sr;
    Probe p;
    Takeover t;
    CheckpointFrame ckpt;
    CheckpointNack nack;
    if (!junk.empty() && trial % 2 == 0) {
      junk[0] = static_cast<std::uint8_t>(MsgKind::kStatusReport);
    }
    StatusReport::decode(junk, sr);  // must not crash / huge-alloc
    Probe::decode(junk, p, false);
    Takeover::decode(junk, t);
    CheckpointFrame::decode(junk, ckpt);
    CheckpointNack::decode(junk, nack);
    EXPECT_LT(sr.components.size(), 4096u);
    EXPECT_LT(ckpt.image.size(), 4096u);
  }
}

TEST(Wire, TruncatedFramesRejected) {
  StatusReport sr;
  sr.unit = "u";
  sr.components.push_back(ComponentStatus{"c", ComponentState::kUp, 0, 0});
  Buffer b = sr.encode();
  for (std::size_t cut : {std::size_t{1}, b.size() / 2, b.size() - 1}) {
    Buffer t(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(cut));
    StatusReport out;
    EXPECT_FALSE(StatusReport::decode(t, out)) << "cut at " << cut;
  }
}

TEST(Wire, KindConfusionRejectedAcrossAllTypes) {
  Buffer hb = PeerHeartbeat{}.encode();
  Probe p;
  Takeover t;
  FtRegister reg;
  StatusReport sr;
  RoleAnnounce ra;
  SetRule rule;
  EXPECT_FALSE(Probe::decode(hb, p, false));
  EXPECT_FALSE(Takeover::decode(hb, t));
  EXPECT_FALSE(FtRegister::decode(hb, reg));
  EXPECT_FALSE(StatusReport::decode(hb, sr));
  EXPECT_FALSE(RoleAnnounce::decode(hb, ra));
  EXPECT_FALSE(SetRule::decode(hb, rule));
}

// The transport session layer multiplexes onto the same ports as the
// control-plane frames, discriminated only by the leading byte. Pin
// that its frame kinds stay clear of every MsgKind and MqPacket value
// so `Endpoint::handle` can safely claim frames by first byte.
TEST(Wire, TransportFrameKindsCollideWithNothing) {
  const std::uint8_t transport_kinds[] = {transport::kDataFrame, transport::kAckFrame};
  for (std::uint8_t k : transport_kinds) {
    EXPECT_GT(k, static_cast<std::uint8_t>(MsgKind::kPromoteAck)) << int(k);
    EXPECT_GT(k, static_cast<std::uint8_t>(msmq::MqPacket::kXferAck)) << int(k);
  }
  Buffer fake{transport::kDataFrame};
  EXPECT_TRUE(transport::is_transport_frame(fake));
  Buffer real = PeerHeartbeat{}.encode();
  EXPECT_FALSE(transport::is_transport_frame(real));
}

TEST(Wire, EmptyBufferRejectedEverywhere) {
  Buffer empty;
  PeerHeartbeat hb;
  EXPECT_FALSE(PeerHeartbeat::decode(empty, hb));
  CheckpointFrame ckpt;
  EXPECT_FALSE(CheckpointFrame::decode(empty, ckpt));
  EXPECT_EQ(wire_kind(empty), 0);
}

}  // namespace
}  // namespace oftt::core
