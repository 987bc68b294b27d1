// Generic fail-closed checks over every declarative codec.
//
// A Layout visitor walks a populated message exactly as codec::Writer
// does and records where each validated byte (kind, version, enum,
// variant tag) and each count or length sits. Every message kind is
// then mutated field by field: an out-of-range byte in any validated
// field, or the maximum value in any count, must fail the decode — and
// the bogus count must not buy an allocation the genuine frame did not
// need. Truncation and trailing bytes must fail too. The ORPC count-bomb
// regressions drive the same decoders through the ORPC packet and OPC
// stub entry points.
#include <gtest/gtest.h>

#include "common/codec.h"
#include "core/checkpoint.h"
#include "core/diverter.h"
#include "core/wire.h"
#include "dcom/marshal.h"
#include "dcom/orpc.h"
#include "dcom/registry.h"
#include "dcom/server.h"
#include "msmq/message.h"
#include "nt/task.h"
#include "opc/devices/telephone.h"
#include "opc/interfaces.h"
#include "opc/notify.h"
#include "sim/simulation.h"
#include "support/alloc_counter.h"
#include "transport/session.h"

namespace oftt {
namespace {

using test::bytes_allocated_by;

/// Writes what codec::Writer writes, recording validated bytes and
/// counts by offset.
class Layout {
 public:
  BinaryWriter w;
  std::vector<std::size_t> validated;                       // one-byte fields
  std::vector<std::pair<std::size_t, std::size_t>> counts;  // (offset, width)

  template <class K> void tag(K k) {
    validated.push_back(w.size());
    w.u8(static_cast<std::uint8_t>(k));
  }
  template <class E> void one_of(E& e, std::initializer_list<E>) { tag(e); }
  template <class T> void optional(T& x, bool present) {
    w.boolean(present);
    if (present) (*this)(x);
  }
  template <class Count, class T> void list(std::vector<T>& xs) {
    counts.emplace_back(w.size(), sizeof(Count));
    codec::write(w, static_cast<Count>(xs.size()));
    for (T& x : xs) (*this)(x);
  }

  template <class T> void operator()(T& x) {
    if constexpr (std::is_enum_v<T>) {
      tag(x);
    } else if constexpr (std::is_same_v<T, std::string> || std::is_same_v<T, Buffer> ||
                         std::is_same_v<T, ByteView>) {
      counts.emplace_back(w.size(), 4);
      codec::write(w, x);
    } else if constexpr (codec::detail::is_vector<T>::value) {
      list<std::uint32_t>(x);
    } else if constexpr (codec::detail::is_map<T>::value) {
      counts.emplace_back(w.size(), 4);
      codec::write(w, static_cast<std::uint32_t>(x.size()));
      for (auto& [k, val] : x) {
        auto key = k;
        (*this)(key);
        (*this)(val);
      }
    } else if constexpr (codec::detail::is_variant<T>::value) {
      tag(x.index());
      std::visit([this](auto& alt) { (*this)(alt); }, x);
    } else if constexpr (codec::detail::is_pair<T>::value) {
      (*this)(x.first);
      (*this)(x.second);
    } else if constexpr (requires { x.fields(*this); }) {
      x.fields(*this);
    } else {
      codec::write(w, x);
    }
  }
};

template <class M>
void expect_fails_closed(M sample, const std::string& name) {
  SCOPED_TRACE(name);
  Layout layout;
  layout(sample);
  const Buffer frame = std::move(layout.w).take();
  ASSERT_EQ(frame, codec::encode(sample)) << "Layout must mirror codec::Writer";
  ASSERT_EQ(codec::encoded_size(sample), frame.size());

  M out;
  const std::size_t clean_alloc = bytes_allocated_by([&] { ASSERT_TRUE(codec::decode(frame, out)); });

  for (std::size_t at : layout.validated) {
    Buffer bad = frame;
    bad[at] = 0xFF;
    M m;
    EXPECT_FALSE(codec::decode(bad, m)) << "byte 0xFF at offset " << at;
  }
  for (const auto& [at, width] : layout.counts) {
    Buffer bomb = frame;
    for (std::size_t i = 0; i < width; ++i) bomb[at + i] = 0xFF;
    M m;
    bool ok = true;
    const std::size_t alloc = bytes_allocated_by([&] { ok = codec::decode(bomb, m); });
    EXPECT_FALSE(ok) << "max count at offset " << at;
    EXPECT_LE(alloc, clean_alloc) << "max count at offset " << at;
  }
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    M m;
    EXPECT_FALSE(codec::decode(Buffer(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(cut)), m))
        << "cut at " << cut;
  }
  Buffer padded = frame;
  padded.push_back(0);
  M m;
  EXPECT_FALSE(codec::decode(padded, m)) << "trailing byte";
}

std::vector<swim::Update> updates() {
  return {{4, 7, swim::MemberState::kSuspect}, {9, 11, swim::MemberState::kDead}};
}

cluster::MembershipView view() {
  cluster::MembershipView v;
  v.version = 3;
  v.incarnation = 2;
  v.members = {{2, 0, cluster::MemberRole::kPrimary}, {0, 1, cluster::MemberRole::kBackup}};
  return v;
}

template <class S>
S swim_frame() {
  S s;
  s.from = 1;
  s.seq = 5;
  s.role = core::Role::kBackup;
  s.incarnation = 3;
  s.updates = updates();
  return s;
}

TEST(CodecFuzz, EveryControlPlaneMessageFailsClosed) {
  using namespace core;
  expect_fails_closed(Probe{MsgKind::kProbeReply, 1, 2, 3, Role::kPrimary}, "Probe");
  expect_fails_closed(PeerHeartbeat{{}, 1, Role::kBackup, 2, 3, true}, "PeerHeartbeat");
  expect_fails_closed(Takeover{{}, 0, 4, "why"}, "Takeover");
  expect_fails_closed(FtRegister{{}, "c", "p", "port", FtimKind::kOpcServer, 1, 0, true, 2},
                      "FtRegister");
  expect_fails_closed(FtHeartbeat{{}, "c", 9, ReplicationMode::kSemiActive, false, 7},
                      "FtHeartbeat");
  expect_fails_closed(FtDistress{{}, "c", "bus"}, "FtDistress");
  expect_fails_closed(WatchdogMsg{{}, MsgKind::kWatchdogReset, "c", "w", 5}, "WatchdogMsg");
  expect_fails_closed(SetRule{{}, "c", 2, 1}, "SetRule");
  expect_fails_closed(SetActive{{}, true, 3, Role::kPrimary}, "SetActive");
  StatusReport sr;
  sr.unit = "u";
  sr.role = Role::kPrimary;
  sr.components = {{"app", ComponentState::kSuspect, 1, 2, ReplicationMode::kWarmPassive, true}};
  sr.view = view();
  sr.swim_members = updates();
  expect_fails_closed(sr, "StatusReport");
  expect_fails_closed(RoleAnnounce{{}, "u", 1, Role::kBackup, 2}, "RoleAnnounce");
  expect_fails_closed(SubscribeRoles{{}, 1, "port"}, "SubscribeRoles");
  expect_fails_closed(ViewGossip{{}, 2, "u", view()}, "ViewGossip");
  expect_fails_closed(PromoteRequest{{}, 1, "u", 3, 4, "why"}, "PromoteRequest");
  expect_fails_closed(PromoteAck{{}, 0, 1, 3, true}, "PromoteAck");
  expect_fails_closed(DecisionMsg{{}, "c", 1, 2, Buffer{1, 2}}, "DecisionMsg");
  expect_fails_closed(PolicySwitchMsg{{}, "c", ReplicationMode::kWarmPassive, 1, 2, 3, "gov"},
                      "PolicySwitchMsg");
  expect_fails_closed(CheckpointFrame{{}, "c", Buffer{9, 9}}, "CheckpointFrame");
  expect_fails_closed(CheckpointNack{{}, "c", 4}, "CheckpointNack");
  expect_fails_closed(CheckpointPull{{}, "c", 4, 1, 0}, "CheckpointPull");
  expect_fails_closed(swim_frame<SwimProbe>(), "SwimProbe");
  expect_fails_closed(swim_frame<SwimAck>(), "SwimAck");
  expect_fails_closed(swim_frame<SwimPingReq>(), "SwimPingReq");
  expect_fails_closed(view(), "MembershipView");
  expect_fails_closed(updates()[0], "swim::Update");
}

TEST(CodecFuzz, EveryOpcAndOrpcCodecFailsClosed) {
  using opc::OpcValue;
  opc::NotifyFrame nf;
  nf.batches = {{7, {{1, opc::Quality::kGood, OpcValue::from_real(1.5), 10},
                     {2, opc::Quality::kUncertain, OpcValue::from_string("s"), 11}}},
                {8, {{3, opc::Quality::kBad, OpcValue(), 12}}}};
  expect_fails_closed(nf, "NotifyFrame");
  expect_fails_closed(OpcValue::from_int(-3), "OpcValue");
  expect_fails_closed(std::vector<opc::ItemState>{{"a", OpcValue::from_bool(true),
                                                    opc::Quality::kGood, 5}},
                      "ItemState list");
  expect_fails_closed(std::vector<std::pair<std::string, OpcValue>>{{"t", OpcValue::from_int(1)}},
                      "Write args");
  expect_fails_closed(opc::ServerStatus{1, 2, 3, "vendor", true}, "ServerStatus");

  const Guid iid = Guid::from_name("IID_X");
  expect_fails_closed(dcom::RequestPacket{1, 2, iid, 3, Buffer{4}, 5, "port"}, "RequestPacket");
  expect_fails_closed(dcom::ResponsePacket{1, S_OK, Buffer{2}}, "ResponsePacket");
  expect_fails_closed(dcom::PingPacket{{1, 2, 3}}, "PingPacket");
  expect_fails_closed(dcom::ActivatePacket{1, Guid::from_name("CLSID_Y"), iid, 2, "port"},
                      "ActivatePacket");
  expect_fails_closed(dcom::ObjectRef{1, "port", 2, iid}, "ObjectRef");
}

TEST(CodecFuzz, EveryMsmqTransportCheckpointAndComCodecFailsClosed) {
  msmq::Message msg{7, 1, "inbox", "call", Buffer{1, 2}, msmq::DeliveryMode::kRecoverable, 9};
  expect_fails_closed(msg, "msmq::Message");
  expect_fails_closed(msmq::SendPacket{{}, msg}, "SendPacket");
  expect_fails_closed(msmq::DeliverPacket{{}, msg}, "DeliverPacket");
  expect_fails_closed(msmq::XferPacket{{}, msg}, "XferPacket");
  expect_fails_closed(msmq::SubscribePacket{{}, "inbox", "mqr.app"}, "SubscribePacket");
  expect_fails_closed(msmq::RecvAckPacket{{}, 7, "inbox"}, "RecvAckPacket");

  const Buffer payload{5, 6, 7};
  expect_fails_closed(transport::DataFrame{{}, 1, 2, 0, payload}, "DataFrame");
  expect_fails_closed(transport::AckFrame{{}, 1, 2, 3, 4}, "AckFrame");

  expect_fails_closed(core::JournaledSend{{}, "call", payload, msmq::DeliveryMode::kExpress},
                      "JournaledSend");
  expect_fails_closed(opc::CallEvent{{}, opc::CallEvent::Kind::kBlocked, 3, -1, 40},
                      "CallEvent");

  nt::TaskContext ctx;
  ctx.start_address = 0x401000;
  ctx.stack = {1, 2, 3};
  expect_fails_closed(ctx, "TaskContext");
  core::CheckpointImage img;
  img.seq = 4;
  img.mode = core::CheckpointMode::kDelta;
  img.regions = {{"globals", Buffer{1, 2}}, {"tags", Buffer{}}};
  img.cells = {{"globals", 1, Buffer{3}}};
  img.task_contexts = {{"main", ctx.encode()}};
  expect_fails_closed(img, "CheckpointImage fields");
  expect_fails_closed(core::SelectiveCell{"globals", 1, Buffer{3}}, "SelectiveCell");

  expect_fails_closed(dcom::InterfaceRef{{1, "port", 2, Guid::from_name("IID_X")}},
                      "InterfaceRef");
  expect_fails_closed(dcom::InterfaceRef{}, "null InterfaceRef");
}

TEST(CodecFuzz, MapDecodesLastValueForARepeatedKey) {
  BinaryWriter w;
  codec::write(w, std::uint32_t{2}, std::string("k"), std::uint8_t{1}, std::string("k"),
               std::uint8_t{2});
  std::map<std::string, std::uint8_t> m{{"stale", 0}};
  ASSERT_TRUE(codec::decode(w.data(), m));
  EXPECT_EQ(m, (std::map<std::string, std::uint8_t>{{"k", 2}}));
}

// Counts are bounded by each element's smallest encoding; these are the
// sizes the hand-written guards used to hard-code.
TEST(CodecFuzz, MinSizeMatchesTheWireLayouts) {
  EXPECT_EQ(codec::min_size<swim::Update>(), 9u);
  EXPECT_EQ(codec::min_size<cluster::Member>(), 9u);
  EXPECT_EQ(codec::min_size<core::ComponentStatus>(), 19u);
  EXPECT_EQ(codec::min_size<opc::NotifyItem>(), 14u);
  EXPECT_EQ(codec::min_size<opc::SubBatch>(), 8u);
  EXPECT_EQ(codec::min_size<opc::OpcValue>(), 1u);
  EXPECT_EQ(codec::min_size<std::uint64_t>(), 8u);
  // The checkpoint image's old hand-coded count guards: name + blob per
  // region or task context, name + offset + blob per cell.
  EXPECT_EQ((codec::min_size<std::string>() + codec::min_size<Buffer>()), 8u);
  EXPECT_EQ(codec::min_size<core::SelectiveCell>(), 12u);
  EXPECT_EQ(codec::min_size<core::CheckpointImage>(), 8u + 8 + 8 + 4 + 1 + 8 + 3 * 4);
}

// ---------------------------------------------------------------------
// ORPC count bombs: a claimed count of 0xFFFFFFFF used to reserve() up
// to 32 GiB before reading a single element.
// ---------------------------------------------------------------------

Buffer u32_count_bomb(std::initializer_list<std::uint8_t> prefix = {}) {
  Buffer b(prefix);
  for (int i = 0; i < 4; ++i) b.push_back(0xFF);
  return b;
}

TEST(OrpcCountBomb, PingClaimingFourBillionOidsIsRejected) {
  Buffer frame = u32_count_bomb({static_cast<std::uint8_t>(dcom::PacketKind::kPing)});
  frame.resize(13, 0);  // one oid's worth of bytes behind the claim
  dcom::PingPacket ping;
  bool ok = true;
  EXPECT_LE(bytes_allocated_by([&] { ok = dcom::decode_ping(frame, ping); }), frame.size());
  EXPECT_FALSE(ok);
}

TEST(OrpcCountBomb, ListReadsRejectBogusCounts) {
  Buffer bomb = u32_count_bomb();
  bomb.resize(12, 0);
  auto rejects = [&](auto list) {
    BinaryReader r(bomb);
    bool ok = true;
    EXPECT_LE(bytes_allocated_by([&] { ok = codec::read(r, list); }), bomb.size());
    EXPECT_FALSE(ok);
  };
  rejects(std::vector<std::string>{});
  rejects(std::vector<std::uint32_t>{});
  rejects(std::vector<HRESULT>{});
  rejects(std::vector<opc::ItemState>{});
}

class NullGroup final : public com::Object<NullGroup, opc::IOPCGroup> {
 public:
  void AddItems(const std::vector<std::string>&, opc::ResultsHandler done) override { done(S_OK, {}); }
  void SetDeadband(double, opc::AckHandler done) override { done(S_OK); }
  void RemoveItems(const std::vector<std::string>&, opc::AckHandler done) override { done(S_OK); }
  void SyncRead(const std::vector<std::string>&, opc::ReadHandler done) override { done(S_OK, {}); }
  void AsyncRead(std::uint32_t, opc::AckHandler done) override { done(S_OK); }
  void Write(const std::vector<std::pair<std::string, opc::OpcValue>>&,
             opc::ResultsHandler done) override {
    done(S_OK, {});
  }
  void SetCallback(com::ComPtr<opc::IOPCDataCallback>, opc::AckHandler done) override {
    done(S_OK);
  }
  void SetActive(bool, opc::AckHandler done) override { done(S_OK); }
  void EnableBatchedNotify(const std::vector<std::string>&, int, std::uint32_t,
                           opc::ItemIdsHandler done) override {
    done(S_OK, {});
  }
};

class NullCallback final : public com::Object<NullCallback, opc::IOPCDataCallback> {
 public:
  void OnDataChange(std::uint32_t, const std::vector<opc::ItemState>&) override {}
  void OnReadComplete(std::uint32_t, HRESULT, const std::vector<opc::ItemState>&) override {}
};

class StubCountBomb : public ::testing::Test {
 protected:
  StubCountBomb() : sim_(1) {
    opc::ensure_opc_proxy_stubs_registered();
    sim::Node& node = sim_.add_node("server");
    node.boot();
    proc_ = node.start_process("opcserver", nullptr);
  }

  template <class Object>
  HRESULT call(const Iid& iid, std::uint16_t method, const Buffer& args) {
    const dcom::StubFactory* factory = dcom::InterfaceRegistry::instance().find_stub(iid);
    EXPECT_NE(factory, nullptr);
    dcom::StubDispatch stub =
        (*factory)(Object::create().template as<com::IUnknown>(), dcom::OrpcServer::of(*proc_));
    HRESULT hr = S_OK;
    EXPECT_LE(bytes_allocated_by([&] {
                BinaryReader r(args);
                BinaryWriter result;
                hr = stub(method, r, result);
              }),
              args.size());
    return hr;
  }

  sim::Simulation sim_;
  std::shared_ptr<sim::Process> proc_;
};

TEST_F(StubCountBomb, AddItemsStringListIsRejected) {
  EXPECT_EQ(call<NullGroup>(opc::IOPCGroup::iid(), opc::methods::kAddItems, u32_count_bomb()),
            E_INVALIDARG);
}

TEST_F(StubCountBomb, WriteValueListIsRejected) {
  EXPECT_EQ(call<NullGroup>(opc::IOPCGroup::iid(), opc::methods::kWrite, u32_count_bomb()),
            E_INVALIDARG);
}

TEST_F(StubCountBomb, OnDataChangeItemStatesAreRejected) {
  Buffer args{1, 0, 0, 0};  // transaction, then the bogus item count
  for (int i = 0; i < 4; ++i) args.push_back(0xFF);
  EXPECT_EQ(call<NullCallback>(opc::IOPCDataCallback::iid(), opc::methods::kOnDataChange, args),
            E_INVALIDARG);
}

}  // namespace
}  // namespace oftt
