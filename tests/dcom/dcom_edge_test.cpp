// DCOM edge cases: proxy re-marshaling identity, pinned exports, SCM
// unavailability, concurrent outstanding calls, and orphaned proxies.
#include <gtest/gtest.h>

#include "dcom/client.h"
#include "dcom/marshal.h"
#include "dcom/scm.h"
#include "dcom/server.h"
#include "opc/client.h"
#include "opc/device.h"
#include "opc/server.h"
#include "sim/simulation.h"

namespace oftt::dcom {
namespace {

const Clsid kClsid = Guid::from_name("CLSID_EdgePlc");

class EdgeTest : public ::testing::Test {
 protected:
  EdgeTest() : sim_(19) {
    server_ = &sim_.add_node("server");
    client_ = &sim_.add_node("client");
    auto& net = sim_.add_network("lan");
    net.attach(server_->id());
    net.attach(client_->id());
    server_->set_boot_script([](sim::Node& node) {
      install_scm(node);
      node.start_process("opcserver", [](sim::Process& proc) {
        auto plc = std::make_shared<opc::PlcDevice>("PLC", sim::milliseconds(10));
        plc->add_input("Sig", std::make_unique<opc::CounterSignal>());
        opc::install_opc_server(proc, kClsid, plc, "v");
      });
    });
    server_->boot();
    client_->boot();
    hmi_ = client_->start_process("hmi", nullptr);
  }

  com::ComPtr<opc::IOPCServer> activate() {
    com::ComPtr<opc::IOPCServer> out;
    auto& orpc = OrpcClient::of(*hmi_);
    orpc.activate(server_->id(), kClsid, opc::IOPCServer::iid(),
                  [&](HRESULT hr, const ObjectRef& ref) {
                    if (SUCCEEDED(hr)) out = orpc.unmarshal(ref).as<opc::IOPCServer>();
                  });
    sim_.run_for(sim::milliseconds(100));
    return out;
  }

  sim::Simulation sim_;
  sim::Node* server_;
  sim::Node* client_;
  std::shared_ptr<sim::Process> hmi_;
};

TEST_F(EdgeTest, RemarshalingAProxyForwardsTheOriginalReference) {
  // A proxy passed back through marshal_interface must serialize its
  // *original* ObjectRef (no proxy-of-proxy chains).
  auto server_iface = activate();
  ASSERT_TRUE(server_iface);
  auto* proxy = dynamic_cast<ProxyBase*>(server_iface.get());
  ASSERT_NE(proxy, nullptr);

  BinaryWriter w;
  codec::write(w, marshal_interface(OrpcServer::of(*hmi_), server_iface));
  BinaryReader r(w.data());
  ASSERT_EQ(r.u8(), 1);
  ObjectRef round;
  ASSERT_TRUE(codec::read(r, round));
  EXPECT_EQ(round, proxy->ref());
  EXPECT_EQ(round.node, server_->id()) << "still points at the real server";
}

TEST_F(EdgeTest, MarshalNullInterfaceIsNullOnTheOtherSide) {
  BinaryWriter w;
  codec::write(w, marshal_interface(OrpcServer::of(*hmi_), com::ComPtr<opc::IOPCServer>{}));
  BinaryReader r(w.data());
  auto back = unmarshal_interface<opc::IOPCServer>(OrpcClient::of(*hmi_), r);
  EXPECT_FALSE(back);
}

TEST_F(EdgeTest, PinnedExportsSurviveWithoutPings) {
  auto svc = server_->find_process("opcserver");
  auto dummy = opc::OpcServerObject::create(*svc, std::make_shared<opc::PlcDevice>(
                                                       "X", sim::milliseconds(10)), "v");
  auto& server = OrpcServer::of(*svc);
  ObjectRef pinned = server.export_with_dispatch(
      dummy.as<com::IUnknown>(), opc::IOPCServer::iid(),
      [](std::uint16_t, BinaryReader&, BinaryWriter&) { return S_OK; }, /*pinned=*/true);
  ASSERT_TRUE(pinned.valid());
  std::size_t count = server.export_count();
  sim_.run_for(sim::seconds(60));  // far beyond the GC horizon
  EXPECT_EQ(server.export_count(), count) << "pinned export must not be reclaimed";
}

TEST_F(EdgeTest, ActivationWithScmDownTimesOut) {
  server_->find_process("scm")->kill("service stopped");
  HRESULT got = S_OK;
  OrpcClient::of(*hmi_).activate(server_->id(), kClsid, opc::IOPCServer::iid(),
                                 [&](HRESULT hr, const ObjectRef&) { got = hr; });
  sim_.run_for(sim::seconds(3));
  EXPECT_EQ(got, RPC_E_TIMEOUT);
}

TEST_F(EdgeTest, ManyConcurrentOutstandingCallsAllComplete) {
  auto server_iface = activate();
  ASSERT_TRUE(server_iface);
  com::ComPtr<opc::IOPCGroup> group;
  server_iface->AddGroup("g", sim::milliseconds(100),
                         [&](HRESULT, com::ComPtr<opc::IOPCGroup> g) { group = std::move(g); });
  sim_.run_for(sim::milliseconds(100));
  ASSERT_TRUE(group);
  group->AddItems({"Sig"}, nullptr);
  sim_.run_for(sim::milliseconds(50));

  int completed = 0;
  for (int i = 0; i < 200; ++i) {
    group->SyncRead({"Sig"}, [&](HRESULT hr, const std::vector<opc::ItemState>&) {
      if (SUCCEEDED(hr)) ++completed;
    });
  }
  EXPECT_GT(OrpcClient::of(*hmi_).outstanding_calls(), 0u);
  sim_.run_for(sim::seconds(2));
  EXPECT_EQ(completed, 200);
  EXPECT_EQ(OrpcClient::of(*hmi_).outstanding_calls(), 0u);
}

TEST_F(EdgeTest, CallsDuringNetworkPartitionTimeOutThenRecover) {
  auto server_iface = activate();
  ASSERT_TRUE(server_iface);
  sim_.network(0).set_link(server_->id(), client_->id(), false);
  HRESULT during = S_OK;
  server_iface->GetStatus([&](HRESULT hr, const opc::ServerStatus&) { during = hr; });
  sim_.run_for(sim::seconds(3));
  EXPECT_EQ(during, RPC_E_TIMEOUT);

  sim_.network(0).set_link(server_->id(), client_->id(), true);
  HRESULT after = E_FAIL;
  server_iface->GetStatus([&](HRESULT hr, const opc::ServerStatus&) { after = hr; });
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(after, S_OK) << "same proxy works again after the partition";
}

TEST_F(EdgeTest, LateResponsesAfterTimeoutAreDropped) {
  auto server_iface = activate();
  ASSERT_TRUE(server_iface);
  // Shrink the client timeout below the round-trip latency.
  OrpcClient::of(*hmi_).config().call_timeout = sim::microseconds(50);
  HRESULT got = S_OK;
  int completions = 0;
  server_iface->GetStatus([&](HRESULT hr, const opc::ServerStatus&) {
    got = hr;
    ++completions;
  });
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(got, RPC_E_TIMEOUT);
  EXPECT_EQ(completions, 1) << "the late real response must not double-complete";
  EXPECT_GT(sim_.counter_value("orpc.late_response"), 0u);
}

}  // namespace
}  // namespace oftt::dcom
