// OPC layer tests: values/quality, devices, server groups, sync/async
// IO, subscriptions over DCOM, and the client's reconnect compensation.
#include <gtest/gtest.h>

#include "dcom/scm.h"
#include "opc/client.h"
#include "opc/device.h"
#include "opc/devices/telephone.h"
#include "opc/server.h"
#include "sim/simulation.h"

namespace oftt::opc {
namespace {

TEST(OpcValue, TypesAndCoercion) {
  EXPECT_TRUE(OpcValue().empty());
  EXPECT_EQ(OpcValue::from_bool(true).as_int(), 1);
  EXPECT_EQ(OpcValue::from_int(7).as_real(), 7.0);
  EXPECT_DOUBLE_EQ(OpcValue::from_real(2.5).as_real(), 2.5);
  EXPECT_EQ(OpcValue::from_real(2.9).as_int(), 2);
  EXPECT_EQ(OpcValue::from_string("x").as_string(), "x");
  EXPECT_EQ(OpcValue::from_int(3).as_string(), "3");
  EXPECT_FALSE(OpcValue::from_int(0).as_bool());
}

TEST(OpcValue, MarshalRoundTripAllTypes) {
  for (const OpcValue& v :
       {OpcValue(), OpcValue::from_bool(true), OpcValue::from_int(-9),
        OpcValue::from_real(3.5), OpcValue::from_string("tag value")}) {
    OpcValue out;
    ASSERT_TRUE(codec::decode(codec::encode(v), out));
    EXPECT_EQ(out, v);
  }
}

TEST(ItemStates, VectorMarshalRoundTrip) {
  std::vector<ItemState> items{
      {"a", OpcValue::from_int(1), Quality::kGood, sim::seconds(1)},
      {"b", OpcValue(), Quality::kBad, 0},
  };
  std::vector<ItemState> out;
  ASSERT_TRUE(codec::decode(codec::encode(items), out));
  EXPECT_EQ(out, items);
}

class DeviceTest : public ::testing::Test {
 protected:
  DeviceTest() {
    node_ = &sim_.add_node("plc");
    node_->boot();
    proc_ = node_->start_process("driver", nullptr);
  }
  sim::Simulation sim_{3};
  sim::Node* node_;
  std::shared_ptr<sim::Process> proc_;
};

TEST_F(DeviceTest, PlcScansInputsOnCycle) {
  auto plc = std::make_shared<PlcDevice>("PLC1", sim::milliseconds(10));
  plc->add_input("Tank.Level", std::make_unique<SineSignal>(50.0, 10.0, 60.0));
  plc->add_input("Pump.Count", std::make_unique<CounterSignal>());
  plc->start(proc_->main_strand(), sim_.fork_rng("plc"));

  EXPECT_EQ(plc->read("Tank.Level", 0).quality, Quality::kUncertain) << "no scan yet";
  sim_.run_for(sim::milliseconds(105));
  EXPECT_EQ(plc->scan_count(), 10u);
  ItemState level = plc->read("Tank.Level", sim_.now());
  EXPECT_EQ(level.quality, Quality::kGood);
  EXPECT_NEAR(level.value.as_real(), 50.0, 11.0);
  EXPECT_GE(plc->read("Pump.Count", sim_.now()).value.as_int(), 9);
}

TEST_F(DeviceTest, OutputsWritableInputsNot) {
  auto plc = std::make_shared<PlcDevice>("PLC1", sim::milliseconds(10));
  plc->add_input("Sensor", std::make_unique<SquareSignal>(1.0));
  plc->add_output("Valve.Cmd", OpcValue::from_bool(false));
  plc->start(proc_->main_strand(), sim_.fork_rng("plc"));
  EXPECT_EQ(plc->write("Valve.Cmd", OpcValue::from_bool(true), 0), S_OK);
  EXPECT_TRUE(plc->read("Valve.Cmd", 0).value.as_bool());
  EXPECT_EQ(plc->write("Sensor", OpcValue::from_bool(true), 0), E_FAIL);
  EXPECT_EQ(plc->write("NoSuchTag", OpcValue::from_bool(true), 0), E_INVALIDARG);
}

TEST_F(DeviceTest, FaultedDeviceReadsBad) {
  auto plc = std::make_shared<PlcDevice>("PLC1", sim::milliseconds(10));
  plc->add_input("Sensor", std::make_unique<CounterSignal>());
  plc->start(proc_->main_strand(), sim_.fork_rng("plc"));
  sim_.run_for(sim::milliseconds(50));
  EXPECT_EQ(plc->read("Sensor", sim_.now()).quality, Quality::kGood);
  plc->set_faulted(true);
  EXPECT_EQ(plc->read("Sensor", sim_.now()).quality, Quality::kBad);
  EXPECT_EQ(plc->write("Sensor", OpcValue::from_int(1), 0), E_FAIL);
}

TEST_F(DeviceTest, UnknownTagReadsBadQuality) {
  auto plc = std::make_shared<PlcDevice>("PLC1", sim::milliseconds(10));
  EXPECT_EQ(plc->read("nope", 0).quality, Quality::kBad);
}

TEST_F(DeviceTest, RandomWalkStaysBounded) {
  auto model = std::make_unique<RandomWalkSignal>(5.0, 1.0, 0.0, 10.0);
  sim::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double v = model->sample(0, rng).as_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 10.0);
  }
}

TEST_F(DeviceTest, TelephoneSystemObeysLineLimit) {
  TelephoneSystem::Config cfg;
  cfg.lines = 5;
  cfg.callers = 10;
  cfg.mean_think_s = 2.0;
  cfg.mean_hold_s = 4.0;  // heavy load -> blocking
  auto tel = std::make_shared<TelephoneSystem>(cfg);
  int max_busy = 0;
  tel->set_event_listener([&](const CallEvent&) { max_busy = std::max(max_busy, tel->busy_lines()); });
  tel->start(proc_->main_strand(), sim_.fork_rng("tel"));
  sim_.run_for(sim::minutes(10));
  EXPECT_LE(max_busy, 5);
  EXPECT_GT(tel->total_calls(), 50u);
  EXPECT_GT(tel->blocked_calls(), 0u) << "10 callers on 5 lines at this load must block";
  EXPECT_EQ(tel->read("Tel.BusyLines", sim_.now()).value.as_int(), tel->busy_lines());
}

// --- full OPC server/client over DCOM ---

const Clsid kPlcServerClsid = Guid::from_name("CLSID_PlcOpcServer");

class OpcEndToEnd : public ::testing::Test {
 protected:
  OpcEndToEnd() : sim_(17) {
    server_node_ = &sim_.add_node("industrial_pc");
    client_node_ = &sim_.add_node("monitor_pc");
    auto& net = sim_.add_network("lan");
    net.attach(server_node_->id());
    net.attach(client_node_->id());

    server_node_->set_boot_script([this](sim::Node& node) {
      dcom::install_scm(node);
      node.start_process("opcserver", [this](sim::Process& proc) {
        plc_ = std::make_shared<PlcDevice>("PLC1", sim::milliseconds(20));
        plc_->add_input("Line.Speed", std::make_unique<CounterSignal>());
        plc_->add_input("Tank.Level", std::make_unique<SineSignal>(50, 10, 30));
        plc_->add_output("Valve.Cmd", OpcValue::from_bool(false));
        install_opc_server(proc, kPlcServerClsid, plc_, "SoHaR simulated");
      });
    });
    server_node_->boot();
    client_node_->boot();
    client_proc_ = client_node_->start_process("hmi", nullptr);
  }

  sim::Simulation sim_;
  sim::Node* server_node_;
  sim::Node* client_node_;
  std::shared_ptr<sim::Process> client_proc_;
  std::shared_ptr<PlcDevice> plc_;
};

TEST_F(OpcEndToEnd, SubscriptionDeliversChangingData) {
  OpcConnection conn(*client_proc_, server_node_->id(), kPlcServerClsid);
  std::vector<ItemState> last;
  conn.subscribe({"Line.Speed", "Tank.Level"},
                 [&](const std::vector<ItemState>& items) {
                   for (const auto& i : items) last.push_back(i);
                 });
  sim_.run_for(sim::seconds(2));
  EXPECT_TRUE(conn.connected());
  EXPECT_GT(conn.updates_received(), 10u);
  bool saw_speed = false;
  for (const auto& i : last) {
    if (i.item_id == "Line.Speed") {
      saw_speed = true;
      EXPECT_EQ(i.quality, Quality::kGood);
    }
  }
  EXPECT_TRUE(saw_speed);
}

TEST_F(OpcEndToEnd, SyncReadAndWriteThroughGroup) {
  OpcConnection conn(*client_proc_, server_node_->id(), kPlcServerClsid);
  conn.subscribe({"Valve.Cmd"}, nullptr);
  sim_.run_for(sim::milliseconds(500));
  ASSERT_TRUE(conn.connected());

  HRESULT whr = E_FAIL;
  conn.write("Valve.Cmd", OpcValue::from_bool(true), [&](HRESULT hr) { whr = hr; });
  sim_.run_for(sim::milliseconds(100));
  EXPECT_EQ(whr, S_OK);

  std::vector<ItemState> read_back;
  conn.read({"Valve.Cmd"}, [&](HRESULT, const std::vector<ItemState>& items) {
    read_back = items;
  });
  sim_.run_for(sim::milliseconds(100));
  ASSERT_EQ(read_back.size(), 1u);
  EXPECT_TRUE(read_back[0].value.as_bool());
}

TEST_F(OpcEndToEnd, ChangesOnlyDeliveredOnChange) {
  // A constant output should be announced once, not every update tick.
  OpcConnection conn(*client_proc_, server_node_->id(), kPlcServerClsid);
  int valve_updates = 0;
  conn.subscribe({"Valve.Cmd"}, [&](const std::vector<ItemState>& items) {
    for (const auto& i : items) {
      if (i.item_id == "Valve.Cmd") ++valve_updates;
    }
  });
  sim_.run_for(sim::seconds(2));
  EXPECT_EQ(valve_updates, 1) << "unchanged item must not be re-announced";
}

TEST_F(OpcEndToEnd, DeviceFaultDegradesQuality) {
  OpcConnection conn(*client_proc_, server_node_->id(), kPlcServerClsid);
  Quality last_quality = Quality::kGood;
  conn.subscribe({"Line.Speed"}, [&](const std::vector<ItemState>& items) {
    for (const auto& i : items) last_quality = i.quality;
  });
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(last_quality, Quality::kGood);
  plc_->set_faulted(true);
  sim_.run_for(sim::seconds(1));
  EXPECT_EQ(last_quality, Quality::kBad);
}

TEST_F(OpcEndToEnd, StalenessWatchdogReconnectsAfterServerRestart) {
  OpcConnection::Config cfg;
  cfg.staleness_timeout = sim::milliseconds(800);
  cfg.retry_backoff = sim::milliseconds(200);
  OpcConnection conn(*client_proc_, server_node_->id(), kPlcServerClsid, cfg);
  std::uint64_t updates_before = 0;
  conn.subscribe({"Line.Speed"}, nullptr);
  sim_.run_for(sim::seconds(1));
  ASSERT_TRUE(conn.connected());
  updates_before = conn.updates_received();

  // Kill the OPC server app; subscription goes silent; the client's
  // compensation logic must reconnect (SCM relaunches the server).
  server_node_->find_process("opcserver")->kill("server fault");
  sim_.run_for(sim::seconds(5));
  EXPECT_GT(conn.reconnects(), 0u);
  EXPECT_GT(conn.updates_received(), updates_before) << "data must flow again";
}

TEST_F(OpcEndToEnd, AddItemsReportsPerItemErrors) {
  OpcConnection conn(*client_proc_, server_node_->id(), kPlcServerClsid);
  conn.subscribe({"Line.Speed"}, nullptr);
  sim_.run_for(sim::milliseconds(500));
  ASSERT_TRUE(conn.connected());
  // Drive the raw interface for the per-item result check.
  std::vector<ItemState> items;
  conn.read({"Line.Speed", "Bogus.Tag"},
            [&](HRESULT, const std::vector<ItemState>& r) { items = r; });
  sim_.run_for(sim::milliseconds(100));
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].quality, Quality::kGood);
  EXPECT_EQ(items[1].quality, Quality::kBad);
}

}  // namespace
}  // namespace oftt::opc
