// OPC layer tests: values/quality, devices, server groups, sync/async
// IO, subscriptions over DCOM, and the client's reconnect compensation.
#include <gtest/gtest.h>

#include "common/codec.h"
#include "dcom/marshal.h"
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

// --- the remaining IOPCServer / IOPCGroup / IOPCDataCallback methods,
// driven through their proxies and stubs across the two nodes ---

class OpcProxyStub : public OpcEndToEnd {
 protected:
  // Remote CoCreateInstance from the HMI node, then AddGroup "g".
  void SetUp() override {
    auto& orpc = dcom::OrpcClient::of(*client_proc_);
    orpc.activate(server_node_->id(), kPlcServerClsid, IOPCServer::iid(),
                  [&](HRESULT hr, const dcom::ObjectRef& ref) {
                    if (SUCCEEDED(hr)) server_ = orpc.unmarshal(ref).as<IOPCServer>();
                  });
    sim_.run_for(sim::milliseconds(100));
    ASSERT_TRUE(server_);
    server_->AddGroup("g", sim::milliseconds(100), [&](HRESULT hr, com::ComPtr<IOPCGroup> g) {
      if (SUCCEEDED(hr)) group_ = std::move(g);
    });
    sim_.run_for(sim::milliseconds(100));
    ASSERT_TRUE(group_);
  }

  /// Runs one acknowledged call to completion and returns its HRESULT.
  HRESULT ack(const std::function<void(AckHandler)>& call) {
    HRESULT got = S_FALSE;
    call([&got](HRESULT hr) { got = hr; });
    sim_.run_for(sim::milliseconds(100));
    return got;
  }

  HRESULT add_items(const std::vector<std::string>& ids) {
    HRESULT got = S_FALSE;
    group_->AddItems(ids, [&got](HRESULT hr, const std::vector<HRESULT>&) { got = hr; });
    sim_.run_for(sim::milliseconds(100));
    return got;
  }

  /// Sends `args` less its last byte straight to the stub behind `ref`,
  /// from a process on the server node: the stub must refuse the
  /// truncated argument list with E_INVALIDARG.
  HRESULT call_truncated(const dcom::ObjectRef& ref, std::uint16_t method, Buffer args) {
    args.pop_back();
    if (!prober_) prober_ = server_node_->start_process("prober", nullptr);
    HRESULT got = S_FALSE;
    dcom::OrpcClient::of(*prober_).invoke(ref, sim_.port(ref.port), method, std::move(args),
                                          [&got](HRESULT hr, BinaryReader&) { got = hr; });
    sim_.run_for(sim::milliseconds(100));
    return got;
  }

  template <class I>
  static const dcom::ObjectRef& ref_of(const com::ComPtr<I>& proxy) {
    return dynamic_cast<dcom::ProxyBase&>(*proxy.get()).ref();
  }

  com::ComPtr<IOPCServer> server_;
  com::ComPtr<IOPCGroup> group_;
  std::shared_ptr<sim::Process> prober_;
};

TEST_F(OpcProxyStub, RemoveGroup) {
  HRESULT got = S_FALSE;
  server_->RemoveGroup("g", [&got](HRESULT hr) { got = hr; });
  sim_.run_for(sim::milliseconds(100));
  EXPECT_EQ(got, S_OK);
  server_->RemoveGroup("g", [&got](HRESULT hr) { got = hr; });
  sim_.run_for(sim::milliseconds(100));
  EXPECT_EQ(got, E_INVALIDARG) << "the group is already gone";

  EXPECT_EQ(call_truncated(ref_of(server_), methods::kRemoveGroup,
                           codec::encode(std::string("g"))),
            E_INVALIDARG);
}

TEST_F(OpcProxyStub, SetDeadband) {
  EXPECT_EQ(ack([&](auto done) { group_->SetDeadband(5.0, done); }), S_OK);
  EXPECT_EQ(ack([&](auto done) { group_->SetDeadband(150.0, done); }), E_INVALIDARG)
      << "a deadband is a percentage of the item's range";

  EXPECT_EQ(call_truncated(ref_of(group_), methods::kSetDeadband, codec::encode(5.0)),
            E_INVALIDARG);
}

// RemoveItems, AsyncRead and the OnReadComplete callback in one pass:
// the asynchronous read reports exactly the items still in the group.
TEST_F(OpcProxyStub, RemoveItemsAsyncReadAndOnReadComplete) {
  ASSERT_EQ(add_items({"Line.Speed", "Tank.Level"}), S_OK);
  EXPECT_EQ(ack([&](auto done) { group_->AsyncRead(7, done); }), E_FAIL)
      << "no callback registered yet";
  EXPECT_EQ(ack([&](auto done) { group_->RemoveItems({"Line.Speed"}, done); }), S_OK);

  std::uint32_t transaction = 0;
  HRESULT read_hr = S_FALSE;
  std::vector<ItemState> read;
  auto sink = DataSink::create(nullptr, [&](std::uint32_t t, HRESULT hr,
                                            const std::vector<ItemState>& items) {
    transaction = t;
    read_hr = hr;
    read = items;
  });
  EXPECT_EQ(ack([&](auto done) {
              group_->SetCallback(com::ComPtr<IOPCDataCallback>(sink.get()), done);
            }),
            S_OK);
  EXPECT_EQ(ack([&](auto done) { group_->AsyncRead(7, done); }), S_OK);
  EXPECT_EQ(transaction, 7u);
  EXPECT_EQ(read_hr, S_OK);
  ASSERT_EQ(read.size(), 1u);
  EXPECT_EQ(read[0].item_id, "Tank.Level");
  EXPECT_EQ(read[0].quality, Quality::kGood);

  const dcom::ObjectRef& group_ref = ref_of(group_);
  EXPECT_EQ(call_truncated(group_ref, methods::kRemoveItems,
                           codec::encode(std::vector<std::string>{"Tank.Level"})),
            E_INVALIDARG);
  EXPECT_EQ(call_truncated(group_ref, methods::kAsyncRead, codec::encode(std::uint32_t{8})),
            E_INVALIDARG);
  // The sink's own export on the HMI node, called from the server node.
  const dcom::ObjectRef sink_ref =
      dcom::marshal_interface(dcom::OrpcServer::of(*client_proc_),
                              com::ComPtr<IOPCDataCallback>(sink.get()))
          .ref;
  EXPECT_EQ(call_truncated(sink_ref, methods::kOnReadComplete,
                           codec::encode(std::uint32_t{9}, S_OK, read)),
            E_INVALIDARG);
  EXPECT_EQ(transaction, 7u) << "a refused call never reaches the sink";
}

TEST_F(OpcProxyStub, SetActive) {
  ASSERT_EQ(add_items({"Line.Speed"}), S_OK);
  int changes = 0;
  auto sink = DataSink::create([&](std::uint32_t, const std::vector<ItemState>&) { ++changes; });
  ASSERT_EQ(ack([&](auto done) {
              group_->SetCallback(com::ComPtr<IOPCDataCallback>(sink.get()), done);
            }),
            S_OK);
  sim_.run_for(sim::milliseconds(500));
  EXPECT_GT(changes, 0);

  EXPECT_EQ(ack([&](auto done) { group_->SetActive(false, done); }), S_OK);
  const int paused_at = changes;
  sim_.run_for(sim::milliseconds(500));
  EXPECT_EQ(changes, paused_at) << "an inactive group notifies nothing";

  EXPECT_EQ(ack([&](auto done) { group_->SetActive(true, done); }), S_OK);
  sim_.run_for(sim::milliseconds(500));
  EXPECT_GT(changes, paused_at);

  EXPECT_EQ(call_truncated(ref_of(group_), methods::kSetActive, codec::encode(true)),
            E_INVALIDARG);
}

}  // namespace
}  // namespace oftt::opc
