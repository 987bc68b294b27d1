// DCOM (ORPC-lite) tests: marshaling, remote activation through the
// SCM, call/response, the failure modes the paper complains about
// (§3.3), ping-based GC, and the proxy/stub installation burden.
#include <gtest/gtest.h>

#include "com/object.h"
#include "com/runtime.h"
#include "dcom/client.h"
#include "dcom/marshal.h"
#include "dcom/scm.h"
#include "dcom/server.h"
#include "sim/simulation.h"

namespace oftt::dcom {
namespace {

using com::ComPtr;
using com::IUnknown;

// A small remotable interface with a hand-written proxy/stub, plus a
// callback interface to exercise interface-pointer marshaling.
struct ICalcSink : IUnknown {
  OFTT_COM_INTERFACE_ID(ICalcSink)
  virtual void OnResult(std::int32_t value) = 0;
};

struct ICalc : IUnknown {
  OFTT_COM_INTERFACE_ID(ICalc)
  virtual void Add(std::int32_t a, std::int32_t b,
                   std::function<void(HRESULT, std::int32_t)> done) = 0;
  virtual void AddVia(std::int32_t a, std::int32_t b, ComPtr<ICalcSink> sink) = 0;
};

class Calc final : public com::Object<Calc, ICalc> {
 public:
  void Add(std::int32_t a, std::int32_t b,
           std::function<void(HRESULT, std::int32_t)> done) override {
    done(S_OK, a + b);
  }
  void AddVia(std::int32_t a, std::int32_t b, ComPtr<ICalcSink> sink) override {
    if (sink) sink->OnResult(a + b);
  }
};

class CalcSink final : public com::Object<CalcSink, ICalcSink> {
 public:
  void OnResult(std::int32_t value) override { results.push_back(value); }
  std::vector<std::int32_t> results;
};

enum CalcMethod : std::uint16_t { kAdd = 1, kAddVia = 2 };
enum SinkMethod : std::uint16_t { kOnResult = 1 };

class CalcProxy final : public com::Object<CalcProxy, ICalc>, public ProxyBase {
 public:
  CalcProxy(OrpcClient& client, ObjectRef ref) : ProxyBase(client, std::move(ref)) {}
  void Add(std::int32_t a, std::int32_t b,
           std::function<void(HRESULT, std::int32_t)> done) override {
    BinaryWriter w;
    w.i32(a);
    w.i32(b);
    invoke(kAdd, std::move(w).take(), [done](HRESULT hr, BinaryReader& r) {
      done(hr, SUCCEEDED(hr) ? r.i32() : 0);
    });
  }
  void AddVia(std::int32_t a, std::int32_t b, ComPtr<ICalcSink> sink) override {
    BinaryWriter w;
    w.i32(a);
    w.i32(b);
    codec::write(w, marshal_interface(OrpcServer::of(client().process()), sink));
    invoke(kAddVia, std::move(w).take(), nullptr);
  }
};

class SinkProxy final : public com::Object<SinkProxy, ICalcSink>, public ProxyBase {
 public:
  SinkProxy(OrpcClient& client, ObjectRef ref) : ProxyBase(client, std::move(ref)) {}
  void OnResult(std::int32_t value) override {
    BinaryWriter w;
    w.i32(value);
    invoke(kOnResult, std::move(w).take(), nullptr);
  }
};

StubDispatch make_calc_stub(ComPtr<IUnknown> obj, OrpcServer& server) {
  ComPtr<ICalc> target = obj.as<ICalc>();
  OrpcServer* srv = &server;
  return [target, srv](std::uint16_t m, BinaryReader& args, BinaryWriter& result) -> HRESULT {
    switch (m) {
      case kAdd: {
        std::int32_t a = args.i32(), b = args.i32();
        if (args.failed()) return E_INVALIDARG;
        HRESULT out = E_UNEXPECTED;
        target->Add(a, b, [&](HRESULT hr, std::int32_t v) {
          out = hr;
          result.i32(v);
        });
        return out;
      }
      case kAddVia: {
        std::int32_t a = args.i32(), b = args.i32();
        auto sink = unmarshal_interface<ICalcSink>(OrpcClient::of(srv->process()), args);
        if (args.failed()) return E_INVALIDARG;
        target->AddVia(a, b, sink);
        return S_OK;
      }
      default: return E_NOTIMPL;
    }
  };
}

StubDispatch make_sink_stub(ComPtr<IUnknown> obj, OrpcServer&) {
  ComPtr<ICalcSink> target = obj.as<ICalcSink>();
  return [target](std::uint16_t m, BinaryReader& args, BinaryWriter&) -> HRESULT {
    if (m != kOnResult) return E_NOTIMPL;
    std::int32_t v = args.i32();
    if (args.failed()) return E_INVALIDARG;
    target->OnResult(v);
    return S_OK;
  };
}

template <typename P>
ComPtr<IUnknown> make_proxy(OrpcClient& c, const ObjectRef& r) {
  return P::create(c, r).template as<IUnknown>();
}

OFTT_REGISTER_PROXY_STUB(ICalc, make_calc_stub, make_proxy<CalcProxy>);
OFTT_REGISTER_PROXY_STUB(ICalcSink, make_sink_stub, make_proxy<SinkProxy>);

const Clsid kCalcClsid = Guid::from_name("CLSID_Calc");

class DcomTest : public ::testing::Test {
 protected:
  DcomTest() : sim_(7) {
    server_node_ = &sim_.add_node("server");
    client_node_ = &sim_.add_node("client");
    auto& net = sim_.add_network("lan");
    net.attach(server_node_->id());
    net.attach(client_node_->id());

    server_node_->set_boot_script([](sim::Node& node) {
      install_scm(node);
      node.start_process("calcsvc", [](sim::Process& proc) {
        com::ComRuntime::of(proc).register_simple_class<Calc>(kCalcClsid);
        OrpcServer::of(proc).register_server_class(kCalcClsid, "Calc");
      });
    });
    server_node_->boot();
    client_node_->boot();
    client_proc_ = client_node_->start_process("app", nullptr);
  }

  ComPtr<ICalc> activate_calc() {
    ComPtr<ICalc> calc;
    auto& orpc = OrpcClient::of(*client_proc_);
    orpc.activate(server_node_->id(), kCalcClsid, ICalc::iid(),
                  [&](HRESULT hr, const ObjectRef& ref) {
                    if (SUCCEEDED(hr)) calc = orpc.unmarshal(ref).as<ICalc>();
                  });
    sim_.run_for(sim::milliseconds(50));
    return calc;
  }

  sim::Simulation sim_;
  sim::Node* server_node_;
  sim::Node* client_node_;
  std::shared_ptr<sim::Process> client_proc_;
};

TEST_F(DcomTest, RemoteActivationAndCall) {
  ComPtr<ICalc> calc = activate_calc();
  ASSERT_TRUE(calc);
  HRESULT got_hr = E_FAIL;
  std::int32_t got = 0;
  calc->Add(20, 22, [&](HRESULT hr, std::int32_t v) {
    got_hr = hr;
    got = v;
  });
  sim_.run_for(sim::milliseconds(50));
  EXPECT_EQ(got_hr, S_OK);
  EXPECT_EQ(got, 42);
}

TEST_F(DcomTest, ActivationOfUnregisteredClassFails) {
  HRESULT got = S_OK;
  OrpcClient::of(*client_proc_)
      .activate(server_node_->id(), Guid::from_name("CLSID_Missing"), ICalc::iid(),
                [&](HRESULT hr, const ObjectRef&) { got = hr; });
  sim_.run_for(sim::milliseconds(50));
  EXPECT_EQ(got, REGDB_E_CLASSNOTREG);
}

TEST_F(DcomTest, ScmLaunchesDeadServerProcess) {
  // Kill the server process; activation must relaunch it.
  server_node_->find_process("calcsvc")->kill("gone");
  ComPtr<ICalc> calc = activate_calc();
  ASSERT_TRUE(calc);
  auto svc = server_node_->find_process("calcsvc");
  ASSERT_TRUE(svc);
  EXPECT_TRUE(svc->alive());
}

TEST_F(DcomTest, CallToCrashedServerTimesOut) {
  ComPtr<ICalc> calc = activate_calc();
  ASSERT_TRUE(calc);
  server_node_->crash();
  HRESULT got = S_OK;
  calc->Add(1, 2, [&](HRESULT hr, std::int32_t) { got = hr; });
  sim_.run_for(sim::seconds(3));
  EXPECT_EQ(got, RPC_E_TIMEOUT);
  EXPECT_GT(sim_.counter_value("orpc.call_timeout"), 0u);
}

TEST_F(DcomTest, StaleReferenceAfterServerRestartIsDisconnected) {
  ComPtr<ICalc> calc = activate_calc();
  ASSERT_TRUE(calc);
  server_node_->restart_process("calcsvc");
  HRESULT got = S_OK;
  calc->Add(1, 2, [&](HRESULT hr, std::int32_t) { got = hr; });
  sim_.run_for(sim::seconds(2));
  EXPECT_EQ(got, RPC_E_DISCONNECTED);
}

TEST_F(DcomTest, CallbackInterfaceMarshalsBothWays) {
  ComPtr<ICalc> calc = activate_calc();
  ASSERT_TRUE(calc);
  auto sink = CalcSink::create();
  calc->AddVia(5, 6, ComPtr<ICalcSink>(sink.get()));
  sim_.run_for(sim::milliseconds(100));
  ASSERT_EQ(sink->results.size(), 1u);
  EXPECT_EQ(sink->results[0], 11);
}

TEST_F(DcomTest, MissingProxyStubCannotMarshal) {
  struct INope : IUnknown {
    OFTT_COM_INTERFACE_ID(INope)
  };
  auto calc_obj = Calc::create();
  auto svc = server_node_->find_process("calcsvc");
  ObjectRef ref = OrpcServer::of(*svc).export_object(calc_obj.as<IUnknown>(), INope::iid());
  EXPECT_FALSE(ref.valid()) << "paper §3.3: proxy/stub must be installed per interface";
}

TEST_F(DcomTest, PingGcReclaimsAbandonedExports) {
  ComPtr<ICalc> calc = activate_calc();
  ASSERT_TRUE(calc);
  auto svc = server_node_->find_process("calcsvc");
  auto& server = OrpcServer::of(*svc);
  EXPECT_EQ(server.export_count(), 1u);
  // Client process dies without releasing -> pings stop -> GC reclaims.
  ICalc* abandoned = calc.detach();  // the reference is never released remotely
  client_proc_->kill("client gone");
  sim_.run_for(sim::seconds(30));
  EXPECT_EQ(server.export_count(), 0u);
  EXPECT_GT(sim_.counter_value("orpc.gc_reclaimed"), 0u);
  abandoned->Release();  // free the orphaned proxy's memory only after GC ran
}

TEST_F(DcomTest, PingsKeepLiveExportsAlive) {
  ComPtr<ICalc> calc = activate_calc();
  ASSERT_TRUE(calc);
  auto svc = server_node_->find_process("calcsvc");
  sim_.run_for(sim::seconds(30));
  EXPECT_EQ(OrpcServer::of(*svc).export_count(), 1u) << "held proxy must keep pinging";
}

TEST(DcomWire, PacketRoundTrips) {
  RequestPacket req;
  req.call_id = 7;
  req.oid = 9;
  req.iid = Guid::from_name("IID_X");
  req.method = 3;
  req.args = {1, 2};
  req.reply_node = 4;
  req.reply_port = "orpcc.app";
  RequestPacket out;
  ASSERT_TRUE(decode_request(encode_request(req), out));
  EXPECT_EQ(out.call_id, 7u);
  EXPECT_EQ(out.oid, 9u);
  EXPECT_EQ(out.method, 3);
  EXPECT_EQ(out.args, (Buffer{1, 2}));
  EXPECT_EQ(out.reply_port, "orpcc.app");

  ResponsePacket resp;
  resp.call_id = 7;
  resp.hr = RPC_E_SERVERFAULT;
  ResponsePacket rout;
  ASSERT_TRUE(decode_response(encode_response(resp), rout));
  EXPECT_EQ(rout.hr, RPC_E_SERVERFAULT);

  PingPacket ping;
  ping.oids = {1, 5, 9};
  PingPacket pout;
  ASSERT_TRUE(decode_ping(encode_ping(ping), pout));
  EXPECT_EQ(pout.oids, ping.oids);

  // Kind confusion is rejected.
  EXPECT_FALSE(decode_request(encode_ping(ping), out));
}

}  // namespace
}  // namespace oftt::dcom
