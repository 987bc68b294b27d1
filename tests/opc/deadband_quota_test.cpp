// Tests for the OPC percent deadband and MSMQ queue quotas.
#include <gtest/gtest.h>

#include <cmath>

#include "common/strings.h"
#include "msmq/queue_manager.h"
#include "opc/server.h"
#include "sim/simulation.h"

namespace oftt {
namespace {

class NoiseSignal final : public opc::SignalModel {
 public:
  NoiseSignal(double base, double jitter, double spike_every_s)
      : base_(base), jitter_(jitter), spike_every_s_(spike_every_s) {}
  opc::OpcValue sample(double t, sim::Rng& rng) override {
    double v = base_ + (rng.next_double() - 0.5) * jitter_;
    if (spike_every_s_ > 0 && std::fmod(t, spike_every_s_) < 0.05) v = base_ * 2;
    return opc::OpcValue::from_real(v);
  }

 private:
  double base_, jitter_, spike_every_s_;
};

class CountingSink final : public com::Object<CountingSink, opc::IOPCDataCallback> {
 public:
  void OnDataChange(std::uint32_t, const std::vector<opc::ItemState>& items) override {
    count += items.size();
  }
  void OnReadComplete(std::uint32_t, HRESULT, const std::vector<opc::ItemState>&) override {}
  std::size_t count = 0;
};

TEST(Deadband, SuppressesJitterPassesSpikes) {
  sim::Simulation sim(111);
  sim::Node& node = sim.add_node("n");
  node.boot();
  auto proc = node.start_process("opcserver", nullptr);
  // ±0.5 jitter around 100, with 2x spikes every 5 s.
  auto plc = std::make_shared<opc::PlcDevice>("PLC", sim::milliseconds(10));
  plc->add_input("Noisy", std::make_unique<NoiseSignal>(100.0, 1.0, 5.0));
  plc->start(proc->main_strand(), sim.fork_rng("plc"));
  auto server = opc::OpcServerObject::create(*proc, plc, "v");

  auto run_with_deadband = [&](double percent) {
    com::ComPtr<opc::IOPCGroup> group;
    server->AddGroup(cat("g", percent), sim::milliseconds(10),
                     [&](HRESULT, com::ComPtr<opc::IOPCGroup> g) { group = std::move(g); });
    group->AddItems({"Noisy"}, nullptr);
    if (percent > 0) {
      HRESULT hr = E_FAIL;
      group->SetDeadband(percent, [&](HRESULT h) { hr = h; });
      EXPECT_EQ(hr, S_OK);
    }
    auto sink = CountingSink::create();
    group->SetCallback(com::ComPtr<opc::IOPCDataCallback>(sink.get()), nullptr);
    sim.run_for(sim::seconds(20));
    group->SetActive(false, nullptr);
    return sink->count;
  };

  std::size_t raw = run_with_deadband(0.0);
  std::size_t damped = run_with_deadband(20.0);
  EXPECT_GT(raw, 1000u) << "every jittered sample announced";
  EXPECT_LT(damped, raw / 5) << "deadband suppresses jitter";
  EXPECT_GT(damped, 2u) << "spikes still get through";
}

TEST(Deadband, RejectsInvalidPercent) {
  sim::Simulation sim(112);
  sim::Node& node = sim.add_node("n");
  node.boot();
  auto proc = node.start_process("opcserver", nullptr);
  auto plc = std::make_shared<opc::PlcDevice>("PLC", sim::milliseconds(10));
  auto server = opc::OpcServerObject::create(*proc, plc, "v");
  com::ComPtr<opc::IOPCGroup> group;
  server->AddGroup("g", sim::milliseconds(10),
                   [&](HRESULT, com::ComPtr<opc::IOPCGroup> g) { group = std::move(g); });
  HRESULT hr = S_OK;
  group->SetDeadband(-1.0, [&](HRESULT h) { hr = h; });
  EXPECT_EQ(hr, E_INVALIDARG);
  group->SetDeadband(101.0, [&](HRESULT h) { hr = h; });
  EXPECT_EQ(hr, E_INVALIDARG);
}

TEST(MsmqQuota, RejectsBeyondQuotaAndCounts) {
  sim::Simulation sim(113);
  sim::Node& node = sim.add_node("n");
  node.set_boot_script([](sim::Node& n) { msmq::QueueManager::install(n); });
  node.boot();
  auto* qm = msmq::QueueManager::find(node);
  qm->config().queue_quota = 5;
  auto app = node.start_process("app", nullptr);
  for (int i = 0; i < 12; ++i) {
    msmq::MsmqApi::of(*app).send("inbox", "m", Buffer{});
  }
  sim.run_for(sim::milliseconds(200));
  EXPECT_EQ(qm->local_depth("inbox"), 5u);
  EXPECT_EQ(qm->quota_rejections(), 7u);
  EXPECT_EQ(sim.counter_value("msmq.quota_rejected"), 7u);
}

TEST(MsmqQuota, DrainingReopensTheQueue) {
  sim::Simulation sim(114);
  sim::Node& node = sim.add_node("n");
  node.set_boot_script([](sim::Node& n) { msmq::QueueManager::install(n); });
  node.boot();
  auto* qm = msmq::QueueManager::find(node);
  qm->config().queue_quota = 3;
  auto app = node.start_process("app", nullptr);
  for (int i = 0; i < 5; ++i) msmq::MsmqApi::of(*app).send("inbox", "m", Buffer{});
  sim.run_for(sim::milliseconds(200));
  ASSERT_EQ(qm->local_depth("inbox"), 3u);

  int got = 0;
  msmq::MsmqApi::of(*app).subscribe("inbox", [&](const msmq::Message&) { ++got; });
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(got, 3);
  // Now there is room again.
  msmq::MsmqApi::of(*app).send("inbox", "late", Buffer{});
  sim.run_for(sim::milliseconds(200));
  EXPECT_EQ(got, 4);
}

TEST(MsmqPurge, RemovesAndReportsCount) {
  sim::Simulation sim(115);
  sim::Node& node = sim.add_node("n");
  node.set_boot_script([](sim::Node& n) { msmq::QueueManager::install(n); });
  node.boot();
  auto* qm = msmq::QueueManager::find(node);
  auto app = node.start_process("app", nullptr);
  for (int i = 0; i < 4; ++i) msmq::MsmqApi::of(*app).send("inbox", "m", Buffer{});
  sim.run_for(sim::milliseconds(200));
  EXPECT_EQ(qm->purge("inbox"), 4u);
  EXPECT_EQ(qm->local_depth("inbox"), 0u);
  EXPECT_EQ(qm->purge("inbox"), 0u);
  EXPECT_EQ(qm->purge("never-existed"), 0u);
}

}  // namespace
}  // namespace oftt
