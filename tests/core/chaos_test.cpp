// Long-haul chaos scenario: minutes of simulated time under a scripted
// fault storm, asserting the system's global invariants at every
// checkpoint: eventually exactly one primary, application progress
// resumes, and no unbounded restart loops. Also covers the
// AvailabilityTracker and the bandwidth model.
#include <gtest/gtest.h>

#include "core/availability.h"
#include "core/deployment.h"
#include "sim/fault_plan.h"
#include "support/counter_app.h"

namespace oftt::core {
namespace {

using testsupport::CounterApp;

TEST(Chaos, SurvivesScriptedFaultStormWithInvariantsIntact) {
  sim::Simulation sim(121);
  PairDeploymentOptions opts;
  opts.dual_network = true;
  opts.app_factory = [](sim::Process& proc) { proc.attachment<CounterApp>(proc); };
  PairDeployment dep(sim, opts);
  int a = dep.node_a().id(), b = dep.node_b().id();

  sim::FaultPlan plan(sim);
  plan.kill_process(sim::seconds(10), a, "app")
      .os_crash(sim::seconds(25), a, sim::seconds(15))
      .hang_strand(sim::seconds(60), b, "app", "main")
      .kill_process(sim::seconds(80), b, "oftt_engine")
      .crash_node(sim::seconds(100), b)
      .boot_node(sim::seconds(130), b)
      .flap_link(sim::seconds(150), 0, a, b, sim::seconds(2), 3)
      .partition(sim::seconds(170), 1, {{a}, {b}})
      .heal(sim::seconds(180), 1)
      .kill_process(sim::seconds(200), a, "msmq")
      .os_crash(sim::seconds(220), a, sim::seconds(20));
  plan.arm();

  // Check invariants at quiet points between faults.
  std::int64_t last_progress_count = 0;
  for (sim::SimTime checkpoint :
       {sim::seconds(55), sim::seconds(95), sim::seconds(145), sim::seconds(195),
        sim::seconds(260)}) {
    sim.run_until(checkpoint);
    int primaries = 0;
    if (dep.engine_a() && dep.engine_a()->role() == Role::kPrimary) ++primaries;
    if (dep.engine_b() && dep.engine_b()->role() == Role::kPrimary) ++primaries;
    EXPECT_EQ(primaries, 1) << "at t=" << sim::to_seconds(checkpoint);

    int primary = dep.primary_node();
    ASSERT_NE(primary, -1);
    CounterApp* app = CounterApp::find(*dep.node_by_id(primary));
    ASSERT_NE(app, nullptr) << "at t=" << sim::to_seconds(checkpoint);
    std::int64_t now_count = app->count();
    EXPECT_GT(now_count, last_progress_count)
        << "progress stalled by t=" << sim::to_seconds(checkpoint);
    last_progress_count = now_count;
  }
  EXPECT_EQ(plan.journal().size(), plan.size()) << "every fault actually injected";
  // Bounded recovery machinery: restarts happened but did not run away.
  EXPECT_LT(sim.counter_value("oftt.local_restarts"), 40u);
}

TEST(Availability, TracksUptimeDowntimeAndEpisodes) {
  sim::Simulation sim(122);
  sim::Node& node = sim.add_node("n");
  node.boot();
  auto proc = node.start_process("probe", nullptr);
  bool serving = true;
  AvailabilityTracker tracker(proc->main_strand(), [&] { return serving; },
                              sim::milliseconds(10));
  sim.run_for(sim::seconds(1));
  serving = false;
  sim.run_for(sim::milliseconds(500));
  serving = true;
  sim.run_for(sim::milliseconds(500));
  serving = false;
  sim.run_for(sim::milliseconds(200));
  serving = true;
  sim.run_for(sim::milliseconds(300));

  EXPECT_EQ(tracker.outages(), 2);
  EXPECT_NEAR(tracker.availability(), 1.8 / 2.5, 0.02);
  EXPECT_NEAR(sim::to_seconds(tracker.longest_outage()), 0.5, 0.05);
  tracker.stop();
}

TEST(Bandwidth, LargePayloadsPaySerializationDelay) {
  sim::Simulation sim(123);
  sim::Node& a = sim.add_node("a");
  sim::Node& b = sim.add_node("b");
  auto& net = sim.add_network("lan");
  net.attach(a.id());
  net.attach(b.id());
  net.set_latency(sim::milliseconds(1), sim::milliseconds(1));
  net.set_bandwidth(1.25e6);  // 10BASE-T
  a.boot();
  b.boot();
  auto pa = a.start_process("p", nullptr);
  sim::SimTime small_arrival = -1, big_arrival = -1;
  auto pb = b.start_process("p", nullptr);
  pb->bind(sim.port("small"), [&](const sim::Datagram&) { small_arrival = sim.now(); });
  pb->bind(sim.port("big"), [&](const sim::Datagram&) { big_arrival = sim.now(); });

  pa->send(0, b.id(), sim.port("small"), Buffer(100, 0));
  pa->send(0, b.id(), sim.port("big"), Buffer(1 << 20, 0));  // 1 MiB ~ 839 ms at 10 Mbit
  sim.run();
  ASSERT_GE(small_arrival, 0);
  ASSERT_GE(big_arrival, 0);
  EXPECT_LT(small_arrival, sim::milliseconds(2));
  EXPECT_GT(big_arrival, sim::milliseconds(800));
  EXPECT_LT(big_arrival, sim::milliseconds(900));
}

TEST(Bandwidth, FullCheckpointsLagOnSlowWireSelectiveDoNot) {
  // The E1 tradeoff at the system level: on a 10 Mbit LAN, a 1 MiB full
  // checkpoint takes ~0.8 s to ship; selective images stay sub-ms.
  for (bool selective : {false, true}) {
    sim::Simulation sim(selective ? 124 : 125);
    PairDeploymentOptions opts;
    opts.app_factory = [selective](sim::Process& proc) {
      CounterApp::Options app;
      app.state_bytes = 1 << 20;
      app.ftim.checkpoint_period = sim::milliseconds(400);
      if (selective) {
        app.ftim.checkpoint_mode = CheckpointMode::kSelective;
      }
      auto& capp = proc.attachment<CounterApp>(proc, app);
      if (selective) {
        OFTTSelSave(proc, capp.counter_cell());
      }
    };
    PairDeployment dep(sim, opts);
    sim.network(0).set_bandwidth(1.25e6);
    sim.run_for(sim::seconds(5));
    Ftim* backup = dep.ftim_on(dep.node_b());
    ASSERT_NE(backup, nullptr);
    if (selective) {
      EXPECT_GT(backup->checkpoints_received(), 5u);
    } else {
      // Full images still arrive, just slowly (and they serialize the
      // segment); at 400 ms period and ~840 ms transfer they queue up.
      EXPECT_GT(backup->checkpoints_received(), 0u);
    }
  }
}

}  // namespace
}  // namespace oftt::core
