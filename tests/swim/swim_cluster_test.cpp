// Swim detection driven through full ClusterDeployments: startup
// election, confirmed-death failover with the global suspicion-window
// property, rejoin-by-reincarnation, the monitor's swim board, and the
// two seeded safety properties the subsystem is accountable for under
// adverse networks: a live member is never confirmed dead without its
// suspicion timeout elapsing, and a minority partition never elects.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/deployment.h"
#include "obs/event_bus.h"
#include "obs/telemetry.h"
#include "sim/fault_plan.h"
#include "sim/simulation.h"

namespace oftt::core {
namespace {

constexpr std::uint64_t kSeeds[] = {101, 202, 303, 404, 505};

ClusterDeploymentOptions swim_options(int replicas) {
  ClusterDeploymentOptions opts;
  opts.replicas = replicas;
  // Engine-only except the monitor: the tests below exercise detection
  // and role management, not the application stack.
  opts.with_msmq = false;
  opts.with_scm = false;
  return opts;
}

TEST(SwimCluster, StartupElectsRankZeroAndDetectorsConverge) {
  sim::Simulation sim(9001);
  ClusterDeployment dep(sim, swim_options(5));
  sim.run_for(sim::seconds(5));

  EXPECT_EQ(dep.primary_count(), 1);
  EXPECT_EQ(dep.primary_node(), dep.node(0).id()) << "rank 0 must win the startup election";
  for (int i = 0; i < 5; ++i) {
    ASSERT_NE(dep.engine(i), nullptr);
    const swim::Detector* det = dep.engine(i)->swim_detector();
    ASSERT_NE(det, nullptr) << "swim mode must build a detector per engine";
    for (int j = 0; j < 5; ++j) {
      EXPECT_EQ(det->state(dep.node(j).id()), swim::MemberState::kAlive)
          << "engine " << i << " about member " << j;
    }
  }
}

TEST(SwimCluster, KillingPrimaryConfirmsDeathAfterFullSuspicionWindowThenPromotes) {
  sim::Simulation sim(9003);
  ClusterDeploymentOptions opts = swim_options(5);
  opts.engine.swim_suspicion_timeout = sim::seconds(1);  // explicit, for the assertion
  ClusterDeployment dep(sim, opts);
  sim.run_for(sim::seconds(5));
  int victim = dep.primary_node();
  ASSERT_EQ(victim, dep.node(0).id());

  // The global suspicion-window property: the first death certificate
  // anywhere can only originate from a local suspicion expiry, so
  // first-confirm minus first-suspect must span the full window.
  sim::SimTime first_suspect = -1, first_confirm = -1;
  auto sub = sim.telemetry().bus().subscribe(
      obs::mask_of(obs::EventKind::kSwimSuspect, obs::EventKind::kSwimDeadConfirm),
      [&](const obs::Event& e) {
        if (static_cast<int>(e.a) != victim) return;
        if (e.kind == obs::EventKind::kSwimSuspect && first_suspect < 0) first_suspect = e.at;
        if (e.kind == obs::EventKind::kSwimDeadConfirm && first_confirm < 0)
          first_confirm = e.at;
      });
  dep.node(0).crash();

  sim::SimTime deadline = sim.now() + sim::seconds(15);
  while (sim.now() < deadline && dep.primary_node() < 0) {
    sim.run_for(sim::milliseconds(5));
  }
  sim.telemetry().bus().unsubscribe(sub);

  EXPECT_EQ(dep.primary_node(), dep.node(1).id()) << "rank-1 backup must take over";
  EXPECT_EQ(dep.primary_count(), 1);
  ASSERT_GE(first_suspect, 0) << "the dead primary was never suspected";
  ASSERT_GE(first_confirm, 0) << "the dead primary was never confirmed";
  EXPECT_GE(first_confirm - first_suspect, opts.engine.swim_suspicion_timeout)
      << "a death certificate originated before the refutation window closed";

  // The monitor's swim board converges on the verdict once the next
  // status reports land.
  sim.run_for(sim::seconds(3));
  ASSERT_NE(dep.monitor(), nullptr);
  auto board = dep.monitor()->swim_board_of("unit");
  ASSERT_TRUE(board.count(victim) != 0);
  EXPECT_GT(board[victim].dead, board[victim].alive)
      << "reporters must agree the old primary is dead";
  std::string screen = dep.monitor()->render();
  EXPECT_NE(screen.find("swim board"), std::string::npos);
}

TEST(SwimCluster, RebootedMemberRefutesItsDeathCertificateAndRejoins) {
  sim::Simulation sim(9004);
  ClusterDeployment dep(sim, swim_options(5));
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  dep.node(0).crash();
  sim.run_for(sim::seconds(8));
  ASSERT_EQ(dep.primary_node(), dep.node(1).id());
  const swim::Detector* det1 = dep.engine(1)->swim_detector();
  ASSERT_NE(det1, nullptr);
  ASSERT_EQ(det1->state(dep.node(0).id()), swim::MemberState::kDead);

  // Reboot: the returning member must refute its own death certificate
  // (alive at a bumped incarnation) and be readmitted as a backup — no
  // separate join protocol.
  dep.node(0).boot();
  sim.run_for(sim::seconds(8));
  ASSERT_NE(dep.engine(0), nullptr);
  EXPECT_EQ(dep.primary_node(), dep.node(1).id()) << "rejoin must not unseat the new primary";
  EXPECT_EQ(dep.engine(0)->role(), Role::kBackup);
  EXPECT_EQ(det1->state(dep.node(0).id()), swim::MemberState::kAlive);
  EXPECT_GT(det1->incarnation(dep.node(0).id()), 0u)
      << "readmission must ride a bumped incarnation";
  const cluster::MembershipView& view = dep.engine(1)->view();
  ASSERT_NE(view.find(dep.node(0).id()), nullptr);
  EXPECT_EQ(view.find(dep.node(0).id())->role, cluster::MemberRole::kBackup);
}

// Property 1 (5 seeds): under a lossy but connected network — steady 2%
// independent loss plus a 30% mid-run burst — no live member is ever
// confirmed dead, so there is never a takeover and never a second
// primary. Suspicions may rise; they must all be refuted within the
// window by the direct ack, the k indirect paths, or the piggybacked
// refutation.
TEST(SwimProperty, NeverConfirmsLiveMemberDeadUnderLoss) {
  for (std::uint64_t seed : kSeeds) {
    sim::Simulation sim(seed);
    ClusterDeploymentOptions opts = swim_options(5);
    opts.net_loss = 0.02;
    ClusterDeployment dep(sim, opts);
    sim::FaultPlan plan(sim);
    plan.loss_burst(sim::seconds(8), 0, 0.30, sim::seconds(4), /*after=*/0.02);
    plan.arm();
    sim.run_for(sim::seconds(5));
    ASSERT_EQ(dep.primary_node(), dep.node(0).id()) << "seed " << seed;
    // Startup election done (node0's promotion is a takeover); nothing
    // after this point may add another.
    std::vector<std::uint64_t> takeovers_at_start;
    for (int i = 0; i < 5; ++i) takeovers_at_start.push_back(dep.engine(i)->takeovers());

    for (int step = 0; step < 30; ++step) {
      sim.run_for(sim::milliseconds(500));
      EXPECT_LE(dep.primary_count(), 1) << "seed " << seed;
    }
    EXPECT_EQ(dep.primary_node(), dep.node(0).id())
        << "seed " << seed << ": loss alone must never unseat a live primary";
    for (int i = 0; i < 5; ++i) {
      ASSERT_NE(dep.engine(i), nullptr) << "seed " << seed;
      EXPECT_EQ(dep.engine(i)->takeovers(), takeovers_at_start[static_cast<std::size_t>(i)])
          << "seed " << seed << " engine " << i;
      const swim::Detector* det = dep.engine(i)->swim_detector();
      ASSERT_NE(det, nullptr);
      for (int j = 0; j < 5; ++j) {
        EXPECT_NE(det->state(dep.node(j).id()), swim::MemberState::kDead)
            << "seed " << seed << ": engine " << i << " confirmed live member " << j;
      }
    }
  }
}

// Property 2 (5 seeds): a two-member minority partition never elects —
// its members can suspect and even confirm the unreachable majority,
// but the quorum gate must starve any campaign they start.
TEST(SwimProperty, MinorityPartitionNeverElects) {
  for (std::uint64_t seed : kSeeds) {
    sim::Simulation sim(seed ^ 0xABCDu);
    ClusterDeployment dep(sim, swim_options(5));
    sim.run_for(sim::seconds(5));
    ASSERT_EQ(dep.primary_node(), dep.node(0).id()) << "seed " << seed;

    sim::FaultPlan plan(sim);
    plan.partition(sim.now() + sim::milliseconds(200), 0,
                   {{dep.node(0).id(), dep.node(1).id(), dep.node(2).id(),
                     dep.monitor_node().id()},
                    {dep.node(3).id(), dep.node(4).id()}});
    plan.heal(sim.now() + sim::seconds(10), 0);
    plan.arm();

    for (int step = 0; step < 20; ++step) {
      sim.run_for(sim::milliseconds(500));
      EXPECT_NE(dep.engine(3)->role(), Role::kPrimary)
          << "seed " << seed << ": minority member 3 elected itself";
      EXPECT_NE(dep.engine(4)->role(), Role::kPrimary)
          << "seed " << seed << ": minority member 4 elected itself";
      EXPECT_LE(dep.primary_count(), 1) << "seed " << seed;
    }
    EXPECT_EQ(dep.engine(3)->takeovers(), 0u) << "seed " << seed;
    EXPECT_EQ(dep.engine(4)->takeovers(), 0u) << "seed " << seed;

    // After the heal, the cut-off members refute any suspicion or death
    // certificate about them and the cluster reconverges on the
    // original primary.
    sim.run_for(sim::seconds(6));
    EXPECT_EQ(dep.primary_node(), dep.node(0).id()) << "seed " << seed;
    EXPECT_EQ(dep.primary_count(), 1) << "seed " << seed;
  }
}

TEST(SwimCluster, PrimaryInMinorityStepsDownAndMajorityElects) {
  sim::Simulation sim(9005);
  ClusterDeployment dep(sim, swim_options(5));
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  sim.network(0).partition(
      {{dep.node(0).id(), dep.node(1).id()},
       {dep.node(2).id(), dep.node(3).id(), dep.node(4).id(), dep.monitor_node().id()}});
  sim.run_for(sim::seconds(8));

  EXPECT_EQ(dep.engine(2)->role(), Role::kPrimary) << "majority must elect node2";
  EXPECT_NE(dep.engine(0)->role(), Role::kPrimary)
      << "minority primary must step down on quorum loss";

  sim.network(0).heal();
  sim.run_for(sim::seconds(6));
  EXPECT_EQ(dep.primary_node(), dep.node(2).id()) << "heal converges on the new incarnation";
  EXPECT_EQ(dep.primary_count(), 1);
}

// Determinism smoke: two runs of the same seeded scenario must agree on
// every observable — swim forks its rng per node, so nothing here may
// depend on address ordering or wall clock.
TEST(SwimCluster, SameSeedRunsAreIdentical) {
  auto run_once = [](std::uint64_t seed) {
    sim::Simulation sim(seed);
    ClusterDeployment dep(sim, swim_options(5));
    sim.run_for(sim::seconds(5));
    dep.node(0).crash();
    sim.run_for(sim::seconds(10));
    return std::tuple(dep.primary_node(), sim.telemetry().bus().published(),
                      sim.telemetry().metrics().counter_value("oftt.swim_probes_sent"),
                      sim.network(0).sent());
  };
  EXPECT_EQ(run_once(4242), run_once(4242));
}

}  // namespace
}  // namespace oftt::core
