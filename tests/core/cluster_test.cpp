// N-replica cluster mode (src/cluster/): ranked succession, membership
// view gossip, and quorum-gated promotion, driven through full
// ClusterDeployments. Covers the acceptance scenarios: rank-1 promotion
// within one detection+negotiation cycle, minority partitions that must
// never promote, cascading double failures, deterministic failover
// traces including the ack-collection phase, checkpoint fan-out, and
// rejoin-as-backup.
#include <gtest/gtest.h>

#include "cluster/membership.h"
#include "cluster/quorum.h"
#include "cluster/slots.h"
#include "cluster/succession.h"
#include "core/deployment.h"
#include "core/wire.h"
#include "obs/event_bus.h"
#include "obs/json.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "sim/fault_plan.h"
#include "sim/rng.h"
#include "support/counter_app.h"

namespace oftt::core {
namespace {

using testsupport::CounterApp;

ClusterDeploymentOptions standard_options(int replicas) {
  ClusterDeploymentOptions opts;
  opts.replicas = replicas;
  opts.app_factory = [](sim::Process& proc) { proc.attachment<CounterApp>(proc); };
  return opts;
}

// ---------------------------------------------------------------------
// Pure cluster-module unit coverage.
// ---------------------------------------------------------------------

TEST(Membership, QuorumIsMajorityOfFullViewAndPairDegradesToOne) {
  EXPECT_EQ(cluster::quorum_required(2), 1);  // pair mode: survivor alone
  EXPECT_EQ(cluster::quorum_required(3), 2);
  EXPECT_EQ(cluster::quorum_required(5), 3);
  EXPECT_EQ(cluster::quorum_required(9), 5);
}

TEST(Membership, MergeAdoptsOnlyNewerViewsAndKeepsFresherHeartbeats) {
  cluster::MembershipView a = cluster::MembershipView::initial({10, 11, 12});
  a.incarnation = 1;
  a.version = 3;
  a.find(11)->last_heartbeat = 900;

  cluster::MembershipView b = a;
  b.version = 4;
  b.find(10)->role = cluster::MemberRole::kDead;
  b.find(11)->last_heartbeat = 500;  // staler observation than ours

  cluster::MembershipView mine = a;
  EXPECT_TRUE(mine.merge(b));
  EXPECT_EQ(mine.version, 4u);
  EXPECT_EQ(mine.find(10)->role, cluster::MemberRole::kDead);
  EXPECT_EQ(mine.find(11)->last_heartbeat, 900) << "merge must not lose fresher local obs";

  // Older view: no adoption.
  cluster::MembershipView old = a;
  old.version = 2;
  EXPECT_FALSE(mine.merge(old));
  EXPECT_EQ(mine.version, 4u);
}

// The adopted view lists members in a different rank order than ours
// (a promotion moved the primary to the front and the dead to the
// back): every node must still keep its freshest heartbeat, whichever
// side observed it.
TEST(Membership, MergeKeepsFreshestHeartbeatAcrossRankReorders) {
  cluster::MembershipView mine = cluster::MembershipView::initial({1, 2, 3, 4, 5});
  const sim::SimTime my_hb[] = {100, 500, 300, 50, 0};
  for (int i = 0; i < 5; ++i) mine.members[static_cast<std::size_t>(i)].last_heartbeat = my_hb[i];

  cluster::MembershipView newer = cluster::MembershipView::initial({3, 2, 5, 1, 4});
  newer.version = 1;
  const sim::SimTime their_hb[] = {900, 100, 70, 200, 10};  // for 3, 2, 5, 1, 4
  for (int i = 0; i < 5; ++i) newer.members[static_cast<std::size_t>(i)].last_heartbeat = their_hb[i];

  cluster::MembershipView adopted = mine;
  EXPECT_TRUE(adopted.merge(newer));
  ASSERT_EQ(adopted.size(), 5u);
  const int order[] = {3, 2, 5, 1, 4};
  for (int i = 0; i < 5; ++i) EXPECT_EQ(adopted.members[static_cast<std::size_t>(i)].node, order[i]);
  EXPECT_EQ(adopted.find(1)->last_heartbeat, 200);
  EXPECT_EQ(adopted.find(2)->last_heartbeat, 500);
  EXPECT_EQ(adopted.find(3)->last_heartbeat, 900);
  EXPECT_EQ(adopted.find(4)->last_heartbeat, 50);
  EXPECT_EQ(adopted.find(5)->last_heartbeat, 70);

  // Same (incarnation, version) in another order, plus an unknown node
  // and a missing one: only heartbeats move, never the member list.
  cluster::MembershipView same = mine;
  cluster::MembershipView reordered = cluster::MembershipView::initial({5, 9, 3, 1});
  const sim::SimTime reordered_hb[] = {40, 7777, 800, 90};  // for 5, 9, 3, 1
  for (int i = 0; i < 4; ++i) {
    reordered.members[static_cast<std::size_t>(i)].last_heartbeat = reordered_hb[i];
  }
  EXPECT_FALSE(same.merge(reordered));
  const sim::SimTime want[] = {100, 500, 800, 50, 40};  // for 1..5
  for (int n = 1; n <= 5; ++n) {
    EXPECT_EQ(same.members[static_cast<std::size_t>(n - 1)].node, n);
    EXPECT_EQ(same.find(n)->last_heartbeat, want[n - 1]) << "node " << n;
  }
  EXPECT_EQ(same.find(9), nullptr);
}

TEST(Succession, PromotionReranksSurvivorsAndMarksDeadLast) {
  cluster::MembershipView v = cluster::MembershipView::initial({10, 11, 12, 13, 14});
  const cluster::SlotIndex slots({10, 11, 12, 13, 14});
  auto set = [&](std::initializer_list<int> nodes) { return cluster::MemberSet(slots, nodes); };
  cluster::SuccessionPlanner::promote(v, 10, 1, set({10, 11, 12, 13, 14}));
  // Primary dies; 12 was lost with it.
  EXPECT_EQ(cluster::SuccessionPlanner::successor(v, set({11, 13, 14})), 11);
  cluster::SuccessionPlanner::promote(v, 11, 2, set({11, 13, 14}));
  EXPECT_EQ(v.primary()->node, 11);
  EXPECT_EQ(v.find(11)->rank, 0);
  EXPECT_EQ(v.find(13)->rank, 1);
  EXPECT_EQ(v.find(14)->rank, 2);
  EXPECT_EQ(v.find(10)->role, cluster::MemberRole::kDead);
  EXPECT_EQ(v.find(12)->role, cluster::MemberRole::kDead);
  EXPECT_GT(v.find(10)->rank, v.find(14)->rank);
  EXPECT_EQ(v.size(), 5u) << "dead members stay in the view (static quorum)";

  // Rejoin goes to the back of the whole line — behind even still-dead
  // members, so repeated rejoins readmit in FIFO order. successor()
  // skips dead members, so the dead one ahead never outranks it.
  EXPECT_TRUE(cluster::SuccessionPlanner::rejoin(v, 10));
  EXPECT_EQ(v.find(10)->role, cluster::MemberRole::kBackup);
  EXPECT_EQ(v.find(10)->rank, 4);
  EXPECT_EQ(v.find(12)->rank, 3);
  EXPECT_EQ(cluster::SuccessionPlanner::successor(v, set({10})), 10);
  EXPECT_FALSE(cluster::SuccessionPlanner::rejoin(v, 10)) << "idempotent";
}

TEST(VoteLedger, OneCandidatePerIncarnation) {
  cluster::VoteLedger ledger;
  EXPECT_TRUE(ledger.grant(2, 10));
  EXPECT_TRUE(ledger.grant(2, 10)) << "retransmit from same candidate is idempotent";
  EXPECT_FALSE(ledger.grant(2, 11)) << "rival at same incarnation must be refused";
  EXPECT_FALSE(ledger.grant(1, 12)) << "stale incarnation must be refused";
  EXPECT_TRUE(ledger.grant(3, 11)) << "higher incarnation opens a new round";
}

// ---------------------------------------------------------------------
// Deployment-level behaviour.
// ---------------------------------------------------------------------

TEST(Cluster, StartupElectsRankZeroPrimaryWithQuorum) {
  sim::Simulation sim(7001);
  ClusterDeployment dep(sim, standard_options(3));
  sim.run_for(sim::seconds(5));

  EXPECT_EQ(dep.primary_count(), 1);
  EXPECT_EQ(dep.primary_node(), dep.node(0).id()) << "rank 0 must win the startup election";
  for (int i = 1; i < 3; ++i) {
    ASSERT_NE(dep.engine(i), nullptr);
    EXPECT_EQ(dep.engine(i)->role(), Role::kBackup);
  }
  const cluster::MembershipView& view = dep.engine(0)->view();
  ASSERT_NE(view.primary(), nullptr);
  EXPECT_EQ(view.primary()->node, dep.node(0).id());
  EXPECT_GE(sim.counter_value("oftt.takeovers"), 1u);
  // The startup election is not a failure: no failover trace opened.
  EXPECT_TRUE(sim.telemetry().spans().traces().empty());
}

TEST(Cluster, KillingPrimaryPromotesRankOneWithinOneDetectionCycle) {
  sim::Simulation sim(7002);
  ClusterDeploymentOptions opts = standard_options(5);
  opts.engine.heartbeat_period = sim::milliseconds(100);
  opts.engine.swim_suspicion_timeout = sim::milliseconds(800);
  ClusterDeployment dep(sim, opts);
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  sim::SimTime injected = sim.now();
  dep.node(0).crash();

  // One detection cycle: each survivor probes every peer once per
  // shuffled round of N-1 periods, so some probe of the dead primary
  // goes out and misses within two rounds; the suspicion window then
  // expires on a tick. One negotiation cycle: the successor campaigns on
  // its next tick and its PromoteRequest/Ack round trip fits in one more
  // period.
  const sim::SimTime period = opts.engine.heartbeat_period;
  const sim::SimTime probe_rounds = 2 * (opts.replicas - 1) * period;
  const sim::SimTime detection = probe_rounds + opts.engine.swim_suspicion_timeout + period;
  const sim::SimTime bound = detection + 2 * period;
  while (sim.now() - injected < bound && dep.primary_node() < 0) {
    sim.run_for(sim::milliseconds(1));
  }
  EXPECT_EQ(dep.primary_node(), dep.node(1).id())
      << "rank-1 backup must take over within detection + negotiation";
  EXPECT_EQ(dep.primary_count(), 1);

  // The promotion was quorum-gated and traced, ack-collection included.
  sim.run_for(sim::seconds(2));
  ASSERT_FALSE(sim.telemetry().spans().traces().empty());
  const obs::FailoverTrace& t = sim.telemetry().spans().traces().front();
  EXPECT_EQ(t.node, dep.node(1).id());
  ASSERT_GE(t.quorum_at, 0) << "cluster failover must record the quorum milestone";
  EXPECT_GE(t.phase(obs::FailoverPhase::kAckCollection), 0);
  EXPECT_EQ(t.quorum_needed, 3u);
  EXPECT_GE(t.quorum_votes, 3u);
  // Survivors re-ranked deterministically behind the new primary.
  const cluster::MembershipView& view = dep.engine(1)->view();
  EXPECT_EQ(view.find(dep.node(1).id())->rank, 0);
  EXPECT_EQ(view.find(dep.node(2).id())->rank, 1);
  EXPECT_EQ(view.find(dep.node(0).id())->role, cluster::MemberRole::kDead);
}

TEST(Cluster, MinorityPartitionNeverPromotes) {
  sim::Simulation sim(7003);
  ClusterDeployment dep(sim, standard_options(5));
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  // 2/5 minority {node3, node4}; majority keeps the primary and the
  // monitor PC.
  sim.network(0).partition(
      {{dep.node(0).id(), dep.node(1).id(), dep.node(2).id(), dep.monitor_node().id()},
       {dep.node(3).id(), dep.node(4).id()}});

  for (int step = 0; step < 20; ++step) {
    sim.run_for(sim::milliseconds(500));
    EXPECT_EQ(dep.primary_node(), dep.node(0).id());
    EXPECT_EQ(dep.primary_count(), 1);
    EXPECT_NE(dep.engine(3)->role(), Role::kPrimary) << "minority member promoted";
    EXPECT_NE(dep.engine(4)->role(), Role::kPrimary) << "minority member promoted";
  }
  EXPECT_EQ(dep.engine(3)->takeovers(), 0u);
  EXPECT_EQ(dep.engine(4)->takeovers(), 0u);

  sim.network(0).heal();
  sim.run_for(sim::seconds(3));
  EXPECT_EQ(dep.primary_node(), dep.node(0).id());
  EXPECT_EQ(dep.primary_count(), 1);
}

TEST(Cluster, PrimaryInMinorityStepsDownAndMajorityElects) {
  sim::Simulation sim(7004);
  ClusterDeployment dep(sim, standard_options(5));
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  // Primary trapped with one backup; the three-member majority side
  // must elect its lowest-ranked member (node2).
  sim.network(0).partition(
      {{dep.node(0).id(), dep.node(1).id()},
       {dep.node(2).id(), dep.node(3).id(), dep.node(4).id(), dep.monitor_node().id()}});
  sim.run_for(sim::seconds(3));

  EXPECT_EQ(dep.engine(2)->role(), Role::kPrimary) << "majority must elect node2";
  EXPECT_NE(dep.engine(0)->role(), Role::kPrimary)
      << "minority primary must step down on quorum loss";
  EXPECT_NE(dep.engine(1)->role(), Role::kPrimary);

  sim.network(0).heal();
  sim.run_for(sim::seconds(3));
  EXPECT_EQ(dep.primary_node(), dep.node(2).id()) << "heal converges on the new incarnation";
  EXPECT_EQ(dep.primary_count(), 1);
}

TEST(Cluster, CascadingDoubleFailureConvergesToSinglePrimary) {
  sim::Simulation sim(7005);
  ClusterDeployment dep(sim, standard_options(5));
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  // Kill the successor the moment its campaign opens: its
  // PromoteRequests are already on the wire, so the voters grant an
  // incarnation nobody will ever claim, and node2 must still win the
  // next round once node1's own death is confirmed.
  const int successor = dep.node(1).id();
  int campaigns = 0, successor_quorums = 0;
  auto sub = sim.telemetry().bus().subscribe(
      obs::mask_of(obs::EventKind::kPromotionRequested, obs::EventKind::kPromotionQuorum),
      [&](const obs::Event& e) {
        if (e.node != successor) return;
        if (e.kind == obs::EventKind::kPromotionQuorum) {
          ++successor_quorums;
        } else if (campaigns++ == 0) {
          sim.schedule_after(0, [&] { dep.node(1).crash(); });
        }
      });
  dep.node(0).crash();
  sim.run_for(sim::seconds(5));
  sim.telemetry().bus().unsubscribe(sub);

  ASSERT_EQ(campaigns, 1) << "node1 must have opened its campaign before dying";
  EXPECT_EQ(successor_quorums, 0) << "node1 died with its campaign in flight";
  EXPECT_EQ(dep.primary_node(), dep.node(2).id())
      << "survivors must converge on the next-ranked member";
  EXPECT_EQ(dep.primary_count(), 1);
  const cluster::MembershipView& view = dep.engine(2)->view();
  EXPECT_EQ(view.find(dep.node(0).id())->role, cluster::MemberRole::kDead);
  EXPECT_EQ(view.find(dep.node(1).id())->role, cluster::MemberRole::kDead);
  // Still quorate: 3 live of 5.
  EXPECT_EQ(dep.engine(2)->role(), Role::kPrimary);
}

TEST(Cluster, CheckpointsFanOutToAllBackupsAndStateSurvivesFailover) {
  sim::Simulation sim(7006);
  ClusterDeployment dep(sim, standard_options(3));
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  Ftim* primary_ftim = dep.ftim_on(dep.node(0));
  ASSERT_NE(primary_ftim, nullptr);
  ASSERT_EQ(primary_ftim->checkpoint_peers().size(), 2u)
      << "cluster FTIM must target every other replica";
  EXPECT_GT(primary_ftim->acked_by(dep.node(1).id()), 0u);
  EXPECT_GT(primary_ftim->acked_by(dep.node(2).id()), 0u);
  EXPECT_GT(primary_ftim->min_acked_seq(), 0u);

  std::int64_t count_before = CounterApp::find(dep.node(0))->count();
  EXPECT_GT(count_before, 0);
  dep.node(0).crash();
  sim.run_for(sim::seconds(3));

  int primary = dep.primary_node();
  ASSERT_EQ(primary, dep.node(1).id());
  CounterApp* app = CounterApp::find(*dep.node_by_id(primary));
  ASSERT_NE(app, nullptr);
  EXPECT_GT(app->count(), count_before - 15)
      << "restored state must be within ~one checkpoint period of the lost primary";

  // The remaining backup keeps receiving checkpoints from the NEW
  // primary (ack path follows the sender, not a static peer).
  std::uint64_t acked = dep.ftim_on(*dep.node_by_id(primary))->acked_by(dep.node(2).id());
  EXPECT_GT(acked, 0u);
}

TEST(Cluster, RebootedPrimaryRejoinsAsLowestRankedBackup) {
  sim::Simulation sim(7007);
  ClusterDeployment dep(sim, standard_options(3));
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  dep.node(0).crash();
  sim.run_for(sim::seconds(3));
  ASSERT_EQ(dep.primary_node(), dep.node(1).id());

  dep.node(0).boot();
  sim.run_for(sim::seconds(3));
  EXPECT_EQ(dep.primary_node(), dep.node(1).id()) << "rejoin must not disturb the primary";
  EXPECT_EQ(dep.engine(0)->role(), Role::kBackup);
  const cluster::MembershipView& view = dep.engine(1)->view();
  EXPECT_EQ(view.find(dep.node(0).id())->role, cluster::MemberRole::kBackup);
  EXPECT_EQ(view.find(dep.node(0).id())->rank, 2) << "readmitted at the back of the line";
}

TEST(Cluster, TwoReplicaClusterDegradesToPairBehaviour) {
  sim::Simulation sim(7008);
  ClusterDeployment dep(sim, standard_options(2));
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  dep.node(0).crash();
  sim.run_for(sim::seconds(2));
  EXPECT_EQ(dep.primary_node(), dep.node(1).id())
      << "N=2 quorum is 1: the survivor promotes on its own vote";
  EXPECT_EQ(dep.primary_count(), 1);
}

TEST(Cluster, OperatorSwitchoverHandsOffToRankOne) {
  sim::Simulation sim(7009);
  ClusterDeployment dep(sim, standard_options(3));
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node(0).id());

  EXPECT_EQ(dep.engine(0)->request_switchover("maintenance"), S_OK);
  sim.run_for(sim::seconds(2));
  EXPECT_EQ(dep.primary_node(), dep.node(1).id());
  EXPECT_EQ(dep.primary_count(), 1);
  EXPECT_EQ(dep.engine(0)->role(), Role::kBackup);
}

TEST(Cluster, MonitorRendersMembershipView) {
  sim::Simulation sim(7010);
  ClusterDeployment dep(sim, standard_options(3));
  sim.run_for(sim::seconds(5));

  SystemMonitor* mon = dep.monitor();
  ASSERT_NE(mon, nullptr);
  const cluster::MembershipView* view = mon->membership_of("unit");
  ASSERT_NE(view, nullptr) << "StatusReports must carry the view to the monitor";
  ASSERT_NE(view->primary(), nullptr);
  EXPECT_EQ(view->primary()->node, dep.node(0).id());
  std::string board = mon->render();
  EXPECT_NE(board.find("membership"), std::string::npos) << board;
  EXPECT_NE(board.find("rank 0"), std::string::npos) << board;
  EXPECT_EQ(mon->primary_of("unit"), dep.node(0).id());
}

// ---------------------------------------------------------------------
// Determinism: identical seeds must yield byte-identical telemetry,
// ack-collection phase included.
// ---------------------------------------------------------------------

std::string run_failover_and_export(std::uint64_t seed) {
  sim::Simulation sim(seed);
  ClusterDeploymentOptions opts = standard_options(5);
  opts.with_diverter = true;
  ClusterDeployment dep(sim, opts);
  sim.run_for(sim::seconds(5));
  dep.node(0).crash();
  sim.run_for(sim::seconds(10));
  return obs::export_json(sim.telemetry(), /*include_history=*/true);
}

TEST(Cluster, IdenticalSeedsYieldByteIdenticalFailoverTraces) {
  std::string a = run_failover_and_export(4242);
  std::string b = run_failover_and_export(4242);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"quorum_at_ns\""), std::string::npos)
      << "exported traces must include the quorum milestone";
  EXPECT_NE(a.find("\"ack_collection\""), std::string::npos)
      << "exported traces must include the ack-collection phase";
  std::string c = run_failover_and_export(4243);
  EXPECT_NE(a, c) << "different seeds should differ somewhere";
}

// ---------------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------------

TEST(ClusterValidation, RejectsNonsensicalConfigs) {
  sim::Simulation sim(7011);
  {
    ClusterDeploymentOptions opts;
    opts.replicas = 1;
    EXPECT_THROW(ClusterDeployment(sim, opts), std::invalid_argument);
  }
  {
    ClusterDeploymentOptions opts;
    opts.engine.heartbeat_period = 0;
    EXPECT_THROW(ClusterDeployment(sim, opts), std::invalid_argument);
  }
  {
    sim::Node& lone = sim.add_node("lone");
    lone.boot();
    OfttConfig cfg;
    cfg.peer_node = lone.id();  // its own backup
    EXPECT_THROW(Engine::install(lone, cfg), std::invalid_argument);
    OfttConfig dup;
    dup.cluster_nodes = {lone.id(), lone.id()};
    EXPECT_THROW(Engine::install(lone, dup), std::invalid_argument);
    OfttConfig absent;
    absent.cluster_nodes = {lone.id() + 1, lone.id() + 2};
    EXPECT_THROW(Engine::install(lone, absent), std::invalid_argument);
  }
}

// Engine::install and ClusterDeployment share one swim validator: a
// suspicion window shorter than one protocol period leaves the accused
// no round in which to refute, and both entry points refuse it.
TEST(ClusterValidation, SwimSuspicionBelowHeartbeatPeriodIsRejectedEverywhere) {
  sim::Simulation sim(7013);
  sim::Node& lone = sim.add_node("lone");
  lone.boot();
  OfttConfig cfg;
  cfg.cluster_nodes = {lone.id(), lone.id() + 1};
  cfg.swim_suspicion_timeout = cfg.heartbeat_period / 2;
  EXPECT_THROW(Engine::install(lone, cfg), std::invalid_argument);

  ClusterDeploymentOptions opts;
  opts.engine.swim_suspicion_timeout = opts.engine.heartbeat_period / 2;
  EXPECT_THROW(ClusterDeployment(sim, opts), std::invalid_argument);

  cfg.swim_suspicion_timeout = cfg.heartbeat_period;
  EXPECT_NO_THROW(Engine::install(lone, cfg));
}

// ---------------------------------------------------------------------
// Fail closed on wire node ids: frames naming anyone outside the
// configured membership are dropped before they touch any state.
// ---------------------------------------------------------------------

TEST(SlotIndex, ResolvesConfiguredIdsAndRejectsEverythingElse) {
  const cluster::SlotIndex slots({4096, 3, 100, 7});
  EXPECT_EQ(slots.nodes(), (std::vector<int>{3, 7, 100, 4096})) << "slots follow node-id order";
  EXPECT_EQ(slots.slot(3), 0);
  EXPECT_EQ(slots.slot(100), 2);
  EXPECT_EQ(slots.slot(4096), 3);
  for (int bad : {-1, -2147483647 - 1, 0, 2, 4, 99, 101, 4095, 4097, 2147483647}) {
    EXPECT_EQ(slots.slot(bad), cluster::SlotIndex::kNoSlot) << bad;
  }
  cluster::MemberSet set(slots, {7, 4096, 5, -1});
  EXPECT_EQ(set.size(), 2u) << "unconfigured ids never become members";
  EXPECT_TRUE(set.contains(7));
  EXPECT_FALSE(set.contains(5));
  set.erase(7);
  set.erase(12345);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_THROW(cluster::SlotIndex({1, 2, 1}), std::invalid_argument);
}

// Members {0, 2, 5, 6}: 1, 3 and 4 are gaps, 7 is past the slot table
// and forges the frames. The forged frames ride their own lossless
// fixed-latency network, whose rng stream nothing else draws from, so
// an attacked run and a clean run must end in identical engine state,
// rendered one line per engine plus one per oftt.* counter.
std::vector<std::string> run_forged_ids(std::uint64_t seed, bool attack) {
  const std::vector<int> members = {0, 2, 5, 6};
  const int bad_ids[] = {-1, -2147483647 - 1, 1, 3, 4, 7, 8, 4096, 2147483647};
  sim::Simulation sim(seed);
  std::vector<sim::Node*> nodes;
  for (int i = 0; i < 8; ++i) nodes.push_back(&sim.add_node(cat("n", i)));
  sim::Network& lan = sim.add_network("lan0");
  sim::Network& forged = sim.add_network("forged");
  for (sim::Node* n : nodes) {
    lan.attach(n->id());
    forged.attach(n->id());
  }
  lan.set_latency(sim::milliseconds(1), sim::milliseconds(3));
  lan.set_loss(0.01);
  forged.set_latency(sim::milliseconds(1), sim::milliseconds(1));
  for (int id : members) {
    nodes[static_cast<std::size_t>(id)]->set_boot_script([members](sim::Node& node) {
      OfttConfig cfg;
      cfg.cluster_nodes = members;
      cfg.networks = {0};
      Engine::install(node, cfg);
    });
    nodes[static_cast<std::size_t>(id)]->boot();
  }
  nodes[7]->set_boot_script(
      [](sim::Node& node) { node.start_process("forger", [](sim::Process&) {}); });
  nodes[7]->boot();
  std::shared_ptr<sim::Process> forger = nodes[7]->find_process("forger");

  sim::Rng pick(seed * 7919 + 1);
  auto bad = [&] { return bad_ids[pick.uniform(0, std::size(bad_ids) - 1)]; };
  auto member = [&] { return members[static_cast<std::size_t>(pick.uniform(0, 3))]; };
  sim.run_until(sim::seconds(1));
  while (sim.now() < sim::seconds(5)) {
    if (attack) {
      // Every frame carries at least one unconfigured id in a field the
      // engine checks, plus piggybacked accusations that would move
      // detector state if the frame got through.
      std::vector<swim::Update> ups = {{member(), 7, swim::MemberState::kDead},
                                       {bad(), 3, swim::MemberState::kSuspect}};
      PeerHeartbeat hb;
      hb.node = bad();
      hb.role = Role::kPrimary;
      hb.incarnation = 99;
      hb.replica_ready = false;
      SwimProbe probe;
      probe.from = bad();
      probe.origin = member();
      probe.seq = 1;
      probe.role = Role::kPrimary;
      probe.incarnation = 99;
      probe.updates = ups;
      SwimProbe relayed = probe;
      relayed.from = member();
      relayed.origin = bad();
      SwimAck ack;
      ack.from = bad();
      ack.origin = member();
      ack.updates = ups;
      SwimAck misrouted = ack;
      misrouted.from = member();
      misrouted.origin = bad();
      SwimPingReq req;
      req.from = bad();
      req.target = member();
      req.updates = ups;
      SwimPingReq aimless = req;
      aimless.from = member();
      aimless.target = bad();
      for (const Buffer& frame :
           {hb.encode(), probe.encode(), relayed.encode(), ack.encode(), misrouted.encode(),
            req.encode(), aimless.encode()}) {
        forger->send(1, member(), kEnginePort, frame, "forger");
      }
    }
    sim.run_for(sim::milliseconds(50));
  }
  sim.run_until(sim::seconds(6));

  std::vector<std::string> snap;
  for (int id : members) {
    Engine* e = Engine::find(*nodes[static_cast<std::size_t>(id)]);
    std::string line = cat("node ", id);
    if (e == nullptr) {
      snap.push_back(line + " down");
      continue;
    }
    line += cat(" role ", role_name(e->role()), " inc ", e->incarnation(), " view ",
                e->view().summary(), " live");
    const cluster::MemberSet live = e->live_members();
    for (int n = -2; n <= 9; ++n) {
      if (live.contains(n)) line += cat(" ", n);
    }
    const swim::Detector* d = e->swim_detector();
    line += cat(" self_inc ", d->self_incarnation(), " buffered ", d->update_buffer_size());
    for (int n : members) {
      line += cat(" | ", n, " ", swim::member_state_name(d->state(n)), "@", d->incarnation(n),
                  " heard ", d->last_heard(n), " suspect ", d->suspect_since(n));
    }
    for (const cluster::Member& m : e->view().members) {
      line += cat(" hb", m.node, "=", m.last_heartbeat);
    }
    snap.push_back(line);
  }
  for (const auto& [name, cell] : sim.telemetry().metrics().counters()) {
    if (name.rfind("oftt.", 0) == 0) snap.push_back(cat(name, " = ", cell->value.load()));
  }
  return snap;
}

TEST(ClusterWire, UnconfiguredNodeIdsChangeNoEngineState) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    const std::vector<std::string> clean = run_forged_ids(seed, /*attack=*/false);
    const std::vector<std::string> attacked = run_forged_ids(seed, /*attack=*/true);
    ASSERT_EQ(clean.size(), attacked.size());
    for (std::size_t i = 0; i < clean.size(); ++i) {
      EXPECT_EQ(attacked[i], clean[i]) << "seed " << seed;
    }
  }
}

// A cluster engine takes no part in the pair protocol: one forged pair
// Probe or ProbeReply reaching a member still negotiating at startup
// must not make it primary outside the quorum election.
TEST(ClusterWire, ForgedPairProbeDuringStartupElectsNoOne) {
  for (bool reply : {false, true}) {
    sim::Simulation sim(7012);
    ClusterDeployment dep(sim, standard_options(5));
    std::vector<int> promoted;
    auto sub = sim.telemetry().bus().subscribe(
        obs::mask_of(obs::EventKind::kRoleChange), [&](const obs::Event& e) {
          if (e.a == static_cast<std::uint64_t>(Role::kPrimary)) promoted.push_back(e.node);
        });
    std::shared_ptr<sim::Process> forger =
        dep.monitor_node().start_process("forger", [](sim::Process&) {});
    sim.run_until(sim::milliseconds(200));
    ASSERT_EQ(dep.engine(3)->role(), Role::kNegotiating);
    Probe p;
    p.node = 999;
    p.role = Role::kBackup;
    p.incarnation = 99;
    forger->send(0, dep.node(3).id(), kEnginePort, p.encode(reply), "forger");
    sim.run_until(sim::seconds(5));
    sim.telemetry().bus().unsubscribe(sub);

    EXPECT_EQ(promoted, std::vector<int>{dep.node(0).id()})
        << (reply ? "ProbeReply" : "Probe") << ": only the quorum-elected rank 0 may promote";
    EXPECT_EQ(dep.primary_node(), dep.node(0).id());
    EXPECT_EQ(dep.primary_count(), 1);
    EXPECT_LT(dep.engine(3)->incarnation(), 99u);
  }
}

// Pair-mode twin of UnconfiguredNodeIdsChangeNoEngineState: a pair
// engine hears the pair protocol only from its configured peer. Forged
// frames come from a third node naming the real peer (wrong sender)
// and from the peer's own address naming someone else (wrong node
// field); they ride their own lossless fixed-latency network, so an
// attacked run must end exactly like a clean one — across a primary
// crash that a forged heartbeat or Takeover would otherwise mask or
// pre-empt.
std::vector<std::string> run_forged_pair(std::uint64_t seed, bool attack) {
  sim::Simulation sim(seed);
  std::vector<sim::Node*> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(&sim.add_node(cat("n", i)));
  sim::Network& lan = sim.add_network("lan0");
  sim::Network& forged = sim.add_network("forged");
  for (sim::Node* n : nodes) {
    lan.attach(n->id());
    forged.attach(n->id());
  }
  lan.set_latency(sim::milliseconds(1), sim::milliseconds(3));
  lan.set_loss(0.01);
  forged.set_latency(sim::milliseconds(1), sim::milliseconds(1));
  for (int id : {0, 1}) {
    nodes[static_cast<std::size_t>(id)]->set_boot_script([id](sim::Node& node) {
      OfttConfig cfg;
      cfg.peer_node = 1 - id;
      cfg.networks = {0};
      Engine::install(node, cfg);
      node.start_process("forger", [](sim::Process&) {});
    });
  }
  nodes[2]->set_boot_script(
      [](sim::Node& node) { node.start_process("forger", [](sim::Process&) {}); });
  for (sim::Node* n : nodes) n->boot();
  std::vector<std::shared_ptr<sim::Process>> forgers;
  for (sim::Node* n : nodes) forgers.push_back(n->find_process("forger"));

  // Every frame a pair engine acts on, naming `node` and claiming a
  // high incarnation.
  auto frames = [](int node) {
    Probe probe;
    probe.node = node;
    probe.role = Role::kBackup;
    probe.incarnation = 99;
    PeerHeartbeat hb;
    hb.node = node;
    hb.role = Role::kPrimary;
    hb.incarnation = 99;
    Takeover t;
    t.from_node = node;
    t.incarnation = 99;
    t.reason = "forged";
    return std::vector<Buffer>{probe.encode(false), probe.encode(true), hb.encode(), t.encode()};
  };
  sim::FaultPlan plan(sim);
  plan.crash_node(sim::seconds(3), 0);
  plan.arm();
  sim.run_until(sim::seconds(1));
  while (sim.now() < sim::seconds(5)) {
    if (attack) {
      for (int target : {0, 1}) {
        const int peer = 1 - target;
        for (const Buffer& f : frames(peer)) forgers[2]->send(1, target, kEnginePort, f, "forger");
        for (int bad : {-1, 2, 7}) {
          for (const Buffer& f : frames(bad)) {
            forgers[static_cast<std::size_t>(peer)]->send(1, target, kEnginePort, f, "forger");
          }
        }
      }
    }
    sim.run_for(sim::milliseconds(50));
  }
  sim.run_until(sim::seconds(6));

  std::vector<std::string> snap;
  for (int id : {0, 1}) {
    Engine* e = Engine::find(*nodes[static_cast<std::size_t>(id)]);
    if (e == nullptr) {
      snap.push_back(cat("node ", id, " down"));
      continue;
    }
    snap.push_back(cat("node ", id, " role ", role_name(e->role()), " inc ", e->incarnation(),
                       " peer_visible ", e->peer_visible(), " takeovers ", e->takeovers(),
                       " probe_rounds ", e->startup_probe_rounds()));
  }
  for (const auto& [name, cell] : sim.telemetry().metrics().counters()) {
    if (name.rfind("oftt.", 0) == 0) snap.push_back(cat(name, " = ", cell->value.load()));
  }
  return snap;
}

TEST(PairWire, ForgedPairFramesChangeNoEngineState) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    const std::vector<std::string> clean = run_forged_pair(seed, /*attack=*/false);
    const std::vector<std::string> attacked = run_forged_pair(seed, /*attack=*/true);
    ASSERT_EQ(clean.size(), attacked.size());
    for (std::size_t i = 0; i < clean.size(); ++i) {
      EXPECT_EQ(attacked[i], clean[i]) << "seed " << seed;
    }
    EXPECT_EQ(clean[1].rfind("node 1 role PRIMARY", 0), 0u)
        << "the backup must take over from the crashed primary: " << clean[1];
  }
}

}  // namespace
}  // namespace oftt::core
