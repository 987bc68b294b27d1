// Replication modes: mode-predicate unit coverage, governor
// hysteresis, succession eligibility, knob validation, delta-frame
// hardening, and full-deployment scenarios for warm-passive streaming,
// semi-active decision logs, live policy switches (including under
// loss) and cold-restart policy recovery — plus the 5-seed determinism
// sweep per policy under a scripted fault storm.
#include <gtest/gtest.h>

#include "cluster/succession.h"
#include "core/checkpoint.h"
#include "core/deployment.h"
#include "core/ftim.h"
#include "core/replication.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "sim/fault_plan.h"
#include "sim/rng.h"
#include "store/journal.h"
#include "support/counter_app.h"
#include "support/session_speaker.h"

namespace oftt::core {
namespace {

using testsupport::CounterApp;
using testsupport::SessionSpeaker;

// ---------------------------------------------------------------------
// Mode predicates: the four decision points, per mode.
// ---------------------------------------------------------------------

FtimOptions standard_options() {
  FtimOptions o;
  o.checkpoint_period = sim::milliseconds(500);
  o.delta_stream_period = sim::milliseconds(125);
  o.full_checkpoint_interval = 8;
  return o;
}

TEST(ReplicationPolicy, ColdPassiveReproducesThePaperScheme) {
  const ReplicationMode m = ReplicationMode::kColdPassive;
  FtimOptions o = standard_options();
  EXPECT_EQ(capture_period(m, o), o.checkpoint_period);
  EXPECT_FALSE(folds_on_receipt(m)) << "backup holds images; activation restores in bulk";
  EXPECT_FALSE(followers_execute(m));
  EXPECT_EQ(staleness_bound(m, o), 0) << "cold backups are never disqualified";
  // The Nth-full rhythm: first capture full, then interval-1 deltas.
  EXPECT_FALSE(capture_as_delta(m, o, false, 0, 0)) << "first capture is full";
  EXPECT_TRUE(capture_as_delta(m, o, false, 1, 0));
  EXPECT_TRUE(capture_as_delta(m, o, false, 7, 6));
  EXPECT_FALSE(capture_as_delta(m, o, false, 8, 7)) << "every Nth is self-contained";
  EXPECT_FALSE(capture_as_delta(m, o, true, 5, 2)) << "force_full wins";
  // Deltas need full-image mode, an interval above 1 and dirty tracking.
  o.track_dirty_ranges = false;
  EXPECT_FALSE(capture_as_delta(m, o, false, 3, 1));
  o = standard_options();
  o.full_checkpoint_interval = 1;
  EXPECT_FALSE(capture_as_delta(m, o, false, 3, 1));
  o = standard_options();
  o.checkpoint_mode = CheckpointMode::kSelective;
  EXPECT_FALSE(capture_as_delta(m, o, false, 3, 1));
}

TEST(ReplicationPolicy, WarmPassiveStreamsAtDeltaCadenceAndSkipsRestore) {
  const ReplicationMode m = ReplicationMode::kWarmPassive;
  FtimOptions o = standard_options();
  EXPECT_EQ(capture_period(m, o), o.delta_stream_period);
  EXPECT_TRUE(folds_on_receipt(m)) << "backup folds on receipt; activation skips the restore";
  EXPECT_FALSE(followers_execute(m));
  EXPECT_EQ(staleness_bound(m, o), 8 * o.delta_stream_period);
  o.promotion_staleness_bound = sim::seconds(2);
  EXPECT_EQ(staleness_bound(m, o), sim::seconds(2)) << "explicit bound overrides";
}

TEST(ReplicationPolicy, SemiActiveIsPromotionOnlyWithSafetyNetFulls) {
  const ReplicationMode m = ReplicationMode::kSemiActive;
  FtimOptions o = standard_options();
  EXPECT_EQ(capture_period(m, o), o.checkpoint_period * 8) << "sparse safety net";
  EXPECT_FALSE(capture_as_delta(m, o, false, 5, 3)) << "semi never ships deltas";
  EXPECT_TRUE(folds_on_receipt(m)) << "backup folds on receipt; activation skips the restore";
  EXPECT_TRUE(followers_execute(m));
  EXPECT_EQ(staleness_bound(m, o), 8 * o.checkpoint_period);
}

TEST(ReplicationPolicy, PromotionReadinessIsJudgedAgainstTheFailureEvidence) {
  const FtimOptions o = standard_options();
  const ReplicationMode cold = ReplicationMode::kColdPassive;
  const ReplicationMode warm = ReplicationMode::kWarmPassive;
  const sim::SimTime evidence = sim::seconds(100);
  // Cold: always ready, even having applied nothing ever.
  EXPECT_TRUE(promotion_ready(cold, o, 0, evidence));
  // Warm bound is 8 * 125 ms = 1 s around the evidence time.
  EXPECT_TRUE(promotion_ready(warm, o, evidence - sim::milliseconds(900), evidence));
  EXPECT_FALSE(promotion_ready(warm, o, evidence - sim::milliseconds(1100), evidence));
  EXPECT_TRUE(promotion_ready(warm, o, evidence, evidence));
}

// A derived delta cadence (delta_stream_period left at 0) is a quarter
// of the checkpoint period, and the warm staleness bound follows it.
TEST(ReplicationPolicy, WarmCadenceDefaultsToAQuarterOfTheCheckpointPeriod) {
  FtimOptions o = standard_options();
  o.delta_stream_period = 0;
  EXPECT_EQ(capture_period(ReplicationMode::kWarmPassive, o), sim::milliseconds(125));
  EXPECT_EQ(staleness_bound(ReplicationMode::kWarmPassive, o), sim::seconds(1));
  o.checkpoint_period = sim::microseconds(2000);
  EXPECT_EQ(capture_period(ReplicationMode::kWarmPassive, o), sim::milliseconds(1))
      << "never below 1 ms";
}

// ---------------------------------------------------------------------
// Governor: hysteresis in both directions, semi-active untouchable.
// ---------------------------------------------------------------------

TEST(PolicyGovernor, DegradesWarmToColdOnlyAfterSustainedLoss) {
  GovernorConfig g;
  g.enabled = true;
  g.hysteresis_windows = 2;
  PolicyGovernor gov(g);
  // One lossy window is noise.
  EXPECT_EQ(gov.evaluate(ReplicationMode::kWarmPassive, 1000.0, 0.2),
            ReplicationMode::kWarmPassive);
  // A calm window resets the streak.
  EXPECT_EQ(gov.evaluate(ReplicationMode::kWarmPassive, 1000.0, 0.0),
            ReplicationMode::kWarmPassive);
  EXPECT_EQ(gov.evaluate(ReplicationMode::kWarmPassive, 1000.0, 0.2),
            ReplicationMode::kWarmPassive);
  EXPECT_EQ(gov.evaluate(ReplicationMode::kWarmPassive, 1000.0, 0.2),
            ReplicationMode::kColdPassive)
      << "second consecutive lossy window trips the switch";
}

TEST(PolicyGovernor, DegradesWarmToColdOnSustainedHeavyByteRate) {
  GovernorConfig g;
  g.enabled = true;
  g.hysteresis_windows = 2;
  g.warm_bytes_per_s = 1024;
  PolicyGovernor gov(g);
  EXPECT_EQ(gov.evaluate(ReplicationMode::kWarmPassive, 4096.0, 0.0),
            ReplicationMode::kWarmPassive);
  EXPECT_EQ(gov.evaluate(ReplicationMode::kWarmPassive, 4096.0, 0.0),
            ReplicationMode::kColdPassive);
}

TEST(PolicyGovernor, UpgradesColdToWarmAfterCalmWindows) {
  GovernorConfig g;
  g.enabled = true;
  g.hysteresis_windows = 3;
  PolicyGovernor gov(g);
  EXPECT_EQ(gov.evaluate(ReplicationMode::kColdPassive, 100.0, 0.0),
            ReplicationMode::kColdPassive);
  EXPECT_EQ(gov.evaluate(ReplicationMode::kColdPassive, 100.0, 0.0),
            ReplicationMode::kColdPassive);
  EXPECT_EQ(gov.evaluate(ReplicationMode::kColdPassive, 100.0, 0.0),
            ReplicationMode::kWarmPassive);
}

TEST(PolicyGovernor, NeverTouchesSemiActive) {
  GovernorConfig g;
  g.enabled = true;
  g.hysteresis_windows = 1;
  PolicyGovernor gov(g);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(gov.evaluate(ReplicationMode::kSemiActive, 1e9, 0.9),
              ReplicationMode::kSemiActive);
  }
}

// ---------------------------------------------------------------------
// Succession eligibility: prefer fresh replicas, never go headless.
// ---------------------------------------------------------------------

TEST(SuccessionEligibility, PrefersEligibleAndFallsBackToSeniority) {
  cluster::MembershipView view = cluster::MembershipView::initial({1, 2, 3});
  const cluster::SlotIndex slots({1, 2, 3});
  auto set = [&](std::initializer_list<int> nodes) { return cluster::MemberSet(slots, nodes); };
  const cluster::MemberSet live = set({2, 3});
  EXPECT_EQ(cluster::SuccessionPlanner::successor(view, live), 2);
  // Rank-1 node 2 is stale: rank-2 node 3 is preferred while eligible.
  EXPECT_EQ(cluster::SuccessionPlanner::successor(view, live, set({3})), 3);
  EXPECT_EQ(cluster::SuccessionPlanner::successor(view, live, set({2, 3})), 2);
  // Nobody eligible: a stale replica beats no primary at all.
  EXPECT_EQ(cluster::SuccessionPlanner::successor(view, live, set({})), 2);
  EXPECT_EQ(cluster::SuccessionPlanner::successor(view, set({}), set({})), -1);
}

// ---------------------------------------------------------------------
// Knob validation: inconsistent combinations must throw, descriptively.
// ---------------------------------------------------------------------

TEST(ReplicationValidation, RejectsInconsistentFtimKnobs) {
  {
    FtimOptions o;
    o.checkpoint_period = 0;
    EXPECT_THROW(validate_ftim_options(o), std::invalid_argument);
  }
  {
    FtimOptions o;
    o.full_checkpoint_interval = 0;
    EXPECT_THROW(validate_ftim_options(o), std::invalid_argument);
  }
  {
    FtimOptions o;  // delta interval without dirty tracking
    o.track_dirty_ranges = false;
    o.full_checkpoint_interval = 8;
    EXPECT_THROW(validate_ftim_options(o), std::invalid_argument);
    o.full_checkpoint_interval = 1;  // consistent again
    EXPECT_NO_THROW(validate_ftim_options(o));
  }
  {
    FtimOptions o;  // warm knob under a cold policy
    o.peer_node = 1;
    o.delta_stream_period = sim::milliseconds(50);
    EXPECT_THROW(validate_ftim_options(o), std::invalid_argument);
    o.replication = ReplicationMode::kWarmPassive;
    EXPECT_NO_THROW(validate_ftim_options(o));
  }
  {
    FtimOptions o;  // warm streaming needs dirty tracking
    o.peer_node = 1;
    o.replication = ReplicationMode::kWarmPassive;
    o.track_dirty_ranges = false;
    o.full_checkpoint_interval = 1;
    EXPECT_THROW(validate_ftim_options(o), std::invalid_argument);
  }
  {
    FtimOptions o;  // non-cold replication with nobody to stream to
    o.replication = ReplicationMode::kWarmPassive;
    EXPECT_THROW(validate_ftim_options(o), std::invalid_argument);
    o.replication = ReplicationMode::kSemiActive;
    EXPECT_THROW(validate_ftim_options(o), std::invalid_argument);
  }
  {
    FtimOptions o;  // semi-active needs a checkpointable client
    o.peer_node = 1;
    o.replication = ReplicationMode::kSemiActive;
    o.kind = FtimKind::kOpcServer;
    EXPECT_THROW(validate_ftim_options(o), std::invalid_argument);
  }
  {
    FtimOptions o;
    o.promotion_staleness_bound = -1;
    EXPECT_THROW(validate_ftim_options(o), std::invalid_argument);
  }
  {
    FtimOptions o;
    o.governor.enabled = true;
    o.governor.period = 0;
    EXPECT_THROW(validate_ftim_options(o), std::invalid_argument);
    o.governor.period = sim::seconds(1);
    o.governor.hysteresis_windows = 0;
    EXPECT_THROW(validate_ftim_options(o), std::invalid_argument);
    o.governor.hysteresis_windows = 2;
    o.governor.loss_rate_high = 1.5;
    EXPECT_THROW(validate_ftim_options(o), std::invalid_argument);
  }
}

TEST(ReplicationValidation, DeploymentAndEngineRejectShapeMistakes) {
  sim::Simulation sim(8101);
  {
    // Warm replication with no application: nothing to stream.
    PairDeploymentOptions opts;
    opts.engine.replication = ReplicationMode::kWarmPassive;
    EXPECT_THROW(PairDeployment(sim, opts), std::invalid_argument);
  }
  {
    ClusterDeploymentOptions opts;
    opts.engine.replication = ReplicationMode::kSemiActive;
    EXPECT_THROW(ClusterDeployment(sim, opts), std::invalid_argument);
  }
  {
    // Engine in warm mode with neither a pair peer nor a cluster.
    sim::Node& lone = sim.add_node("lone");
    lone.boot();
    OfttConfig cfg;
    cfg.replication = ReplicationMode::kWarmPassive;
    EXPECT_THROW(Engine::install(lone, cfg), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------
// apply_delta hardening: mismatched chains refused, base untouched.
// ---------------------------------------------------------------------

class DeltaHardeningTest : public ::testing::Test {
 protected:
  DeltaHardeningTest() {
    node_ = &sim_.add_node("n");
    node_->boot();
    proc_ = node_->start_process("src", nullptr);
    rt_ = &nt::NtRuntime::of(*proc_);
  }

  CheckpointImage make_base() {
    auto& g = rt_->memory().alloc("globals", 128);
    g.write<std::uint64_t>(0, 7);
    CheckpointImage base = capture_checkpoint(*rt_, CheckpointMode::kFull, {}, 3, 2, {});
    rt_->memory().clear_all_dirty();
    return base;
  }

  CheckpointImage make_delta(std::uint64_t seq, std::uint64_t base_seq,
                             std::uint32_t incarnation) {
    rt_->memory().find("globals")->write<std::uint64_t>(0, 8);
    return capture_delta_checkpoint(*rt_, seq, base_seq, incarnation, {});
  }

  sim::Simulation sim_;
  sim::Node* node_;
  std::shared_ptr<sim::Process> proc_;
  nt::NtRuntime* rt_;
};

TEST_F(DeltaHardeningTest, MismatchedBaseSeqReturnsNeedFullAndLeavesBaseAlone) {
  CheckpointImage base = make_base();
  const Buffer before = base.marshal();
  CheckpointImage stale = make_delta(/*seq=*/4, /*base_seq=*/2, /*incarnation=*/2);
  EXPECT_EQ(apply_delta(base, stale).status, DeltaApply::kNeedFull);
  EXPECT_EQ(base.marshal(), before) << "refused merge must not mutate the base";
  CheckpointImage wrong_inc = make_delta(4, 3, /*incarnation=*/1);
  EXPECT_EQ(apply_delta(base, wrong_inc).status, DeltaApply::kNeedFull);
  CheckpointImage not_a_delta = make_delta(4, 3, 2);
  not_a_delta.mode = CheckpointMode::kFull;
  EXPECT_EQ(apply_delta(base, not_a_delta).status, DeltaApply::kNeedFull);
  EXPECT_EQ(base.marshal(), before);
  // The matching chain still merges.
  CheckpointImage good = make_delta(4, 3, 2);
  EXPECT_TRUE(apply_delta(base, good).applied());
  EXPECT_EQ(base.seq, 4u);
}

TEST_F(DeltaHardeningTest, DecisionWatermarkPropagatesForward) {
  CheckpointImage base = make_base();
  base.decision_seq = 10;
  CheckpointImage d = make_delta(4, 3, 2);
  d.decision_seq = 17;
  ASSERT_TRUE(apply_delta(base, d).applied());
  EXPECT_EQ(base.decision_seq, 17u);
  CheckpointImage older = make_delta(5, 4, 2);
  older.decision_seq = 12;  // stale watermark must not regress the base
  ASSERT_TRUE(apply_delta(base, older).applied());
  EXPECT_EQ(base.decision_seq, 17u);
}

TEST_F(DeltaHardeningTest, SeededFuzzOverTruncatedAndGarbledDeltaFrames) {
  CheckpointImage base = make_base();
  const Buffer pristine = base.marshal();
  Buffer blob = make_delta(4, 3, 2).marshal();

  // Every strict prefix is rejected at unmarshal (checksum/truncation).
  for (std::size_t len = 0; len < blob.size(); ++len) {
    CheckpointImage out;
    EXPECT_FALSE(CheckpointImage::unmarshal(
        Buffer(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(len)), out))
        << "prefix of " << len << " bytes must not unmarshal";
  }

  // Byte-flip fuzz: whatever survives unmarshal must either chain
  // correctly or be refused with the base image untouched — never a
  // crash, never a silent partial merge that corrupts the base chain.
  sim::Rng rng(0x5EED);
  for (int round = 0; round < 300; ++round) {
    Buffer mutated = blob;
    const int flips = 1 + static_cast<int>(rng.uniform(0, 7));
    for (int i = 0; i < flips; ++i) {
      auto pos = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform(0, 254));
    }
    CheckpointImage out;
    if (!CheckpointImage::unmarshal(mutated, out)) continue;  // checksum caught it
    CheckpointImage scratch;
    ASSERT_TRUE(CheckpointImage::unmarshal(pristine, scratch));
    const DeltaApplyResult res = apply_delta(scratch, out);
    if (!res.applied()) {
      EXPECT_EQ(scratch.marshal(), pristine) << "refused merge must leave base intact";
    }
  }
}

// ---------------------------------------------------------------------
// Scenarios: warm-passive folds on receipt and promotes in place.
// ---------------------------------------------------------------------

PairDeploymentOptions policy_pair_options(ReplicationMode mode) {
  PairDeploymentOptions opts;
  opts.engine.replication = mode;
  opts.app_factory = [mode](sim::Process& proc) {
    CounterApp::Options app;
    app.ftim.replication = mode;
    app.drive_by_decisions = mode == ReplicationMode::kSemiActive;
    proc.attachment<CounterApp>(proc, app);
  };
  return opts;
}

TEST(WarmPassive, BackupFoldsDeltasAndPromotesWithoutBulkRestore) {
  sim::Simulation sim(9001);
  PairDeployment dep(sim, policy_pair_options(ReplicationMode::kWarmPassive));
  sim.run_for(sim::seconds(5));

  int primary = dep.primary_node();
  ASSERT_NE(primary, -1);
  sim::Node& backup_node = primary == dep.node_a().id() ? dep.node_b() : dep.node_a();
  Ftim* backup = dep.ftim_on(backup_node);
  ASSERT_NE(backup, nullptr);
  EXPECT_EQ(backup->replication_mode(), ReplicationMode::kWarmPassive);
  EXPECT_TRUE(backup->runtime_current()) << "warm backup folds state as it arrives";
  EXPECT_GT(backup->deltas_applied(), 5u) << "continuous delta stream expected";
  EXPECT_GT(backup->last_applied_at(), 0);

  const std::int64_t before =
      CounterApp::find(*dep.node_by_id(primary)) != nullptr
          ? CounterApp::find(*dep.node_by_id(primary))->count()
          : 0;
  ASSERT_GT(before, 0);
  dep.node_by_id(primary)->crash();
  sim.run_for(sim::seconds(5));

  CounterApp* app = CounterApp::find(backup_node);
  ASSERT_NE(app, nullptr);
  // No state dropped across the switchover (modulo the staleness bound,
  // a handful of 50 ms ticks), and progress resumed.
  EXPECT_GE(app->count(), before - 10);
  EXPECT_GT(app->count(), before - 10 + 20) << "new primary must make progress";
  // The promotion skipped the bulk restore: activation was in-place.
  std::string trace = obs::export_json(sim.telemetry(), /*include_history=*/true);
  EXPECT_NE(trace.find("promoted in place"), std::string::npos) << "warm switchover";
  EXPECT_EQ(trace.find("restored on activation"), std::string::npos)
      << "warm backup must not bulk-restore at activation";
}

TEST(SemiActive, FollowersExecuteTheDecisionLogAndPromoteByPromotionOnly) {
  sim::Simulation sim(9002);
  PairDeployment dep(sim, policy_pair_options(ReplicationMode::kSemiActive));
  sim.run_for(sim::seconds(5));

  int primary = dep.primary_node();
  ASSERT_NE(primary, -1);
  sim::Node& backup_node = primary == dep.node_a().id() ? dep.node_b() : dep.node_a();
  Ftim* leader = dep.ftim_on(*dep.node_by_id(primary));
  Ftim* follower = dep.ftim_on(backup_node);
  ASSERT_NE(leader, nullptr);
  ASSERT_NE(follower, nullptr);
  EXPECT_GT(leader->decisions_proposed(), 50u) << "50 ms ticks for ~5 s";
  EXPECT_GT(follower->decisions_applied(), 50u) << "follower executes the log";
  EXPECT_TRUE(follower->runtime_current());

  CounterApp* leader_app = CounterApp::find(*dep.node_by_id(primary));
  CounterApp* follower_app = CounterApp::find(backup_node);
  ASSERT_NE(leader_app, nullptr);
  ASSERT_NE(follower_app, nullptr);
  EXPECT_NEAR(static_cast<double>(follower_app->count()),
              static_cast<double>(leader_app->count()), 5.0)
      << "follower state rides the decision log, not checkpoint cadence";

  const std::int64_t before = leader_app->count();
  dep.node_by_id(primary)->crash();
  sim.run_for(sim::seconds(5));
  EXPECT_GE(follower_app->count(), before - 5);
  EXPECT_GT(follower_app->count(), before + 20) << "promoted follower keeps proposing";
}

// ---------------------------------------------------------------------
// Live switching: operator-driven, under loss, and across cold restart.
// ---------------------------------------------------------------------

TEST(PolicySwitch, LiveColdToWarmUnderLossPreservesStateAcrossFailover) {
  sim::Simulation sim(9003);
  PairDeploymentOptions opts = policy_pair_options(ReplicationMode::kColdPassive);
  opts.dual_network = true;
  opts.net_loss = 0.08;
  PairDeployment dep(sim, opts);
  sim.run_for(sim::seconds(5));

  int primary = dep.primary_node();
  ASSERT_NE(primary, -1);
  sim::Node& backup_node = primary == dep.node_a().id() ? dep.node_b() : dep.node_a();
  auto primary_app_proc = dep.node_by_id(primary)->find_process("app");
  ASSERT_NE(primary_app_proc, nullptr);
  EXPECT_EQ(OFTTGetReplicationMode(*primary_app_proc), ReplicationMode::kColdPassive);

  // Live switch on the active side; the announcement + pinned full
  // checkpoint must bring the backup along despite the lossy links.
  EXPECT_EQ(OFTTSwitchReplication(*primary_app_proc, ReplicationMode::kWarmPassive,
                                  "operator: tighten RTO"),
            S_OK);
  EXPECT_EQ(OFTTSwitchReplication(*primary_app_proc, ReplicationMode::kWarmPassive), S_FALSE)
      << "no-op switch reports S_FALSE";
  sim.run_for(sim::seconds(5));

  Ftim* backup = dep.ftim_on(backup_node);
  ASSERT_NE(backup, nullptr);
  EXPECT_EQ(backup->replication_mode(), ReplicationMode::kWarmPassive);
  EXPECT_GE(backup->policy_switches(), 1u);
  EXPECT_TRUE(backup->runtime_current()) << "held image folded at the switch";

  const std::int64_t before = CounterApp::find(*dep.node_by_id(primary))->count();
  dep.node_by_id(primary)->crash();
  sim.run_for(sim::seconds(5));
  CounterApp* app = CounterApp::find(backup_node);
  ASSERT_NE(app, nullptr);
  EXPECT_GE(app->count(), before - 15) << "switch must not drop replicated state";
  EXPECT_GT(app->count(), before) << "progress resumed under the new policy";
  std::string trace = obs::export_json(sim.telemetry(), /*include_history=*/true);
  EXPECT_NE(trace.find("policy_switch"), std::string::npos);
}

TEST(PolicySwitch, SwitchedPolicySurvivesOsCrashViaTheJournal) {
  sim::Simulation sim(9004);
  PairDeployment dep(sim, policy_pair_options(ReplicationMode::kColdPassive));
  sim.run_for(sim::seconds(4));

  int primary = dep.primary_node();
  ASSERT_NE(primary, -1);
  sim::Node& backup_node = primary == dep.node_a().id() ? dep.node_b() : dep.node_a();
  auto app_proc = dep.node_by_id(primary)->find_process("app");
  ASSERT_NE(app_proc, nullptr);
  ASSERT_EQ(OFTTSwitchReplication(*app_proc, ReplicationMode::kWarmPassive, "test"), S_OK);
  sim.run_for(sim::seconds(3));
  ASSERT_NE(dep.ftim_on(backup_node), nullptr);
  ASSERT_EQ(dep.ftim_on(backup_node)->replication_mode(), ReplicationMode::kWarmPassive);

  // Cold-restart the backup: its FtimOptions still say cold-passive,
  // but the policy journal on its disk says warm — journal wins.
  backup_node.os_crash(sim::seconds(5));
  sim.run_for(sim::seconds(10));
  Ftim* restarted = dep.ftim_on(backup_node);
  ASSERT_NE(restarted, nullptr);
  EXPECT_EQ(restarted->replication_mode(), ReplicationMode::kWarmPassive)
      << "policy must be restored from the journal on cold restart";
}

// A switch made on a passive replica takes effect there at once: a cold
// backup entering warm-passive folds the image it holds, so a promotion
// right after the switch already skips the bulk restore.
TEST(PolicySwitch, LocalSwitchOnABackupFoldsTheHeldImage) {
  sim::Simulation sim(9007);
  PairDeployment dep(sim, policy_pair_options(ReplicationMode::kColdPassive));
  sim.run_for(sim::seconds(3));

  int primary = dep.primary_node();
  ASSERT_NE(primary, -1);
  sim::Node& backup_node = primary == dep.node_a().id() ? dep.node_b() : dep.node_a();
  Ftim* backup = dep.ftim_on(backup_node);
  ASSERT_NE(backup, nullptr);
  ASSERT_TRUE(backup->has_checkpoint());
  ASSERT_FALSE(backup->runtime_current()) << "a cold backup holds its image serialized";

  EXPECT_EQ(backup->switch_policy(ReplicationMode::kWarmPassive, "operator on the backup"),
            S_OK);
  EXPECT_EQ(backup->replication_mode(), ReplicationMode::kWarmPassive);
  EXPECT_EQ(backup->policy_switches(), 1u);
  EXPECT_TRUE(backup->runtime_current()) << "held image folded at the switch";
  std::string trace = obs::export_json(sim.telemetry(), /*include_history=*/true);
  EXPECT_NE(trace.find("folded held state on policy switch"), std::string::npos);
}

// A policy record whose mode byte names no ReplicationMode (a forged or
// bit-rotted record with a valid frame CRC) is skipped on replay: the
// last valid record still wins, rather than the unknown mode quietly
// becoming cold-passive.
TEST(PolicySwitch, ForgedPolicyRecordIsSkippedOnReplay) {
  sim::Simulation sim(9004);
  PairDeployment dep(sim, policy_pair_options(ReplicationMode::kColdPassive));
  sim.run_for(sim::seconds(4));

  int primary = dep.primary_node();
  ASSERT_NE(primary, -1);
  sim::Node& backup_node = primary == dep.node_a().id() ? dep.node_b() : dep.node_a();
  auto app_proc = dep.node_by_id(primary)->find_process("app");
  ASSERT_NE(app_proc, nullptr);
  ASSERT_EQ(OFTTSwitchReplication(*app_proc, ReplicationMode::kWarmPassive, "test"), S_OK);
  sim.run_for(sim::seconds(3));
  ASSERT_EQ(dep.ftim_on(backup_node)->replication_mode(), ReplicationMode::kWarmPassive);

  backup_node.crash();
  store::JournalOptions popts;  // the FTIM's policy-journal geometry
  popts.segment_bytes = 256;
  popts.auto_compact = false;
  popts.max_segments = 2;
  store::Journal forged(sim, backup_node.id(), "oftt.plcy.app", popts);
  ASSERT_TRUE(forged.append(store::RecordType::kPolicy, 1'000'000, 0, Buffer{0x7F}));

  backup_node.boot();
  sim.run_for(sim::seconds(3));
  Ftim* restarted = dep.ftim_on(backup_node);
  ASSERT_NE(restarted, nullptr);
  EXPECT_EQ(restarted->replication_mode(), ReplicationMode::kWarmPassive);
}

// FTIM ingress fails closed: outside the transport session only the
// local engine's SetActive is accepted. A third node sending each FTIM
// frame kind raw to the backup's port changes none of its role, activity,
// held image, decision log or mode.
TEST(FtimIngress, RawFramesFromAThirdNodeLeaveTheBackupUntouched) {
  sim::Simulation sim(9006);
  PairDeployment dep(sim, policy_pair_options(ReplicationMode::kWarmPassive));
  sim.run_for(sim::seconds(3));

  int primary = dep.primary_node();
  ASSERT_NE(primary, -1);
  sim::Node& backup_node = primary == dep.node_a().id() ? dep.node_b() : dep.node_a();
  Ftim* backup = dep.ftim_on(backup_node);
  ASSERT_NE(backup, nullptr);
  ASSERT_NE(backup->latest_checkpoint(), nullptr);
  ASSERT_TRUE(backup->runtime_current());
  const Role role = backup->role();
  const std::uint64_t decisions = backup->decisions_applied();
  const std::uint32_t held_incarnation = backup->latest_checkpoint()->incarnation;

  // Each frame well formed, from a reign that does not exist.
  CheckpointImage forged = *backup->latest_checkpoint();
  forged.incarnation += 100;
  forged.seq += 1'000'000;
  DecisionMsg decision;
  decision.component = "app";
  decision.seq = decisions + 1;
  decision.payload = Buffer{1};
  PolicySwitchMsg policy_switch;
  policy_switch.component = "app";
  policy_switch.to = ReplicationMode::kColdPassive;
  policy_switch.incarnation = held_incarnation + 100;
  policy_switch.reason = "forged";
  CheckpointPull pull;
  pull.component = "app";
  pull.from_node = dep.monitor_node().id();
  const SetActive set_active{{}, true, held_incarnation + 100, Role::kPrimary};

  auto intruder = dep.monitor_node().start_process("intruder", [](sim::Process&) {});
  const sim::PortId port = sim.port(ftim_port("app"));
  for (Buffer frame : {encode_checkpoint("app", forged.marshal()), decision.encode(),
                       policy_switch.encode(), pull.encode(), set_active.encode()}) {
    ASSERT_TRUE(intruder->send(0, backup_node.id(), port, std::move(frame), port));
  }
  sim.run_for(sim::milliseconds(50));

  EXPECT_EQ(backup->role(), role);
  EXPECT_FALSE(backup->active());
  EXPECT_EQ(backup->replication_mode(), ReplicationMode::kWarmPassive);
  EXPECT_EQ(backup->decisions_applied(), decisions);
  ASSERT_NE(backup->latest_checkpoint(), nullptr);
  EXPECT_EQ(backup->latest_checkpoint()->incarnation, held_incarnation);
  EXPECT_LT(backup->latest_checkpoint()->seq, forged.seq);
}

// Sessions open only for replication peers: a third node that speaks the
// session protocol on the FTIM port can neither switch the backup's
// policy nor pull checkpoints from either side of the pair.
TEST(FtimIngress, SessionsFromANonPeerAreRefused) {
  sim::Simulation sim(9007);
  PairDeployment dep(sim, policy_pair_options(ReplicationMode::kWarmPassive));
  sim.run_for(sim::seconds(3));

  int primary = dep.primary_node();
  ASSERT_NE(primary, -1);
  sim::Node& backup_node = primary == dep.node_a().id() ? dep.node_b() : dep.node_a();
  Ftim* backup = dep.ftim_on(backup_node);
  Ftim* active = dep.ftim_on(*dep.node_by_id(primary));
  ASSERT_NE(backup, nullptr);
  ASSERT_NE(active, nullptr);
  const std::uint64_t switches = backup->policy_switches();
  auto pulls_served = [&] {
    return backup->pulls_served_full() + backup->pulls_served_delta() +
           active->pulls_served_full() + active->pulls_served_delta();
  };
  const std::uint64_t served = pulls_served();

  PolicySwitchMsg policy_switch;
  policy_switch.component = "app";
  policy_switch.to = ReplicationMode::kColdPassive;
  policy_switch.reason = "forged";
  CheckpointPull pull;
  pull.component = "app";
  pull.from_node = dep.monitor_node().id();

  const sim::PortId port = sim.port(ftim_port("app"));
  auto intruder = dep.monitor_node().start_process("intruder", [port](sim::Process& proc) {
    proc.attachment<SessionSpeaker>(proc, port);
  });
  transport::Endpoint& ep = *intruder->find_attachment<SessionSpeaker>()->ep;
  ep.send(backup_node.id(), policy_switch.encode());
  ep.send(backup_node.id(), pull.encode());
  ep.send(primary, pull.encode());
  sim.run_for(sim::seconds(1));

  EXPECT_EQ(backup->policy_switches(), switches);
  EXPECT_EQ(backup->replication_mode(), ReplicationMode::kWarmPassive);
  EXPECT_EQ(pulls_served(), served);
}

TEST(PolicyGovernorScenario, DegradesToColdUnderSustainedLossAndRecoversWarm) {
  sim::Simulation sim(9005);
  PairDeploymentOptions opts;
  opts.dual_network = true;
  opts.engine.replication = ReplicationMode::kWarmPassive;
  opts.app_factory = [](sim::Process& proc) {
    CounterApp::Options app;
    app.ftim.replication = ReplicationMode::kWarmPassive;
    app.ftim.governor.enabled = true;
    app.ftim.governor.period = sim::milliseconds(500);
    app.ftim.governor.loss_rate_high = 0.03;
    app.ftim.governor.hysteresis_windows = 2;
    proc.attachment<CounterApp>(proc, app);
  };
  PairDeployment dep(sim, opts);
  sim.run_for(sim::seconds(4));
  int primary = dep.primary_node();
  ASSERT_NE(primary, -1);
  Ftim* active = dep.ftim_on(*dep.node_by_id(primary));
  ASSERT_NE(active, nullptr);
  ASSERT_EQ(active->replication_mode(), ReplicationMode::kWarmPassive);

  // Sustained loss on both segments: the delta stream's retransmission
  // rate crosses the governor's threshold and the unit degrades.
  sim.network(0).set_loss(0.30);
  sim.network(1).set_loss(0.30);
  sim.run_for(sim::seconds(8));
  EXPECT_EQ(active->replication_mode(), ReplicationMode::kColdPassive)
      << "governor must degrade a lossy warm pair";
  EXPECT_GE(active->policy_switches(), 1u);

  // Calm again: the governor upgrades back once the loss subsides.
  sim.network(0).set_loss(0.0);
  sim.network(1).set_loss(0.0);
  sim.run_for(sim::seconds(10));
  EXPECT_EQ(active->replication_mode(), ReplicationMode::kWarmPassive)
      << "governor must recover the warm policy on a calm network";
}

// ---------------------------------------------------------------------
// Determinism: 5 seeds per policy under a scripted fault storm — the
// same seed must reproduce the full telemetry byte for byte.
// ---------------------------------------------------------------------

std::string run_policy_chaos(ReplicationMode mode, std::uint64_t seed) {
  sim::Simulation sim(seed);
  PairDeployment dep(sim, policy_pair_options(mode));
  int a = dep.node_a().id(), b = dep.node_b().id();
  sim::FaultPlan plan(sim);
  plan.kill_process(sim::seconds(5), a, "app")
      .os_crash(sim::seconds(10), a, sim::seconds(6))
      .flap_link(sim::seconds(20), 0, a, b, sim::seconds(1), 2);
  plan.arm();
  sim.run_for(sim::seconds(26));
  return obs::export_json(sim.telemetry(), /*include_history=*/true);
}

TEST(ReplicationDeterminism, FiveSeedsPerPolicyReproduceByteIdenticalTraces) {
  for (ReplicationMode mode : {ReplicationMode::kColdPassive, ReplicationMode::kWarmPassive,
                               ReplicationMode::kSemiActive}) {
    for (std::uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
      SCOPED_TRACE(cat("mode=", replication_mode_name(mode), " seed=", seed));
      std::string first = run_policy_chaos(mode, seed);
      std::string second = run_policy_chaos(mode, seed);
      EXPECT_EQ(first, second);
    }
  }
}

}  // namespace
}  // namespace oftt::core
