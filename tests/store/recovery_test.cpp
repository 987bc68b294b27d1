// Cold-restart recovery acceptance tests: a rebooted node rebuilds its
// checkpoint state from its own durable journal and pulls only the
// delta suffix it missed from the primary, instead of a full state
// transfer. Also: whole-unit outages, diverter send replay, role-hint
// persistence, and the full-disk failure mode.
#include <gtest/gtest.h>

#include "core/deployment.h"
#include "core/diverter.h"
#include "msmq/queue_manager.h"
#include "sim/disk.h"
#include "sim/fault_plan.h"
#include "sim/simulation.h"
#include "support/counter_app.h"

namespace oftt::core {
namespace {

using testsupport::CounterApp;

// A long full-checkpoint interval keeps the journal tail pure-delta
// across the induced outages: an intervening full snapshot would break
// the delta chain from the rejoiner's last durable seq and (correctly)
// force a full transfer — which is exactly what these tests must prove
// does NOT happen on the common path.
PairDeploymentOptions recovery_options() {
  PairDeploymentOptions opts;
  opts.unit = "calltrack";
  opts.app_factory = [](sim::Process& proc) {
    CounterApp::Options app;
    app.ftim.checkpoint_period = sim::milliseconds(200);
    app.ftim.full_checkpoint_interval = 64;
    proc.attachment<CounterApp>(proc, app);
  };
  return opts;
}

class RecoveryTest : public ::testing::Test {
 protected:
  sim::Simulation sim{7};
};

// The headline acceptance scenario: kill a node mid-run, reboot it, and
// watch it restore from its own journal with only the missing delta
// suffix crossing the network.
TEST_F(RecoveryTest, RebootedBackupRestoresFromJournalAndPullsOnlyDeltaSuffix) {
  PairDeployment dep(sim, recovery_options());
  sim.run_for(sim::seconds(3));
  ASSERT_EQ(dep.primary_node(), dep.node_a().id());
  Ftim* ftim_b = dep.ftim_on(dep.node_b());
  ASSERT_NE(ftim_b, nullptr);
  std::uint64_t backup_seq_at_crash = ftim_b->latest_checkpoint()->seq;
  ASSERT_GT(backup_seq_at_crash, 0u);

  dep.node_b().crash();
  sim.run_for(sim::seconds(2));  // primary keeps checkpointing into the gap

  dep.node_b().boot();
  sim.run_for(sim::seconds(2));

  ftim_b = dep.ftim_on(dep.node_b());
  ASSERT_NE(ftim_b, nullptr);
  EXPECT_TRUE(ftim_b->recovered_from_journal())
      << "the rebooted FTIM must restore from its own disk";
  EXPECT_GT(ftim_b->journal_replayed_records(), 1u)
      << "snapshot plus at least one delta should replay";

  Ftim* ftim_a = dep.ftim_on(dep.node_a());
  ASSERT_NE(ftim_a, nullptr);
  EXPECT_GE(ftim_a->pulls_served_delta(), 1u)
      << "primary must answer the rejoin pull from its journal";
  EXPECT_EQ(ftim_a->pulls_served_full(), 0u)
      << "no full state transfer on a journal-assisted rejoin";
  EXPECT_EQ(ftim_a->full_checkpoints_sent(), 1u)
      << "only the initial checkpoint of the run is full";

  // The rejoined backup caught up past where it crashed and tracks the
  // primary again through ordinary deltas.
  ASSERT_TRUE(ftim_b->has_checkpoint());
  EXPECT_GT(ftim_b->latest_checkpoint()->seq, backup_seq_at_crash);
  EXPECT_GT(ftim_b->deltas_applied(), 0u);

  // And the recovered replica is a real backup: promote it and the
  // counter continues from the replicated state.
  std::int64_t count_before = CounterApp::find(dep.node_a())->count();
  dep.node_a().crash();
  sim.run_for(sim::seconds(2));
  ASSERT_EQ(dep.primary_node(), dep.node_b().id());
  CounterApp* app_b = CounterApp::find(dep.node_b());
  ASSERT_NE(app_b, nullptr);
  EXPECT_GE(app_b->count(), count_before - 5)
      << "at most one checkpoint period of work may be lost";
}

// Both nodes down at once (site power loss): each comes back from its
// own journal — there is no live peer to transfer state from.
TEST_F(RecoveryTest, WholePairOutageRecoversStateFromLocalJournals) {
  PairDeployment dep(sim, recovery_options());
  sim.run_for(sim::seconds(3));
  std::int64_t count_before = CounterApp::find(dep.node_a())->count();
  ASSERT_GT(count_before, 0);

  dep.node_a().crash();
  dep.node_b().crash();
  sim.run_for(sim::seconds(1));
  dep.node_a().boot();
  dep.node_b().boot();
  sim.run_for(sim::seconds(3));

  int primary = dep.primary_node();
  ASSERT_NE(primary, -1);
  Ftim* primary_ftim = dep.ftim_on(*dep.node_by_id(primary));
  ASSERT_NE(primary_ftim, nullptr);
  EXPECT_TRUE(primary_ftim->recovered_from_journal());

  CounterApp* app = CounterApp::find(*dep.node_by_id(primary));
  ASSERT_NE(app, nullptr);
  EXPECT_GE(app->count(), count_before - 5)
      << "state must survive a whole-unit outage via the journals";
  std::int64_t after_reboot = app->count();
  sim.run_for(sim::seconds(1));
  EXPECT_GT(app->count(), after_reboot) << "recovered unit must make progress";
}

// Local app restart on the primary (failure class c): the restarted
// process restores its own last checkpoint from the journal instead of
// resuming empty — previously only a peer's copy could seed it.
TEST_F(RecoveryTest, LocalAppRestartResumesFromOwnJournal) {
  PairDeployment dep(sim, recovery_options());
  sim.run_for(sim::seconds(3));
  ASSERT_EQ(dep.primary_node(), dep.node_a().id());
  std::int64_t count_before = CounterApp::find(dep.node_a())->count();
  ASSERT_GT(count_before, 0);

  dep.node_a().find_process("app")->kill("injected app fault");
  sim.run_for(sim::seconds(2));

  ASSERT_EQ(dep.primary_node(), dep.node_a().id()) << "one local restart, no switchover";
  Ftim* ftim_a = dep.ftim_on(dep.node_a());
  ASSERT_NE(ftim_a, nullptr);
  EXPECT_TRUE(ftim_a->recovered_from_journal());
  CounterApp* app_a = CounterApp::find(dep.node_a());
  ASSERT_NE(app_a, nullptr);
  EXPECT_GE(app_a->count(), count_before)
      << "restart resumes from the last journaled checkpoint, not zero";
}

// The N-replica generalization: a crashed cluster member readmits
// itself from its journal plus a delta pull — no full transfer.
TEST_F(RecoveryTest, ClusterRejoinerReadmitsWithoutFullStateTransfer) {
  ClusterDeploymentOptions opts;
  opts.replicas = 3;
  opts.app_factory = [](sim::Process& proc) {
    CounterApp::Options app;
    app.ftim.checkpoint_period = sim::milliseconds(200);
    app.ftim.full_checkpoint_interval = 64;
    proc.attachment<CounterApp>(proc, app);
  };
  ClusterDeployment dep(sim, opts);
  sim.run_for(sim::seconds(3));
  int primary = dep.primary_node();
  ASSERT_NE(primary, -1);
  // Crash a backup replica (node 2 is never the initial primary).
  sim::Node& victim = dep.node(2);
  ASSERT_NE(victim.id(), primary);

  victim.crash();
  sim.run_for(sim::seconds(2));
  victim.boot();
  sim.run_for(sim::seconds(2));

  Ftim* rejoined = dep.ftim_on(victim);
  ASSERT_NE(rejoined, nullptr);
  EXPECT_TRUE(rejoined->recovered_from_journal());
  Ftim* primary_ftim = dep.ftim_on(*dep.node_by_id(primary));
  ASSERT_NE(primary_ftim, nullptr);
  EXPECT_GE(primary_ftim->pulls_served_delta(), 1u);
  EXPECT_EQ(primary_ftim->pulls_served_full(), 0u);
  EXPECT_EQ(dep.primary_count(), 1);
}

// Recoverable sends journaled by the diverter survive a diverter
// process crash: the restarted instance re-drives them through MSMQ.
TEST_F(RecoveryTest, DiverterReplaysJournaledSendsAfterRestart) {
  PairDeploymentOptions opts;
  opts.unit = "calltrack";
  opts.app_factory = nullptr;  // engine-only pair; we only watch the QM
  PairDeployment dep(sim, opts);
  DiverterOptions dopts;
  dopts.unit = "calltrack";
  dopts.queue = "calltrack.events";
  dopts.node_a = dep.node_a().id();
  dopts.node_b = dep.node_b().id();
  auto source = dep.monitor_node().start_process("telsim", nullptr);
  auto diverter = std::make_shared<MessageDiverter>(*source, dopts);
  source->add_component(diverter);
  sim.run_for(sim::seconds(3));

  for (int i = 0; i < 4; ++i) diverter->send("evt", Buffer(8));
  EXPECT_EQ(diverter->journaled_sends(), 4u);
  sim.run_for(sim::milliseconds(200));

  // The sender process dies; a fresh instance on the same node finds
  // the journaled sends on disk and replays them.
  source->kill("injected source crash");
  diverter.reset();
  auto source2 = dep.monitor_node().start_process("telsim", nullptr);
  auto diverter2 = std::make_shared<MessageDiverter>(*source2, dopts);
  source2->add_component(diverter2);
  EXPECT_EQ(diverter2->replayed_sends(), 4u);
  sim.run_for(sim::seconds(2));

  // At-least-once: the primary's queue saw both the originals and the
  // replays (duplicates are the contract, loss is not).
  msmq::QueueManager* qm = msmq::QueueManager::find(dep.node_a());
  ASSERT_NE(qm, nullptr);
  EXPECT_GE(qm->local_depth("calltrack.events"), 4u);

  // Express (lossy-by-contract) sends are never journaled.
  diverter2->send("fire-and-forget", Buffer(8), msmq::DeliveryMode::kExpress);
  EXPECT_EQ(diverter2->journaled_sends(), 4u);
}

// A journaled send whose delivery-mode byte is unknown is skipped on
// replay instead of being re-driven with a mode no queue manager knows.
TEST_F(RecoveryTest, DiverterSkipsJournaledSendsWithAnUnknownMode) {
  sim::Node& node = sim.add_node("src");
  node.boot();
  {
    store::JournalOptions jopts;
    jopts.auto_compact = false;
    store::Journal journal(sim, node.id(), "oftt.dvrt.calltrack", jopts);
    const Buffer body{1, 2};
    Buffer good = JournaledSend{{}, "ok", body, msmq::DeliveryMode::kRecoverable}.encode();
    Buffer bad = good;
    ASSERT_EQ(bad.back(), static_cast<std::uint8_t>(msmq::DeliveryMode::kRecoverable));
    bad.back() = 2;  // the mode is the record's last byte
    ASSERT_TRUE(journal.append(store::RecordType::kMessage, 1, 0, good));
    ASSERT_TRUE(journal.append(store::RecordType::kMessage, 2, 0, bad));
  }
  DiverterOptions dopts;
  dopts.unit = "calltrack";
  dopts.queue = "calltrack.events";
  auto source = node.start_process("telsim", nullptr);
  auto diverter = std::make_shared<MessageDiverter>(*source, dopts);
  source->add_component(diverter);
  EXPECT_EQ(diverter->replayed_sends(), 1u);
  EXPECT_EQ(diverter->journaled_sends(), 1u) << "only the valid send is journaled again";
}

// The engine's durable role hint: a rebooted engine seeds its
// incarnation clock from disk and rejoins without fighting the
// survivor for primary.
TEST_F(RecoveryTest, RebootedEngineRestoresRoleHint) {
  PairDeployment dep(sim, recovery_options());
  sim.run_for(sim::seconds(3));
  ASSERT_EQ(dep.primary_node(), dep.node_a().id());
  EXPECT_FALSE(dep.engine_a()->role_hint_restored()) << "first boot has no hint";

  dep.node_a().os_crash(/*reboot_after=*/sim::seconds(3));
  sim.run_for(sim::seconds(8));

  ASSERT_NE(dep.engine_a(), nullptr);
  EXPECT_TRUE(dep.engine_a()->role_hint_restored());
  EXPECT_GE(dep.engine_a()->incarnation(), 1u)
      << "incarnation clock must not restart from zero";
  EXPECT_EQ(dep.primary_node(), dep.node_b().id()) << "survivor keeps primary";
  EXPECT_EQ(dep.backup_node(), dep.node_a().id());
}

// A role hint whose role byte names no Role is ignored, not restored:
// the node still rejoins as backup under the surviving primary.
TEST_F(RecoveryTest, MalformedRoleHintIsIgnored) {
  PairDeployment dep(sim, recovery_options());
  sim.run_for(sim::seconds(3));
  ASSERT_EQ(dep.primary_node(), dep.node_a().id());

  dep.node_a().crash();
  sim.run_for(sim::seconds(2));
  ASSERT_TRUE(sim::DiskStore::of(sim).write(dep.node_a().id(), "oftt.role.calltrack",
                                            Buffer{0x7F, 9, 0, 0, 0}));
  dep.node_a().boot();
  sim.run_for(sim::seconds(5));

  ASSERT_NE(dep.engine_a(), nullptr);
  EXPECT_FALSE(dep.engine_a()->role_hint_restored());
  EXPECT_EQ(dep.primary_node(), dep.node_b().id()) << "survivor keeps primary";
  EXPECT_EQ(dep.backup_node(), dep.node_a().id());
}

// A full disk on the primary must not take the unit down: journal
// appends fail (and are counted), but checkpoint replication to the
// peer keeps flowing and the application keeps serving.
TEST_F(RecoveryTest, FullDiskDegradesJournalingButNotService) {
  PairDeployment dep(sim, recovery_options());
  sim::FaultPlan plan(sim);
  plan.disk_full(sim::seconds(2), dep.node_a().id());
  plan.arm();
  sim.run_for(sim::seconds(5));

  ASSERT_EQ(dep.primary_node(), dep.node_a().id());
  Ftim* ftim_a = dep.ftim_on(dep.node_a());
  ASSERT_NE(ftim_a, nullptr);
  ASSERT_NE(ftim_a->journal(), nullptr);
  EXPECT_GT(ftim_a->journal()->append_failures(), 0u);
  // Replication is unaffected: the backup still tracks the primary.
  Ftim* ftim_b = dep.ftim_on(dep.node_b());
  ASSERT_NE(ftim_b, nullptr);
  EXPECT_GT(ftim_b->checkpoints_received(), 10u);
  CounterApp* app = CounterApp::find(dep.node_a());
  std::int64_t before = app->count();
  sim.run_for(sim::seconds(1));
  EXPECT_GT(app->count(), before);
}

// A disk whose writes fail across the whole reboot-recovery window must
// not stop the rejoiner: journal *reads* drive the replay, and the
// appends that fail inside the window only degrade durability (they are
// counted, and resume once the window closes).
TEST_F(RecoveryTest, DiskFailWindowOverlappingJournalRecoveryStillRestores) {
  PairDeployment dep(sim, recovery_options());
  sim.run_for(sim::seconds(3));
  ASSERT_EQ(dep.primary_node(), dep.node_a().id());
  Ftim* ftim_b = dep.ftim_on(dep.node_b());
  ASSERT_NE(ftim_b, nullptr);
  std::uint64_t seq_at_crash = ftim_b->latest_checkpoint()->seq;
  ASSERT_GT(seq_at_crash, 0u);

  dep.node_b().crash();
  sim.run_for(sim::seconds(1));
  // Open the write-fail window before the reboot and close it well
  // after the replay: recovery runs entirely inside it.
  sim::FaultPlan plan(sim);
  plan.disk_fail_window(sim.now() + sim::milliseconds(10), dep.node_b().id(),
                        sim::seconds(4));
  plan.arm();
  sim.run_for(sim::milliseconds(100));
  dep.node_b().boot();
  sim.run_for(sim::seconds(2));  // journal replay + delta resync, disk failing

  ftim_b = dep.ftim_on(dep.node_b());
  ASSERT_NE(ftim_b, nullptr);
  ASSERT_NE(ftim_b->latest_checkpoint(), nullptr);
  EXPECT_GE(ftim_b->latest_checkpoint()->seq, seq_at_crash)
      << "journal reads drive recovery; failing writes must not block it";
  ASSERT_NE(ftim_b->journal(), nullptr);
  EXPECT_GT(ftim_b->journal()->append_failures(), 0u)
      << "checkpoints received inside the window could not be journaled";

  // Window closes; journaling resumes and the failure count freezes.
  sim.run_for(sim::seconds(3));
  std::uint64_t failures_at_close = ftim_b->journal()->append_failures();
  sim.run_for(sim::seconds(2));
  EXPECT_EQ(ftim_b->journal()->append_failures(), failures_at_close)
      << "appends must succeed again once the window closes";
  EXPECT_EQ(dep.primary_node(), dep.node_a().id())
      << "the primary never wavered through any of this";
}

}  // namespace
}  // namespace oftt::core
