// Engine behaviour tests beyond the end-to-end failover suite:
// dual-network tolerance (Fig. 1 "one or dual Ethernet networks"),
// lossy-LAN robustness, status reporting, and partition handling.
#include <gtest/gtest.h>

#include "core/deployment.h"
#include "support/counter_app.h"

namespace oftt::core {
namespace {

using testsupport::CounterApp;

PairDeploymentOptions app_options(bool dual) {
  PairDeploymentOptions opts;
  opts.dual_network = dual;
  opts.app_factory = [](sim::Process& proc) { proc.attachment<CounterApp>(proc); };
  return opts;
}

TEST(DualNetwork, SingleSegmentLossDoesNotFailOver) {
  sim::Simulation sim(71);
  PairDeployment dep(sim, app_options(/*dual=*/true));
  sim.run_for(sim::seconds(3));
  ASSERT_EQ(dep.primary_node(), dep.node_a().id());

  // Cut LAN 0 between the pair: heartbeats still flow on LAN 1.
  sim.network(0).set_link(dep.node_a().id(), dep.node_b().id(), false);
  sim.run_for(sim::seconds(5));
  EXPECT_EQ(dep.primary_node(), dep.node_a().id()) << "no spurious takeover";
  EXPECT_EQ(sim.counter_value("oftt.takeovers"), 0u);
  ASSERT_NE(dep.engine_b(), nullptr);
  EXPECT_TRUE(dep.engine_b()->peer_visible());
}

TEST(DualNetwork, BothSegmentsCutLooksLikePeerDeath) {
  sim::Simulation sim(72);
  PairDeployment dep(sim, app_options(/*dual=*/true));
  sim.run_for(sim::seconds(3));
  sim.network(0).set_link(dep.node_a().id(), dep.node_b().id(), false);
  sim.network(1).set_link(dep.node_a().id(), dep.node_b().id(), false);
  sim.run_for(sim::seconds(2));
  // Backup can no longer see the primary anywhere: it promotes (and
  // the old primary, being partitioned, cannot be told — dual primary
  // until the partition heals).
  ASSERT_NE(dep.engine_b(), nullptr);
  EXPECT_EQ(dep.engine_b()->role(), Role::kPrimary);

  sim.network(0).set_link(dep.node_a().id(), dep.node_b().id(), true);
  sim.network(1).set_link(dep.node_a().id(), dep.node_b().id(), true);
  sim.run_for(sim::seconds(3));
  int primaries = 0;
  if (dep.engine_a() && dep.engine_a()->role() == Role::kPrimary) ++primaries;
  if (dep.engine_b() && dep.engine_b()->role() == Role::kPrimary) ++primaries;
  EXPECT_EQ(primaries, 1) << "incarnation resolution after heal";
}

TEST(SingleNetwork, PartitionCausesDualPrimaryThenHeals) {
  sim::Simulation sim(73);
  PairDeployment dep(sim, app_options(/*dual=*/false));
  sim.run_for(sim::seconds(3));
  sim.network(0).set_link(dep.node_a().id(), dep.node_b().id(), false);
  sim.run_for(sim::seconds(2));
  EXPECT_GT(sim.counter_value("oftt.takeovers"), 0u);
  sim.network(0).set_link(dep.node_a().id(), dep.node_b().id(), true);
  sim.run_for(sim::seconds(3));
  EXPECT_GT(sim.counter_value("oftt.dual_primary_detected"), 0u);
  int primaries = 0;
  if (dep.engine_a() && dep.engine_a()->role() == Role::kPrimary) ++primaries;
  if (dep.engine_b() && dep.engine_b()->role() == Role::kPrimary) ++primaries;
  EXPECT_EQ(primaries, 1);
}

TEST(LossyLan, ModerateLossCausesNoSpuriousFailover) {
  sim::Simulation sim(74);
  auto opts = app_options(false);
  opts.net_loss = 0.2;  // 20% heartbeat loss, timeout = 5 periods
  PairDeployment dep(sim, opts);
  sim.run_for(sim::seconds(30));
  EXPECT_EQ(sim.counter_value("oftt.takeovers"), 0u)
      << "P(5 consecutive losses) = 0.2^5 per window; must not trip in 30 s";
  EXPECT_EQ(dep.primary_node(), dep.node_a().id());
  // And checkpoints still arrive despite the loss.
  Ftim* backup = dep.ftim_on(dep.node_b());
  ASSERT_NE(backup, nullptr);
  EXPECT_GT(backup->checkpoints_received(), 10u);
}

TEST(StatusReporting, MonitorSeesComponentRestartCounts) {
  sim::Simulation sim(75);
  PairDeployment dep(sim, app_options(false));
  sim.run_for(sim::seconds(3));
  dep.node_a().find_process("app")->kill("fault");
  sim.run_for(sim::seconds(3));
  auto* monitor = dep.monitor();
  ASSERT_NE(monitor, nullptr);
  const auto* view = monitor->view("unit", dep.node_a().id());
  ASSERT_NE(view, nullptr);
  ASSERT_EQ(view->report.components.size(), 1u);
  EXPECT_EQ(view->report.components[0].restarts, 1);
  EXPECT_GT(view->report.components[0].heartbeats, 0u);
}

TEST(StatusReporting, TransitionsRecordRoleHistory) {
  sim::Simulation sim(76);
  PairDeployment dep(sim, app_options(false));
  sim.run_for(sim::seconds(3));
  dep.node_a().crash();
  sim.run_for(sim::seconds(3));
  auto* monitor = dep.monitor();
  ASSERT_NE(monitor, nullptr);
  bool saw_b_promote = false;
  for (const auto& t : monitor->transitions()) {
    if (t.node == dep.node_b().id() && t.to == Role::kPrimary) saw_b_promote = true;
  }
  EXPECT_TRUE(saw_b_promote);
}

TEST(Engine, ComponentHeartbeatCountsAccumulate) {
  sim::Simulation sim(77);
  PairDeployment dep(sim, app_options(false));
  sim.run_for(sim::seconds(5));
  ASSERT_NE(dep.engine_a(), nullptr);
  const auto& comp = dep.engine_a()->components().at("app");
  // ~10 Hz heartbeats for ~5 s.
  EXPECT_GT(comp.heartbeats, 30u);
  EXPECT_EQ(comp.state, ComponentState::kUp);
}

TEST(Engine, TakeoverMessageWhileAlreadyPrimaryIsIgnored) {
  sim::Simulation sim(78);
  PairDeployment dep(sim, app_options(false));
  sim.run_for(sim::seconds(3));
  ASSERT_NE(dep.engine_a(), nullptr);
  std::uint32_t inc_before = dep.engine_a()->incarnation();
  // Forge a takeover to the current primary (e.g. a duplicated frame).
  Takeover t;
  t.from_node = dep.node_b().id();
  t.incarnation = 0;
  t.reason = "stale duplicate";
  auto proc = dep.node_b().find_process("oftt_engine");
  proc->send(0, dep.node_a().id(), sim.port(kEnginePort), t.encode(), sim.port(kEnginePort));
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(dep.engine_a()->role(), Role::kPrimary);
  EXPECT_EQ(dep.engine_a()->incarnation(), inc_before);
}

TEST(Engine, GarbagePacketsAreCounted) {
  sim::Simulation sim(79);
  PairDeployment dep(sim, app_options(false));
  sim.run_for(sim::seconds(1));
  auto proc = dep.node_b().find_process("oftt_engine");
  proc->send(0, dep.node_a().id(), sim.port(kEnginePort), Buffer{0xFF, 0x00, 0x01}, sim.port(kEnginePort));
  proc->send(0, dep.node_a().id(), sim.port(kEnginePort), Buffer{}, sim.port(kEnginePort));
  sim.run_for(sim::seconds(1));
  EXPECT_GT(sim.counter_value("oftt.engine_bad_packet"), 0u);
  EXPECT_EQ(dep.primary_node(), dep.node_a().id()) << "garbage must not disturb roles";
}

// What an operator would see of the engine's components: names, state,
// restarts, recovery rule and armed watchdogs (not the heartbeat count,
// which moves on its own).
std::string component_board(const Engine& e) {
  std::string s;
  for (const auto& [name, c] : e.components()) {
    s += cat(name, " ", component_state_name(c.state), " restarts ", c.restarts, " rule ",
             c.reg.max_local_restarts, "/", c.reg.switchover_on_permanent, " watchdogs");
    for (const auto& [wd, state] : c.watchdogs) s += cat(" ", wd);
    s += "\n";
  }
  return s;
}

// FTIM -> engine kinds are loopback only. The test PC sending each of
// them raw to the primary's engine port plants no component, arms no
// watchdog, rewrites no rule and forces no switchover.
TEST(EngineIngress, FtimKindsFromAnotherNodeAreDropped) {
  sim::Simulation sim(81);
  PairDeployment dep(sim, app_options(false));
  sim.run_for(sim::seconds(3));
  ASSERT_EQ(dep.primary_node(), dep.node_a().id());
  const std::string board = component_board(*dep.engine_a());
  ASSERT_NE(board.find("app UP"), std::string::npos) << board;

  FtRegister phantom;
  phantom.component = "phantom";
  phantom.process_name = "app";
  phantom.ftim_port = ftim_port("phantom");
  FtHeartbeat hb;
  hb.component = "app";
  hb.policy = ReplicationMode::kSemiActive;
  hb.ready = false;
  FtDistress distress;
  distress.component = "app";
  distress.reason = "forged";
  SetRule rule;
  rule.component = "app";
  rule.max_local_restarts = 0;
  rule.switchover_on_permanent = 1;
  std::vector<Buffer> frames = {phantom.encode(), hb.encode(), distress.encode(), rule.encode()};
  for (MsgKind op : {MsgKind::kWatchdogCreate, MsgKind::kWatchdogReset, MsgKind::kWatchdogDelete}) {
    frames.push_back(WatchdogMsg{{}, op, "app", "forged", sim::milliseconds(100)}.encode());
  }

  auto test_pc = dep.monitor_node().start_process("test_pc", [](sim::Process&) {});
  const sim::PortId port = sim.port(kEnginePort);
  for (Buffer& frame : frames) {
    ASSERT_TRUE(test_pc->send(0, dep.node_a().id(), port, std::move(frame), port));
  }
  sim.run_for(sim::seconds(2));

  EXPECT_EQ(dep.primary_node(), dep.node_a().id());
  EXPECT_EQ(sim.counter_value("oftt.takeovers"), 0u);
  EXPECT_EQ(sim.counter_value("oftt.distress"), 0u);
  ASSERT_NE(dep.engine_a(), nullptr);
  EXPECT_EQ(component_board(*dep.engine_a()), board);
}

TEST(Engine, RebootedBackupCatchesUpThroughCheckpoints) {
  sim::Simulation sim(80);
  PairDeployment dep(sim, app_options(false));
  sim.run_for(sim::seconds(3));
  dep.node_b().crash();
  sim.run_for(sim::seconds(5));
  std::int64_t count_mid = CounterApp::find(dep.node_a())->count();
  dep.node_b().boot();
  sim.run_for(sim::seconds(3));
  ASSERT_EQ(dep.backup_node(), dep.node_b().id());
  Ftim* backup = dep.ftim_on(dep.node_b());
  ASSERT_NE(backup, nullptr);
  ASSERT_TRUE(backup->has_checkpoint());
  // Its held checkpoint reflects post-outage progress.
  BinaryReader r(backup->latest_checkpoint()->regions.at("globals"));
  EXPECT_GE(r.i64(), count_mid);
}

TEST(Engine, EventHistoryCapEvictsOldestFirst) {
  sim::Simulation sim(81);
  auto opts = app_options(false);
  opts.engine.event_history_cap = 4;  // tiny operator log
  PairDeployment dep(sim, opts);
  sim.run_for(sim::seconds(3));
  // Churn roles until the log has wrapped several times.
  for (int i = 0; i < 8; ++i) {
    int primary = dep.primary_node();
    if (primary < 0) break;
    Engine::find(*dep.node_by_id(primary))->request_switchover("churn");
    sim.run_for(sim::seconds(1));
  }
  const auto& log = dep.engine_a()->event_log();
  EXPECT_EQ(log.cap(), 4u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_GT(log.evicted(), 0u) << "the churn must have wrapped the log";
  // Eviction is oldest-first: what remains is the newest suffix, still
  // in monotone time order.
  const auto& entries = log.entries();
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(entries[i].at, entries[i - 1].at);
  }
  // The retained tail is recent: everything left was recorded after the
  // evicted prefix, so the oldest survivor is younger than the churn
  // start.
  EXPECT_GT(entries.front().at, sim::seconds(3));
}

}  // namespace
}  // namespace oftt::core
