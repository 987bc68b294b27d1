// Parallel-engine unit and contract tests: mailbox/partition units,
// engine-config and lookahead validation (the set_latency satellite),
// shard-queue cancel routing, the clean-scenario sequential==parallel
// equality, the ordered-logger byte-diff, and the oftt.pdes.* metrics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "core/monitor.h"
#include "sim/mailbox.h"
#include "sim/parallel_engine.h"
#include "sim/partition.h"
#include "sim/simulation.h"
#include "sim/timer.h"
#include "pdes/pdes_scenarios.h"

namespace oftt::sim {
namespace {

EngineConfig parallel_cfg(int workers) {
  EngineConfig cfg;
  cfg.kind = EngineKind::kParallel;
  cfg.workers = workers;
  return cfg;
}

TEST(SpscMailbox, PreservesFifoOrderAndCapacityRoundsUp) {
  SpscMailbox box(10);  // rounds up to 16
  EXPECT_EQ(box.capacity(), 16u);
  for (int i = 0; i < 12; ++i) {
    box.push(CrossEvent{i, static_cast<std::uint64_t>(i), 0, nullptr});
  }
  EXPECT_EQ(box.spills(), 0u);
  EXPECT_EQ(box.peak(), 12u);
  std::vector<SimTime> got;
  box.drain([&](CrossEvent&& e) { got.push_back(e.at); });
  ASSERT_EQ(got.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  // Drained mailbox is reusable.
  box.push(CrossEvent{99, 0, 0, nullptr});
  got.clear();
  box.drain([&](CrossEvent&& e) { got.push_back(e.at); });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 99);
}

TEST(SpscMailbox, OverflowSpillsInsteadOfBlocking) {
  SpscMailbox box(8);
  for (int i = 0; i < 8 + 5; ++i) {
    box.push(CrossEvent{i, 0, 0, nullptr});
  }
  EXPECT_EQ(box.spills(), 5u);
  EXPECT_EQ(box.peak(), 8u);
  std::vector<SimTime> got;
  box.drain([&](CrossEvent&& e) { got.push_back(e.at); });
  // Ring first, spill after — 13 events total, none lost.
  ASSERT_EQ(got.size(), 13u);
  EXPECT_EQ(got[0], 0);
  EXPECT_EQ(got[12], 12);
}

TEST(SpscMailbox, DrainAfterSpillGrowsTheRingToHoldTheBurst) {
  SpscMailbox box(8);
  auto burst = [&box] {
    for (int i = 0; i < 8 + 5; ++i) box.push(CrossEvent{i, 0, 0, nullptr});
  };
  burst();
  std::size_t drained = 0;
  box.drain([&](CrossEvent&&) { ++drained; });
  EXPECT_EQ(drained, 13u);
  EXPECT_EQ(box.spills(), 5u);
  EXPECT_EQ(box.capacity(), 16u) << "the drain sizes the ring for the window that spilled";

  // The same burst again fits: no further spills, nothing lost, FIFO.
  burst();
  std::vector<SimTime> got;
  box.drain([&](CrossEvent&& e) { got.push_back(e.at); });
  EXPECT_EQ(box.spills(), 5u);
  ASSERT_EQ(got.size(), 13u);
  for (int i = 0; i < 13; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(Partition, StrategiesArePureFunctionsOfNodeId) {
  Partition rr{4, PartitionStrategy::kRoundRobin};
  EXPECT_EQ(rr.shard_of(0), 0);
  EXPECT_EQ(rr.shard_of(5), 1);
  EXPECT_EQ(rr.shard_of(7), 3);
  EXPECT_EQ(rr.shard_of(-1), 0);  // global / no node

  Partition blocked{4, PartitionStrategy::kBlocked};
  EXPECT_EQ(blocked.shard_of(0), 0);
  EXPECT_EQ(blocked.shard_of(7), 0);
  EXPECT_EQ(blocked.shard_of(8), 1);
  EXPECT_EQ(blocked.shard_of(33), 0);

  Partition one{1, PartitionStrategy::kRoundRobin};
  EXPECT_EQ(one.shard_of(12345), 0);
}

TEST(NetworkLatency, InvertedRangeThrowsInsteadOfClamping) {
  Simulation sim(1);
  Network& net = sim.add_network("ctrl");
  EXPECT_THROW(net.set_latency(milliseconds(5), milliseconds(1)), std::invalid_argument);
  EXPECT_THROW(net.set_latency(-1, milliseconds(1)), std::invalid_argument);
  // A valid call still lands.
  net.set_latency(milliseconds(1), milliseconds(2));
  EXPECT_EQ(net.latency_min(), milliseconds(1));
  EXPECT_EQ(net.latency_max(), milliseconds(2));
  try {
    net.set_latency(milliseconds(5), milliseconds(1));
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ctrl"), std::string::npos) << e.what();
  }
}

TEST(ParallelEngine, ZeroLookaheadRefusedWithLinkName) {
  Simulation sim(1);
  sim.set_engine(parallel_cfg(2));
  Network& net = sim.add_network("zero-lat-lan");
  net.set_latency(0, milliseconds(1));
  Node& node = sim.add_node("n0");
  net.attach(node.id());
  sim.schedule_after(milliseconds(1), [] {});
  try {
    sim.run_until(milliseconds(2));
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("zero-lat-lan"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("lookahead"), std::string::npos) << e.what();
  }
}

TEST(ParallelEngine, EngineConfigFromEnv) {
  // Save/restore so this test composes with a CI lane that sets them.
  const char* old_engine = std::getenv("OFTT_ENGINE");
  const char* old_workers = std::getenv("OFTT_ENGINE_WORKERS");
  std::string saved_engine = old_engine != nullptr ? old_engine : "";
  std::string saved_workers = old_workers != nullptr ? old_workers : "";

  ::setenv("OFTT_ENGINE", "parallel", 1);
  ::setenv("OFTT_ENGINE_WORKERS", "3", 1);
  EngineConfig cfg = engine_config_from_env();
  EXPECT_EQ(cfg.kind, EngineKind::kParallel);
  EXPECT_EQ(cfg.workers, 3);

  ::setenv("OFTT_ENGINE", "sequential", 1);
  ::setenv("OFTT_ENGINE_WORKERS", "0", 1);  // invalid: keeps the default
  cfg = engine_config_from_env(parallel_cfg(4));
  EXPECT_EQ(cfg.kind, EngineKind::kSequential);
  EXPECT_EQ(cfg.workers, 4);

  ::unsetenv("OFTT_ENGINE");
  ::unsetenv("OFTT_ENGINE_WORKERS");
  cfg = engine_config_from_env();
  EXPECT_EQ(cfg.kind, EngineKind::kSequential);

  if (old_engine != nullptr) ::setenv("OFTT_ENGINE", saved_engine.c_str(), 1);
  if (old_workers != nullptr) ::setenv("OFTT_ENGINE_WORKERS", saved_workers.c_str(), 1);
}

TEST(ParallelEngine, ConfigValidation) {
  {
    Simulation sim(1);
    EXPECT_THROW(sim.set_engine(parallel_cfg(0)), std::invalid_argument);
  }
  {
    Simulation sim(1);
    sim.add_node("n0");
    EXPECT_THROW(sim.set_engine(parallel_cfg(2)), std::logic_error);
  }
  {
    Simulation sim(1);
    sim.set_engine(parallel_cfg(2));
    EngineConfig seq;
    EXPECT_THROW(sim.set_engine(seq), std::logic_error);
  }
}

TEST(ParallelEngine, SmokeTimersAndCrossNodeSends) {
  Simulation sim(7);
  sim.set_engine(parallel_cfg(2));
  ASSERT_NE(sim.parallel_engine(), nullptr);
  EXPECT_EQ(sim.parallel_engine()->workers(), 2);

  Network& net = sim.add_network("lan");
  net.set_latency(milliseconds(1), milliseconds(1));
  // Nodes on different workers bump the counters concurrently.
  auto ticks = std::make_shared<std::atomic<int>>(0);
  auto recvs = std::make_shared<std::atomic<int>>(0);
  for (int n = 0; n < 4; ++n) {
    Node& node = sim.add_node("n" + std::to_string(n));
    net.attach(node.id());
    node.set_boot_script([&sim, ticks, recvs](Node& self) {
      const int id = self.id();
      const int dst = (id + 1) % 4;
      self.start_process("app", [&sim, ticks, recvs, id, dst](Process& p) {
        auto app = std::make_shared<pdestest::RingApp>(p);
        const PortId x = p.sim().port("x");
        p.bind(x, [recvs](const Datagram&) { ++*recvs; });
        app->ticker.start(
            milliseconds(10),
            [ticks, dst, x, &p] {
              ++*ticks;
              p.send(0, dst, x, Buffer{1}, x);
            },
            microseconds(100 + 37 * id));
        p.add_component(std::move(app));
      });
    });
    node.boot();
  }
  sim.run_until(milliseconds(105));
  EXPECT_EQ(sim.now(), milliseconds(105));
  // Ticks at (100 + 37*id) us + k*10 ms: k = 0..10 fit in 105 ms.
  EXPECT_EQ(*ticks, 4 * 11);
  EXPECT_EQ(*recvs, 4 * 11);  // lossless fixed-latency: every send lands

  ParallelEngine& eng = *sim.parallel_engine();
  EXPECT_GT(eng.windows(), 0u);
  EXPECT_GT(eng.events_executed(), 0u);
}

TEST(ParallelEngine, StepAndEmptySemantics) {
  Simulation sim(3);
  sim.set_engine(parallel_cfg(2));
  EXPECT_TRUE(sim.parallel_engine()->empty());
  auto fired = std::make_shared<int>(0);
  sim.schedule_after(milliseconds(1), [fired] { ++*fired; });
  sim.schedule_after(milliseconds(2), [fired] { ++*fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(*fired, 1);
  EXPECT_EQ(sim.now(), milliseconds(1));
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(*fired, 2);
}

TEST(ParallelEngine, CancelRoutesToOwningShardQueue) {
  Simulation sim(11);
  sim.set_engine(parallel_cfg(2));
  Network& net = sim.add_network("lan");
  net.set_latency(milliseconds(1), milliseconds(1));
  Node& n0 = sim.add_node("n0");
  Node& n1 = sim.add_node("n1");
  net.attach(n0.id());
  net.attach(n1.id());

  // schedule_on(node) routes into that node's shard queue; cancelling
  // through Simulation::cancel must reach the shard queue, not the
  // global one (EventQueue::cancel is a no-op for foreign handles).
  auto fired = std::make_shared<int>(0);
  EventHandle h0 = sim.schedule_on(milliseconds(5), nullptr, [fired] { ++*fired; }, 0);
  EventHandle h1 = sim.schedule_on(milliseconds(5), nullptr, [fired] { ++*fired; }, 1);
  EXPECT_TRUE(h0.valid());
  sim.cancel(h0);
  sim.run_until(milliseconds(10));
  EXPECT_EQ(*fired, 1);  // h1 fired, h0 cancelled
  sim.cancel(h1);        // post-fire cancel is a harmless no-op
}

// The strongest cross-engine contract: a scenario that makes zero rng
// draws (fixed latency, lossless) produces the *same* digest under the
// sequential kernel and the parallel engine at every worker count.
TEST(ParallelEngine, CleanScenarioMatchesSequentialExactly) {
  const std::uint64_t seq = pdestest::ring_hash(42, 5, /*lossy=*/false, nullptr);
  for (int workers : {1, 2, 4}) {
    EngineConfig cfg = parallel_cfg(workers);
    const std::uint64_t par = pdestest::ring_hash(42, 5, /*lossy=*/false, &cfg);
    EXPECT_EQ(par, seq) << "workers=" << workers;
  }
}

TEST(ParallelEngine, BlockedPartitionSameHistory) {
  const std::uint64_t seq = pdestest::ring_hash(42, 5, /*lossy=*/false, nullptr);
  EngineConfig cfg = parallel_cfg(2);
  cfg.partition = PartitionStrategy::kBlocked;
  EXPECT_EQ(pdestest::ring_hash(42, 5, /*lossy=*/false, &cfg), seq);
}

// Tiny mailboxes force the spill path; history must not change.
TEST(ParallelEngine, MailboxSpillDoesNotChangeHistory) {
  EngineConfig big = parallel_cfg(2);
  const std::uint64_t reference = pdestest::ring_hash(42, 5, /*lossy=*/true, &big);
  EngineConfig tiny = parallel_cfg(2);
  tiny.mailbox_capacity = 8;
  EXPECT_EQ(pdestest::ring_hash(42, 5, /*lossy=*/true, &tiny), reference);
}

// Satellite: ordered logging. Every line carries (sim-time, node, seq)
// and parallel runs merge-sort at the window barrier, so the rendered
// log stream is byte-identical to the sequential run.
std::vector<std::string> logged_ring_lines(const EngineConfig* engine) {
  Logger& logger = Logger::instance();
  auto lines = std::make_shared<std::vector<std::string>>();
  LogLevel old_level = logger.level();
  logger.set_level(LogLevel::kInfo);
  Logger::Sink old_sink = logger.set_sink([lines](const LogRecord& r) {
    lines->push_back(cat(r.sim_time_ns, "|", log_level_name(r.level), "|", r.component, "|",
                         r.message));
  });

  {
    Simulation sim(42);
    if (engine != nullptr) sim.set_engine(*engine);
    Network& net = sim.add_network("lan");
    net.set_latency(milliseconds(1), milliseconds(1));
    constexpr int kNodes = 3;
    for (int n = 0; n < kNodes; ++n) {
      Node& node = sim.add_node("n" + std::to_string(n));
      net.attach(node.id());
      node.set_boot_script([&sim](Node& self) {
        const int id = self.id();
        const int dst = (id + 1) % kNodes;
        self.start_process("app", [&sim, id, dst](Process& p) {
          auto app = std::make_shared<pdestest::RingApp>(p);
          const PortId x = p.sim().port("x");
          p.bind(x, [&sim, id](const Datagram& d) {
            OFTT_LOG_INFO("ring", "n", id, " got ", d.payload.size(), "B");
          });
          app->ticker.start(
              milliseconds(10),
              [id, dst, x, &p] {
                OFTT_LOG_INFO("ring", "n", id, " tick -> n", dst);
                p.send(0, dst, x, Buffer{1, 2, 3}, x);
              },
              microseconds(100 + 37 * id));
          p.add_component(std::move(app));
        });
      });
      node.boot();
    }
    sim.run_until(milliseconds(200));
  }

  logger.set_sink(std::move(old_sink));
  logger.set_level(old_level);
  return *lines;
}

TEST(ParallelEngine, LogStreamByteIdenticalToSequential) {
  const std::vector<std::string> seq = logged_ring_lines(nullptr);
  ASSERT_FALSE(seq.empty());
  for (int workers : {1, 2, 4}) {
    EngineConfig cfg = parallel_cfg(workers);
    const std::vector<std::string> par = logged_ring_lines(&cfg);
    ASSERT_EQ(par.size(), seq.size()) << "workers=" << workers;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      ASSERT_EQ(par[i], seq[i]) << "workers=" << workers << " line " << i;
    }
  }
}

// Satellite: oftt.pdes.* metrics are populated by a parallel run.
TEST(ParallelEngine, PdesMetricsPopulated) {
  Simulation sim(5);
  sim.set_engine(parallel_cfg(2));
  Network& net = sim.add_network("lan");
  net.set_latency(milliseconds(1), milliseconds(1));
  for (int n = 0; n < 4; ++n) {
    Node& node = sim.add_node("n" + std::to_string(n));
    net.attach(node.id());
    node.set_boot_script([&sim](Node& self) {
      const int id = self.id();
      const int dst = (id + 1) % 4;
      self.start_process("app", [&sim, id, dst](Process& p) {
        auto app = std::make_shared<pdestest::RingApp>(p);
        const PortId x = p.sim().port("x");
        p.bind(x, [](const Datagram&) {});
        app->ticker.start(
            milliseconds(10), [dst, x, &p] { p.send(0, dst, x, Buffer{1}, x); },
            microseconds(100 + 37 * id));
        p.add_component(std::move(app));
      });
    });
    node.boot();
  }
  sim.run_until(milliseconds(500));

  const obs::MetricsRegistry& m = sim.telemetry().metrics();
  EXPECT_GT(m.counter_value("oftt.pdes.windows"), 0u);
  EXPECT_GT(m.counter_value("oftt.pdes.events"), 0u);
  EXPECT_GE(m.gauge_value("oftt.pdes.stall_ns"), 0);
  const std::int64_t w0 = m.gauge_value("oftt.pdes.w0.events");
  const std::int64_t w1 = m.gauge_value("oftt.pdes.w1.events");
  EXPECT_GT(w0 + w1, 0);
  // Worker gauges partition the node-context events; the events counter
  // additionally includes coordinator (global) events.
  EXPECT_LE(static_cast<std::uint64_t>(w0 + w1), m.counter_value("oftt.pdes.events"));
  EXPECT_EQ(static_cast<std::uint64_t>(w0 + w1),
            sim.parallel_engine()->worker_events(0) + sim.parallel_engine()->worker_events(1));
}

// Satellite: the operator's monitor board surfaces the oftt.pdes.*
// metrics on a parallel run and stays silent (empty string) on a
// sequential one — the default deployment's render output is untouched.
TEST(ParallelEngine, MonitorPdesBoard) {
  auto board_for = [](const EngineConfig* cfg) {
    Simulation sim(7);
    if (cfg != nullptr) sim.set_engine(*cfg);
    core::ClusterDeploymentOptions opts;
    opts.replicas = 3;
    opts.with_msmq = false;
    opts.with_scm = false;
    core::ClusterDeployment dep(sim, opts);
    sim.run_until(seconds(2));
    core::SystemMonitor* mon = dep.monitor();
    EXPECT_NE(mon, nullptr);
    return mon != nullptr ? mon->pdes_board() : std::string("<no monitor>");
  };

  EngineConfig cfg = parallel_cfg(2);
  const std::string board = board_for(&cfg);
  EXPECT_NE(board.find("=== Parallel engine (PDES) ==="), std::string::npos) << board;
  EXPECT_NE(board.find("worker 0"), std::string::npos) << board;
  EXPECT_NE(board.find("worker 1"), std::string::npos) << board;
  EXPECT_NE(board.find("windows="), std::string::npos) << board;
  EXPECT_TRUE(board_for(nullptr).empty());
}

}  // namespace
}  // namespace oftt::sim
