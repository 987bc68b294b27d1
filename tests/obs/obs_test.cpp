// Tests for the telemetry subsystem: event bus filtering and liveness
// pruning, the handle-based metrics registry, the bounded event log,
// the deterministic JSON exporter, and the failover span tracker —
// including the headline property that two runs with the same seed
// export byte-identical telemetry.
#include <gtest/gtest.h>

#include "core/deployment.h"
#include "obs/event_bus.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "support/counter_app.h"

namespace oftt {
namespace {

using core::PairDeployment;
using core::PairDeploymentOptions;
using testsupport::CounterApp;

// ---------------------------------------------------------------------
// EventBus
// ---------------------------------------------------------------------

TEST(EventBus, MaskFiltersAndHistoryRecords) {
  sim::SimTime now = 0;
  obs::EventBus bus([&now] { return now; });
  std::vector<obs::EventKind> got;
  bus.subscribe(obs::mask_of(obs::EventKind::kRoleChange, obs::EventKind::kDistress),
                [&](const obs::Event& e) { got.push_back(e.kind); });

  obs::Event e;
  e.kind = obs::EventKind::kCheckpointTaken;
  bus.publish(e);
  e.kind = obs::EventKind::kRoleChange;
  now = 5;
  bus.publish(e);
  e.kind = obs::EventKind::kDistress;
  bus.publish(e);

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], obs::EventKind::kRoleChange);
  EXPECT_EQ(got[1], obs::EventKind::kDistress);
  // Everything lands in the history, stamped with the bus clock.
  EXPECT_EQ(bus.published(), 3u);
  ASSERT_EQ(bus.history().size(), 3u);
  EXPECT_EQ(bus.history().entries()[0].at, 0);
  EXPECT_EQ(bus.history().entries()[1].at, 5);
}

TEST(EventBus, UnsubscribeStopsDelivery) {
  obs::EventBus bus([] { return sim::SimTime{0}; });
  int delivered = 0;
  auto id = bus.subscribe_all([&](const obs::Event&) { ++delivered; });
  bus.publish({});
  bus.unsubscribe(id);
  bus.publish({});
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(bus.subscriber_count(), 0u);
}

TEST(EventBus, DeadAliveGuardPrunesWithoutDelivery) {
  obs::EventBus bus([] { return sim::SimTime{0}; });
  bool alive = true;
  int delivered = 0;
  bus.subscribe_all([&](const obs::Event&) { ++delivered; }, [&alive] { return alive; });
  bus.publish({});
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(bus.subscriber_count(), 1u);
  alive = false;
  bus.publish({});
  EXPECT_EQ(delivered, 1) << "dead subscriber must not see the event";
  EXPECT_EQ(bus.subscriber_count(), 0u) << "dead subscriber is pruned";
}

// ---------------------------------------------------------------------
// EventLog
// ---------------------------------------------------------------------

TEST(ObsEventLog, EvictsOldestFirst) {
  obs::EventLog log(3);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    obs::Event e;
    e.a = i;
    log.append(e);
  }
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.evicted(), 2u);
  // Oldest evicted first: 1 and 2 are gone, 3..5 remain in order.
  EXPECT_EQ(log.entries()[0].a, 3u);
  EXPECT_EQ(log.entries()[1].a, 4u);
  EXPECT_EQ(log.entries()[2].a, 5u);

  log.set_cap(1);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.entries()[0].a, 5u) << "shrinking the cap keeps the newest";
  EXPECT_EQ(log.evicted(), 4u);
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

TEST(Metrics, HandlesResolveToSharedCells) {
  obs::MetricsRegistry reg;
  obs::Counter c1 = reg.counter("x.count");
  obs::Counter c2 = reg.counter("x.count");
  c1.inc();
  c2.inc(4);
  EXPECT_EQ(c1.value(), 5u);
  EXPECT_EQ(reg.counter_value("x.count"), 5u);
  EXPECT_EQ(reg.counter_value("never.created"), 0u);

  obs::Gauge g = reg.gauge("x.depth");
  g.set(7);
  g.add(-2);
  EXPECT_EQ(reg.gauge_value("x.depth"), 5);
}

TEST(Metrics, DefaultHandlesAreInert) {
  obs::Counter none;
  none.inc();
  EXPECT_EQ(none.value(), 0u);
  EXPECT_FALSE(static_cast<bool>(none));
  obs::Gauge g;
  g.set(9);
  EXPECT_EQ(g.value(), 0);
  obs::Histogram h;
  h.record(3);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  obs::MetricsRegistry reg;
  obs::Histogram h = reg.histogram("lat", {10, 100});
  for (std::int64_t v : {1, 5, 50, 50, 500}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 606);
  EXPECT_LE(h.quantile(0.0), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(1.0));
  // Re-resolving ignores the bounds argument and shares the cell.
  obs::Histogram again = reg.histogram("lat", {1});
  EXPECT_EQ(again.count(), 5u);
}

TEST(Metrics, RecordingARunEqualsRecordingEachSample) {
  // {value, repeat}: inside the first bucket, on a bound, between
  // bounds, past the last bound, a zero-length run and a negative value.
  const std::vector<std::pair<std::int64_t, std::uint64_t>> runs = {
      {3, 4}, {10, 2}, {42, 0}, {57, 7}, {100, 1}, {5'000, 3}, {-2, 2}, {250, 0}};
  obs::MetricsRegistry reg;
  obs::Histogram each = reg.histogram("each", {10, 100, 1'000});
  obs::Histogram batched = reg.histogram("batched", {10, 100, 1'000});
  for (const auto& [v, n] : runs) {
    for (std::uint64_t i = 0; i < n; ++i) each.record(v);
    batched.record(v, n);
  }
  const auto& cells = reg.histograms();
  const obs::detail::HistogramCell& a = *cells.at("each");
  const obs::detail::HistogramCell& b = *cells.at("batched");
  EXPECT_EQ(batched.count(), each.count());
  EXPECT_EQ(batched.sum(), each.sum());
  EXPECT_EQ(b.min.load(), a.min.load());
  EXPECT_EQ(b.max.load(), a.max.load());
  ASSERT_EQ(b.counts.size(), a.counts.size());
  for (std::size_t i = 0; i < a.counts.size(); ++i) {
    EXPECT_EQ(b.counts[i].load(), a.counts[i].load()) << "bucket " << i;
  }
  EXPECT_EQ(a.counts.back().load(), 3u) << "values past the last bound land in +inf";
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(batched.quantile(q), each.quantile(q)) << "q " << q;
  }

  obs::Histogram empty = reg.histogram("empty", {10});
  empty.record(7, 0);
  EXPECT_EQ(empty.count(), 0u) << "n = 0 records nothing";
  EXPECT_EQ(cells.at("empty")->min.load(), INT64_MAX) << "not even the min";
}

// ---------------------------------------------------------------------
// JSON writer + percentile
// ---------------------------------------------------------------------

TEST(Json, EscapesAndNestsDeterministically) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("s", "a\"b\\c\n\t");
  w.key("arr");
  w.begin_array();
  w.value(std::int64_t{-5});
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\n\\t\",\"arr\":[-5,true,null]}");
}

TEST(Json, PercentileNearestRank) {
  EXPECT_EQ(obs::percentile({}, 0.5), 0);
  EXPECT_EQ(obs::percentile({7}, 0.99), 7);
  std::vector<std::int64_t> xs;
  for (std::int64_t i = 1; i <= 101; ++i) xs.push_back(i);
  EXPECT_EQ(obs::percentile(xs, 0.0), 1);
  EXPECT_EQ(obs::percentile(xs, 0.5), 51);
  EXPECT_EQ(obs::percentile(xs, 1.0), 101);
}

// ---------------------------------------------------------------------
// Failover spans + deterministic export
// ---------------------------------------------------------------------

PairDeploymentOptions traced_options() {
  PairDeploymentOptions opts;
  opts.with_diverter = true;  // completes the replay phase
  opts.app_factory = [](sim::Process& proc) { proc.attachment<CounterApp>(proc); };
  return opts;
}

TEST(FailoverSpans, NodeCrashYieldsCausallyOrderedTrace) {
  sim::Simulation sim(301);
  PairDeployment dep(sim, traced_options());
  sim.run_for(sim::seconds(5));
  ASSERT_EQ(dep.primary_node(), dep.node_a().id());
  dep.node_a().crash();
  sim.run_for(sim::seconds(10));

  const auto* complete = static_cast<const obs::FailoverTrace*>(nullptr);
  for (const auto& t : sim.telemetry().spans().traces()) {
    if (t.complete()) complete = &t;
  }
  ASSERT_NE(complete, nullptr) << "crash with a diverter deployed must close a trace";
  EXPECT_EQ(complete->node, dep.node_b().id());
  EXPECT_EQ(complete->unit, "unit");
  // The milestones are causally ordered in sim time.
  EXPECT_LE(complete->evidence_at, complete->detected_at);
  EXPECT_LE(complete->detected_at, complete->promoted_at);
  EXPECT_LE(complete->promoted_at, complete->active_at);
  EXPECT_LE(complete->active_at, complete->rerouted_at);
  for (obs::FailoverPhase p :
       {obs::FailoverPhase::kDetection, obs::FailoverPhase::kNegotiation,
        obs::FailoverPhase::kPromotion, obs::FailoverPhase::kReplay}) {
    EXPECT_GE(complete->phase(p), 0);
  }
  EXPECT_EQ(complete->total(), complete->rerouted_at - complete->evidence_at);
  // The span samples feed the bench aggregation.
  EXPECT_FALSE(sim.telemetry().spans().durations(obs::FailoverPhase::kDetection).empty());
}

std::string run_and_export(std::uint64_t seed) {
  sim::Simulation sim(seed);
  PairDeployment dep(sim, traced_options());
  sim.run_for(sim::seconds(5));
  dep.node_a().crash();
  sim.run_for(sim::seconds(10));
  return obs::export_json(sim.telemetry());
}

TEST(DeterministicTelemetry, SameSeedExportsByteIdenticalJson) {
  std::string first = run_and_export(42);
  std::string second = run_and_export(42);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
  // A different seed perturbs network latencies, so timestamps differ.
  EXPECT_NE(run_and_export(43), first);
}

}  // namespace
}  // namespace oftt
