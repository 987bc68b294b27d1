// Experiment E15 — SWIM-style failure detection at scale (src/swim/).
//
// The all-to-all heartbeat cluster mode first shipped with (E8's
// historical tables) cost O(N^2) datagrams on the wire, which at N=512
// would be ~2.6M sends per heartbeat period. E15 measures the swim
// detector that replaced it, on engine-only clusters so every datagram
// is detection/membership traffic:
//
//  E15a: steady-state wire cost vs N — datagrams/s and bytes/s, total
//        and per member, at N in {9,32,128,512}. Per-member cost should
//        be flat (O(1) sends per protocol period), total traffic
//        linear-ish (the per-update piggyback budget grows with log N).
//  E15b: detection + failover latency vs N — crash the primary; time
//        from crash to the first SwimDeadConfirm anywhere (detection)
//        and to a promoted successor (failover), p50/p99 over seeds.
//        Suspicion timeouts scale with log N, so failover p99 at N=512
//        should stay within ~2x of N=9 — not 57x.
//  E15c: false-positive rate — 1% datagram loss, zero faults injected;
//        a false positive is a death certificate later refuted by its
//        subject. Reported per member-minute.
//
// Exports BENCH_swim.json.
#include "bench_util.h"
#include "core/deployment.h"
#include "obs/json.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "sim/simulation.h"

using namespace oftt;
using namespace oftt::bench;

namespace {

std::vector<int> swim_sizes() {
  return smoke_mode() ? std::vector<int>{9, 32} : std::vector<int>{9, 32, 128, 512};
}

core::ClusterDeploymentOptions engine_only(int replicas, double loss) {
  core::ClusterDeploymentOptions opts;
  opts.replicas = replicas;
  // Engine-only: no monitor, no MSMQ, no SCM, no app — every datagram
  // on the wire is detection or membership traffic.
  opts.with_monitor = false;
  opts.with_msmq = false;
  opts.with_scm = false;
  opts.net_loss = loss;
  return opts;
}

// ---------------------------------------------------------------------
// E15a — steady-state wire cost.
// ---------------------------------------------------------------------

struct Overhead {
  std::int64_t dgrams_per_sec = 0;
  std::int64_t bytes_per_sec = 0;
  std::int64_t dgrams_per_member = 0;
  std::int64_t bytes_per_member = 0;
};

Overhead run_overhead(int replicas, std::uint64_t seed) {
  sim::Simulation sim(seed);
  core::ClusterDeployment dep(sim, engine_only(replicas, 0.0));
  sim.run_for(sim::seconds(5));  // converge the startup election

  const sim::SimTime window = sim::seconds(10);
  std::uint64_t dgrams0 = sim.network(0).sent();
  std::uint64_t bytes0 = sim.network(0).bytes_sent();
  sim.run_for(window);
  auto secs = static_cast<std::uint64_t>(sim::to_seconds(window));

  Overhead r;
  r.dgrams_per_sec = static_cast<std::int64_t>((sim.network(0).sent() - dgrams0) / secs);
  r.bytes_per_sec =
      static_cast<std::int64_t>((sim.network(0).bytes_sent() - bytes0) / secs);
  r.dgrams_per_member = r.dgrams_per_sec / replicas;
  r.bytes_per_member = r.bytes_per_sec / replicas;
  return r;
}

// ---------------------------------------------------------------------
// E15b — detection and failover latency.
// ---------------------------------------------------------------------

struct FailoverSample {
  std::int64_t detection = -1;  // crash -> first SwimDeadConfirm(victim)
  std::int64_t failover = -1;   // crash -> a successor holds PRIMARY
};

FailoverSample run_failover_once(int replicas, std::uint64_t seed) {
  FailoverSample out;
  sim::Simulation sim(seed);
  core::ClusterDeployment dep(sim, engine_only(replicas, 0.0));
  sim.run_for(sim::seconds(5));
  int victim = dep.primary_node();
  if (victim < 0) return out;

  sim::SimTime injected = sim.now();
  sim::SimTime confirmed_at = -1;
  auto sub = sim.telemetry().bus().subscribe(
      obs::mask_of(obs::EventKind::kSwimDeadConfirm), [&](const obs::Event& e) {
        if (confirmed_at < 0 && static_cast<int>(e.a) == victim) confirmed_at = e.at;
      });
  dep.node_by_id(victim)->crash();

  sim::SimTime deadline = injected + sim::seconds(60);
  while (sim.now() < deadline && dep.primary_node() < 0) {
    sim.run_for(sim::milliseconds(5));
  }
  sim.telemetry().bus().unsubscribe(sub);
  if (confirmed_at >= 0) out.detection = confirmed_at - injected;
  if (dep.primary_node() >= 0) out.failover = sim.now() - injected;
  return out;
}

// ---------------------------------------------------------------------
// E15c — false positives under loss.
// ---------------------------------------------------------------------

struct FpResult {
  std::uint64_t false_positives = 0;
  double member_minutes = 0;
};

FpResult run_fp(int replicas, std::uint64_t seed) {
  sim::Simulation sim(seed);
  core::ClusterDeployment dep(sim, engine_only(replicas, 0.01));
  sim.run_for(sim::seconds(5));
  const sim::SimTime window = sim::seconds(20);
  std::uint64_t before = sim.telemetry().metrics().counter_value("oftt.swim_false_positive");
  sim.run_for(window);
  FpResult r;
  r.false_positives =
      sim.telemetry().metrics().counter_value("oftt.swim_false_positive") - before;
  r.member_minutes = static_cast<double>(replicas) * sim::to_seconds(window) / 60.0;
  return r;
}

void json_latency(obs::JsonWriter& w, const char* name,
                  const std::vector<std::int64_t>& xs) {
  w.key(name);
  w.begin_object();
  w.kv("n", static_cast<std::uint64_t>(xs.size()));
  w.kv("p50_ns", obs::percentile(xs, 0.50));
  w.kv("p99_ns", obs::percentile(xs, 0.99));
  w.end_object();
}

}  // namespace

int main() {
  Logger::instance().set_level(LogLevel::kOff);
  const int kSeeds = seeds_or(10);
  const std::vector<int> sizes = swim_sizes();

  obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", "swim");
  w.kv("seeds", static_cast<std::uint64_t>(kSeeds));

  // E15a -----------------------------------------------------------------
  title("E15a: steady-state detection wire cost",
        "engine-only clusters; swim probes one member per period and piggybacks "
        "updates");
  row({"detection / N", "dgrams/s", "per member", "bytes/s", "B/s member"});
  rule(5);
  std::vector<Overhead> swim_overhead;
  for (int n : sizes) {
    Overhead r = run_overhead(n, 11);
    swim_overhead.push_back(r);
    row({"swim N=" + std::to_string(n), fmt_int(r.dgrams_per_sec),
         fmt_int(r.dgrams_per_member), fmt_int(r.bytes_per_sec),
         fmt_int(r.bytes_per_member)});
  }

  // E15b -----------------------------------------------------------------
  title("E15b: detection and failover latency vs N",
        "crash the primary; detection = first confirmed death certificate anywhere, "
        "failover = a successor holds PRIMARY; p50/p99 over " +
            std::to_string(kSeeds) + " seeds");
  row({"N", "detect p50 ms", "detect p99 ms", "failover p50", "failover p99", "runs"});
  rule(6);
  std::vector<std::vector<std::int64_t>> detection_by_size, failover_by_size;
  for (int n : sizes) {
    std::vector<FailoverSample> runs = sweep_seeds(kSeeds, [&](int s) {
      return run_failover_once(n, static_cast<std::uint64_t>(s) * 977 + 5);
    });
    std::vector<std::int64_t> det, fail;
    for (const FailoverSample& one : runs) {
      if (one.detection >= 0) det.push_back(one.detection);
      if (one.failover >= 0) fail.push_back(one.failover);
    }
    row({fmt_int(n), fmt(static_cast<double>(obs::percentile(det, 0.50)) / 1e6, 1),
         fmt(static_cast<double>(obs::percentile(det, 0.99)) / 1e6, 1),
         fmt(static_cast<double>(obs::percentile(fail, 0.50)) / 1e6, 1),
         fmt(static_cast<double>(obs::percentile(fail, 0.99)) / 1e6, 1),
         fmt_int(static_cast<long long>(fail.size()))});
    detection_by_size.push_back(std::move(det));
    failover_by_size.push_back(std::move(fail));
  }

  // E15c -----------------------------------------------------------------
  const int kFpSeeds = seeds_or(5, 1);
  title("E15c: false-positive rate under 1% loss",
        "no faults injected; a false positive is a death certificate the subject "
        "later refutes; per member-minute over " +
            std::to_string(kFpSeeds) + " seeds");
  row({"N", "false positives", "member-min", "fp / member-min"});
  rule(4);
  std::vector<FpResult> fp_by_size;
  for (int n : sizes) {
    std::vector<FpResult> runs = sweep_seeds(kFpSeeds, [&](int s) {
      return run_fp(n, static_cast<std::uint64_t>(s) * 389 + 7);
    });
    FpResult agg;
    for (const FpResult& one : runs) {
      agg.false_positives += one.false_positives;
      agg.member_minutes += one.member_minutes;
    }
    fp_by_size.push_back(agg);
    row({fmt_int(n), fmt_int(static_cast<long long>(agg.false_positives)),
         fmt(agg.member_minutes, 1),
         fmt(static_cast<double>(agg.false_positives) / agg.member_minutes, 3)});
  }

  // JSON export ----------------------------------------------------------
  w.key("sizes");
  w.begin_array();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    w.begin_object();
    w.kv("replicas", sizes[i]);
    w.kv("detection", "swim");
    w.kv("steady_dgrams_per_sec", swim_overhead[i].dgrams_per_sec);
    w.kv("steady_dgrams_per_sec_per_member", swim_overhead[i].dgrams_per_member);
    w.kv("steady_bytes_per_sec", swim_overhead[i].bytes_per_sec);
    w.kv("steady_bytes_per_sec_per_member", swim_overhead[i].bytes_per_member);
    json_latency(w, "detection", detection_by_size[i]);
    json_latency(w, "failover", failover_by_size[i]);
    w.kv("false_positives", static_cast<std::uint64_t>(fp_by_size[i].false_positives));
    w.kv("fp_per_member_minute",
         fp_by_size[i].member_minutes > 0
             ? static_cast<double>(fp_by_size[i].false_positives) /
                   fp_by_size[i].member_minutes
             : 0.0);
    w.end_object();
  }
  w.end_array();

  // Acceptance ratio: failover p99 at the largest N vs the smallest.
  double ratio = 0.0;
  if (!failover_by_size.empty() && !failover_by_size.front().empty() &&
      !failover_by_size.back().empty()) {
    ratio = static_cast<double>(obs::percentile(failover_by_size.back(), 0.99)) /
            static_cast<double>(obs::percentile(failover_by_size.front(), 0.99));
  }
  w.kv("failover_p99_ratio_largest_vs_smallest", ratio);
  w.end_object();
  write_file("BENCH_swim.json", w.take());

  std::printf(
      "\n(failover p99 at N=%d is %.2fx N=%d — the suspicion timeout grows with\n"
      " log N while per-member wire cost stays O(1))\n",
      sizes.back(), ratio, sizes.front());
  return 0;
}
