// Experiment E17 — conservative parallel simulation: speedup and
// determinism of src/sim/parallel_engine.
//
//  E17a: wall-clock speedup vs workers. Engine-only SWIM clusters at
//        N in {9, 64, 512} (the E15 workload — detection traffic on
//        every node, nodes spread round-robin across shards), run to a
//        fixed sim horizon under the sequential kernel and under
//        kParallel with W in {1, 2, 4}. Reported as wall seconds and
//        speedup of W workers over W=1 (the apples-to-apples number:
//        W=1 pays the window/barrier machinery without parallelism).
//  E17b: determinism. The telemetry history digest at each N must be
//        byte-identical across all worker counts — including N=512,
//        which is too slow for the unit-test lane and is pinned here
//        instead. Any divergence fails the run (exit 1) regardless of
//        floor settings: determinism is not hardware-dependent.
//
// Engine internals (windows, horizon-stall wall time, mailbox spills)
// are reported per run so a speedup regression can be attributed:
// stalls growing means lookahead got tighter relative to event density,
// spills mean the SPSC rings are undersized for the traffic.
//
//  E17c: sequential host ns per event at N=512 — what one event of
//        engine + detector + kernel work costs without any parallel
//        machinery. Smoke runs skip the N=512 parallel lanes but keep
//        this row, so its ceiling is checked in the smoke lane too.
//
// Exports BENCH_pdes.json. Floor gates: see pdes_floor.h.
#include <chrono>
#include <cinttypes>
#include <thread>

#include "bench_util.h"
#include "chaos/coverage.h"
#include "core/deployment.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "pdes_floor.h"
#include "sim/fault_plan.h"
#include "sim/parallel_engine.h"
#include "sim/simulation.h"

using namespace oftt;
using namespace oftt::bench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kFloorN = 512;

struct PdesRun {
  double wall_s = 0;
  std::uint64_t hash = 0;
  std::uint64_t events = 0;  // executed events, counted by either engine
  // Parallel-engine internals (zero for the sequential baseline).
  std::uint64_t windows = 0;
  std::uint64_t spills = 0;
  double stall_ms = 0;
};

void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 1099511628211ull;
  }
}

/// One engine-only SWIM cluster run: boot, converge, crash the primary
/// mid-run, reboot it, run to the horizon; digest the telemetry history
/// plus wire counters.
PdesRun run_cluster(int replicas, std::uint64_t seed, const sim::EngineConfig* cfg,
                    sim::SimTime horizon) {
  sim::Simulation sim(seed);
  if (cfg != nullptr) sim.set_engine(*cfg);

  core::ClusterDeploymentOptions opts;
  opts.replicas = replicas;
  opts.with_monitor = false;
  opts.with_msmq = false;
  opts.with_scm = false;
  opts.engine.detection = core::DetectionMode::kSwim;
  core::ClusterDeployment dep(sim, opts);

  chaos::CoverageProbe probe(sim.telemetry());
  sim::FaultPlan plan(sim);
  plan.os_crash(horizon / 2, /*node=*/1, /*reboot_after=*/horizon / 4);
  plan.arm();

  PdesRun r;
  auto t0 = Clock::now();
  if (cfg == nullptr) {
    // Step the sequential kernel so the lane counts its own events (the
    // parallel engine counts its own); stops after the first event at
    // or past the horizon.
    while (sim.now() < horizon && sim.step()) ++r.events;
  } else {
    sim.run_until(horizon);
  }
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

  probe.finish();
  r.hash = probe.history_hash();
  fold(r.hash, sim.network(0).sent());
  fold(r.hash, sim.network(0).delivered());
  fold(r.hash, sim.network(0).dropped());
  fold(r.hash, static_cast<std::uint64_t>(dep.primary_node()));

  if (sim::ParallelEngine* eng = sim.parallel_engine()) {
    r.windows = eng->windows();
    r.events = eng->events_executed();
    r.spills = eng->mailbox_spills();
    r.stall_ms = static_cast<double>(eng->stall_ns()) / 1e6;
  }
  return r;
}

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

}  // namespace

int main() {
  Logger::instance().set_level(LogLevel::kOff);
  const bool smoke = smoke_mode();
  const std::uint64_t kSeed = 4242;
  const std::vector<int> sizes = {9, 64, kFloorN};
  const int workers_lanes[] = {1, 2, 4};

  title("E17: conservative parallel engine — speedup vs workers",
        "engine-only SWIM clusters run to a fixed sim horizon; speedup is wall time "
        "at W=1 over wall time at W (same window machinery, more lanes); the digest "
        "must be identical in every row of one N");

  obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", "pdes");
  w.kv("smoke", smoke);
  w.kv("hardware_threads",
       static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("sizes");
  w.begin_array();

  row({"N / engine", "wall s", "speedup", "windows", "events", "spills", "stall ms"});
  rule(7);

  bool hashes_ok = true;
  double speedup_w4_n512 = 0;
  double seq_ns_per_event_n512 = 0;
  for (int n : sizes) {
    // Horizon scales down with N so the full matrix stays tractable on
    // a laptop; N=512 is the row the floor reads.
    const sim::SimTime horizon = n >= 512 ? sim::seconds(10)
                                : n >= 64 ? sim::seconds(20)
                                          : sim::seconds(40);
    PdesRun seq = run_cluster(n, kSeed, nullptr, horizon);
    const double seq_ns_per_event =
        seq.events > 0 ? seq.wall_s * 1e9 / static_cast<double>(seq.events) : 0;
    if (n == kFloorN) seq_ns_per_event_n512 = seq_ns_per_event;
    row({"N=" + std::to_string(n) + " sequential", fmt(seq.wall_s, 2), "-", "-",
         fmt_int(static_cast<long long>(seq.events)), "-", "-"});

    std::vector<PdesRun> lanes;
    for (int workers : workers_lanes) {
      if (smoke && n == kFloorN) break;  // smoke keeps only the sequential row
      sim::EngineConfig cfg;
      cfg.kind = sim::EngineKind::kParallel;
      cfg.workers = workers;
      lanes.push_back(run_cluster(n, kSeed, &cfg, horizon));
      const PdesRun& r = lanes.back();
      const double speedup = r.wall_s > 0 ? lanes.front().wall_s / r.wall_s : 0;
      row({"N=" + std::to_string(n) + " parallel W=" + std::to_string(workers),
           fmt(r.wall_s, 2), fmt(speedup, 2) + "x",
           fmt_int(static_cast<long long>(r.windows)),
           fmt_int(static_cast<long long>(r.events)),
           fmt_int(static_cast<long long>(r.spills)), fmt(r.stall_ms, 1)});
      if (r.hash != lanes.front().hash) hashes_ok = false;
      if (n == 512 && workers == 4) speedup_w4_n512 = speedup;
    }

    w.begin_object();
    w.kv("replicas", n);
    w.kv("horizon_s", sim::to_seconds(horizon));
    w.kv("sequential_wall_s", seq.wall_s);
    w.kv("sequential_events", seq.events);
    w.kv("sequential_ns_per_event", seq_ns_per_event);
    w.kv("sequential_hash", hex16(seq.hash));
    w.key("parallel");
    w.begin_array();
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const PdesRun& r = lanes[i];
      w.begin_object();
      w.kv("workers", workers_lanes[i]);
      w.kv("wall_s", r.wall_s);
      w.kv("speedup_vs_w1", r.wall_s > 0 ? lanes.front().wall_s / r.wall_s : 0.0);
      w.kv("hash", hex16(r.hash));
      w.kv("windows", r.windows);
      w.kv("events", r.events);
      w.kv("mailbox_spills", r.spills);
      w.kv("stall_ms", r.stall_ms);
      w.end_object();
    }
    w.end_array();
    if (!lanes.empty()) {
      w.kv("hash_invariant_across_workers", lanes.size() == 3 &&
                                                lanes[0].hash == lanes[1].hash &&
                                                lanes[1].hash == lanes[2].hash);
    }
    w.end_object();
  }
  w.end_array();
  w.kv("hashes_ok", hashes_ok);
  w.kv("speedup_w4_n512", speedup_w4_n512);
  w.kv("floor_speedup_w4_n512", kFloorSpeedupW4N512);
  w.kv("seq_ns_per_event_n512", seq_ns_per_event_n512);
  w.kv("floor_seq_ns_per_event_n512", kFloorSeqNsPerEventN512);
  w.end_object();
  write_file("BENCH_pdes.json", w.take());

  std::printf(
      "\n(the digest row-for-row equality IS the engine's contract: worker count is\n"
      " an unobservable knob. Speedup asymptotes at the horizon/lookahead window\n"
      " granularity — more workers only help while every shard has events inside\n"
      " the current window.)\n");
  std::printf("\nE17c: sequential N=%d host %.0f ns/event (ceiling %.0f)\n", kFloorN,
              seq_ns_per_event_n512, kFloorSeqNsPerEventN512);

  if (!hashes_ok) {
    std::printf("DETERMINISM VIOLATION: history hash diverged across worker counts\n");
    return 1;
  }
  const char* enforce = std::getenv("OFTT_BENCH_ENFORCE_FLOOR");
  const bool gate = enforce != nullptr && enforce[0] != '\0' &&
                    std::thread::hardware_concurrency() >= kFloorMinCores;
  bool floors_ok = true;
  if (gate && seq_ns_per_event_n512 > kFloorSeqNsPerEventN512) {
    std::printf("FLOOR REGRESSION: sequential N=512 costs %.0f ns/event, ceiling is %.0f\n",
                seq_ns_per_event_n512, kFloorSeqNsPerEventN512);
    floors_ok = false;
  }
  if (gate && !smoke && speedup_w4_n512 < kFloorSpeedupW4N512) {
    std::printf("FLOOR REGRESSION: W=4 speedup at N=512 is %.2fx, floor is %.2fx\n",
                speedup_w4_n512, kFloorSpeedupW4N512);
    floors_ok = false;
  }
  return floors_ok ? 0 : 1;
}
