// Experiment E12 — the discrete-event kernel hot path itself: how many
// events per second can `sim::Simulation` schedule, fire and cancel?
// Every other experiment in EXPERIMENTS.md is bottlenecked by this
// loop, so its cost is measured directly, on five workload shapes:
//
//  schedule_fire — self-rescheduling one-shot chains (the shape of
//       datagram delivery and deadline events): each fired event
//       schedules its successor at a pseudo-random short delay.
//  cancel_heavy — the RTO/watchdog pattern: most scheduled events are
//       cancelled before they fire (a completion races a timeout and
//       usually wins). Exercises O(1) cancel plus tombstone reclaim.
//  timer_heavy — steady-state heartbeat traffic: hundreds of
//       PeriodicTimers on process strands at engine-like periods, the
//       event mix that dominates cluster runs at large N.
//  fanout_burst — the SWIM death-certificate burst at N=512: every
//       member sends to all 511 peers at 100-300 us delays, and each
//       delivery schedules one reply. Hundreds of thousands of events
//       pending inside a few milliseconds of sim time.
//  datagram_fanout — the same burst as datagrams through Process::send,
//       Network::send and Node::deliver to a bound port: the per-datagram
//       path (port ids, attachment table, delivery closure).
//
// Reported as events/sec and ns/event of *wall* time (sim time is free;
// the wall cost of the kernel loop is exactly what this bench exists to
// measure). Exports BENCH_kernel.json.
//
// CI perf-smoke lane: with OFTT_BENCH_ENFORCE_FLOOR set, the run fails
// (exit 1) if any workload's events/sec drops below 70% of the
// checked-in floor in kernel_floor.h — a >30% kernel regression gate.
#include <chrono>
#include <cinttypes>

#include "bench_util.h"
#include "common/strings.h"
#include "kernel_floor.h"
#include "obs/json.h"
#include "pdes/pdes_scenarios.h"
#include "sim/simulation.h"
#include "sim/timer.h"

using namespace oftt;
using namespace oftt::bench;

namespace {

using Clock = std::chrono::steady_clock;

struct KernelResult {
  std::uint64_t fired = 0;      // events that executed
  std::uint64_t scheduled = 0;  // schedule() calls
  std::uint64_t cancelled = 0;  // cancel() calls that hit a live event
  double wall_s = 0;
  /// Primary metric: kernel operations (schedule + fire + cancel) per
  /// wall second.
  double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(fired + scheduled + cancelled) / wall_s : 0;
  }
  double ns_per_event() const {
    std::uint64_t ops = fired + scheduled + cancelled;
    return ops > 0 ? wall_s * 1e9 / static_cast<double>(ops) : 0;
  }
  /// Determinism probe: FNV-1a over the sim-time of every fired event.
  std::uint64_t history_hash = 14695981039346656037ull;
};

void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 1099511628211ull;
  }
}

// ---------------------------------------------------------------------
// schedule_fire — self-rescheduling one-shot chains.
// ---------------------------------------------------------------------

KernelResult run_schedule_fire(std::uint64_t seed, std::uint64_t target_events) {
  sim::Simulation sim(seed);
  KernelResult res;
  constexpr int kChains = 64;
  // Deterministic per-chain delay pattern; no rng in the hot loop.
  std::function<void(int)> hop = [&](int chain) {
    ++res.fired;
    fold(res.history_hash, static_cast<std::uint64_t>(sim.now()));
    if (res.fired + kChains > target_events) return;
    sim::SimTime delay = sim::microseconds(10 + (res.fired * 7 + static_cast<std::uint64_t>(chain) * 13) % 190);
    ++res.scheduled;
    sim.schedule_after(delay, [&hop, chain] { hop(chain); });
  };
  auto t0 = Clock::now();
  for (int c = 0; c < kChains; ++c) {
    ++res.scheduled;
    sim.schedule_after(sim::microseconds(static_cast<std::int64_t>(c)), [&hop, c] { hop(c); });
  }
  sim.run();
  res.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return res;
}

// ---------------------------------------------------------------------
// cancel_heavy — completion races a timeout; the timeout mostly loses.
// ---------------------------------------------------------------------

KernelResult run_cancel_heavy(std::uint64_t seed, std::uint64_t target_ops) {
  sim::Simulation sim(seed);
  KernelResult res;
  constexpr int kPerBatch = 100;
  std::vector<sim::EventHandle> timeouts;
  timeouts.reserve(kPerBatch);
  std::function<void()> batch = [&] {
    ++res.fired;
    fold(res.history_hash, static_cast<std::uint64_t>(sim.now()));
    // Schedule a batch of "timeouts" 10 ms out, then cancel 90% of them
    // (the completion arrived); the survivors fire as normal events.
    timeouts.clear();
    for (int i = 0; i < kPerBatch; ++i) {
      ++res.scheduled;
      timeouts.push_back(sim.schedule_after(sim::milliseconds(10), [&res, &sim] {
        ++res.fired;
        fold(res.history_hash, static_cast<std::uint64_t>(sim.now()));
      }));
    }
    for (int i = 0; i < kPerBatch; ++i) {
      if (i % 10 == 0) continue;  // every 10th survives to fire
      sim.cancel(timeouts[static_cast<std::size_t>(i)]);
      ++res.cancelled;
    }
    if (res.scheduled < target_ops) {
      ++res.scheduled;
      sim.schedule_after(sim::milliseconds(1), batch);
    }
  };
  auto t0 = Clock::now();
  ++res.scheduled;
  sim.schedule_after(sim::milliseconds(1), batch);
  sim.run();
  res.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return res;
}

// ---------------------------------------------------------------------
// timer_heavy — heartbeat-shaped periodic traffic on process strands.
// ---------------------------------------------------------------------

KernelResult run_timer_heavy(std::uint64_t seed, int timers, sim::SimTime duration) {
  sim::Simulation sim(seed);
  KernelResult res;
  constexpr int kNodes = 8;
  std::vector<sim::Node*> nodes;
  for (int n = 0; n < kNodes; ++n) {
    nodes.push_back(&sim.add_node(cat("n", n)));
    nodes.back()->boot();
  }
  std::vector<std::shared_ptr<sim::Process>> procs;
  std::vector<std::unique_ptr<sim::PeriodicTimer>> running;
  for (int t = 0; t < timers; ++t) {
    auto proc = nodes[static_cast<std::size_t>(t % kNodes)]->start_process(
        cat("p", t), nullptr);
    procs.push_back(proc);
    auto timer = std::make_unique<sim::PeriodicTimer>(proc->main_strand());
    // Engine-like periods: 10..500 ms, deterministic spread.
    sim::SimTime period = sim::milliseconds(10 + (t % 50) * 10);
    timer->start(period, [&res, &sim] {
      ++res.fired;
      fold(res.history_hash, static_cast<std::uint64_t>(sim.now()));
    });
    running.push_back(std::move(timer));
  }
  auto t0 = Clock::now();
  sim.run_until(duration);
  res.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  // Each periodic fire re-arms itself: one schedule per fire.
  res.scheduled = res.fired;
  return res;
}

// ---------------------------------------------------------------------
// fanout_burst — 512 senders x 511 receivers, one reply per delivery.
// ---------------------------------------------------------------------

KernelResult run_fanout_burst(std::uint64_t seed, int bursts) {
  sim::Simulation sim(seed);
  KernelResult res;
  constexpr std::uint64_t kMembers = 512;
  // Deterministic 100-300 us delay per (from, to, round); no rng in the
  // hot loop.
  auto delay = [](std::uint64_t from, std::uint64_t to, std::uint64_t round) {
    std::uint64_t h = (from * 0x9E3779B97F4A7C15ull) ^ (to * 0xC2B2AE3D27D4EB4Full) ^ round;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 32;
    return sim::microseconds(100) + static_cast<sim::SimTime>(h % 200'001);
  };
  auto fire = [&res, &sim] {
    ++res.fired;
    fold(res.history_hash, static_cast<std::uint64_t>(sim.now()));
  };
  auto send_all = [&](std::uint64_t from, std::uint64_t round) {
    fire();
    for (std::uint64_t to = 0; to < kMembers; ++to) {
      if (to == from) continue;
      ++res.scheduled;
      sim.schedule_after(delay(from, to, round), [&, from, to, round] {
        fire();
        ++res.scheduled;
        sim.schedule_after(delay(to, from, round + 1), fire);  // the reply
      });
    }
  };
  auto t0 = Clock::now();
  // Bursts 50 ms apart; within one, senders learn of the death over
  // ~50 us (100 ns apart), as the certificate spreads.
  for (int b = 0; b < bursts; ++b) {
    for (std::uint64_t from = 0; from < kMembers; ++from) {
      ++res.scheduled;
      sim.schedule_at(sim::milliseconds(50 * b) + static_cast<sim::SimTime>(from * 100),
                      [&send_all, from, b] { send_all(from, static_cast<std::uint64_t>(b) * 2); });
    }
  }
  sim.run();
  res.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return res;
}

// ---------------------------------------------------------------------
// datagram_fanout — the fanout_burst shape through the datagram stack.
// ---------------------------------------------------------------------

/// fanout_burst again, but every message is a datagram: Process::send ->
/// Network::send -> Node::deliver -> the receiver's port handler, which
/// replies once to the sender's source port. Counts each send as a
/// schedule and each handler run as a fire. Gates the per-datagram
/// path (port lookup, attachment test, delivery closure) that the bare
/// kernel rows above never touch.
KernelResult run_datagram_fanout(std::uint64_t seed, int bursts) {
  sim::Simulation sim(seed);
  KernelResult res;
  constexpr int kMembers = 512;
  sim::Network& net = sim.add_network("lan");
  const sim::PortId port = sim.port("fanout");
  std::vector<std::shared_ptr<sim::Process>> procs;
  for (int n = 0; n < kMembers; ++n) {
    sim::Node& node = sim.add_node(cat("n", n));
    net.attach(node.id());
    node.boot();
    procs.push_back(node.start_process("p", nullptr));
  }
  for (const auto& proc : procs) {
    sim::Process* p = proc.get();
    p->bind(port, [&res, &sim, p, port](const sim::Datagram& d) {
      ++res.fired;
      fold(res.history_hash, static_cast<std::uint64_t>(sim.now()));
      if (d.payload[0] != 0) return;  // a reply
      ++res.scheduled;
      p->send(d.network_id, d.src_node, d.src_port, Buffer{1}, port);
    });
  }
  auto send_all = [&](int from) {
    ++res.fired;
    for (int to = 0; to < kMembers; ++to) {
      if (to == from) continue;
      ++res.scheduled;
      procs[static_cast<std::size_t>(from)]->send(0, to, port, Buffer{0}, port);
    }
  };
  auto t0 = Clock::now();
  for (int b = 0; b < bursts; ++b) {
    for (int from = 0; from < kMembers; ++from) {
      ++res.scheduled;
      sim.schedule_at(sim::milliseconds(50 * b) + static_cast<sim::SimTime>(from * 100),
                      [&send_all, from] { send_all(from); });
    }
  }
  sim.run();
  res.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return res;
}

struct Workload {
  const char* name;
  KernelResult result;
  double floor_eps;  // checked-in events/sec floor (0 = ungated)
};

}  // namespace

int main() {
  Logger::instance().set_level(LogLevel::kOff);
  const bool smoke = smoke_mode();
  const std::uint64_t kSeed = 1234;
  const std::uint64_t kChainEvents = smoke ? 200'000 : 2'000'000;
  const std::uint64_t kCancelOps = smoke ? 200'000 : 2'000'000;
  const int kTimers = smoke ? 100 : 250;
  const sim::SimTime kTimerDuration = smoke ? sim::seconds(20) : sim::minutes(2);
  const int kBursts = smoke ? 2 : 4;

  title("E12: event-kernel hot path",
        "wall-clock cost of the schedule/fire/cancel cycle on five workload shapes; "
        "events/sec counts kernel operations (schedules + fires + cancels)");

  Workload workloads[] = {
      {"schedule_fire", run_schedule_fire(kSeed, kChainEvents), kFloorScheduleFire},
      {"cancel_heavy", run_cancel_heavy(kSeed, kCancelOps), kFloorCancelHeavy},
      {"timer_heavy", run_timer_heavy(kSeed, kTimers, kTimerDuration), kFloorTimerHeavy},
      {"fanout_burst", run_fanout_burst(kSeed, kBursts), kFloorFanoutBurst},
      {"datagram_fanout", run_datagram_fanout(kSeed, kBursts), kFloorDatagramFanout},
  };

  row({"workload", "events/s", "ns/event", "fired", "cancelled", "wall s"});
  rule(6);
  obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", "kernel");
  w.kv("smoke", smoke);
  w.key("workloads");
  w.begin_array();
  bool floor_ok = true;
  for (const Workload& wl : workloads) {
    const KernelResult& r = wl.result;
    row({wl.name, fmt(r.events_per_sec() / 1e6, 2) + "M", fmt(r.ns_per_event(), 1),
         fmt_int(static_cast<long long>(r.fired)), fmt_int(static_cast<long long>(r.cancelled)),
         fmt(r.wall_s, 2)});
    w.begin_object();
    w.kv("workload", wl.name);
    w.kv("events_per_sec", r.events_per_sec());
    w.kv("ns_per_event", r.ns_per_event());
    w.kv("fired", r.fired);
    w.kv("scheduled", r.scheduled);
    w.kv("cancelled", r.cancelled);
    w.kv("wall_s", r.wall_s);
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016" PRIx64, r.history_hash);
    w.kv("history_hash", hash);
    w.kv("floor_events_per_sec", wl.floor_eps);
    w.end_object();
    if (wl.floor_eps > 0 && r.events_per_sec() < 0.7 * wl.floor_eps) floor_ok = false;
  }
  w.end_array();

  // Parallel lane: the E17 ring scenario (rng-free variant) under the
  // sequential kernel and kParallel W in {1,2,4}. The digest must match
  // the sequential kernel exactly — this is the only bench row where
  // cross-*engine* equality (not just worker invariance) is asserted.
  title("E12 parallel lane: sequential vs kParallel on the clean ring",
        "rng-free scenario (fixed latency, lossless): digest must match the "
        "sequential kernel bit for bit at every worker count");
  row({"engine", "wall s", "digest"});
  rule(3);
  const int kRingNodes = smoke ? 5 : 9;
  bool ring_ok = true;
  auto ring_t0 = Clock::now();
  const std::uint64_t ring_seq = sim::pdestest::ring_hash(kSeed, kRingNodes, false, nullptr);
  double ring_seq_wall = std::chrono::duration<double>(Clock::now() - ring_t0).count();
  char ring_hex[32];
  std::snprintf(ring_hex, sizeof ring_hex, "%016" PRIx64, ring_seq);
  row({"sequential", fmt(ring_seq_wall, 3), ring_hex});
  w.key("parallel_lane");
  w.begin_array();
  for (int workers : {1, 2, 4}) {
    sim::EngineConfig cfg;
    cfg.kind = sim::EngineKind::kParallel;
    cfg.workers = workers;
    auto t0 = Clock::now();
    const std::uint64_t h = sim::pdestest::ring_hash(kSeed, kRingNodes, false, &cfg);
    double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    std::snprintf(ring_hex, sizeof ring_hex, "%016" PRIx64, h);
    row({"parallel W=" + std::to_string(workers), fmt(wall, 3), ring_hex});
    if (h != ring_seq) ring_ok = false;
    w.begin_object();
    w.kv("workers", workers);
    w.kv("wall_s", wall);
    w.kv("hash", ring_hex);
    w.kv("matches_sequential", h == ring_seq);
    w.end_object();
  }
  w.end_array();
  w.kv("parallel_lane_ok", ring_ok);
  w.end_object();
  write_file("BENCH_kernel.json", w.take());

  std::printf(
      "\n(history_hash folds the sim-time of every fired event: identical across kernel\n"
      " implementations by contract — the pool/wheel rewrite must not change when\n"
      " anything fires, only what firing costs.)\n");
  if (!ring_ok) {
    std::printf("DETERMINISM VIOLATION: parallel ring digest diverged from sequential\n");
    return 1;
  }

  const char* enforce = std::getenv("OFTT_BENCH_ENFORCE_FLOOR");
  if (enforce != nullptr && enforce[0] != '\0' && !floor_ok) {
    std::printf("FLOOR REGRESSION: events/sec fell more than 30%% below kernel_floor.h\n");
    return 1;
  }
  return 0;
}
