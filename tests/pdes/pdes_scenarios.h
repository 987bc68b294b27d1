// Shared scenarios for the parallel-engine determinism tests and the
// bench_pdes speedup curves.
//
// Each scenario folds its observable history into per-node hash cells
// (plus one global cell for coordinator-context callbacks) and combines
// them at the end. Per-node cells are the parallel-safe analogue of
// kernel_scenario.h's single shared hash: within one node the fold
// order is that node's own event order — deterministic and identical
// for any worker count — while a single shared cell would additionally
// pin the *interleaving* between nodes, which no parallel execution
// (not even one worker, which runs shard-by-shard inside a window)
// reproduces.
//
// Two determinism contracts, per DESIGN §7.18:
//   - clean_ring_hash draws no rng at all (fixed latency, lossless), so
//     its digest is identical between kSequential and kParallel at any
//     worker count — the strongest cross-engine equality we can pin.
//   - the lossy/swim/opc scenarios draw rng; sequential mode draws from
//     the shared network stream, parallel mode from per-source-node
//     substreams, so their histories legitimately differ *between
//     engines* but must be byte-identical across 1/2/4 workers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chaos/coverage.h"
#include "common/strings.h"
#include "core/deployment.h"
#include "opc/tag_store.h"
#include "opc/value.h"
#include "sim/fault_plan.h"
#include "sim/simulation.h"
#include "sim/timer.h"

namespace oftt::sim::pdestest {

inline void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 1099511628211ull;
  }
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

struct Digest {
  std::vector<std::uint64_t> node_cells;
  std::uint64_t global = kFnvOffset;

  explicit Digest(int nodes) : node_cells(static_cast<std::size_t>(nodes), kFnvOffset) {}

  std::uint64_t& cell(int node) { return node_cells[static_cast<std::size_t>(node)]; }

  std::uint64_t combined() const {
    std::uint64_t h = global;
    for (std::uint64_t c : node_cells) fold(h, c);
    return h;
  }
};

struct RingApp {
  explicit RingApp(Process& p) : ticker(p.main_strand()) {}
  PeriodicTimer ticker;
};

/// N-node ring on one network: node i ticks every 10 ms (phase-shifted
/// per node so no two events on one node ever share a timestamp) and
/// sends to node (i+1)%N; receivers fold arrival times. A FaultPlan
/// crashes and reboots a node mid-run, and a global cancel-race driver
/// exercises the coordinator path. `lossy` adds loss/dup/latency jitter
/// (rng); without it the scenario makes no rng draw at all.
inline std::uint64_t ring_hash(std::uint64_t seed, int nodes, bool lossy,
                               const EngineConfig* engine) {
  Simulation sim(seed);
  if (engine != nullptr) sim.set_engine(*engine);
  auto digest = std::make_shared<Digest>(nodes);

  Network& net = sim.add_network("lan");
  if (lossy) {
    net.set_latency(milliseconds(1), milliseconds(5));
    net.set_loss(0.2);
    net.set_duplicate(0.1);
  } else {
    net.set_latency(milliseconds(1), milliseconds(1));
  }

  for (int n = 0; n < nodes; ++n) {
    Node& node = sim.add_node(cat("n", n));
    net.attach(node.id());
    node.set_boot_script([&sim, digest, nodes](Node& self) {
      const int id = self.id();
      const int dst = (id + 1) % nodes;
      self.start_process("app", [&sim, digest, id, dst](Process& p) {
        auto app = std::make_shared<RingApp>(p);
        p.bind("x", [&sim, digest, id](const Datagram& d) {
          fold(digest->cell(id), static_cast<std::uint64_t>(sim.now()) * 3 + d.payload.size());
        });
        app->ticker.start(
            milliseconds(10),
            [&sim, digest, id, dst, &p] {
              fold(digest->cell(id), static_cast<std::uint64_t>(sim.now()));
              p.send(0, dst, "x", Buffer{1, 2, 3}, "x");
            },
            /*initial_delay=*/microseconds(100 + 37 * id));
        p.add_component(std::move(app));
      });
    });
    node.boot();
  }

  // Global cancel-race driver (coordinator context end to end).
  auto round = std::make_shared<int>(0);
  auto racer = std::make_shared<std::function<void()>>();
  *racer = [&sim, digest, round, racer] {
    fold(digest->global, static_cast<std::uint64_t>(sim.now()) + 17);
    EventHandle timeout = sim.schedule_after(milliseconds(30), [&sim, digest] {
      fold(digest->global, static_cast<std::uint64_t>(sim.now()) ^ 0x77);
    });
    SimTime cancel_at = (*round % 2 == 0) ? milliseconds(10) : milliseconds(40);
    sim.schedule_after(cancel_at, [&sim, digest, timeout]() mutable {
      fold(digest->global, timeout.valid() ? 0xC1 : 0xC0);
      sim.cancel(timeout);
    });
    ++*round;
    sim.schedule_after(milliseconds(50), [racer] { (*racer)(); });
  };
  sim.schedule_after(microseconds(25'501), [racer] { (*racer)(); });

  FaultPlan plan(sim);
  if (nodes > 1) {
    plan.os_crash(seconds(1), 1, /*reboot_after=*/milliseconds(500));
  }
  plan.arm();

  sim.run_until(seconds(3));
  // The cancel-race closure holds itself (to reschedule); break the
  // cycle so it is freed with the events still queued.
  *racer = nullptr;

  for (const auto& inj : plan.journal()) {
    fold(digest->global, static_cast<std::uint64_t>(inj.at));
  }
  fold(digest->global, net.sent());
  fold(digest->global, net.delivered());
  fold(digest->global, net.dropped());
  for (int n = 0; n < nodes; ++n) {
    fold(digest->global, static_cast<std::uint64_t>(sim.node(n).boot_count()));
  }
  return digest->combined();
}

/// SWIM-detection cluster (the N-replica deployment the swim subsystem
/// is benched on) with a mid-run crash + reboot; digest is the
/// telemetry history hash plus role/network observables.
inline std::uint64_t swim_cluster_hash(std::uint64_t seed, int replicas, SimTime run_for,
                                       const EngineConfig* engine) {
  Simulation sim(seed);
  if (engine != nullptr) sim.set_engine(*engine);

  core::ClusterDeploymentOptions opts;
  opts.replicas = replicas;
  opts.with_msmq = false;
  opts.with_scm = false;
  core::ClusterDeployment dep(sim, opts);

  chaos::CoverageProbe probe(sim.telemetry());

  FaultPlan plan(sim);
  plan.os_crash(run_for / 2, /*node=*/1, /*reboot_after=*/run_for / 4);
  plan.arm();

  sim.run_until(run_for);
  probe.finish();

  std::uint64_t h = probe.history_hash();
  fold(h, static_cast<std::uint64_t>(dep.primary_node()));
  for (int i = 0; i < replicas; ++i) {
    core::Engine* eng = dep.engine(i);
    fold(h, eng != nullptr ? eng->takeovers() : 0xDEAD);
  }
  Network& net = sim.network(0);
  fold(h, net.sent());
  fold(h, net.delivered());
  fold(h, net.dropped());
  return h;
}

struct TagFarmApp {
  TagFarmApp(Process& p, int tags) : store(32), ticker(p.main_strand()) {
    for (int i = 0; i < tags; ++i) store.intern(cat("t", i));
    for (int i = 0; i < tags; ++i) {
      store.set(static_cast<opc::TagId>(i), opc::OpcValue::from_real(0.0),
                opc::Quality::kGood, p.sim().now());
    }
  }
  opc::TagStore store;
  PeriodicTimer ticker;
  std::uint32_t tick_count = 0;
};

/// OPC tag farm: `producers` nodes each own a TagStore slice of the
/// plant (total tag count = producers * tags_per_node); every 20 ms a
/// producer rewrites a round-robin window of its tags and reports a
/// value checksum to a collector node, which folds arrivals. Slightly
/// lossy network, so parallel runs are compared across worker counts.
inline std::uint64_t opc_farm_hash(std::uint64_t seed, int producers, int tags_per_node,
                                   SimTime run_for, const EngineConfig* engine) {
  Simulation sim(seed);
  if (engine != nullptr) sim.set_engine(*engine);
  auto digest = std::make_shared<Digest>(producers + 1);

  Network& net = sim.add_network("plantlan");
  net.set_latency(milliseconds(1), milliseconds(3));
  net.set_loss(0.01);

  const int collector = producers;  // node id of the collector
  for (int n = 0; n < producers; ++n) {
    Node& node = sim.add_node("plc" + std::to_string(n));
    net.attach(node.id());
    node.set_boot_script([&sim, digest, tags_per_node, collector](Node& self) {
      const int id = self.id();
      self.start_process("app", [&sim, digest, id, tags_per_node, collector](Process& p) {
        auto app = std::make_shared<TagFarmApp>(p, tags_per_node);
        TagFarmApp* a = app.get();
        app->ticker.start(
            milliseconds(20),
            [&sim, digest, id, tags_per_node, collector, a, &p] {
              ++a->tick_count;
              const SimTime now = sim.now();
              const int window = 64;
              std::uint64_t checksum = kFnvOffset;
              for (int c = 0; c < window; ++c) {
                auto tag = static_cast<opc::TagId>(
                    (a->tick_count * static_cast<std::uint32_t>(window) +
                     static_cast<std::uint32_t>(c)) %
                    static_cast<std::uint32_t>(tags_per_node));
                a->store.set(tag, opc::OpcValue::from_real(static_cast<double>(a->tick_count)),
                             opc::Quality::kGood, now);
                fold(checksum, static_cast<std::uint64_t>(tag));
              }
              fold(digest->cell(id), checksum);
              Buffer report(8);
              for (int b = 0; b < 8; ++b) {
                report[static_cast<std::size_t>(b)] =
                    static_cast<std::uint8_t>(checksum >> (b * 8));
              }
              p.send(0, collector, "tags", std::move(report), "tags");
            },
            /*initial_delay=*/microseconds(200 + 53 * id));
        p.add_component(std::move(app));
      });
    });
    node.boot();
  }

  Node& sink = sim.add_node("historian");
  net.attach(sink.id());
  sink.set_boot_script([&sim, digest, collector](Node& self) {
    self.start_process("collector", [&sim, digest, collector](Process& p) {
      p.bind("tags", [&sim, digest, collector](const Datagram& d) {
        std::uint64_t word = 0;
        for (std::size_t b = 0; b < d.payload.size() && b < 8; ++b) {
          word |= static_cast<std::uint64_t>(d.payload[b]) << (b * 8);
        }
        fold(digest->cell(collector), static_cast<std::uint64_t>(sim.now()) ^ word);
      });
    });
  });
  sink.boot();

  sim.run_until(run_for);

  fold(digest->global, net.sent());
  fold(digest->global, net.delivered());
  fold(digest->global, net.dropped());
  return digest->combined();
}

}  // namespace oftt::sim::pdestest
