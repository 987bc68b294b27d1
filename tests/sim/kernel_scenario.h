// A fixed, kernel-exercising scenario whose entire event history is
// folded into one FNV-1a hash. The hash for seed 42 was captured on the
// pre-pool kernel (shared_ptr tombstones + std::function heap) and is
// pinned in kernel_test.cpp: the slab-pool/timer-wheel kernel must
// reproduce it bit for bit. Determinism is the contract — the kernel
// rewrite may only change what an event costs, never when it fires.
//
// The scenario deliberately crosses every kernel lane: strand-gated
// periodic timers (wheel), lossy/duplicating network delivery (wheel,
// short latencies), long-delay fault injections and reboots (heap),
// cancels that win and cancels that lose the race against firing, and
// strand hangs (liveness gating at dispatch).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/strings.h"
#include "sim/fault_plan.h"
#include "sim/simulation.h"
#include "sim/timer.h"

namespace oftt::sim::testhash {

inline void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 1099511628211ull;
  }
}

inline std::uint64_t kernel_scenario_hash(std::uint64_t seed) {
  Simulation sim(seed);
  std::uint64_t h = 14695981039346656037ull;

  Network& net = sim.add_network("lan");
  net.set_latency(milliseconds(1), milliseconds(5));
  net.set_loss(0.2);
  net.set_duplicate(0.1);

  constexpr int kNodes = 3;
  struct App {
    explicit App(Process& p) : ticker(p.main_strand()), aux(nullptr) {}
    PeriodicTimer ticker;
    std::unique_ptr<PeriodicTimer> aux;
  };
  for (int n = 0; n < kNodes; ++n) {
    Node& node = sim.add_node(cat("n", n));
    net.attach(node.id());
    node.set_boot_script([&sim, &h](Node& self) {
      const int dst = (self.id() + 1) % kNodes;
      self.start_process("app", [&sim, &h, dst](Process& p) {
        auto app = std::make_shared<App>(p);
        const PortId x = sim.port("x");
        p.bind(x, [&h, &sim](const Datagram& d) {
          fold(h, static_cast<std::uint64_t>(sim.now()) * 3 + d.payload.size());
        });
        app->ticker.start(milliseconds(10), [&h, &sim, &p, dst, x] {
          fold(h, static_cast<std::uint64_t>(sim.now()));
          p.send(0, dst, x, Buffer{1, 2, 3}, x);
        });
        Strand& aux_strand = p.create_strand("aux");
        app->aux = std::make_unique<PeriodicTimer>(aux_strand);
        app->aux->start(milliseconds(37), [&h, &sim] {
          fold(h, static_cast<std::uint64_t>(sim.now()) ^ 0x55);
        });
        p.add_component(std::move(app));
      });
    });
    node.boot();
  }

  // Cancel races: a driver every 50 ms schedules a 30 ms "timeout" and
  // a canceller; on even rounds the cancel (at +10 ms) beats the fire,
  // on odd rounds it loses (at +40 ms) and must be a harmless no-op.
  auto round = std::make_shared<int>(0);
  auto racer = std::make_shared<std::function<void()>>();
  *racer = [&sim, &h, round, racer] {
    fold(h, static_cast<std::uint64_t>(sim.now()) + 17);
    EventHandle timeout = sim.schedule_after(milliseconds(30), [&sim, &h] {
      fold(h, static_cast<std::uint64_t>(sim.now()) ^ 0x77);
    });
    SimTime cancel_at = (*round % 2 == 0) ? milliseconds(10) : milliseconds(40);
    sim.schedule_after(cancel_at, [&sim, &h, timeout]() mutable {
      fold(h, timeout.valid() ? 0xC1 : 0xC0);
      sim.cancel(timeout);
    });
    ++*round;
    sim.schedule_after(milliseconds(50), [racer] { (*racer)(); });
  };
  sim.schedule_after(milliseconds(25), [racer] { (*racer)(); });

  FaultPlan plan(sim);
  plan.os_crash(seconds(2), 1, /*reboot_after=*/seconds(1));
  plan.crash_node(seconds(4), 2);
  plan.boot_node(seconds(5), 2);
  plan.hang_strand(seconds(6), 0, "app", "aux");
  plan.link(seconds(7), 0, 0, 1, /*up=*/false);
  plan.link(milliseconds(7800), 0, 0, 1, /*up=*/true);
  plan.arm();

  sim.run_until(seconds(10));
  // The cancel-race closure holds itself (to reschedule); break the
  // cycle so it is freed with the events still queued.
  *racer = nullptr;

  for (const auto& inj : plan.journal()) fold(h, static_cast<std::uint64_t>(inj.at));
  fold(h, net.delivered());
  fold(h, net.dropped());
  for (int n = 0; n < kNodes; ++n) {
    fold(h, static_cast<std::uint64_t>(sim.node(n).boot_count()));
  }
  return h;
}

}  // namespace oftt::sim::testhash
