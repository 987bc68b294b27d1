// Quickstart: make an application fault tolerant with one line.
//
// A process-monitoring app keeps a running total in a checkpointable
// memory region. Adding `OFTTInitialize(...)` is all it takes to get:
// primary/backup role management, periodic checkpointing to the peer
// node, failure detection, and automatic switchover.
//
// Run:  ./quickstart   (exits 1 if the switchover did not happen, or the
//                       new primary did not continue from the checkpoint)
#include <cstdio>

#include "core/api.h"
#include "core/deployment.h"
#include "example_util.h"
#include "sim/timer.h"

using namespace oftt;
using namespace oftt::examples;

namespace {

// An ordinary monitoring application: totals samples from a (simulated)
// sensor. Its only OFTT integration is the OFTTInitialize call.
class TotalizerApp {
 public:
  explicit TotalizerApp(sim::Process& process) : timer_(process.main_strand()) {
    auto& rt = nt::NtRuntime::of(process);
    rt.create_thread_static("main", 0x401000);
    region_ = &rt.memory().alloc("globals", 64);
    total_ = nt::Cell<std::int64_t>(region_, 0);

    core::OFTTInitialize(process, {});  // <-- the one line

    core::Ftim::find(process)->on_activate([this](bool restored) {
      restored_ = restored;
      std::printf("          app activated (%s)\n",
                  restored ? "state restored from checkpoint" : "cold start");
      timer_.start(sim::milliseconds(100), [this] { total_.set(total_.get() + 1); });
    });
    core::Ftim::find(process)->on_deactivate([this] { timer_.stop(); });
  }

  std::int64_t total() const { return total_.get(); }
  bool restored() const { return restored_; }

 private:
  bool restored_ = false;
  nt::Region* region_ = nullptr;
  nt::Cell<std::int64_t> total_;
  sim::PeriodicTimer timer_;
};

TotalizerApp* app_on(sim::Node& node) {
  auto proc = node.find_process("app");
  return proc && proc->alive() ? proc->find_attachment<TotalizerApp>() : nullptr;
}

std::int64_t total_on(sim::Node& node) {
  TotalizerApp* app = app_on(node);
  return app ? app->total() : -1;
}

}  // namespace

int main() {
  Logger::instance().set_level(LogLevel::kOff);
  sim::Simulation sim(/*seed=*/2026);

  banner("OFTT quickstart: redundant pair + one-line integration");
  core::PairDeploymentOptions opts;
  opts.unit = "totalizer";
  opts.app_factory = [](sim::Process& proc) { proc.attachment<TotalizerApp>(proc); };
  core::PairDeployment dep(sim, opts);

  sim.run_for(sim::seconds(5));
  note(sim, "pair formed: " + role_line(dep));
  note(sim, "primary total = " + std::to_string(total_on(dep.node_a())) +
               ", backup total = " + std::to_string(total_on(dep.node_b())) +
               " (backup copy is passive)");

  banner("Injecting a node failure on the primary");
  dep.node_a().crash();
  note(sim, "nodeA power failure injected");
  sim.run_for(sim::seconds(2));
  note(sim, "after detection + switchover: " + role_line(dep));
  const std::int64_t switched_total = total_on(dep.node_b());
  note(sim, "new primary total = " + std::to_string(switched_total) +
               " (restored from last checkpoint, then continued)");

  sim.run_for(sim::seconds(3));
  const std::int64_t final_total = total_on(dep.node_b());
  note(sim, "3 s later, total = " + std::to_string(final_total) +
               " — the unit never stopped counting");

  const std::uint64_t takeovers = sim.counter_value("oftt.takeovers");
  std::printf("\nDone. Checkpoints sent: %llu, takeovers: %llu\n",
              static_cast<unsigned long long>(sim.counter_value("oftt.checkpoints_sent")),
              static_cast<unsigned long long>(takeovers));
  const TotalizerApp* survivor = app_on(dep.node_b());
  const bool continued = dep.primary_node() == dep.node_b().id() && survivor != nullptr &&
                         survivor->restored() && switched_total > 0 &&
                         final_total > switched_total;
  if (takeovers == 0 || !continued) {
    std::printf("FAILED: no switchover that continued from the checkpoint\n");
    return 1;
  }
  return 0;
}
