// The paper's §4 demonstration, end to end.
//
// "The application keeps track of the usage of a simulated small office
// telephone system that consists of 5 telephone lines and 10 callers.
// Numbers of busy lines are displayed in the histogram."
//
// Hardware configuration (Fig. 3): two redundant nodes run the Call
// Track application (linked to the OFTT client FTIM) and the OFTT
// engine; the third PC runs the System Monitor, the Telephone System
// Simulator and the Calling History generator. We demonstrate continued
// operation through the paper's four failure classes:
//   (a) node failure, (b) NT crash, (c) application software failure,
//   (d) OFTT middleware failure.
//
// Run:  ./calltrack
#include <cstdio>

#include "core/api.h"
#include "core/deployment.h"
#include "core/diverter.h"
#include "example_util.h"
#include "msmq/queue_manager.h"
#include "opc/devices/telephone.h"
#include "sim/timer.h"

using namespace oftt;
using namespace oftt::examples;

namespace {

constexpr const char* kEventQueue = "calltrack.events";
constexpr int kLines = 5;

// ---------------------------------------------------------------------
// The Call Track application (runs on both pair nodes; client FTIM).
// State layout in the "globals" region — all of it checkpointed:
//   [0..7]   events processed
//   [8..15]  current busy-line count
//   [16..]   histogram: samples observed at busy level 0..kLines
// ---------------------------------------------------------------------
class CallTrackApp {
 public:
  explicit CallTrackApp(sim::Process& process)
      : process_(&process), sample_timer_(process.main_strand()) {
    auto& rt = nt::NtRuntime::of(process);
    rt.create_thread_static("calltrack_main", 0x401000);
    region_ = &rt.memory().alloc("globals", 128);
    events_ = nt::Cell<std::int64_t>(region_, 0);
    busy_ = nt::Cell<std::int64_t>(region_, 8);

    core::FtimOptions opts;
    opts.component = "calltrack";
    opts.checkpoint_period = sim::milliseconds(250);
    core::OFTTInitialize(process, opts);

    core::Ftim& ftim = *core::Ftim::find(process);
    ftim.on_activate([this](bool restored) {
      std::printf("          calltrack on %s activated (%s, %lld events so far)\n",
                  process_->node().name().c_str(),
                  restored ? "restored" : "cold",
                  static_cast<long long>(events_.get()));
      msmq::MsmqApi::of(*process_).subscribe(kEventQueue, [this](const msmq::Message& m) {
        on_event(m);
      });
      sample_timer_.start(sim::milliseconds(100), [this] { sample_histogram(); });
    });
    ftim.on_deactivate([this] { sample_timer_.stop(); });
  }

  std::int64_t events() const { return events_.get(); }
  std::int64_t histogram_bin(int busy) const {
    return region_->read<std::int64_t>(16 + static_cast<std::size_t>(busy) * 8);
  }
  std::int64_t histogram_total() const {
    std::int64_t sum = 0;
    for (int i = 0; i <= kLines; ++i) sum += histogram_bin(i);
    return sum;
  }

  std::string histogram_ascii() const {
    std::string out;
    std::int64_t total = std::max<std::int64_t>(histogram_total(), 1);
    for (int i = 0; i <= kLines; ++i) {
      char line[96];
      int bars = static_cast<int>(histogram_bin(i) * 50 / total);
      std::snprintf(line, sizeof line, "  %d busy |%-50s| %lld\n", i,
                    std::string(static_cast<std::size_t>(bars), '#').c_str(),
                    static_cast<long long>(histogram_bin(i)));
      out += line;
    }
    return out;
  }

  static CallTrackApp* find(sim::Node& node) {
    auto proc = node.find_process("calltrack");
    return proc && proc->alive() ? proc->find_attachment<CallTrackApp>() : nullptr;
  }

 private:
  void on_event(const msmq::Message& m) {
    opc::CallEvent e;
    if (!opc::CallEvent::decode(m.body, e)) return;
    if (e.kind == opc::CallEvent::Kind::kStart) {
      busy_.set(std::min<std::int64_t>(busy_.get() + 1, kLines));
    } else if (e.kind == opc::CallEvent::Kind::kEnd) {
      busy_.set(std::max<std::int64_t>(busy_.get() - 1, 0));
    }
    events_.set(events_.get() + 1);
    // Event-based checkpoint: processed history survives any failure.
    core::OFTTSave(*process_);
  }

  void sample_histogram() {
    auto bin = static_cast<std::size_t>(busy_.get());
    std::size_t off = 16 + bin * 8;
    region_->write<std::int64_t>(off, region_->read<std::int64_t>(off) + 1);
  }

  sim::Process* process_;
  nt::Region* region_ = nullptr;
  nt::Cell<std::int64_t> events_;
  nt::Cell<std::int64_t> busy_;
  sim::PeriodicTimer sample_timer_;
};

// ---------------------------------------------------------------------
// Test-PC software (Table 1): telephone simulator + history generator.
// ---------------------------------------------------------------------
struct TestPcSoftware {
  std::shared_ptr<opc::TelephoneSystem> telephone;
  std::shared_ptr<core::MessageDiverter> diverter;
};

TestPcSoftware install_test_pc(core::PairDeployment& dep) {
  TestPcSoftware sw;
  auto telsim = dep.monitor_node().start_process("telsim", nullptr);

  core::DiverterOptions dopts;
  dopts.unit = "calltrack";
  dopts.queue = kEventQueue;
  dopts.node_a = dep.node_a().id();
  dopts.node_b = dep.node_b().id();
  sw.diverter = std::make_shared<core::MessageDiverter>(*telsim, dopts);
  telsim->add_component(sw.diverter);

  opc::TelephoneSystem::Config tcfg;
  tcfg.lines = kLines;
  tcfg.callers = 10;
  tcfg.mean_think_s = 6.0;
  tcfg.mean_hold_s = 5.0;
  sw.telephone = std::make_shared<opc::TelephoneSystem>(tcfg);
  auto diverter = sw.diverter;
  sw.telephone->set_event_listener(
      [diverter](const opc::CallEvent& e) { diverter->send("call", e.encode()); });
  sw.telephone->start(telsim->main_strand(), telsim->sim().fork_rng("telsim"));
  telsim->add_component(sw.telephone);

  // Calling History generator: replays synthetic history records into
  // the same unit (a second non-replicated source).
  auto histgen = dep.monitor_node().start_process("histgen", nullptr);
  core::DiverterOptions hopts = dopts;
  auto hist_diverter = std::make_shared<core::MessageDiverter>(*histgen, hopts);
  histgen->add_component(hist_diverter);
  auto timer = std::make_shared<sim::PeriodicTimer>(histgen->main_strand());
  timer->start(sim::seconds(2), [hist_diverter] {
    opc::CallEvent e;  // a no-op history marker record
    e.kind = opc::CallEvent::Kind::kBlocked;
    e.caller = -1;
    hist_diverter->send("history", e.encode());
  });
  histgen->add_component(timer);
  return sw;
}

void show_state(sim::Simulation& sim, core::PairDeployment& dep, const char* when) {
  int primary = dep.primary_node();
  std::printf("\n-- %s --\n   roles: %s\n", when, role_line(dep).c_str());
  if (primary < 0) {
    std::printf("   (no primary)\n");
    return;
  }
  CallTrackApp* app = CallTrackApp::find(*dep.node_by_id(primary));
  if (app == nullptr) {
    std::printf("   (calltrack app not running on primary)\n");
    return;
  }
  std::printf("   primary: node %d, %lld call events processed\n", primary,
              static_cast<long long>(app->events()));
  std::printf("   busy-line histogram (time samples per level):\n%s",
              app->histogram_ascii().c_str());
  (void)sim;
}

}  // namespace

int main() {
  Logger::instance().set_level(LogLevel::kOff);
  sim::Simulation sim(/*seed=*/1955);

  banner("Call Track demonstration (paper section 4)");
  core::PairDeploymentOptions opts;
  opts.unit = "calltrack";
  opts.app_process = "calltrack";
  opts.app_factory = [](sim::Process& proc) { proc.attachment<CallTrackApp>(proc); };
  core::PairDeployment dep(sim, opts);
  TestPcSoftware test_pc = install_test_pc(dep);

  sim.run_for(sim::seconds(30));
  show_state(sim, dep, "steady state after 30 s of call traffic");

  banner("(a) node failure");
  dep.node_a().crash();
  note(sim, "nodeA power failure injected");
  sim.run_for(sim::seconds(30));
  show_state(sim, dep, "30 s after node failure");
  dep.node_a().boot();
  sim.run_for(sim::seconds(10));
  note(sim, "nodeA repaired and rejoined: " + role_line(dep));

  banner("(b) NT crash (blue screen of death)");
  dep.node_b().os_crash(sim::seconds(15));
  note(sim, "nodeB blue-screened; will auto-reboot in 15 s");
  sim.run_for(sim::seconds(30));
  show_state(sim, dep, "30 s after NT crash (nodeB rebooted and rejoined)");

  banner("(c) application software failure");
  {
    int primary = dep.primary_node();
    dep.node_by_id(primary)->find_process("calltrack")->kill("injected app fault");
    note(sim, "calltrack application crashed on primary");
  }
  sim.run_for(sim::seconds(30));
  show_state(sim, dep, "30 s after application failure (local restart)");

  banner("(d) OFTT middleware failure");
  {
    int primary = dep.primary_node();
    dep.node_by_id(primary)->find_process("oftt_engine")->kill("injected middleware fault");
    note(sim, "OFTT engine killed on primary");
  }
  sim.run_for(sim::seconds(30));
  show_state(sim, dep, "30 s after middleware failure");

  banner("Result");
  std::printf(
      "telephone simulator: %llu calls placed, %llu blocked; unit processed events through "
      "all four failure classes without losing its history.\n",
      static_cast<unsigned long long>(test_pc.telephone->total_calls()),
      static_cast<unsigned long long>(test_pc.telephone->blocked_calls()));
  std::printf("takeovers: %llu, local restarts: %llu, engine restarts: %llu\n",
              static_cast<unsigned long long>(sim.counter_value("oftt.takeovers")),
              static_cast<unsigned long long>(sim.counter_value("oftt.local_restarts")),
              static_cast<unsigned long long>(sim.counter_value("oftt.engine_restarts")));
  if (auto* monitor = dep.monitor()) {
    std::printf("\nSystem Monitor board:\n%s", monitor->render().c_str());
  }
  if (dep.primary_node() < 0) {
    std::printf("FAILED: the unit ended without a primary\n");
    return 1;
  }
  return 0;
}
