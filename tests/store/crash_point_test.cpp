// Crash-point harness: power fails right after a node's k-th disk write,
// for every k each node makes in the scenario's scripted window, and
// again with write k torn (a write_at that keeps half of its bytes and
// is refused). Later writes in that event are refused (sim::DiskStore's
// write budget) and the node crashes when the event ends. 356 crash points in all: 250 in
// the pair scenario, 106 in the queue-manager one. After the reboot and
// a drain:
//   * every recoverable message that some queue manager had made durable
//     by write k has reached a consumer at least once;
//   * every checkpoint the backup had acknowledged by write k is
//     restorable from its journal with recover_image.
// It also counts the diverter's journal replays of messages that no
// queue manager had made durable: the window only that journal covers.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/api.h"
#include "core/deployment.h"
#include "core/diverter.h"
#include "msmq/queue_manager.h"
#include "sim/disk.h"
#include "store/journal.h"

namespace oftt {
namespace {

using sim::milliseconds;
using sim::seconds;
using sim::SimTime;

constexpr std::uint64_t kNoBudget = ~std::uint64_t{0};

Buffer body_of(std::int64_t seq) {
  BinaryWriter w;
  w.i64(seq);
  return std::move(w).take();
}

std::int64_t seq_of(ByteView body) {
  BinaryReader r(body);
  return r.i64();
}

/// Bodies of the recoverable messages a node's queue manager would
/// restore if the node rebooted now, read from its journal.
std::set<std::int64_t> qm_durable(sim::Simulation& sim, int node) {
  std::set<std::int64_t> out;
  const store::Journal journal(sim, node, msmq::QueueManager::kJournal);
  const msmq::QueueManager::JournalImage img = msmq::QueueManager::replay(journal);
  for (const auto& [key, m] : img.local) out.insert(seq_of(m.body));
  for (const auto& [id, m] : img.outgoing) out.insert(seq_of(m.body));
  return out;
}

/// What one run observed.
struct Outcome {
  bool crashed = false;
  std::set<std::int64_t> ever_durable;  // made durable by some QM up to the crash
  std::set<std::int64_t> delivered;     // reached a consumer handler
  std::uint64_t acked_seq = 0;          // backup-acknowledged checkpoint at the crash
  std::uint64_t restorable_seq = 0;     // recover_image().last_id on the backup then
  bool image_valid = true;
  std::uint64_t unprotected_redrives = 0;  // diverter replays no QM had made durable

  std::vector<std::int64_t> lost() const {
    std::vector<std::int64_t> out;
    for (std::int64_t s : ever_durable) {
      if (delivered.count(s) == 0) out.push_back(s);
    }
    return out;
  }
};

/// Steps the simulation to `until`, folding the QM-durable sets of
/// `nodes` after every event that wrote to a disk, and crashes
/// `target` at the end of the event that spends its write budget.
class Stepper {
 public:
  Stepper(sim::Simulation& sim, std::vector<int> nodes, int target, Outcome& out)
      : sim_(sim), nodes_(std::move(nodes)), target_(target), out_(out) {}

  /// Runs the hook at the crash instant, before the node goes down.
  std::function<void()> on_crash;
  SimTime reboot_after = seconds(1);

  void run_until(SimTime until) {
    auto& disk = sim::DiskStore::of(sim_);
    while (sim_.now() < until && sim_.step()) {
      std::uint64_t writes = 0;
      for (int n : nodes_) writes += disk.writes(n);
      if (writes != seen_writes_) {
        seen_writes_ = writes;
        for (int n : nodes_) {
          for (std::int64_t s : qm_durable(sim_, n)) out_.ever_durable.insert(s);
        }
      }
      if (target_ >= 0 && !out_.crashed && disk.write_budget_spent(target_)) {
        out_.crashed = true;
        if (on_crash) on_crash();
        sim::Node& node = sim_.node(target_);
        node.crash();
        disk.set_write_budget(target_, kNoBudget);
        node.reboot(reboot_after);
      }
      if (after_event) after_event();
    }
  }

  std::function<void()> after_event;

 private:
  sim::Simulation& sim_;
  std::vector<int> nodes_;
  int target_;
  Outcome& out_;
  std::uint64_t seen_writes_ = ~std::uint64_t{0};
};

// ---------------------------------------------------------------------
// Pair scenario: a diverter streams recoverable messages to the unit's
// primary across a switchover (the primary crashes mid-stream); the
// consumer checkpoints after every message. The drain fails over twice
// more so each node's restored queue meets an active consumer.
// ---------------------------------------------------------------------

constexpr int kPairMessages = 16;

class LoggingConsumer {
 public:
  LoggingConsumer(sim::Process& process, std::set<std::int64_t>* log)
      : process_(&process), log_(log) {
    auto& rt = nt::NtRuntime::of(process);
    region_ = &rt.memory().alloc("globals", 64);
    processed_ = nt::Cell<std::int64_t>(region_, 0);
    core::OFTTInitialize(process, core::FtimOptions{});
    core::Ftim::find(process)->on_activate([this](bool) {
      msmq::MsmqApi::of(*process_).subscribe(core::kDiverterQueue,
                                            [this](const msmq::Message& m) {
        log_->insert(seq_of(m.body));
        processed_.set(processed_.get() + 1);
        core::OFTTSave(*process_);
      });
    });
  }

 private:
  sim::Process* process_;
  std::set<std::int64_t>* log_;
  nt::Region* region_ = nullptr;
  nt::Cell<std::int64_t> processed_;
};

struct PairRun {
  std::vector<std::uint64_t> writes;  // per node, over the scripted window
  Outcome out;
};

PairRun run_pair(int target, std::uint64_t k, bool torn) {
  PairRun run;
  sim::Simulation sim(41);
  core::PairDeploymentOptions opts;
  opts.with_diverter = true;
  std::set<std::int64_t>* log = &run.out.delivered;
  opts.app_factory = [log](sim::Process& proc) { proc.attachment<LoggingConsumer>(proc, log); };
  core::PairDeployment dep(sim, opts);
  const std::vector<int> nodes = {dep.node_a().id(), dep.node_b().id(),
                                  dep.monitor_node().id()};
  sim.run_for(seconds(3));
  auto& disk = sim::DiskStore::of(sim);
  std::vector<std::uint64_t> base;
  for (int n : nodes) base.push_back(disk.writes(n));
  if (target >= 0) disk.set_write_budget(target, k, torn);

  const SimTime start = sim.now();
  for (int i = 0; i < kPairMessages; ++i) {
    sim.schedule_at(start + i * milliseconds(25), [&dep, i] {
      if (core::MessageDiverter* d = dep.diverter()) {
        d->send("m", body_of(i), msmq::DeliveryMode::kRecoverable);
      }
    });
  }
  const auto crash_primary = [&dep] {
    const int p = dep.primary_node();
    if (p < 0) return;
    dep.node_by_id(p)->crash();
    dep.node_by_id(p)->reboot(seconds(1));
  };
  const SimTime stream_end = start + kPairMessages * milliseconds(25);
  sim.schedule_at(start + (kPairMessages / 2) * milliseconds(25), crash_primary);
  sim.schedule_at(stream_end + seconds(5), crash_primary);
  sim.schedule_at(stream_end + seconds(11), crash_primary);

  Stepper stepper(sim, nodes, target, run.out);
  std::uint64_t acked_before = 0;
  stepper.after_event = [&] {
    const int p = dep.primary_node();
    core::Ftim* f = p >= 0 ? dep.ftim_on(*dep.node_by_id(p)) : nullptr;
    acked_before = f != nullptr ? f->peer_acked_seq() : 0;
  };
  stepper.on_crash = [&] {
    // What the backup had acknowledged when the event began, and what
    // its journal restores now.
    const int b = dep.backup_node();
    if (b < 0 || acked_before == 0) return;
    run.out.acked_seq = acked_before;
    store::Journal j(sim, b, "oftt.jrnl.app");
    store::RecoveredImage img = j.recover_image();
    run.out.image_valid = img.valid;
    run.out.restorable_seq = img.last_id;
    if (target != dep.monitor_node().id()) return;
    store::Journal sends(sim, target, "oftt.dvrt.unit");
    sends.scan([&](const store::RecordView& r) {
      core::JournaledSend js;
      if (!core::JournaledSend::decode(r.payload, js)) return;
      if (run.out.ever_durable.count(seq_of(js.body)) == 0) ++run.out.unprotected_redrives;
    });
  };
  stepper.run_until(stream_end + seconds(2));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    run.writes.push_back(disk.writes(nodes[i]) - base[i]);
  }
  stepper.run_until(stream_end + seconds(18));
  return run;
}

// ---------------------------------------------------------------------
// QM-only scenario: node a sends to queues routed to node b while b is
// down; one queue is routed home (set_route(q, -1)) and the other's
// transfers exhaust their time-to-reach-queue and are dead-lettered.
// ---------------------------------------------------------------------

struct QmRun {
  std::vector<std::uint64_t> writes;
  Outcome out;
};

QmRun run_qm(std::uint64_t k_node, std::uint64_t k, bool torn, bool crash) {
  QmRun run;
  sim::Simulation sim(43);
  sim::Node& a = sim.add_node("a");
  sim::Node& b = sim.add_node("b");
  auto& net = sim.add_network("lan");
  net.attach(a.id());
  net.attach(b.id());
  std::set<std::int64_t>* log = &run.out.delivered;
  bool q_home = false;
  const auto consume = [log](sim::Node& node, std::vector<std::string> queues) {
    node.start_process("app", [log, queues](sim::Process& proc) {
      for (const std::string& q : queues) {
        msmq::MsmqApi::of(proc).subscribe(
            q, [log](const msmq::Message& m) { log->insert(seq_of(m.body)); });
      }
    });
  };
  a.set_boot_script([&, consume](sim::Node& node) {
    msmq::QueueManager::install(node);
    msmq::QueueManager* qm = msmq::QueueManager::find(node);
    qm->config().time_to_reach_queue = seconds(1);
    qm->set_route("q", q_home ? -1 : b.id());
    qm->set_route("t", b.id());
    consume(node, {"q", "t", msmq::kDeadLetterQueue});
    node.start_process("src", nullptr);
  });
  b.set_boot_script([consume](sim::Node& node) {
    msmq::QueueManager::install(node);
    consume(node, {"q", "t"});
  });
  a.boot();
  b.boot();
  sim.run_for(milliseconds(50));
  b.crash();
  b.reboot(seconds(3));
  auto& disk = sim::DiskStore::of(sim);
  const std::vector<int> nodes = {a.id(), b.id()};
  std::vector<std::uint64_t> base;
  for (int n : nodes) base.push_back(disk.writes(n));
  const int target = crash ? nodes[k_node] : -1;
  if (crash) disk.set_write_budget(target, k, torn);

  const SimTime start = sim.now();
  const auto send = [&a](const char* queue, std::int64_t seq) {
    auto src = a.find_process("src");
    if (!src || !src->alive()) return;
    msmq::MsmqApi::of(*src).send(queue, "m", body_of(seq), msmq::DeliveryMode::kRecoverable);
  };
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(start + i * milliseconds(40), [send, i] { send("q", i); });
    sim.schedule_at(start + i * milliseconds(40) + milliseconds(20),
                    [send, i] { send("t", 100 + i); });
  }
  sim.schedule_at(start + milliseconds(500), [&] {
    q_home = true;
    if (msmq::QueueManager* qm = msmq::QueueManager::find(a)) qm->set_route("q", -1);
  });
  for (int i = 0; i < 3; ++i) {
    sim.schedule_at(start + seconds(4) + i * milliseconds(40), [send, i] { send("t", 200 + i); });
  }

  Stepper stepper(sim, nodes, target, run.out);
  stepper.run_until(start + seconds(5));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    run.writes.push_back(disk.writes(nodes[i]) - base[i]);
  }
  stepper.run_until(start + seconds(12));
  return run;
}

std::string describe(const Outcome& o) {
  std::string s;
  for (std::int64_t l : o.lost()) s += " lost#" + std::to_string(l);
  if (o.acked_seq > 0 && (!o.image_valid || o.restorable_seq < o.acked_seq)) {
    s += " ckpt acked " + std::to_string(o.acked_seq) + " restorable " +
         std::to_string(o.restorable_seq);
  }
  return s;
}

TEST(CrashPoints, PairWithDiverterAcrossASwitchover) {
  const PairRun clean = run_pair(-1, 0, false);
  ASSERT_TRUE(clean.out.lost().empty()) << describe(clean.out);
  ASSERT_EQ(clean.out.delivered.size(), static_cast<std::size_t>(kPairMessages));
  const int nodes[] = {0, 1, 2};  // nodeA, nodeB, testpc (the diverter)
  std::vector<std::string> failures;
  std::uint64_t points = 0;
  std::uint64_t redrives = 0;
  for (int n : nodes) {
    for (std::uint64_t k = 1; k <= clean.writes[static_cast<std::size_t>(n)]; ++k) {
      for (bool torn : {false, true}) {
        const PairRun r = run_pair(n, k, torn);
        ++points;
        redrives += r.out.unprotected_redrives;
        const std::string d = describe(r.out);
        if (!d.empty()) {
          failures.push_back("node " + std::to_string(n) + " write " + std::to_string(k) +
                             (torn ? " torn:" : ":") + d);
        }
      }
    }
  }
  std::printf("pair: %llu crash points, %llu diverter replays of messages no QM had made "
              "durable\n",
              static_cast<unsigned long long>(points), static_cast<unsigned long long>(redrives));
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

TEST(CrashPoints, QueueManagerRouteHomeAndDeadLetter) {
  const QmRun clean = run_qm(0, 0, false, false);
  ASSERT_TRUE(clean.out.lost().empty()) << describe(clean.out);
  ASSERT_EQ(clean.out.delivered.size(), 13u);
  std::vector<std::string> failures;
  std::uint64_t points = 0;
  for (std::uint64_t n = 0; n < 2; ++n) {
    for (std::uint64_t k = 1; k <= clean.writes[n]; ++k) {
      for (bool torn : {false, true}) {
        const QmRun r = run_qm(n, k, torn, true);
        ++points;
        const std::string d = describe(r.out);
        if (!d.empty()) {
          failures.push_back("node " + std::to_string(n) + " write " + std::to_string(k) +
                             (torn ? " torn:" : ":") + d);
        }
      }
    }
  }
  std::printf("qm: %llu crash points\n", static_cast<unsigned long long>(points));
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

}  // namespace
}  // namespace oftt
