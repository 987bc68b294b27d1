// perfbench harness: runs one fault-tolerance workload for a host-time
// budget and prints one JSON record as its last stdout line, which
// perfbench/run.py reduces to the benchmark result.
//
// A run is a sequence of episodes. Each episode builds a fresh
// simulation from the seed (timed as setup), runs a fixed simulated
// window with scripted faults (timed as host seconds per simulated
// second), then checks the safety properties. Every episode of one seed
// replays the same history, so the sim-domain values and the history
// digest must agree across episodes; host times are per episode (the
// window's per slice) and reduced across episodes by run.py.
//
// Layers are measured from outside only: the harness times its own calls
// into each module's public functions and reads public counters. With
// --trace 1 every second episode advances the simulation in fixed
// sim-time slices and records, per slice, the host time and the delta of
// every layer counter; the other episodes run untraced, so the
// difference is the tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/guid.h"
#include "common/logging.h"
#include "core/api.h"
#include "core/deployment.h"
#include "core/diverter.h"
#include "dcom/scm.h"
#include "msmq/queue_manager.h"
#include "nt/runtime.h"
#include "obs/json.h"
#include "opc/client.h"
#include "opc/device.h"
#include "opc/server.h"
#include "sim/parallel_engine.h"
#include "sim/simulation.h"
#include "sim/timer.h"

using namespace oftt;

namespace {

using Clock = std::chrono::steady_clock;
using sim::milliseconds;
using sim::seconds;
using sim::SimTime;

std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

double elapsed_s(std::int64_t since) {
  return static_cast<double>(host_now_ns() - since) / 1e9;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 1099511628211ull;
  }
}

/// Busy-wait `ns` of host time: the sensitivity self-check's calibrated
/// cost. It has no effect on the simulation.
void spin(std::int64_t ns) {
  if (ns <= 0) return;
  const std::int64_t end = host_now_ns() + ns;
  while (host_now_ns() < end) {
  }
}

double quantile_ms(std::vector<SimTime> xs, double q) {
  return xs.empty() ? 0.0 : sim::to_millis(obs::percentile(std::move(xs), q));
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::int64_t inject_ns = 0;  // self-check cost per boundary crossing
  int workers = 2;             // parallel engine workers (swim512_pdes)
  std::string trace_out;       // slices and spans of the first traced episode
};

// ---------------------------------------------------------------------
// Host-time spans around the benchmark's own calls into a layer. Only
// traced episodes record; everything stays in memory until the run
// ends. Harness code runs on one thread only: the sequential kernel, or
// the parallel engine's coordinator (global events, bus replay).
// ---------------------------------------------------------------------

class Spans {
 public:
  struct Stat {
    std::uint64_t calls = 0;
    std::uint64_t work = 0;  // items handled inside the spans
    std::int64_t total_ns = 0;
    std::vector<std::int64_t> samples;
  };
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
  };

  void reset(bool enabled) {
    enabled_ = enabled;
    stats_.clear();
    records_.clear();
  }
  bool enabled() const { return enabled_; }
  void add(const char* name, std::int64_t start, std::int64_t dur, std::uint64_t work) {
    Stat& s = stats_[name];
    ++s.calls;
    s.work += work;
    s.total_ns += dur;
    if (s.samples.size() < kMaxSamples) s.samples.push_back(dur);
    if (records_.size() < kMaxRecords) records_.push_back({name, start, dur});
  }
  const std::map<std::string, Stat>& stats() const { return stats_; }
  const std::vector<Record>& records() const { return records_; }

  double p(const char* name, double q) const {
    auto it = stats_.find(name);
    if (it == stats_.end() || it->second.samples.empty()) return 0;
    return static_cast<double>(obs::percentile(it->second.samples, q));
  }
  double ns_per_item(const char* name) const {
    auto it = stats_.find(name);
    if (it == stats_.end() || it->second.work == 0) return 0;
    return static_cast<double>(it->second.total_ns) / static_cast<double>(it->second.work);
  }

 private:
  static constexpr std::size_t kMaxSamples = 1 << 20;
  static constexpr std::size_t kMaxRecords = 20000;
  bool enabled_ = false;
  std::map<std::string, Stat> stats_;
  std::vector<Record> records_;
};

Spans g_spans;

class Span {
 public:
  explicit Span(const char* name, std::uint64_t work = 1)
      : name_(name), work_(work), start_(g_spans.enabled() ? host_now_ns() : 0) {}
  ~Span() {
    if (start_ != 0) g_spans.add(name_, start_, host_now_ns() - start_, work_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t work_;
  std::int64_t start_;
};

// ---------------------------------------------------------------------
// Sim-domain bookkeeping: history digest, fault log, recovery times.
// Fed by a bus subscriber and by the benchmark's own application hooks.
// ---------------------------------------------------------------------

struct Fault {
  SimTime at = 0;
  int victim = -1;
  const char* kind = "";
  /// Crashes need a successor; a killed app or engine may recover in
  /// place on the same node.
  bool needs_successor = true;
  std::int64_t ticks_before = -1;  // farm: primary progress counter at the crash
  SimTime detected = -1;           // swim: first death certificate for the victim
  SimTime resumed = -1;
  std::int64_t ticks_lost = -1;
};

struct Recorder {
  std::uint64_t digest = kFnvOffset;
  std::uint64_t ckpt_full = 0;
  std::uint64_t ckpt_delta = 0;
  std::vector<Fault> faults;
  std::vector<char> crashed;  // node was crashed by the workload at some point
  std::uint64_t false_positives = 0;
  std::map<int, std::uint64_t> last_ckpt_seq;  // node -> newest checkpoint it took
  std::uint64_t need_full_nacks = 0;
  /// swim: a successor entering PRIMARY is the recovery.
  bool resume_on_promotion = false;
  /// Self-check boundary: the bus subscriber (swim) or an app hook.
  bool inject_on_bus = false;
  std::int64_t inject_ns = 0;
  bool in_window = false;
  std::uint64_t inject_points = 0;

  void on_event(const obs::Event& e) {
    fold(digest, static_cast<std::uint64_t>(e.at));
    fold(digest, static_cast<std::uint64_t>(e.kind));
    fold(digest, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.node)));
    fold(digest, e.a);
    fold(digest, e.b);
    switch (e.kind) {
      case obs::EventKind::kCheckpointTaken:
        ++(e.detail == "delta" ? ckpt_delta : ckpt_full);
        last_ckpt_seq[e.node] = e.a;
        break;
      case obs::EventKind::kSwimDeadConfirm: {
        const auto subject = static_cast<std::size_t>(e.a);
        if (subject < crashed.size() && crashed[subject] == 0) ++false_positives;
        for (Fault& f : faults) {
          if (f.victim == static_cast<int>(subject) && f.detected < 0 && e.at >= f.at) {
            f.detected = e.at;
          }
        }
        break;
      }
      case obs::EventKind::kRoleChange:
        if (resume_on_promotion && e.a == obs::kRoleChangePrimary) resume(e.node, e.at, -1);
        break;
      default:
        break;
    }
    if (inject_on_bus) boundary();
  }

  /// One crossing of the workload's self-check boundary.
  void boundary() {
    if (!in_window) return;
    ++inject_points;
    spin(inject_ns);
  }

  /// Service progressed on `node` at `at` (app tick number `tick`, or
  /// -1): closes every open fault this counts as recovery for.
  void resume(int node, SimTime at, std::int64_t tick) {
    for (Fault& f : faults) {
      if (f.resumed >= 0 || at <= f.at) continue;
      if (f.needs_successor && node == f.victim) continue;
      f.resumed = at;
      if (tick >= 0 && f.ticks_before >= 0) {
        f.ticks_lost = std::max<std::int64_t>(0, f.ticks_before + 1 - tick);
      }
    }
  }

  std::vector<SimTime> failover_samples() const {
    std::vector<SimTime> out;
    for (const Fault& f : faults) {
      if (f.resumed >= 0) out.push_back(f.resumed - f.at);
    }
    return out;
  }
  std::uint64_t unrecovered() const {
    std::uint64_t n = 0;
    for (const Fault& f : faults) n += (f.victim < 0 || f.resumed < 0) ? 1 : 0;
    return n;
  }
  void fold_faults() {
    for (const Fault& f : faults) {
      fold(digest, static_cast<std::uint64_t>(f.at));
      fold(digest, static_cast<std::uint64_t>(static_cast<std::int64_t>(f.victim)));
      fold(digest, static_cast<std::uint64_t>(f.detected));
      fold(digest, static_cast<std::uint64_t>(f.resumed));
      fold(digest, static_cast<std::uint64_t>(f.ticks_lost));
    }
  }
};

// ---------------------------------------------------------------------
// Layer counters the traced run reads at every slice boundary.
// ---------------------------------------------------------------------

enum Ctr : int {
  kNetDatagrams,
  kNetBytes,
  kNetDropped,
  kSwimProbes,
  kSwimIndirect,
  kDualPrimary,
  kCkptFull,
  kCkptDelta,
  kFullBytes,
  kDeltaBytes,
  kJournalRecords,
  kJournalBytes,
  kJournalFailures,
  kRecoveries,
  kReplayed,
  kTxData,
  kTxRetransmits,
  kTxResets,
  kOpcNotifications,
  kOpcFrames,
  kOpcDrops,
  kMsmqDeadLettered,
  kMsmqQuota,
  kOrpcTimeouts,
  kOrpcLate,
  kBusEvents,
  kPdesWindows,
  kPdesEvents,
  kPdesSpills,
  kPdesStallNs,
  kNumCtr
};
constexpr const char* kCtrNames[kNumCtr] = {
    "net.datagrams",      "net.bytes",         "net.dropped",      "swim.probes",
    "swim.indirect",      "engine.dual_primary", "ftim.ckpt_full", "ftim.ckpt_delta",
    "ftim.full_bytes",    "ftim.delta_bytes",  "store.records",    "store.bytes",
    "store.failures",     "store.recoveries",  "store.replayed",   "transport.data",
    "transport.retransmits", "transport.resets", "opc.notifications", "opc.frames",
    "opc.drops",          "msmq.dead_lettered", "msmq.quota",      "orpc.timeouts",
    "orpc.late",          "obs.bus_events",    "pdes.windows",     "pdes.events",
    "pdes.spills",        "pdes.stall_ns"};
using CtrValues = std::array<std::uint64_t, kNumCtr>;

class Counters {
 public:
  Counters(sim::Simulation& sim, const Recorder& rec) : sim_(sim), rec_(rec) {
    auto& m = sim.telemetry().metrics();
    const std::pair<Ctr, const char*> names[] = {
        {kSwimProbes, "oftt.swim_probes_sent"},
        {kSwimIndirect, "oftt.swim_indirect_probes"},
        {kDualPrimary, "oftt.dual_primary_detected"},
        {kFullBytes, "oftt.ckpt_full_bytes"},
        {kDeltaBytes, "oftt.ckpt_delta_bytes"},
        {kJournalRecords, "store.journal_records"},
        {kJournalBytes, "store.journal_bytes_written"},
        {kJournalFailures, "store.journal_append_failures"},
        {kRecoveries, "oftt.journal_recoveries"},
        {kTxData, "transport.data_sent"},
        {kTxRetransmits, "transport.retransmits"},
        {kTxResets, "transport.session_resets"},
        {kOpcNotifications, "oftt.opc.notifications"},
        {kOpcFrames, "oftt.opc.frames"},
        {kOpcDrops, "oftt.opc.batch_drops"},
        {kMsmqDeadLettered, "msmq.dead_lettered"},
        {kMsmqQuota, "msmq.quota_rejected"},
        {kOrpcTimeouts, "orpc.call_timeout"},
        {kOrpcLate, "orpc.late_response"},
    };
    for (const auto& [idx, name] : names) counters_.emplace_back(idx, m.counter(name));
    replayed_ = m.histogram("oftt.recovery_replay_records", {1, 2, 4, 8, 16, 32, 64});
  }

  CtrValues read() const {
    CtrValues v{};
    for (std::size_t n = 0; n < sim_.network_count(); ++n) {
      sim::Network& net = sim_.network(static_cast<int>(n));
      v[kNetDatagrams] += net.sent();
      v[kNetBytes] += net.bytes_sent();
      v[kNetDropped] += net.dropped();
    }
    for (const auto& [idx, c] : counters_) v[idx] = c.value();
    v[kCkptFull] = rec_.ckpt_full;
    v[kCkptDelta] = rec_.ckpt_delta;
    v[kReplayed] = static_cast<std::uint64_t>(replayed_.sum());
    v[kBusEvents] = sim_.telemetry().bus().published();
    if (sim::ParallelEngine* pe = sim_.parallel_engine()) {
      v[kPdesWindows] = pe->windows();
      v[kPdesEvents] = pe->events_executed();
      v[kPdesSpills] = pe->mailbox_spills();
      v[kPdesStallNs] = pe->stall_ns();
    }
    return v;
  }

 private:
  sim::Simulation& sim_;
  const Recorder& rec_;
  std::vector<std::pair<Ctr, obs::Counter>> counters_;
  obs::Histogram replayed_;
};

struct Slice {
  SimTime begin = 0;
  SimTime end = 0;
  std::int64_t host_ns = 0;
  std::uint64_t events = 0;
  bool events_counted = true;  // false for the sequential kernel's last slice
  CtrValues delta{};
};

struct WindowRun {
  double host_s = 0;
  std::vector<Slice> slices;               // traced only
  std::vector<std::int64_t> staleness_ns;  // backup staleness gauge per slice
  CtrValues totals{};
  std::uint64_t events = 0;
  std::vector<std::int64_t> chunk_ns;  // untraced only: host time per slice
};

/// Advance through the measured window. Untraced: one run_until per
/// slice, timing each, so the window costs what the simulation costs and
/// run.py can take each slice at its fastest across episodes. Traced: fixed
/// sim-time slices; the sequential kernel is driven event by event
/// through Simulation::step(), the parallel engine by one run_until per
/// slice. run.py checks that traced and untraced digests agree.
WindowRun run_window(sim::Simulation& sim, const Recorder& rec, SimTime end, SimTime slice,
                     bool traced) {
  WindowRun w;
  if (!traced) {
    const std::int64_t t0 = host_now_ns();
    for (SimTime t = sim.now(); t < end;) {
      t = std::min(end, t + slice);
      const std::int64_t s0 = host_now_ns();
      sim.run_until(t);
      w.chunk_ns.push_back(host_now_ns() - s0);
    }
    w.host_s = elapsed_s(t0);
    return w;
  }
  const Counters counters(sim, rec);
  const obs::Gauge staleness = sim.telemetry().metrics().gauge("oftt.backup_staleness_ns");
  sim::ParallelEngine* pe = sim.parallel_engine();
  const CtrValues first = counters.read();
  CtrValues prev = first;
  const std::int64_t t0 = host_now_ns();
  while (sim.now() < end) {
    Slice s;
    s.begin = sim.now();
    s.end = std::min(end, s.begin + slice);
    const std::int64_t s0 = host_now_ns();
    if (pe != nullptr) {
      const std::uint64_t before = pe->events_executed();
      sim.run_until(s.end);
      s.events = pe->events_executed() - before;
    } else if (s.end < end) {
      // The slice closes at its first event at or past s.end; nothing is
      // scheduled to mark the boundary, so the history stays untouched.
      while (sim.now() < s.end && sim.step()) ++s.events;
      s.end = std::min(end, sim.now());
    } else {
      // The window itself must stop exactly at `end`, as in the untraced
      // run; the events of this last slice go uncounted.
      sim.run_until(end);
      s.events_counted = false;
    }
    s.host_ns = host_now_ns() - s0;
    const CtrValues cur = counters.read();
    for (std::size_t i = 0; i < cur.size(); ++i) s.delta[i] = cur[i] - prev[i];
    prev = cur;
    w.events += s.events;
    w.slices.push_back(s);
    w.staleness_ns.push_back(staleness.value());
  }
  w.host_s = elapsed_s(t0);
  for (std::size_t i = 0; i < prev.size(); ++i) w.totals[i] = prev[i] - first[i];
  return w;
}

/// Run in 100 ms steps until `done` holds; false when it does not within
/// `cap` (the startup election never converged).
template <typename F>
bool converge(sim::Simulation& sim, F done, SimTime cap = seconds(60)) {
  const SimTime limit = sim.now() + cap;
  while (sim.now() < limit) {
    sim.run_for(milliseconds(100));
    if (done()) return true;
  }
  return false;
}

using Named = std::vector<std::pair<std::string, double>>;

struct Episode {
  bool traced = false;
  double setup_s = 0;
  double window_host_s = 0;
  double window_sim_s = 0;
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  Named guards;  // sim-domain values: identical on every run of a seed
  Named layers;  // traced episodes only
  std::uint64_t inject_points = 0;
  std::vector<std::int64_t> chunk_ns;  // untraced: host time per window slice
  std::string trace_json;  // slices and spans of a traced episode
};

/// Per-layer metrics of one traced window; perfbench/README.md maps each
/// to the end-to-end metric it should move.
Named layer_metrics(sim::Simulation& sim, const Recorder& rec, const WindowRun& w) {
  auto c = [&w](Ctr i) { return static_cast<double>(w.totals[static_cast<std::size_t>(i)]); };
  double slice_ns = 0;
  double counted_ns = 0;  // host time of the slices whose events were counted
  // Slices holding a full checkpoint against the rest, and slices that
  // overlap a crash-to-recovered interval against steady ones.
  double full_ns = 0, other_ns = 0, failover_ns = 0, steady_ns = 0, steady_sim_s = 0;
  int full_n = 0, other_n = 0;
  for (const Slice& s : w.slices) {
    const auto ns = static_cast<double>(s.host_ns);
    slice_ns += ns;
    if (s.events_counted) counted_ns += ns;
    if (s.delta[kCkptFull] > 0) {
      full_ns += ns;
      ++full_n;
    } else {
      other_ns += ns;
      ++other_n;
    }
    bool in_failover = false;
    for (const Fault& f : rec.faults) {
      const SimTime until = f.resumed >= 0 ? f.resumed : s.end;
      if (f.at < s.end && until > s.begin) in_failover = true;
    }
    if (in_failover) {
      failover_ns += ns;
    } else {
      steady_ns += ns;
      steady_sim_s += sim::to_seconds(s.end - s.begin);
    }
  }
  std::vector<std::int64_t> staleness;
  for (std::int64_t v : w.staleness_ns) {
    if (v > 0) staleness.push_back(v);
  }
  const obs::Histogram notify =
      sim.telemetry().metrics().histogram("oftt.opc.update_to_notify_ns", {});
  sim::ParallelEngine* pe = sim.parallel_engine();
  const auto events = static_cast<double>(w.events);
  const double datagrams = c(kNetDatagrams);
  return {
      {"sim.events", events},
      {"sim.host_ns_per_event", events > 0 ? counted_ns / events : 0},
      {"sim.net.datagrams", datagrams},
      {"sim.net.bytes", c(kNetBytes)},
      {"sim.net.dropped", c(kNetDropped)},
      {"pdes.windows", c(kPdesWindows)},
      {"pdes.events_per_window", c(kPdesWindows) > 0 ? c(kPdesEvents) / c(kPdesWindows) : 0},
      {"pdes.stall_ms", c(kPdesStallNs) / 1e6},
      {"pdes.mailbox_spills", c(kPdesSpills)},
      {"pdes.mailbox_peak", pe != nullptr ? static_cast<double>(pe->mailbox_peak()) : 0},
      {"swim.probes_sent", c(kSwimProbes)},
      {"swim.indirect_probes", c(kSwimIndirect)},
      {"swim.host_ns_per_datagram", datagrams > 0 ? slice_ns / datagrams : 0},
      {"swim.false_positives", static_cast<double>(rec.false_positives)},
      {"engine.dual_primary_detected", c(kDualPrimary)},
      {"ftim.ckpt_full", c(kCkptFull)},
      {"ftim.ckpt_delta", c(kCkptDelta)},
      {"ftim.full_bytes", c(kFullBytes)},
      {"ftim.delta_bytes", c(kDeltaBytes)},
      {"ftim.need_full_nacks", static_cast<double>(rec.need_full_nacks)},
      {"ftim.full_ckpt_slice_host_ms",
       full_n > 0 && other_n > 0 ? (full_ns / full_n - other_ns / other_n) / 1e6 : 0},
      {"ftim.save_ns_p50", g_spans.p("ftim.OFTTSave", 0.50)},
      {"ftim.save_ns_p99", g_spans.p("ftim.OFTTSave", 0.99)},
      {"ftim.backup_staleness_p99_ms",
       staleness.empty() ? 0.0 : sim::to_millis(obs::percentile(staleness, 0.99))},
      {"store.journal_records", c(kJournalRecords)},
      {"store.journal_bytes", c(kJournalBytes)},
      {"store.append_failures", c(kJournalFailures)},
      {"store.recoveries", c(kRecoveries)},
      {"store.replayed_records", c(kReplayed)},
      {"transport.data_sent", c(kTxData)},
      {"transport.retransmits", c(kTxRetransmits)},
      {"transport.retransmit_ratio", c(kTxData) > 0 ? c(kTxRetransmits) / c(kTxData) : 0},
      {"transport.session_resets", c(kTxResets)},
      {"opc.tagstore_set_ns", g_spans.ns_per_item("opc.TagStore::set")},
      {"opc.notifications", c(kOpcNotifications)},
      {"opc.frames", c(kOpcFrames)},
      {"opc.batch_drops", c(kOpcDrops)},
      {"opc.update_to_notify_p99_ms",
       notify.count() > 0 ? static_cast<double>(notify.quantile(0.99)) / 1e6 : 0},
      {"diverter.send_ns", g_spans.p("diverter.send", 0.50)},
      {"msmq.dead_lettered", c(kMsmqDeadLettered)},
      {"msmq.quota_rejected", c(kMsmqQuota)},
      {"orpc.call_timeouts", c(kOrpcTimeouts)},
      {"orpc.late_responses", c(kOrpcLate)},
      {"obs.bus_events", c(kBusEvents)},
      {"phase.steady_host_s_per_sim_s", steady_sim_s > 0 ? steady_ns / 1e9 / steady_sim_s : 0},
      {"phase.failover_host_s", failover_ns / 1e9},
  };
}

std::string trace_json(const WindowRun& w) {
  obs::JsonWriter j;
  j.begin_object();
  j.key("slices");
  j.begin_array();
  for (const Slice& s : w.slices) {
    j.begin_object();
    j.kv("sim_begin_ns", static_cast<std::int64_t>(s.begin));
    j.kv("host_ns", s.host_ns);
    j.kv("events", s.events);
    for (std::size_t i = 0; i < s.delta.size(); ++i) {
      if (s.delta[i] != 0) j.kv(kCtrNames[i], s.delta[i]);
    }
    j.end_object();
  }
  j.end_array();
  j.key("span_stats");
  j.begin_object();
  for (const auto& [name, st] : g_spans.stats()) {
    j.key(name);
    j.begin_object();
    j.kv("calls", st.calls);
    j.kv("work", st.work);
    j.kv("total_ns", st.total_ns);
    j.kv("p50_ns", obs::percentile(st.samples, 0.5));
    j.kv("p99_ns", obs::percentile(st.samples, 0.99));
    j.end_object();
  }
  j.end_object();
  j.key("spans");
  j.begin_array();
  for (const Spans::Record& r : g_spans.records()) {
    j.begin_object();
    j.kv("name", r.name);
    j.kv("start_ns", r.start_ns);
    j.kv("dur_ns", r.dur_ns);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  return j.take();
}

/// Shared middle of every workload: run the window, fill the host times
/// and, when traced, the layer metrics.
void measure(Episode& ep, sim::Simulation& sim, Recorder& rec, SimTime end, SimTime slice) {
  const SimTime start = sim.now();
  rec.in_window = true;
  const WindowRun w = run_window(sim, rec, end, slice, ep.traced);
  rec.in_window = false;
  ep.window_host_s = w.host_s;
  ep.window_sim_s = sim::to_seconds(end - start);
  ep.inject_points = rec.inject_points;
  ep.chunk_ns = w.chunk_ns;
  if (ep.traced) {
    ep.layers = layer_metrics(sim, rec, w);
    ep.trace_json = trace_json(w);
  }
}

void fold_network(std::uint64_t& h, sim::Simulation& sim) {
  for (std::size_t n = 0; n < sim.network_count(); ++n) {
    sim::Network& net = sim.network(static_cast<int>(n));
    fold(h, net.sent());
    fold(h, net.delivered());
    fold(h, net.dropped());
  }
}

// ---------------------------------------------------------------------
// swim512 / swim512_pdes: engine-only SWIM cluster whose primary is
// crashed and rebooted every cycle.
// ---------------------------------------------------------------------

struct SwimShape {
  int replicas = 512;
  double loss = 0.01;
  SimTime cycle = seconds(8);
  SimTime crash_offset = milliseconds(500);
  SimTime reboot_after = seconds(5);
  int cycles = 1;
  SimTime slice = milliseconds(100);
};

Episode run_swim(const Options& o, bool traced, bool parallel) {
  const SwimShape shape;
  Episode ep;
  ep.traced = traced;
  g_spans.reset(traced);
  Recorder rec;  // outlives the simulation: the bus handler points at it
  rec.resume_on_promotion = true;
  rec.inject_on_bus = true;
  rec.inject_ns = o.inject_ns;

  const std::int64_t t0 = host_now_ns();
  sim::Simulation sim(o.seed);
  if (parallel) {
    sim::EngineConfig cfg;
    cfg.kind = sim::EngineKind::kParallel;
    cfg.workers = o.workers;
    sim.set_engine(cfg);
  }
  sim.telemetry().bus().subscribe_all([&rec](const obs::Event& e) { rec.on_event(e); });
  core::ClusterDeploymentOptions opts;
  opts.replicas = shape.replicas;
  opts.with_monitor = false;
  opts.with_msmq = false;
  opts.with_scm = false;
  opts.engine.detection = core::DetectionMode::kSwim;
  opts.net_loss = shape.loss;
  std::unique_ptr<core::ClusterDeployment> dep;
  {
    Span s("deploy.construct");
    dep = std::make_unique<core::ClusterDeployment>(sim, opts);
  }
  rec.crashed.assign(sim.node_count(), 0);
  const bool elected = converge(sim, [&] { return dep->primary_count() == 1; });
  ep.setup_s = elapsed_s(t0);

  const SimTime start = sim.now();
  for (int c = 0; c < shape.cycles; ++c) {
    sim.schedule_at(start + c * shape.cycle + shape.crash_offset, [&] {
      Fault f;
      f.at = sim.now();
      f.victim = dep->primary_node();
      f.kind = "os_crash";
      rec.faults.push_back(f);
      if (f.victim < 0) return;
      rec.crashed[static_cast<std::size_t>(f.victim)] = 1;
      Span s("fault.os_crash");
      dep->node_by_id(f.victim)->os_crash(shape.reboot_after);
    });
  }
  measure(ep, sim, rec, start + shape.cycles * shape.cycle, shape.slice);

  const std::vector<SimTime> failovers = rec.failover_samples();
  std::vector<SimTime> detects;
  for (const Fault& f : rec.faults) {
    if (f.detected >= 0) detects.push_back(f.detected - f.at);
  }
  ep.checks = {{"startup_election_converged", elected},
               {"every_failover_recovered", rec.unrecovered() == 0},
               {"no_false_death_certificates", rec.false_positives == 0},
               {"single_primary_at_end", dep->primary_count() == 1}};
  ep.attempted = rec.faults.size();
  ep.failed = rec.unrecovered() + rec.false_positives;
  ep.guards = {{"failover_p50_ms", quantile_ms(failovers, 0.5)},
               {"failover_samples", static_cast<double>(failovers.size())},
               {"detect_p50_ms", quantile_ms(detects, 0.5)},
               {"false_death_certificates", static_cast<double>(rec.false_positives)}};
  rec.fold_faults();
  fold_network(rec.digest, sim);
  fold(rec.digest, static_cast<std::uint64_t>(static_cast<std::int64_t>(dep->primary_node())));
  ep.digest = rec.digest;
  return ep;
}

// ---------------------------------------------------------------------
// opc_farm_failover: warm-passive pair whose state is a region-bound
// TagStore; the primary is crashed and rebooted every cycle, so every
// rejoin replays the journal and resyncs the full image.
// ---------------------------------------------------------------------

struct FarmShape {
  int tags = 1 << 18;
  int mutate = 256;
  SimTime tick = milliseconds(20);
  SimTime delta_period = milliseconds(50);
  SimTime full_period = milliseconds(500);
  SimTime cycle = seconds(6);
  SimTime crash_offset = seconds(2);
  SimTime reboot_after = seconds(2);
  int cycles = 2;
  SimTime slice = milliseconds(100);
};

/// The application under test: tag 0 is the progress counter; every
/// tick rewrites a round-robin window of `mutate` tags.
class FarmApp {
 public:
  FarmApp(sim::Process& process, const FarmShape& shape, Recorder* rec)
      : process_(&process), shape_(shape), rec_(rec), store_(32), timer_(process.main_strand()) {
    auto& rt = nt::NtRuntime::of(process);
    rt.create_thread_static("farm_main", 0x501000);
    {
      Span s("opc.TagStore::intern", static_cast<std::uint64_t>(shape.tags));
      for (int i = 0; i < shape.tags; ++i) store_.intern("p" + std::to_string(i));
    }
    for (int i = 0; i < shape.tags; ++i) {
      store_.set(static_cast<opc::TagId>(i), opc::OpcValue::from_real(0.0), opc::Quality::kGood,
                 process.sim().now());
    }
    store_.bind_regions(rt.memory(), "tags");
    core::FtimOptions f;
    f.replication = core::ReplicationMode::kWarmPassive;
    f.checkpoint_period = shape.full_period;
    f.delta_stream_period = shape.delta_period;
    f.restore_rate_bytes_per_s = 64ull * 1024 * 1024;
    core::OFTTInitialize(process, f);
    core::Ftim& ftim = *core::Ftim::find(process);
    ftim.on_activate([this](bool) {
      // The regions hold the restored image (or the initial slots): the
      // store re-reads them, tag 0 carries the progress counter.
      store_.reload_from_regions();
      ticks_ = store_.value(0).as_int(0);
      timer_.start(shape_.tick, [this] { tick(); });
    });
    ftim.on_deactivate([this] { timer_.stop(); });
  }

  std::int64_t ticks() const { return ticks_; }

  static FarmApp* find(sim::Node& node) {
    auto proc = node.find_process("app");
    return proc && proc->alive() ? proc->find_attachment<FarmApp>() : nullptr;
  }

 private:
  void tick() {
    ++ticks_;
    rec_->boundary();
    const SimTime now = process_->sim().now();
    {
      Span s("opc.TagStore::set", static_cast<std::uint64_t>(shape_.mutate) + 1);
      store_.set(0, opc::OpcValue::from_int(static_cast<std::int32_t>(ticks_)),
                 opc::Quality::kGood, now);
      const auto span = static_cast<std::uint64_t>(shape_.tags - 1);
      const std::uint64_t first =
          static_cast<std::uint64_t>(ticks_) * static_cast<std::uint64_t>(shape_.mutate) % span;
      for (int c = 0; c < shape_.mutate; ++c) {
        const auto id =
            static_cast<opc::TagId>(1 + (first + static_cast<std::uint64_t>(c)) % span);
        store_.set(id, opc::OpcValue::from_real(static_cast<double>(ticks_)),
                   opc::Quality::kGood, now);
      }
    }
    rec_->resume(process_->node().id(), now, ticks_);
  }

  sim::Process* process_;
  FarmShape shape_;
  Recorder* rec_;
  opc::TagStore store_;
  sim::PeriodicTimer timer_;
  std::int64_t ticks_ = 0;
};

int pair_primaries(core::PairDeployment& dep) {
  int n = 0;
  for (core::Engine* e : {dep.engine_a(), dep.engine_b()}) {
    if (e != nullptr && e->role() == core::Role::kPrimary) ++n;
  }
  return n;
}

Episode run_opc_farm(const Options& o, bool traced) {
  const FarmShape shape;
  Episode ep;
  ep.traced = traced;
  g_spans.reset(traced);
  Recorder rec;
  rec.inject_ns = o.inject_ns;

  const std::int64_t t0 = host_now_ns();
  sim::Simulation sim(o.seed);
  sim.telemetry().bus().subscribe_all([&rec](const obs::Event& e) { rec.on_event(e); });
  core::PairDeploymentOptions opts;
  opts.engine.replication = core::ReplicationMode::kWarmPassive;
  Recorder* recp = &rec;
  opts.app_factory = [shape, recp](sim::Process& proc) {
    proc.attachment<FarmApp>(proc, shape, recp);
  };
  std::unique_ptr<core::PairDeployment> dep;
  {
    Span s("deploy.construct");
    dep = std::make_unique<core::PairDeployment>(sim, opts);
  }
  const bool ready = converge(sim, [&] {
    const int b = dep->backup_node();
    if (dep->primary_node() < 0 || b < 0) return false;
    core::Ftim* f = dep->ftim_on(*dep->node_by_id(b));
    return f != nullptr && f->runtime_current();
  });
  ep.setup_s = elapsed_s(t0);

  const SimTime start = sim.now();
  for (int c = 0; c < shape.cycles; ++c) {
    sim.schedule_at(start + c * shape.cycle + shape.crash_offset, [&] {
      Fault f;
      f.at = sim.now();
      f.victim = dep->primary_node();
      f.kind = "os_crash";
      if (f.victim >= 0) {
        sim::Node& node = *dep->node_by_id(f.victim);
        if (FarmApp* app = FarmApp::find(node)) f.ticks_before = app->ticks();
        if (core::Ftim* ftim = dep->ftim_on(node)) rec.need_full_nacks += ftim->need_full_nacks();
        rec.faults.push_back(f);
        Span s("fault.os_crash");
        node.os_crash(shape.reboot_after);
      } else {
        rec.faults.push_back(f);
      }
    });
  }
  measure(ep, sim, rec, start + shape.cycles * shape.cycle, shape.slice);

  const std::uint64_t ticks = rec.inject_points;  // the app tick is the boundary
  // Warm passive streams a delta every delta_period, so a takeover may
  // replay from up to one period back: at most that many ticks are lost.
  const std::int64_t lost_bound = shape.delta_period / shape.tick + 1;
  std::int64_t lost = 0, beyond = 0;
  bool measured = true;
  for (const Fault& f : rec.faults) {
    lost += std::max<std::int64_t>(f.ticks_lost, 0);
    beyond += std::max<std::int64_t>(f.ticks_lost - lost_bound, 0);
    measured = measured && f.ticks_lost >= 0;
  }
  const std::vector<SimTime> failovers = rec.failover_samples();
  ep.checks = {{"pair_ready", ready},
               {"every_failover_recovered", rec.unrecovered() == 0},
               {"ticks_lost_within_one_delta_period", measured && beyond == 0},
               {"single_primary_at_end", pair_primaries(*dep) == 1}};
  ep.attempted = rec.faults.size() + ticks;
  ep.failed = rec.unrecovered() + static_cast<std::uint64_t>(beyond);
  ep.guards = {{"failover_p50_ms", quantile_ms(failovers, 0.5)},
               {"failover_samples", static_cast<double>(failovers.size())},
               {"ticks_lost", static_cast<double>(lost)},
               {"plant_ticks", static_cast<double>(ticks)}};
  rec.fold_faults();
  fold_network(rec.digest, sim);
  fold(rec.digest, ticks);
  ep.digest = rec.digest;
  return ep;
}

// ---------------------------------------------------------------------
// plant: the paper's section-4 pair, a cold-passive app with OFTTSave
// per diverter message, an open-loop source, a PLC OPC server notifying
// HMI clients, and the four failure classes in turn.
// ---------------------------------------------------------------------

struct PlantShape {
  SimTime msg_period = milliseconds(20);  // 50 msg/s, below the delivery knee
  SimTime window = seconds(240);
  SimTime first_fault = seconds(15);
  SimTime fault_period = seconds(30);
  SimTime node_reboot = seconds(10);
  SimTime os_reboot = seconds(15);
  SimTime drain = seconds(30);
  int plc_tags = 2000;
  int plc_mutate = 200;
  SimTime plc_scan = milliseconds(100);
  int hmi_nodes = 2;
  int hmi_per_node = 2;
  SimTime slice = seconds(1);
};

constexpr const char* kPlantQueue = "plant.events";
const Clsid kPlcClsid = Guid::from_name("CLSID_PerfbenchPlc");

/// Message bookkeeping of the plant: when each message was due, when it
/// was first processed, and whether a checkpoint holding it was
/// acknowledged by the peer.
struct Deliveries {
  std::vector<SimTime> due;
  std::vector<SimTime> processed;
  std::vector<char> acked;
  /// node -> (message, checkpoint seq) processed there but not yet known acked.
  std::map<int, std::vector<std::pair<std::int64_t, std::uint64_t>>> pending;

  void grow(std::size_t n) {
    if (processed.size() < n) {
      processed.resize(n, -1);
      acked.resize(n, 0);
    }
  }
  /// The FTIM on `node` has its checkpoints up to `acked_seq` acknowledged.
  void settle(int node, std::uint64_t acked_seq) {
    auto& list = pending[node];
    std::vector<std::pair<std::int64_t, std::uint64_t>> keep;
    for (const auto& [msg, ckpt] : list) {
      if (ckpt <= acked_seq) {
        acked[static_cast<std::size_t>(msg)] = 1;
      } else {
        keep.emplace_back(msg, ckpt);
      }
    }
    list.swap(keep);
  }
};

class PlantApp {
 public:
  PlantApp(sim::Process& process, Recorder* rec, Deliveries* del, std::size_t capacity)
      : process_(&process), rec_(rec), del_(del), capacity_(capacity) {
    auto& rt = nt::NtRuntime::of(process);
    rt.create_thread_static("plant_main", 0x401000);
    // [0..7] messages processed, then one bit per message sequence number.
    region_ = &rt.memory().alloc("globals", 8 + capacity / 8 + 1);
    count_ = nt::Cell<std::int64_t>(region_, 0);
    core::FtimOptions opts;
    opts.component = "plant";
    opts.checkpoint_period = milliseconds(250);
    core::OFTTInitialize(process, opts);
    core::Ftim::find(process)->on_activate([this](bool) {
      msmq::MsmqApi::of(*process_).subscribe(
          kPlantQueue, [this](const msmq::Message& m) { on_message(m); });
    });
  }

  bool has(std::size_t seq) const {
    return (region_->read<std::uint8_t>(8 + seq / 8) & (1u << (seq % 8))) != 0;
  }

  static PlantApp* find(sim::Node& node) {
    auto proc = node.find_process("app");
    return proc && proc->alive() ? proc->find_attachment<PlantApp>() : nullptr;
  }

 private:
  void on_message(const msmq::Message& m) {
    BinaryReader r(m.body);
    const std::int64_t seq = r.i64();
    if (r.failed() || seq < 0 || static_cast<std::size_t>(seq) >= capacity_) return;
    const auto s = static_cast<std::size_t>(seq);
    const std::size_t byte = 8 + s / 8;
    const auto bit = static_cast<std::uint8_t>(1u << (s % 8));
    const auto cur = region_->read<std::uint8_t>(byte);
    if ((cur & bit) == 0) {
      region_->write<std::uint8_t>(byte, static_cast<std::uint8_t>(cur | bit));
      count_.set(count_.get() + 1);
    }
    {
      Span span("ftim.OFTTSave");
      core::OFTTSave(*process_);
    }
    const int node = process_->node().id();
    const SimTime now = process_->sim().now();
    del_->grow(s + 1);
    if (del_->processed[s] < 0) del_->processed[s] = now;
    del_->pending[node].emplace_back(seq, rec_->last_ckpt_seq[node]);
    rec_->resume(node, now, -1);
  }

  sim::Process* process_;
  Recorder* rec_;
  Deliveries* del_;
  std::size_t capacity_;
  nt::Region* region_ = nullptr;
  nt::Cell<std::int64_t> count_;
};

/// A PLC with a fixed scan: `mutate` tags per scan, round-robin, so each
/// tag changes at most once per group update and every change is
/// notified.
class BenchPlc final : public opc::Device {
 public:
  BenchPlc(int tags, int mutate, SimTime scan)
      : Device("PLC"), tags_(tags), mutate_(mutate), scan_(scan) {
    for (int i = 0; i < tags; ++i) {
      const opc::TagId id = store().intern("p" + std::to_string(i));
      store().set(id, opc::OpcValue::from_real(0.0), opc::Quality::kGood, 0);
    }
  }

  void start(sim::Strand& strand, sim::Rng rng) override {
    Device::start(strand, rng);
    strand_ = &strand;
    timer_ = std::make_unique<sim::PeriodicTimer>(strand);
    timer_->start(scan_, [this] { scan(); });
  }

  bool armed = false;
  std::uint64_t changes = 0;

 private:
  void scan() {
    ++scans_;
    if (!armed) return;
    const SimTime now = strand_->process().sim().now();
    for (int c = 0; c < mutate_; ++c) {
      const auto id = static_cast<opc::TagId>(cursor_++ % static_cast<std::uint64_t>(tags_));
      if (store().set(id, opc::OpcValue::from_real(static_cast<double>(scans_)),
                      opc::Quality::kGood, now)) {
        ++changes;
      }
    }
  }

  int tags_;
  int mutate_;
  SimTime scan_;
  sim::Strand* strand_ = nullptr;
  std::unique_ptr<sim::PeriodicTimer> timer_;
  std::uint64_t scans_ = 0;
  std::uint64_t cursor_ = 0;
};

enum class PlantFault { kNodeCrash, kOsCrash, kAppKill, kEngineKill };
constexpr const char* kPlantFaultNames[] = {"node_crash", "os_crash", "app_kill", "engine_kill"};

Episode run_plant(const Options& o, bool traced) {
  const PlantShape shape;
  Episode ep;
  ep.traced = traced;
  g_spans.reset(traced);
  Recorder rec;
  rec.inject_ns = o.inject_ns;
  Deliveries del;
  const auto capacity = static_cast<std::size_t>(shape.window / shape.msg_period) + 16;
  std::uint64_t hmi_items = 0;

  const std::int64_t t0 = host_now_ns();
  sim::Simulation sim(o.seed);
  sim.telemetry().bus().subscribe_all([&rec](const obs::Event& e) { rec.on_event(e); });
  core::PairDeploymentOptions opts;
  Recorder* recp = &rec;
  Deliveries* delp = &del;
  opts.app_factory = [recp, delp, capacity](sim::Process& proc) {
    proc.attachment<PlantApp>(proc, recp, delp, capacity);
  };
  auto plc = std::make_shared<BenchPlc>(shape.plc_tags, shape.plc_mutate, shape.plc_scan);
  std::unique_ptr<core::PairDeployment> dep;
  std::vector<std::unique_ptr<opc::OpcConnection>> conns;
  std::shared_ptr<core::MessageDiverter> diverter;
  std::shared_ptr<sim::Process> source;
  {
    Span s("deploy.construct");
    dep = std::make_unique<core::PairDeployment>(sim, opts);
    sim::Network& lan = sim.network(0);
    sim::Node& plc_node = sim.add_node("plc");
    lan.attach(plc_node.id());
    plc_node.set_boot_script([plc](sim::Node& node) {
      dcom::install_scm(node);
      node.start_process("opcserver", [plc](sim::Process& proc) {
        opc::install_opc_server(proc, kPlcClsid, plc, "perfbench");
      });
    });
    plc_node.boot();
    std::vector<std::string> names;
    for (int i = 0; i < shape.plc_tags; ++i) names.push_back("p" + std::to_string(i));
    for (int n = 0; n < shape.hmi_nodes; ++n) {
      sim::Node& hmi_node = sim.add_node("hmi" + std::to_string(n));
      lan.attach(hmi_node.id());
      hmi_node.boot();
      auto hmi = hmi_node.start_process("hmi", nullptr);
      for (int k = 0; k < shape.hmi_per_node; ++k) {
        opc::OpcConnection::Config cfg;
        cfg.batched_notifications = true;
        auto conn = std::make_unique<opc::OpcConnection>(*hmi, plc_node.id(), kPlcClsid, cfg);
        conn->subscribe(names, [&hmi_items](const std::vector<opc::ItemState>& items) {
          Span sink("hmi.sink", items.size());
          hmi_items += items.size();
        });
        conns.push_back(std::move(conn));
      }
    }
    source = dep->monitor_node().start_process("source", nullptr);
    core::DiverterOptions dopts;
    dopts.unit = "unit";
    dopts.queue = kPlantQueue;
    dopts.node_a = dep->node_a().id();
    dopts.node_b = dep->node_b().id();
    diverter = std::make_shared<core::MessageDiverter>(*source, dopts);
    source->add_component(diverter);
  }
  const bool ready = converge(sim, [&] {
    if (dep->primary_node() < 0 || dep->backup_node() < 0) return false;
    for (const auto& c : conns) {
      if (!c->connected()) return false;
    }
    return true;
  });
  sim.run_for(seconds(2));  // the initial OPC announcements drain
  ep.setup_s = elapsed_s(t0);

  const SimTime start = sim.now();
  const SimTime end = start + shape.window;
  hmi_items = 0;
  plc->armed = true;
  std::int64_t sent = 0;
  sim::PeriodicTimer stream(source->main_strand());
  stream.start(shape.msg_period, [&] {
    rec.boundary();
    del.due.push_back(sim.now());
    BinaryWriter w;
    w.i64(sent++);
    Span s("diverter.send");
    diverter->send("m", std::move(w).take(), msmq::DeliveryMode::kRecoverable);
  });

  int k = 0;
  for (SimTime at = start + shape.first_fault; at < end - seconds(10);
       at += shape.fault_period, ++k) {
    const auto kind = static_cast<PlantFault>(k % 4);
    sim.schedule_at(at, [&, kind] {
      Fault f;
      f.at = sim.now();
      f.kind = kPlantFaultNames[static_cast<int>(kind)];
      f.victim = dep->primary_node();
      f.needs_successor = kind == PlantFault::kNodeCrash || kind == PlantFault::kOsCrash;
      rec.faults.push_back(f);
      if (f.victim < 0) return;
      sim::Node& node = *dep->node_by_id(f.victim);
      if (core::Ftim* ftim = dep->ftim_on(node)) {
        del.settle(f.victim, ftim->peer_acked_seq());
        rec.need_full_nacks += ftim->need_full_nacks();
      }
      Span s(f.kind);
      switch (kind) {
        case PlantFault::kNodeCrash:
          node.crash();
          node.reboot(shape.node_reboot);
          break;
        case PlantFault::kOsCrash:
          node.os_crash(shape.os_reboot);
          break;
        case PlantFault::kAppKill:
          if (auto app = node.find_process("app")) app->kill("injected app fault");
          break;
        case PlantFault::kEngineKill:
          if (auto engine = node.find_process("oftt_engine")) {
            engine->kill("injected middleware fault");
          }
          break;
      }
      // What the killed app processed without an acknowledged checkpoint
      // may legitimately be lost; only acknowledged work is checked.
      if (kind != PlantFault::kEngineKill) del.pending[f.victim].clear();
    });
  }
  measure(ep, sim, rec, end, shape.slice);
  stream.stop();
  plc->armed = false;
  sim.run_for(shape.drain);

  // Correctness after the drain.
  const int primary = dep->primary_node();
  PlantApp* app = primary >= 0 ? PlantApp::find(*dep->node_by_id(primary)) : nullptr;
  if (app != nullptr) {
    if (core::Ftim* ftim = dep->ftim_on(*dep->node_by_id(primary))) {
      del.settle(primary, ftim->peer_acked_seq());
    }
  }
  del.grow(static_cast<std::size_t>(sent));
  std::int64_t delivered = 0;
  std::uint64_t acked_lost = app != nullptr ? 0 : 1;
  std::vector<SimTime> latency;
  for (std::int64_t s = 0; s < sent; ++s) {
    const auto i = static_cast<std::size_t>(s);
    const bool kept = app != nullptr && app->has(i);
    delivered += kept ? 1 : 0;
    if (del.acked[i] != 0 && !kept) ++acked_lost;
    if (del.processed[i] >= 0) latency.push_back(del.processed[i] - del.due[i]);
  }
  const std::uint64_t subscriptions = conns.size();
  const bool hmi_exact = plc->changes > 0 && hmi_items == plc->changes * subscriptions;
  const std::vector<SimTime> failovers = rec.failover_samples();
  ep.checks = {{"pair_and_hmi_ready", ready},
               {"no_acknowledged_message_lost", acked_lost == 0},
               {"every_fault_recovered", rec.unrecovered() == 0},
               {"hmi_notifications_equal_tag_changes", hmi_exact},
               {"single_primary_at_end", pair_primaries(*dep) == 1}};
  ep.attempted = static_cast<std::uint64_t>(sent) + rec.faults.size();
  // Cold passive promises only what a checkpoint the backup acknowledged
  // holds; an unacknowledged message may roll back with its node.
  ep.failed = acked_lost + rec.unrecovered();
  ep.guards = {{"failover_p50_ms", quantile_ms(failovers, 0.5)},
               {"failover_samples", static_cast<double>(failovers.size())},
               {"deliver_p50_ms", quantile_ms(latency, 0.5)},
               {"deliver_p99_ms", quantile_ms(latency, 0.99)},
               {"deliver_samples", static_cast<double>(latency.size())},
               {"messages_sent", static_cast<double>(sent)},
               {"messages_delivered", static_cast<double>(delivered)},
               {"hmi_notifications", static_cast<double>(hmi_items)},
               {"plc_tag_changes", static_cast<double>(plc->changes)}};
  rec.fold_faults();
  fold_network(rec.digest, sim);
  fold(rec.digest, static_cast<std::uint64_t>(delivered));
  fold(rec.digest, hmi_items);
  for (SimTime l : latency) fold(rec.digest, static_cast<std::uint64_t>(l));
  ep.digest = rec.digest;
  return ep;
}

// ---------------------------------------------------------------------

struct Workload {
  const char* name;
  const char* engine;
  std::function<Episode(const Options&, bool)> run;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"swim512", "sequential",
       [](const Options& o, bool t) { return run_swim(o, t, /*parallel=*/false); }},
      {"swim512_pdes", "parallel",
       [](const Options& o, bool t) { return run_swim(o, t, /*parallel=*/true); }},
      {"opc_farm_failover", "sequential", run_opc_farm},
      {"plant", "sequential", run_plant},
  };
  return w;
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

void write_named(obs::JsonWriter& j, const char* key, const Named& values) {
  j.key(key);
  j.begin_object();
  for (const auto& [name, v] : values) j.kv(name, v);
  j.end_object();
}

int usage() {
  std::fprintf(stderr,
               "usage: oftt_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                      [--inject-ns NS] [--workers W] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (argc % 2 != 1) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--inject-ns") {
      o.inject_ns = std::strtoll(v, nullptr, 10);
    } else if (flag == "--workers") {
      o.workers = std::atoi(v);
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else {
      return usage();
    }
  }
  const Workload* wl = nullptr;
  for (const Workload& w : workloads()) {
    if (o.workload == w.name) wl = &w;
  }
  if (wl == nullptr || o.workers < 1) return usage();
  Logger::instance().set_level(LogLevel::kOff);

  // Episodes until the budget is spent: at least one, and with tracing
  // at least one untraced and one traced (every second one is traced).
  const std::int64_t start = host_now_ns();
  std::vector<Episode> eps;
  // Peak RSS as of the first episode: later episodes reuse a heap the
  // allocator may have fragmented, and how many run depends on host speed.
  double first_peak_rss_mb = 0;
  for (;;) {
    const bool traced = o.trace && eps.size() % 2 == 1;
    eps.push_back(wl->run(o, traced));
    if (eps.size() == 1) first_peak_rss_mb = peak_rss_mb();
    const double spent = elapsed_s(start);
    const double per = spent / static_cast<double>(eps.size());
    const std::size_t min_eps = o.trace ? 2 : 1;
    if (eps.size() >= min_eps && spent + per / 2 >= o.seconds) break;
  }

  const bool parallel = std::strcmp(wl->engine, "parallel") == 0;
  obs::JsonWriter j;
  j.begin_object();
  j.kv("workload", wl->name);
  j.kv("seed", o.seed);
  j.kv("engine", wl->engine);
  j.kv("workers", parallel ? o.workers : 1);
  j.kv("build_type", PERFBENCH_BUILD_TYPE);
  j.kv("compiler", PERFBENCH_COMPILER);
  j.kv("sanitized", sanitized_build());
  j.kv("hardware_threads", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.kv("inject_ns", o.inject_ns);
  j.kv("peak_rss_mb", first_peak_rss_mb);
  j.key("episodes");
  j.begin_array();
  bool trace_written = false;
  for (const Episode& ep : eps) {
    j.begin_object();
    j.kv("traced", ep.traced);
    j.kv("setup_s", ep.setup_s);
    j.kv("window_host_s", ep.window_host_s);
    j.kv("window_sim_s", ep.window_sim_s);
    j.kv("digest", hex16(ep.digest));
    j.kv("attempted", ep.attempted);
    j.kv("failed", ep.failed);
    j.kv("inject_points", ep.inject_points);
    j.key("chunk_ns");
    j.begin_array();
    for (std::int64_t ns : ep.chunk_ns) j.value(ns);
    j.end_array();
    j.key("checks");
    j.begin_object();
    for (const auto& [name, ok] : ep.checks) j.kv(name, ok);
    j.end_object();
    write_named(j, "guards", ep.guards);
    if (ep.traced) write_named(j, "layers", ep.layers);
    j.end_object();
    if (ep.traced && !trace_written && !o.trace_out.empty()) {
      if (std::FILE* f = std::fopen(o.trace_out.c_str(), "wb")) {
        std::fwrite(ep.trace_json.data(), 1, ep.trace_json.size(), f);
        std::fclose(f);
        trace_written = true;
      }
    }
  }
  j.end_array();
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}
