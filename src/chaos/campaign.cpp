#include "chaos/campaign.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/strings.h"
#include "common/sweep.h"
#include "core/api.h"
#include "core/deployment.h"
#include "nt/runtime.h"
#include "obs/json.h"
#include "opc/client.h"
#include "opc/device.h"
#include "opc/server.h"
#include "sim/timer.h"

namespace oftt::chaos {

namespace {

/// Survivor criterion: failover p99 above this factor x baseline.
constexpr double kP99Factor = 1.2;
/// Most entries one campaign adds to its corpus.
constexpr int kMaxCorpus = 24;

/// The fixed evaluation workload: a checkpointable counter app (the
/// same shape as tests' CounterApp) ticking every 10 ms, so failover
/// traces have application state to restore and progress to resume.
/// Alongside it, a small OPC data plane — a two-signal PLC scanned at
/// 50 ms feeding an in-process change-driven group (100 ms tick, 5%
/// deadband) — so schedules exercise notification batch shapes,
/// deadband suppression, and the BAD-quality storm / all-GOOD recovery
/// that kDeviceFault injects.
class CampaignApp {
 public:
  explicit CampaignApp(sim::Process& process) : timer_(process.main_strand()) {
    auto& rt = nt::NtRuntime::of(process);
    rt.create_thread_static("app_main", 0x401000);
    region_ = &rt.memory().alloc("globals", 64);
    counter_ = nt::Cell<std::int64_t>(region_, 0);
    core::OFTTInitialize(process);
    core::Ftim& ftim = *core::Ftim::find(process);
    ftim.on_activate([this](bool) {
      timer_.start(sim::milliseconds(10), [this] { counter_.set(counter_.get() + 1); });
    });
    ftim.on_deactivate([this] { timer_.stop(); });

    device_ = std::make_shared<opc::PlcDevice>("plc", sim::milliseconds(50));
    device_->add_input("ai.temp",
                       std::make_unique<opc::SineSignal>(80.0, 10.0, 2.0, /*noise=*/0.5));
    device_->add_input("ai.flow",
                       std::make_unique<opc::RandomWalkSignal>(40.0, 1.5, 0.0, 100.0));
    device_->start(process.main_strand(), process.sim().fork_rng(process.name() + ".plc"));
    group_ = opc::OpcGroupObject::create(process, device_, "campaign",
                                         sim::milliseconds(100));
    group_->AddItems({"ai.temp", "ai.flow"}, nullptr);
    group_->SetDeadband(5.0, nullptr);
    sink_ = opc::DataSink::create([](std::uint32_t, const std::vector<opc::ItemState>&) {});
    group_->SetCallback(com::ComPtr<opc::IOPCDataCallback>(sink_.get()), nullptr);
  }

  void set_device_faulted(bool faulted) { device_->set_faulted(faulted); }

 private:
  nt::Region* region_ = nullptr;
  nt::Cell<std::int64_t> counter_;
  sim::PeriodicTimer timer_;
  std::shared_ptr<opc::PlcDevice> device_;
  com::ComPtr<opc::OpcGroupObject> group_;
  com::ComPtr<opc::DataSink> sink_;
};

/// Why a schedule earned its corpus slot — in check priority order.
enum class Reason { kDualPrimary, kP99, kCoverage };

const char* reason_name(Reason r) {
  switch (r) {
    case Reason::kDualPrimary: return "dual_primary";
    case Reason::kP99: return "p99_regression";
    case Reason::kCoverage: return "new_coverage";
  }
  return "?";
}

const char* reason_prefix(Reason r) {
  switch (r) {
    case Reason::kDualPrimary: return "dual";
    case Reason::kP99: return "p99";
    case Reason::kCoverage: return "cov";
  }
  return "?";
}

}  // namespace

EvalResult evaluate(const ScheduleSpec& spec, const EvalOptions& opts) {
  sim::Simulation sim(opts.sim_seed);
  sim.set_engine(opts.engine);
  core::PairDeploymentOptions dopts;
  dopts.with_diverter = true;
  dopts.app_factory = [](sim::Process& proc) { proc.attachment<CampaignApp>(proc); };
  core::PairDeployment dep(sim, dopts);

  CoverageProbe probe(sim.telemetry());

  Targets targets;
  targets.nodes = {dep.node_a().id(), dep.node_b().id()};
  targets.bystanders = {dep.monitor_node().id()};
  targets.network = 0;
  targets.set_device_faulted = [&dep](int node, bool faulted) {
    sim::Node* n = node == dep.node_a().id()   ? &dep.node_a()
                   : node == dep.node_b().id() ? &dep.node_b()
                                               : nullptr;
    if (!n) return;
    auto proc = n->find_process("app");  // null while the app is dead
    if (!proc) return;
    if (auto* app = proc->find_attachment<CampaignApp>()) {
      app->set_device_faulted(faulted);
    }
  };

  sim::FaultPlan plan(sim);
  std::vector<CompiledOp> compiled = compile(spec, plan, targets);
  plan.arm();
  sim.run_until(opts.run_for);
  probe.finish();

  EvalResult res;
  res.coverage = probe.map();
  res.history_hash = probe.history_hash();
  res.events = probe.events();
  res.dual_primary = probe.count_of(obs::EventKind::kDualPrimary);

  std::vector<std::int64_t> totals;
  for (const obs::FailoverTrace& tr : sim.telemetry().spans().traces()) {
    ++res.traces;
    if (tr.complete()) {
      ++res.complete_traces;
      totals.push_back(tr.total());
    }
  }
  if (!totals.empty()) {
    res.failover_max = *std::max_element(totals.begin(), totals.end());
    res.failover_p99 = obs::percentile(std::move(totals), 0.99);
  }

  res.op_fired.reserve(compiled.size());
  for (const CompiledOp& op : compiled) {
    bool fired = false;
    for (std::size_t s = 0; s < op.step_count; ++s) {
      if (plan.step_fired(op.first_step + s)) fired = true;
    }
    res.op_fired.push_back(fired);
  }
  return res;
}

ScheduleSpec baseline_schedule() {
  // The canonical single fault: one NT crash of the startup primary
  // (victim index 0 = node A) mid-run, rebooting 15 s later — one clean
  // detection -> promotion -> reroute cycle whose total anchors the p99
  // threshold. Crashing the backup instead would never complete a
  // failover trace and would leave the threshold unanchored.
  ScheduleSpec spec;
  spec.ops.push_back(
      FaultOp{OpKind::kOsCrash, sim::seconds(10), 0, sim::seconds(15), 0, 0});
  spec.normalize();
  return spec;
}

Campaign::Campaign(CampaignOptions options)
    : options_(std::move(options)), rng_(options_.seed) {}

bool Campaign::preserves(const EvalResult& r, const CoverageMap& required, bool p99_case,
                         bool dual_primary_case) const {
  if (dual_primary_case) return r.dual_primary > 0;
  if (p99_case) return r.failover_p99 > p99_threshold_;
  return r.coverage.covers(required);
}

ScheduleSpec Campaign::shrink(ScheduleSpec spec, const CoverageMap& required,
                              bool p99_case, bool dual_primary_case,
                              const EvalResult& full) {
  // Phase 1 — free removals: an op none of whose FaultPlan steps fired
  // scheduled only never-executed events, which cannot have perturbed
  // the executed history. Drop them without spending evaluations.
  ScheduleSpec cur;
  for (std::size_t i = 0; i < spec.ops.size(); ++i) {
    if (i < full.op_fired.size() && !full.op_fired[i]) continue;
    cur.ops.push_back(spec.ops[i]);
  }
  if (cur.ops.empty()) return spec;

  // Phase 2 — greedy delta-debugging: try removing each op (last
  // first, so cleanup/heal halves of windows go before their causes),
  // keeping any removal that preserves the survivor property. Restart
  // the pass after a success until a full pass removes nothing or the
  // evaluation budget runs out.
  int budget = options_.shrink_budget;
  bool progress = true;
  while (progress && budget > 0 && cur.ops.size() > 1) {
    progress = false;
    for (std::size_t i = cur.ops.size(); i-- > 0 && budget > 0;) {
      ScheduleSpec candidate = cur;
      candidate.ops.erase(candidate.ops.begin() + static_cast<std::ptrdiff_t>(i));
      EvalResult r = evaluate(candidate, options_.eval);
      ++evals_;
      --budget;
      if (preserves(r, required, p99_case, dual_primary_case)) {
        cur = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return cur;
}

void Campaign::run() {
  // Anchor: evaluate the reference single-fault schedule. Its coverage
  // seeds the global map (ordinary startup + one clean failover is not
  // "new"), its p99 sets the regression threshold.
  EvalResult base = evaluate(baseline_schedule(), options_.eval);
  ++evals_;
  baseline_p99_ = base.failover_p99;
  best_p99_ = base.failover_p99;
  p99_threshold_ =
      baseline_p99_ > 0
          ? static_cast<std::int64_t>(static_cast<double>(baseline_p99_) *
                                      kP99Factor)
          : std::numeric_limits<std::int64_t>::max();
  coverage_.merge(base.coverage);

  std::vector<ScheduleSpec> population;
  population.reserve(static_cast<std::size_t>(options_.population));
  for (int i = 0; i < options_.population; ++i) {
    population.push_back(
        random_schedule(rng_, options_.mutation, 2 + static_cast<int>(rng_.uniform(0, 3))));
  }

  for (int gen = 0; gen < options_.generations; ++gen) {
    int evals_before = evals_;
    // Parallel evaluation: each genome is one independent deterministic
    // simulation; results come back in population order, so triage
    // below is identical for 1 and N evaluator threads.
    std::vector<EvalResult> results =
        sweep_seeds(static_cast<int>(population.size()), [&](int i) {
          return evaluate(population[static_cast<std::size_t>(i)], options_.eval);
        });
    evals_ += static_cast<int>(population.size());

    std::vector<std::size_t> fit;  // parent pool for the next generation
    for (std::size_t i = 0; i < population.size(); ++i) {
      const EvalResult& r = results[i];
      best_p99_ = std::max(best_p99_, r.failover_p99);

      bool dual_case = r.dual_primary > 0;
      bool cov_case = r.coverage.new_bits(coverage_) > 0;
      bool p99_case = r.failover_p99 > p99_threshold_;

      if ((cov_case || p99_case) &&
          static_cast<int>(corpus_.size()) < kMaxCorpus) {
        Reason reason = dual_case  ? Reason::kDualPrimary
                        : p99_case ? Reason::kP99
                                   : Reason::kCoverage;
        CoverageMap required = r.coverage.minus(coverage_);
        ScheduleSpec shrunk = shrink(population[i], required, reason == Reason::kP99,
                                     reason == Reason::kDualPrimary, r);
        EvalResult final_r = evaluate(shrunk, options_.eval);
        ++evals_;
        std::uint64_t fp = shrunk.fingerprint();
        bool dup = std::find(corpus_fingerprints_.begin(), corpus_fingerprints_.end(),
                             fp) != corpus_fingerprints_.end() ||
                   std::find(corpus_hashes_.begin(), corpus_hashes_.end(),
                             final_r.history_hash) != corpus_hashes_.end();
        if (!dup) {
          CorpusEntry entry;
          char name[32];
          std::snprintf(name, sizeof name, "%s-%04d", reason_prefix(reason), next_name_);
          entry.name = name;
          ++next_name_;
          entry.reason = reason_name(reason);
          entry.eval_seed = options_.eval.sim_seed;
          entry.run_for = options_.eval.run_for;
          entry.history_hash = final_r.history_hash;
          entry.failover_p99 = final_r.failover_p99;
          entry.ops_before_shrink = population[i].ops.size();
          entry.spec = shrunk;
          corpus_fingerprints_.push_back(fp);
          corpus_hashes_.push_back(final_r.history_hash);
          corpus_.push_back(std::move(entry));
          coverage_.merge(final_r.coverage);
        }
        fit.push_back(i);
      }
      // Everything evaluated feeds the global map, so the same bits are
      // never "new" twice.
      coverage_.merge(r.coverage);
    }

    stats_.push_back(GenerationStats{gen, evals_ - evals_before, coverage_.count(),
                                     corpus_.size(), best_p99_});

    if (gen + 1 == options_.generations) break;

    // Breed the next generation: survivors and corpus members are
    // parents; a slice of fresh randoms keeps exploration alive.
    std::vector<ScheduleSpec> next;
    next.reserve(population.size());
    auto pick_parent = [&]() -> const ScheduleSpec& {
      bool from_corpus = !corpus_.empty() && rng_.chance(0.5);
      if (from_corpus) {
        return corpus_[static_cast<std::size_t>(rng_.uniform(
                           0, static_cast<std::int64_t>(corpus_.size()) - 1))]
            .spec;
      }
      if (!fit.empty() && rng_.chance(0.7)) {
        return population[fit[static_cast<std::size_t>(
            rng_.uniform(0, static_cast<std::int64_t>(fit.size()) - 1))]];
      }
      return population[static_cast<std::size_t>(
          rng_.uniform(0, static_cast<std::int64_t>(population.size()) - 1))];
    };
    for (int i = 0; i < options_.population; ++i) {
      if (rng_.chance(0.15)) {
        next.push_back(random_schedule(rng_, options_.mutation,
                                       2 + static_cast<int>(rng_.uniform(0, 3))));
        continue;
      }
      ScheduleSpec child;
      if (rng_.chance(0.3)) {
        child = splice(pick_parent(), pick_parent(), rng_, options_.mutation);
      } else {
        child = pick_parent();
      }
      int mutations = 1 + static_cast<int>(rng_.uniform(0, 2));
      for (int m = 0; m < mutations; ++m) mutate(child, rng_, options_.mutation);
      next.push_back(std::move(child));
    }
    population = std::move(next);
  }
}

}  // namespace oftt::chaos
