// Campaign: coverage-guided search over fault schedules.
//
// Instead of sampling seeds blindly (bench_chaos E9), the campaign
// holds the workload fixed and searches the *schedule* space: a
// population of ScheduleSpec genomes is evaluated in parallel on the
// shared sweep thread pool (each evaluation is one fully independent
// deterministic simulation), survivors are the schedules that light new
// coverage bits or push failover p99 past 1.2x a reference baseline,
// and each survivor is shrunk to a minimal reproducer before joining
// the corpus. The determinism contract is end-to-end:
//
//   - every evaluation seeds its own Simulation with the same eval
//     seed, so a schedule's event-history hash is a pure function of
//     the genome — byte-identical across evaluator thread counts;
//   - every mutation decision draws from the campaign Rng on the
//     coordinating thread, in population order;
//
// so one (campaign seed, budget) pair always finds the same corpus,
// and a corpus entry replays byte-identically forever — which is what
// lets worst-case schedules be checked in as pinned regression
// scenarios (tests/chaos/corpus_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/coverage.h"
#include "chaos/mutate.h"
#include "chaos/schedule.h"
#include "sim/simulation.h"

namespace oftt::chaos {

struct EvalOptions {
  /// Simulation seed — identical for every evaluation, so the schedule
  /// is the only variable between runs.
  std::uint64_t sim_seed = 42;
  /// Run length; leave headroom past MutationParams::horizon so late
  /// faults still complete their failover.
  sim::SimTime run_for = sim::seconds(75);
  /// Engine selection for the evaluation Simulation. The default
  /// (sequential) keeps every pinned corpus hash; the parallel-engine
  /// equivalence tests replay entries under kParallel and assert the
  /// hash is invariant across worker counts.
  sim::EngineConfig engine;
};

/// Everything one evaluation learned about one schedule.
struct EvalResult {
  CoverageMap coverage;
  std::uint64_t history_hash = 0;
  std::uint64_t events = 0;
  /// Failover totals across *complete* traces (evidence -> reroute).
  std::int64_t failover_p99 = 0;
  std::int64_t failover_max = 0;
  int traces = 0;
  int complete_traces = 0;
  /// kDualPrimary sightings (the invariant the paper's startup logic
  /// nearly broke; any sighting is a worst-case find).
  std::uint64_t dual_primary = 0;
  /// Per-genome-op: did any of its compiled FaultPlan steps fire?
  /// (false = provably inert: the op cannot have influenced the run).
  std::vector<bool> op_fired;
};

/// Build the reference pair deployment (diverter + counter workload),
/// compile + arm `spec`, run, and measure. Pure function of
/// (spec, opts) — the campaign's parallel-evaluation unit.
EvalResult evaluate(const ScheduleSpec& spec, const EvalOptions& opts);

/// The reference single-fault schedule whose failover p99 anchors the
/// "1.2x worse than baseline" survivor criterion.
ScheduleSpec baseline_schedule();

struct CampaignOptions {
  std::uint64_t seed = 1;  // drives mutation/selection only
  EvalOptions eval;
  MutationParams mutation;
  int population = 16;
  int generations = 8;
  /// Cap on shrink re-evaluations per survivor (the greedy loop is
  /// quadratic in ops in the worst case).
  int shrink_budget = 48;
};

struct CorpusEntry {
  std::string name;    // "cov-0001" / "p99-0002"
  std::string reason;  // "new_coverage" | "p99_regression" | "dual_primary"
  std::uint64_t eval_seed = 0;
  sim::SimTime run_for = 0;
  std::uint64_t history_hash = 0;  // of the *shrunk* schedule's replay
  std::int64_t failover_p99 = 0;
  std::size_t ops_before_shrink = 0;
  ScheduleSpec spec;  // shrunk, normalized
};

struct GenerationStats {
  int generation = 0;
  int evals = 0;
  std::size_t coverage_bits = 0;  // global, cumulative
  std::size_t corpus_size = 0;
  std::int64_t best_p99 = 0;  // worst (largest) failover p99 seen so far
};

class Campaign {
 public:
  explicit Campaign(CampaignOptions options);

  /// Run the full budget (generations x population evaluations, plus
  /// shrink re-evaluations for survivors).
  void run();

  const std::vector<CorpusEntry>& corpus() const { return corpus_; }
  const CoverageMap& coverage() const { return coverage_; }
  const std::vector<GenerationStats>& generations() const { return stats_; }
  std::int64_t baseline_p99() const { return baseline_p99_; }
  int total_evals() const { return evals_; }
  const CampaignOptions& options() const { return options_; }

 private:
  /// Greedy minimization: drop provably-inert ops for free, then try
  /// removing each remaining op (re-evaluating) while the survivor
  /// property — still covers `required` bits / still above the p99
  /// threshold / still shows dual-primary — holds.
  ScheduleSpec shrink(ScheduleSpec spec, const CoverageMap& required, bool p99_case,
                      bool dual_primary_case, const EvalResult& full);

  bool preserves(const EvalResult& r, const CoverageMap& required, bool p99_case,
                 bool dual_primary_case) const;

  CampaignOptions options_;
  sim::Rng rng_;
  CoverageMap coverage_;
  std::vector<CorpusEntry> corpus_;
  std::vector<std::uint64_t> corpus_fingerprints_;
  std::vector<std::uint64_t> corpus_hashes_;
  std::vector<GenerationStats> stats_;
  std::int64_t baseline_p99_ = 0;
  std::int64_t p99_threshold_ = 0;
  std::int64_t best_p99_ = 0;
  int evals_ = 0;
  int next_name_ = 1;
};

}  // namespace oftt::chaos
