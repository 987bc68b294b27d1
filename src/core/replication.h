// Replication modes: the replication mechanism behind the engine/FTIM
// pair, as a few predicates over the configured ReplicationMode.
//
// The paper hardcodes cold-passive primary/backup: periodic checkpoints
// that the backup keeps serialized until a switchover restores them in
// bulk. Component-based adaptive-FT work (Stoicescu/Fabre) treats that
// mechanism as a design dimension, and LLFT shows the other end of the
// recovery-time spectrum — leader-follower replicas that execute the
// workload and promote without any state transfer. The FTIM asks four
// questions at its decision points, and one function answers each:
//
//   * capture cadence  — capture_period()
//   * transfer shape   — capture_as_delta(): self-contained image or
//                        dirty-range delta
//   * apply discipline — folds_on_receipt(): does the backup fold images
//                        into its live runtime on receipt, or hold them
//                        serialized until activation restores them?
//   * switchover hand- — promotion_ready() (via staleness_bound()): is a
//     off                stale replica even fit to take over?
//
// followers_execute() marks semi-active, where replicas execute the
// leader's decision log. Cold-passive reproduces the paper's scheme
// byte-for-byte. PolicyGovernor adds the adaptive layer: it watches the
// checkpoint byte rate and the transport session's retransmission share
// and proposes live switches between cold and warm (never into semi-active,
// which needs the application to drive the decision log).
#pragma once

#include <cstdint>

#include "core/config.h"
#include "sim/time.h"

namespace oftt::core {

struct FtimOptions;

/// State-capture cadence for the active side's checkpoint timer.
sim::SimTime capture_period(ReplicationMode mode, const FtimOptions& o);
/// Transfer shape: ship the next capture as a dirty-range delta?
/// `force_full` is set when a nack, an activation or a switch demanded
/// a self-contained image; `seq` counts the checkpoints taken so far and
/// `since_full` the deltas since the last full one.
bool capture_as_delta(ReplicationMode mode, const FtimOptions& o, bool force_full,
                      std::uint64_t seq, std::uint32_t since_full);
/// Backup apply discipline: fold images into the live runtime as they
/// arrive (true) or hold them serialized until activation restores them
/// in bulk (false).
constexpr bool folds_on_receipt(ReplicationMode mode) {
  return mode != ReplicationMode::kColdPassive;
}
/// Semi-active only: replicas execute the workload, driven by the
/// leader's decision log.
constexpr bool followers_execute(ReplicationMode mode) {
  return mode == ReplicationMode::kSemiActive;
}
/// Promotion-readiness rule: max staleness of a replica's applied state
/// before succession should skip it (0 = always ready — cold backups
/// restore in bulk, so staleness never disqualifies them).
sim::SimTime staleness_bound(ReplicationMode mode, const FtimOptions& o);

/// True when a replica whose newest applied state dates from
/// `applied_at` may take over, given `evidence` — the last moment the
/// primary was provably alive. Readiness is measured against the
/// failure, not against "now": after the primary dies nobody's state
/// advances, and waiting would never make a survivor readier.
bool promotion_ready(ReplicationMode mode, const FtimOptions& o, sim::SimTime applied_at,
                     sim::SimTime evidence);

// ---------------------------------------------------------------------
// Adaptive switching
// ---------------------------------------------------------------------

struct GovernorConfig {
  bool enabled = false;
  /// Sampling window; each evaluation sees the rates over one period.
  sim::SimTime period = sim::seconds(1);
  /// Observed loss (retransmits / data frames) above which the unit
  /// degrades to cold-passive: frequent small deltas amplify
  /// retransmission badly, coarse periodic images ride it out.
  double loss_rate_high = 0.05;
  /// Checkpoint byte rate below which warm streaming is affordable.
  std::uint64_t warm_bytes_per_s = 256 * 1024;
  /// Consecutive over/under-threshold windows before acting (hysteresis
  /// — one noisy window must not flap the policy).
  int hysteresis_windows = 2;
};

/// Pure decision logic: feed it one sample per window, it answers what
/// mode the unit should be in. Never proposes semi-active — followers
/// only execute when the application participates in the decision log,
/// which no metric can detect.
class PolicyGovernor {
 public:
  explicit PolicyGovernor(GovernorConfig config) : config_(config) {}

  ReplicationMode evaluate(ReplicationMode current, double ckpt_bytes_per_s,
                           double loss_rate);

  const GovernorConfig& config() const { return config_; }

 private:
  GovernorConfig config_;
  int lossy_windows_ = 0;
  int calm_windows_ = 0;
  int heavy_windows_ = 0;
};

/// Reject inconsistent replication knobs with a descriptive
/// std::invalid_argument (delta interval without dirty tracking,
/// warm-passive without dirty tracking, semi-active without a peer,
/// nonsense periods). Called by the Ftim constructor; tests call it
/// directly.
void validate_ftim_options(const FtimOptions& options);

}  // namespace oftt::core
