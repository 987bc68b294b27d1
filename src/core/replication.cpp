#include "core/replication.h"

#include <algorithm>
#include <stdexcept>

#include "common/strings.h"
#include "core/ftim.h"

namespace oftt::core {
namespace {

/// Warm-passive capture cadence: the configured period, or a quarter of
/// the checkpoint period (min 1 ms).
sim::SimTime delta_stream_period(const FtimOptions& o) {
  if (o.delta_stream_period > 0) return o.delta_stream_period;
  return std::max<sim::SimTime>(sim::milliseconds(1), o.checkpoint_period / 4);
}

}  // namespace

// Cold passive is the paper's scheme: captures at the configured
// period. Warm passive streams at the (much faster) delta cadence so the
// backup's folded image stays near-current. Semi-active followers
// execute the decision log, so checkpoints degrade to a sparse safety
// net (bootstrap for joining followers, resync after a gap).
sim::SimTime capture_period(ReplicationMode mode, const FtimOptions& o) {
  if (mode == ReplicationMode::kWarmPassive) return delta_stream_period(o);
  if (mode == ReplicationMode::kSemiActive) {
    return std::max<sim::SimTime>(
        o.checkpoint_period,
        o.checkpoint_period * static_cast<sim::SimTime>(o.full_checkpoint_interval));
  }
  return o.checkpoint_period;
}

// Both passive modes keep the Nth-full rhythm — a periodic
// self-contained image is what lets the journal compact and a lost delta
// resync. Semi-active safety-net images are always self-contained.
bool capture_as_delta(ReplicationMode mode, const FtimOptions& o, bool force_full,
                      std::uint64_t seq, std::uint32_t since_full) {
  const bool deltas_enabled = o.checkpoint_mode == CheckpointMode::kFull &&
                              o.full_checkpoint_interval > 1 && o.track_dirty_ranges;
  if (mode == ReplicationMode::kSemiActive || !deltas_enabled || force_full || seq == 0) {
    return false;
  }
  return since_full + 1 < o.full_checkpoint_interval;
}

sim::SimTime staleness_bound(ReplicationMode mode, const FtimOptions& o) {
  // A cold backup restores the whole image at activation; a stale one
  // is merely further behind, never unfit.
  if (mode == ReplicationMode::kColdPassive) return 0;
  if (o.promotion_staleness_bound > 0) return o.promotion_staleness_bound;
  return 8 * (mode == ReplicationMode::kWarmPassive ? delta_stream_period(o)
                                                    : o.checkpoint_period);
}

bool promotion_ready(ReplicationMode mode, const FtimOptions& o, sim::SimTime applied_at,
                     sim::SimTime evidence) {
  const sim::SimTime bound = staleness_bound(mode, o);
  if (bound <= 0) return true;
  return applied_at + bound >= evidence;
}

ReplicationMode PolicyGovernor::evaluate(ReplicationMode current, double ckpt_bytes_per_s,
                                         double loss_rate) {
  // Semi-active is the application's choice (it must drive the decision
  // log); the governor only arbitrates the passive spectrum.
  if (current == ReplicationMode::kSemiActive) return current;

  if (loss_rate > config_.loss_rate_high) {
    ++lossy_windows_;
    calm_windows_ = 0;
  } else {
    lossy_windows_ = 0;
    ++calm_windows_;
  }
  if (ckpt_bytes_per_s > static_cast<double>(config_.warm_bytes_per_s)) {
    ++heavy_windows_;
  } else {
    heavy_windows_ = 0;
  }

  if (current == ReplicationMode::kWarmPassive) {
    // Degrade: sustained loss amplifies a chatty delta stream's
    // retransmissions, and a sustained heavy byte rate means frequent
    // captures cost more than the switchover time they buy.
    if (lossy_windows_ >= config_.hysteresis_windows ||
        heavy_windows_ >= config_.hysteresis_windows) {
      return ReplicationMode::kColdPassive;
    }
    return current;
  }
  // Upgrade: calm network and an affordable byte rate for long enough.
  if (calm_windows_ >= config_.hysteresis_windows &&
      heavy_windows_ == 0) {
    return ReplicationMode::kWarmPassive;
  }
  return current;
}

void validate_ftim_options(const FtimOptions& o) {
  const bool has_peer = o.peer_node >= 0 || !o.peer_nodes.empty();
  if (o.checkpoint_period <= 0) {
    throw std::invalid_argument(
        cat("ftim: checkpoint_period must be > 0 (got ", o.checkpoint_period, " ns)"));
  }
  if (o.heartbeat_period <= 0) {
    throw std::invalid_argument(
        cat("ftim: heartbeat_period must be > 0 (got ", o.heartbeat_period, " ns)"));
  }
  if (o.full_checkpoint_interval == 0) {
    throw std::invalid_argument(
        "ftim: full_checkpoint_interval must be >= 1 (1 disables deltas)");
  }
  if (o.checkpoint_mode == CheckpointMode::kFull && o.full_checkpoint_interval > 1 &&
      !o.track_dirty_ranges) {
    throw std::invalid_argument(
        cat("ftim: full_checkpoint_interval ", o.full_checkpoint_interval,
            " asks for delta checkpoints but track_dirty_ranges is off — deltas need "
            "dirty tracking (set the interval to 1 or re-enable tracking)"));
  }
  if (o.delta_stream_period < 0) {
    throw std::invalid_argument(
        cat("ftim: delta_stream_period must be >= 0 (got ", o.delta_stream_period, " ns)"));
  }
  if (o.delta_stream_period > 0 && o.replication != ReplicationMode::kWarmPassive) {
    throw std::invalid_argument(
        cat("ftim: delta_stream_period is a warm-passive knob, but replication is ",
            replication_mode_name(o.replication)));
  }
  if (o.replication == ReplicationMode::kWarmPassive && !o.track_dirty_ranges) {
    throw std::invalid_argument(
        "ftim: warm-passive streams dirty-range deltas and cannot run with "
        "track_dirty_ranges off");
  }
  if (o.replication != ReplicationMode::kColdPassive && !has_peer) {
    throw std::invalid_argument(
        cat("ftim: ", replication_mode_name(o.replication),
            " replication needs at least one replication peer (N >= 2); configure "
            "peer_node or peer_nodes"));
  }
  if (o.replication == ReplicationMode::kSemiActive && o.kind != FtimKind::kOpcClient) {
    throw std::invalid_argument(
        "ftim: semi-active replication needs a checkpointable client component "
        "(kind = kOpcClient)");
  }
  if (o.promotion_staleness_bound < 0) {
    throw std::invalid_argument(
        cat("ftim: promotion_staleness_bound must be >= 0 (got ",
            o.promotion_staleness_bound, " ns)"));
  }
  if (o.governor.enabled) {
    if (o.governor.period <= 0) {
      throw std::invalid_argument(
          cat("ftim: governor.period must be > 0 (got ", o.governor.period, " ns)"));
    }
    if (o.governor.hysteresis_windows < 1) {
      throw std::invalid_argument(
          cat("ftim: governor.hysteresis_windows must be >= 1 (got ",
              o.governor.hysteresis_windows, ")"));
    }
    if (o.governor.loss_rate_high < 0.0 || o.governor.loss_rate_high > 1.0) {
      throw std::invalid_argument(
          cat("ftim: governor.loss_rate_high must be within [0, 1] (got ",
              o.governor.loss_rate_high, ")"));
    }
  }
}

}  // namespace oftt::core
