// Detector: one member's SWIM failure-detection state machine.
//
// The detector is deliberately transport-free: it owns WHO to probe,
// WHAT each received update means, and WHEN a suspect becomes dead —
// the caller (core::Engine in cluster mode) owns the clock, the frames
// and the sockets, and drives the detector once per protocol period:
//
//   period start   tick(now)            expire suspicions, close out the
//                                       previous probe round (unacked ->
//                                       suspect), emit transitions
//                  next_target()        random-round-robin probe victim
//                  piggyback()          bounded update batch for frames
//   probe timeout  proxies(target, k)   random indirect-probe relays
//   any frame      heard_from / absorb  freshness + update precedence
//   ack arrives    on_ack(from, seq)
//
// Determinism: the only randomness is the injected sim::Rng fork, drawn
// from exclusively here (target shuffles, proxy picks), so adding swim
// to a deployment never perturbs any other module's stream.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/slots.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "swim/swim.h"

namespace oftt::swim {

/// Most membership updates riding one probe/ack frame.
inline constexpr std::size_t kMaxPiggyback = 6;
static_assert(kMaxPiggyback >= 1 && kMaxPiggyback <= 255,
              "the swim frame carries a one-byte update count");

struct DetectorConfig {
  int self = -1;
  /// All configured members, self included (the static membership the
  /// cluster quorum is computed over; swim tracks liveness, not joins
  /// of unknown nodes).
  std::vector<int> members;
  /// suspect -> confirmed-dead grace (the refutation window).
  sim::SimTime suspicion_timeout = 0;
};

/// A state change the caller should surface (events, metrics, view).
struct Transition {
  int node = -1;
  std::uint32_t incarnation = 0;
  MemberState from = MemberState::kAlive;
  MemberState to = MemberState::kAlive;
  /// For suspect -> alive/dead: how long the suspicion lasted.
  sim::SimTime suspected_for = 0;
  /// True when this transition refutes a confirmed death — a member we
  /// declared dead proved alive (false positive, or a rebooted member
  /// readmitting itself).
  bool refuted_death = false;
};

class Detector {
 public:
  Detector(DetectorConfig config, sim::Rng rng);

  // -- protocol period driver -----------------------------------------

  /// Advance time: expire suspicion deadlines (suspect -> dead) and
  /// close out an unresolved probe round (target -> suspect). Appends
  /// every state change to `out`. Call once at the top of each period.
  void tick(sim::SimTime now, std::vector<Transition>& out);

  /// Pick this period's direct-probe target (randomized round-robin
  /// over every non-dead peer — each peer is probed once per traversal,
  /// order reshuffled every wrap). Returns -1 when no peer qualifies.
  /// Opens a new probe round; the previous round must have been closed
  /// by tick().
  int next_target(sim::SimTime now);

  /// The current round's probe sequence number (echoed in acks).
  std::uint64_t probe_seq() const { return round_.seq; }
  /// True while the current round's target has not acked.
  bool probe_outstanding() const { return round_.target >= 0 && !round_.acked; }
  int probe_target() const { return round_.target; }

  /// k random live proxies (≠ self, ≠ target) for the indirect phase.
  std::vector<int> proxies(int target, int k);

  // -- inputs ----------------------------------------------------------

  /// An ack from `from` for probe `seq` (direct, or relayed by a proxy).
  void on_ack(int from, std::uint64_t seq, sim::SimTime now);

  /// Any frame from `node` proves it alive *now*. Refreshes last_heard;
  /// does NOT override suspect/dead state (state changes go through
  /// update precedence so refutation stays incarnation-ordered).
  void heard_from(int node, sim::SimTime now);

  /// Apply one piggybacked update with SWIM precedence. Appends any
  /// resulting state change to `out`. An update accusing *self* of
  /// suspicion/death bumps our incarnation and enqueues the alive
  /// refutation.
  void absorb(const Update& u, sim::SimTime now, std::vector<Transition>& out);

  // -- outputs ---------------------------------------------------------

  /// Up to kMaxPiggyback updates into `out` (cleared first, so a frame
  /// reused across sends keeps its capacity), freshest (least-sent)
  /// first; charges one send to each and drops exhausted ones.
  void piggyback(std::vector<Update>& out);

  /// piggyback() plus a guarantee: when we hold a suspect/dead verdict
  /// about `peer` itself, that accusation leads the batch (budget-free)
  /// — the accused must hear it on first contact so refutation happens
  /// in one round trip instead of waiting on epidemic luck.
  void piggyback_for(int peer, std::vector<Update>& out);

  /// Queue an update about `node`'s current local state (joins at
  /// startup, or a caller-forced re-announcement).
  void announce(int node);

  // -- state queries ---------------------------------------------------

  MemberState state(int node) const;
  std::uint32_t incarnation(int node) const;
  sim::SimTime last_heard(int node) const;
  /// Alive or suspect (suspects are presumed up until confirmed).
  bool presumed_live(int node) const { return state(node) != MemberState::kDead; }
  std::uint32_t self_incarnation() const { return self_incarnation_; }
  /// When `node` entered suspicion (0 when not suspect).
  sim::SimTime suspect_since(int node) const;
  const DetectorConfig& config() const { return config_; }
  /// Effective per-update retransmit budget (resolves the 0 = auto).
  int budget() const { return budget_; }
  std::size_t update_buffer_size() const { return buffer_.size(); }

 private:
  struct MemberInfo {
    int node = -1;
    MemberState state = MemberState::kAlive;
    std::uint32_t incarnation = 0;
    sim::SimTime last_heard = 0;
    sim::SimTime suspect_since = 0;
    sim::SimTime suspect_deadline = 0;
  };
  struct Buffered {
    Update update;
    int sends = 0;
  };
  struct ProbeRound {
    int target = -1;
    std::uint64_t seq = 0;
    sim::SimTime started = 0;
    bool acked = true;
  };

  /// Adopt (incarnation, state) for `node` if it supersedes; record the
  /// transition, restart/clear suspicion clocks, enqueue dissemination.
  void apply(const Update& u, sim::SimTime now, std::vector<Transition>& out);
  void enqueue(const Update& u);
  void reshuffle();
  /// The peer's slot entry; null for self and unconfigured ids.
  MemberInfo* find(int node);
  const MemberInfo* find(int node) const;

  DetectorConfig config_;
  sim::Rng rng_;
  int budget_ = 0;
  std::uint32_t self_incarnation_ = 0;
  /// Peers only (self excluded), one slot each in node-id order — the
  /// order every traversal (reshuffle, tick, proxies) walks, so rng
  /// draws and transitions come out in a fixed sequence.
  cluster::SlotIndex slots_;
  std::vector<MemberInfo> members_;
  /// Members currently suspect: tick() skips the expiry scan at zero.
  std::size_t suspects_ = 0;
  std::vector<Buffered> buffer_;
  std::vector<int> order_;  // current traversal of probe targets
  std::size_t order_pos_ = 0;
  ProbeRound round_;
};

}  // namespace oftt::swim
