// SuccessionPlanner: deterministic rank-ordered promotion.
//
// Succession is a pure function of (view, live set): the live member
// with the lowest rank is the designated successor, so every survivor
// that can see the same view computes the same answer without any
// coordination round. Coordination only enters through the quorum gate
// (cluster/quorum.h) — the successor still has to collect majority
// acks before it may act on the plan.
#pragma once

#include "cluster/membership.h"
#include "cluster/slots.h"

namespace oftt::cluster {

class SuccessionPlanner {
 public:
  /// The node every survivor should expect to take over: the
  /// lowest-ranked member of `view` that is in `live`. Dead members are
  /// skipped even if (stalely) listed live. Returns -1 if nobody
  /// qualifies.
  static int successor(const MembershipView& view, const MemberSet& live);

  /// Replication-aware variant: prefer the lowest-ranked live member
  /// that is also in `eligible` (replicas fresh enough to promote per
  /// their policy's staleness bound). Falls back to the plain live-only
  /// answer when no live member is eligible — a stale replica beats no
  /// primary at all; it restores what state it has.
  static int successor(const MembershipView& view, const MemberSet& live,
                       const MemberSet& eligible);

  /// Rewrite `view` for `new_primary` taking over at `incarnation`:
  /// the new primary gets rank 0, live survivors re-rank 1..k in their
  /// previous relative order, and members not in `live` are marked dead
  /// and ranked after every survivor (still counted for quorum).
  /// Bumps the view version.
  static void promote(MembershipView& view, int new_primary, std::uint32_t incarnation,
                      const MemberSet& live);

  /// A previously dead member came back: readmit it as a backup with
  /// the worst rank (it re-earns seniority from the back of the line).
  /// No-op if the node is unknown or not dead. Bumps the version on
  /// change; returns true if the view changed.
  static bool rejoin(MembershipView& view, int node);
};

}  // namespace oftt::cluster
