// MembershipView: the versioned node list at the heart of N-replica
// role management. The paper's OFTT Engine knows exactly one peer; this
// module generalizes that to a ranked member list so an execution unit
// can run one primary plus N-1 backups with deterministic succession.
//
// The view is a small replicated datum, not a consensus log: the
// primary owns it (bumps `version` on every change and gossips it with
// its heartbeats), and everyone else adopts whichever view carries the
// highest (incarnation, version) pair. Promotions go through the
// quorum gate (see cluster/quorum.h), so two views can only compete
// across a partition — and at most one side of a partition can reach
// quorum over the full member list.
//
// Layering: cluster sits below core (core/engine delegates its role
// decisions here) and above common/sim; it knows nothing about
// processes, datagrams, or the engine wire protocol.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace oftt::cluster {

enum class MemberRole : std::uint8_t {
  kUnknown = 0,
  kPrimary = 1,
  kBackup = 2,
  /// Declared failed and re-ranked to the back of the succession order;
  /// kept in the list (quorum counts the full configured membership).
  kDead = 3,
};

const char* member_role_name(MemberRole r);
constexpr bool wire_valid(MemberRole r) { return r <= MemberRole::kDead; }

struct Member {
  int node = -1;
  /// Succession order: rank 0 is the primary, rank 1 its first
  /// successor, and so on. Survivors re-rank after every promotion.
  int rank = 0;
  MemberRole role = MemberRole::kUnknown;

  template <class V> void fields(V& v) {
    v(node); v(rank); v(role);
  }
  bool operator==(const Member&) const = default;
};

/// Votes needed before a backup may self-promote: a strict majority of
/// the FULL configured membership (dead members still count — the
/// static-quorum rule is what keeps a minority partition from ever
/// promoting). A two-member view cannot form a majority without the
/// failed peer, so N=2 degrades to the paper's pair protocol: the
/// survivor's own vote suffices and the split-brain window is closed
/// after the fact by incarnation arbitration.
int quorum_required(std::size_t view_size);

struct MembershipView {
  /// Bumped by the owner on every membership/rank change.
  std::uint64_t version = 0;
  /// Incarnation of the primary this view was built for. Views compare
  /// by (incarnation, version), so a freshly promoted primary's view
  /// supersedes any number of updates from its predecessor.
  std::uint32_t incarnation = 0;
  std::vector<Member> members;  // kept sorted by rank

  /// Rank-ordered initial view: nodes[i] gets rank i, role unknown.
  static MembershipView initial(const std::vector<int>& nodes);

  const Member* find(int node) const;
  Member* find(int node);
  const Member* primary() const;
  std::size_t size() const { return members.size(); }
  int quorum() const { return quorum_required(members.size()); }

  /// True when `other` strictly supersedes this view.
  bool superseded_by(const MembershipView& other) const;
  /// Adopt `other` if it supersedes this view. Returns true when the
  /// member list itself (node, rank or role of any member) changed.
  /// Member liveness is not part of the view: the swim detector owns it.
  bool merge(const MembershipView& other);

  /// Wire layout (embedded in core's ViewGossip / StatusReport).
  template <class V> void fields(V& v) {
    v(version); v(incarnation); v.template list<std::uint16_t>(members);
  }

  /// One-line operator rendering: "v3 inc2: 1*P 2.B 0!D" (rank order;
  /// * primary, . backup, ! dead, ? unknown).
  std::string summary() const;

  bool operator==(const MembershipView&) const = default;
};

}  // namespace oftt::cluster
