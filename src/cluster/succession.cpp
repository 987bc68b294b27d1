#include "cluster/succession.h"

#include <algorithm>

namespace oftt::cluster {

int SuccessionPlanner::successor(const MembershipView& view, const MemberSet& live) {
  const Member* best = nullptr;
  for (const Member& m : view.members) {
    if (m.role == MemberRole::kDead) continue;
    if (!live.contains(m.node)) continue;
    if (best == nullptr || m.rank < best->rank) best = &m;
  }
  return best != nullptr ? best->node : -1;
}

int SuccessionPlanner::successor(const MembershipView& view, const MemberSet& live,
                                 const MemberSet& eligible) {
  const Member* best = nullptr;
  for (const Member& m : view.members) {
    if (m.role == MemberRole::kDead) continue;
    if (!live.contains(m.node)) continue;
    if (!eligible.contains(m.node)) continue;
    if (best == nullptr || m.rank < best->rank) best = &m;
  }
  if (best != nullptr) return best->node;
  // Nobody both live and eligible: degrade to seniority among the
  // living rather than leaving the unit headless.
  return successor(view, live);
}

void SuccessionPlanner::promote(MembershipView& view, int new_primary,
                                std::uint32_t incarnation, const MemberSet& live) {
  std::stable_sort(view.members.begin(), view.members.end(),
                   [](const Member& a, const Member& b) { return a.rank < b.rank; });
  std::vector<Member> survivors, dead;
  for (Member& m : view.members) {
    if (m.node == new_primary) {
      m.role = MemberRole::kPrimary;
      survivors.insert(survivors.begin(), m);
    } else if (live.contains(m.node) && m.role != MemberRole::kDead) {
      m.role = MemberRole::kBackup;
      survivors.push_back(m);
    } else {
      m.role = MemberRole::kDead;
      dead.push_back(m);
    }
  }
  int rank = 0;
  for (Member& m : survivors) m.rank = rank++;
  for (Member& m : dead) m.rank = rank++;
  view.members = std::move(survivors);
  view.members.insert(view.members.end(), dead.begin(), dead.end());
  view.incarnation = incarnation;
  ++view.version;
}

bool SuccessionPlanner::rejoin(MembershipView& view, int node) {
  Member* m = view.find(node);
  if (m == nullptr || m->role != MemberRole::kDead) return false;
  int worst = -1;
  for (const Member& other : view.members) worst = std::max(worst, other.rank);
  m->role = MemberRole::kBackup;
  m->rank = worst + 1;
  std::stable_sort(view.members.begin(), view.members.end(),
                   [](const Member& a, const Member& b) { return a.rank < b.rank; });
  // Compact ranks so they stay dense after repeated rejoin cycles.
  int rank = 0;
  for (Member& other : view.members) other.rank = rank++;
  ++view.version;
  return true;
}

}  // namespace oftt::cluster
