#include "cluster/membership.h"

#include <algorithm>

namespace oftt::cluster {

const char* member_role_name(MemberRole r) {
  switch (r) {
    case MemberRole::kUnknown: return "unknown";
    case MemberRole::kPrimary: return "primary";
    case MemberRole::kBackup: return "backup";
    case MemberRole::kDead: return "dead";
  }
  return "?";
}

namespace {

// Raise each of `into`'s heartbeat observations to `from`'s for the same
// node. Views of one unit list the same members, mostly in the same rank
// order, so members pair up by position; only a reordered stretch (a
// promotion or rejoin moved ranks) pays for a node-sorted copy of
// `from`, built once. O(N) in the common case, O(N log N) at worst —
// never the pairwise O(N^2) lookup.
void keep_freshest(std::vector<Member>& into, const std::vector<Member>& from) {
  std::vector<const Member*> by_node;
  for (std::size_t i = 0; i < into.size(); ++i) {
    Member& m = into[i];
    const Member* match = nullptr;
    if (i < from.size() && from[i].node == m.node) {
      match = &from[i];
    } else {
      if (by_node.empty()) {
        by_node.reserve(from.size());
        for (const Member& f : from) by_node.push_back(&f);
        std::stable_sort(by_node.begin(), by_node.end(),
                         [](const Member* a, const Member* b) { return a->node < b->node; });
      }
      auto it = std::lower_bound(by_node.begin(), by_node.end(), m.node,
                                 [](const Member* f, int node) { return f->node < node; });
      if (it != by_node.end() && (*it)->node == m.node) match = *it;
    }
    if (match != nullptr) m.last_heartbeat = std::max(m.last_heartbeat, match->last_heartbeat);
  }
}

}  // namespace

int quorum_required(std::size_t view_size) {
  if (view_size <= 2) return 1;
  return static_cast<int>(view_size / 2) + 1;
}

MembershipView MembershipView::initial(const std::vector<int>& nodes) {
  MembershipView v;
  v.members.reserve(nodes.size());
  int rank = 0;
  for (int node : nodes) {
    Member m;
    m.node = node;
    m.rank = rank++;
    v.members.push_back(m);
  }
  return v;
}

const Member* MembershipView::find(int node) const {
  for (const Member& m : members) {
    if (m.node == node) return &m;
  }
  return nullptr;
}

Member* MembershipView::find(int node) {
  for (Member& m : members) {
    if (m.node == node) return &m;
  }
  return nullptr;
}

const Member* MembershipView::primary() const {
  for (const Member& m : members) {
    if (m.role == MemberRole::kPrimary) return &m;
  }
  return nullptr;
}

bool MembershipView::superseded_by(const MembershipView& other) const {
  if (other.incarnation != incarnation) return other.incarnation > incarnation;
  return other.version > version;
}

bool MembershipView::merge(const MembershipView& other) {
  if (superseded_by(other)) {
    // Adopt the newer view wholesale, but never lose a fresher local
    // heartbeat observation: the owner's view of a member may be staler
    // than what we heard ourselves.
    MembershipView adopted = other;
    keep_freshest(adopted.members, members);
    bool structural = adopted.members.size() != members.size();
    if (!structural) {
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (members[i].node != adopted.members[i].node ||
            members[i].rank != adopted.members[i].rank ||
            members[i].role != adopted.members[i].role) {
          structural = true;
          break;
        }
      }
    }
    *this = std::move(adopted);
    return structural;
  }
  if (other.incarnation == incarnation && other.version == version) {
    keep_freshest(members, other.members);
  }
  return false;
}

std::string MembershipView::summary() const {
  // Built by append: GCC 12's -Wrestrict falsely fires on chained
  // operator+ of a literal and a std::to_string temporary at -O3.
  std::string s = "v";
  s += std::to_string(version);
  s += " inc";
  s += std::to_string(incarnation);
  s += ':';
  for (const Member& m : members) {
    char mark = '?';
    switch (m.role) {
      case MemberRole::kPrimary: mark = '*'; break;
      case MemberRole::kBackup: mark = '.'; break;
      case MemberRole::kDead: mark = '!'; break;
      case MemberRole::kUnknown: mark = '?'; break;
    }
    s += ' ';
    s += std::to_string(m.node);
    s += mark;
  }
  return s;
}

}  // namespace oftt::cluster
