#include "cluster/membership.h"

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
  if (!superseded_by(other)) return false;
  const bool structural = other.members != members;
  *this = other;
  return structural;
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
