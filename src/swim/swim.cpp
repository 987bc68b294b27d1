#include "swim/swim.h"

#include "common/strings.h"

namespace oftt::swim {

const char* member_state_name(MemberState s) {
  switch (s) {
    case MemberState::kAlive: return "alive";
    case MemberState::kSuspect: return "suspect";
    case MemberState::kDead: return "dead";
  }
  return "?";
}

std::string update_summary(const Update& u) {
  return cat(u.node, " ", member_state_name(u.state), "@", u.incarnation);
}

}  // namespace oftt::swim
