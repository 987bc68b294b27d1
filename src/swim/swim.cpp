#include "swim/swim.h"

namespace oftt::swim {

const char* member_state_name(MemberState s) {
  switch (s) {
    case MemberState::kAlive: return "alive";
    case MemberState::kSuspect: return "suspect";
    case MemberState::kDead: return "dead";
  }
  return "?";
}

}  // namespace oftt::swim
