// SWIM-style membership state: the alive / suspect / confirmed-dead
// lifecycle with incarnation-numbered refutation, and the piggybacked
// membership update that disseminates it.
//
// Background (Das/Gupta/Motivala, "SWIM: Scalable Weakly-consistent
// Infection-style Process Group Membership Protocol"): instead of every
// member heartbeating every other member (O(N^2) messages per period),
// each member probes ONE random peer per protocol period and falls back
// to k indirect probes through random proxies before suspecting it.
// Membership changes ride as bounded piggyback on those probe/ack
// frames — epidemic dissemination reaches every member in O(log N)
// periods while per-node message cost stays O(1).
//
// Layering: swim sits above cluster (whose SlotIndex it keys members
// by) and below core, above common/sim.
// It knows nothing about engines, datagrams or wire framing — core
// owns the frames (SwimProbe/SwimAck/SwimPingReq in core/wire) and
// drives the Detector; cluster keeps quorum-gated promotion. Swim only
// replaces *how liveness is learned*.
#pragma once

#include <cstdint>

namespace oftt::swim {

/// Lifecycle of a member as seen by one observer. The numeric value
/// travels on the wire and orders precedence (see `supersedes`) —
/// append, never renumber.
enum class MemberState : std::uint8_t {
  kAlive = 0,
  /// Failed a direct probe and k indirect probes; presumed up until the
  /// suspicion timeout elapses (the grace window in which the accused
  /// member can refute with a higher incarnation).
  kSuspect = 1,
  /// Suspicion timeout elapsed without refutation: declared failed.
  kDead = 2,
};

const char* member_state_name(MemberState s);
constexpr bool wire_valid(MemberState s) { return s <= MemberState::kDead; }

/// One piggybacked membership assertion: "node is <state> at
/// <incarnation>". Joins are alive updates, suspicions/confirmations
/// carry the incarnation they accuse, refutations are alive updates at
/// a freshly bumped incarnation.
struct Update {
  int node = -1;
  std::uint32_t incarnation = 0;
  MemberState state = MemberState::kAlive;

  /// SWIM precedence: an update wins against the current (incarnation,
  /// state) when its incarnation is strictly newer, or — at the same
  /// incarnation — its state is strictly graver (alive < suspect <
  /// dead). A higher-incarnation alive therefore refutes both suspicion
  /// and confirmed death, which is also how a rebooted member readmits
  /// itself without a separate join protocol.
  bool supersedes(std::uint32_t cur_incarnation, MemberState cur_state) const {
    if (incarnation != cur_incarnation) return incarnation > cur_incarnation;
    return static_cast<std::uint8_t>(state) > static_cast<std::uint8_t>(cur_state);
  }

  template <class V> void fields(V& v) {
    v(node); v(incarnation); v(state);
  }

  bool operator==(const Update&) const = default;
};

}  // namespace oftt::swim
