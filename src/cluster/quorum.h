// Quorum-gated promotion bookkeeping: the candidate side (Campaign)
// and the voter side (VoteLedger).
//
// A backup that believes the primary is dead does not promote on its
// own timer expiry (the pair protocol's behaviour, which tolerates a
// split-brain window during partitions). Instead it opens a Campaign
// for incarnation i+1, asks every live member for an ack, and only
// promotes once acks (plus its own vote) reach a majority of the FULL
// configured membership. Voters grant at most one candidate per
// incarnation — the VoteLedger is what makes two concurrent candidates
// for the same incarnation mutually exclusive.
#pragma once

#include <cstdint>
#include <string>

#include "cluster/slots.h"
#include "sim/time.h"

namespace oftt::cluster {

/// Candidate-side state for one promotion attempt.
struct Campaign {
  bool active = false;
  /// The incarnation this candidate proposes to take over at.
  std::uint32_t incarnation = 0;
  sim::SimTime started = 0;
  std::string reason;
  /// When the failure evidence was observed (feeds the failover span).
  sim::SimTime evidence = 0;
  /// Nodes that granted us their ack. Our own vote is implicit. The
  /// candidate sets it over its member slots when the campaign opens.
  MemberSet votes;
  int retries = 0;

  /// Votes counted toward quorum: granted acks plus our own.
  int tally() const { return static_cast<int>(votes.size()) + 1; }
  void clear() { *this = Campaign{}; }
};

/// Voter-side state: remembers the highest incarnation voted for and
/// which candidate got it, so a voter never acks two different
/// candidates for the same incarnation.
class VoteLedger {
 public:
  /// Returns true iff the vote is granted: first request for an
  /// incarnation above anything granted so far, or an idempotent
  /// repeat from the same candidate at the granted incarnation.
  bool grant(std::uint32_t incarnation, int candidate);

  std::uint32_t granted_incarnation() const { return granted_incarnation_; }
  int granted_candidate() const { return granted_candidate_; }

 private:
  std::uint32_t granted_incarnation_ = 0;
  int granted_candidate_ = -1;
};

}  // namespace oftt::cluster
