#include "swim/detector.h"

#include <algorithm>
#include <cmath>

namespace oftt::swim {

namespace {
/// How many frames each update rides before it is dropped from the
/// buffer. The SWIM dissemination bound: lambda * log2(N) piggyback
/// rides get an update to every member with high probability; lambda = 3.
int retransmit_budget(std::size_t n) {
  int log2n = 1;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  return 3 * std::max(1, log2n);
}
}  // namespace

Detector::Detector(DetectorConfig config, sim::Rng rng)
    : config_(std::move(config)), rng_(rng) {
  budget_ = retransmit_budget(config_.members.size());
  std::vector<int> peers;
  peers.reserve(config_.members.size());
  for (int node : config_.members) {
    if (node != config_.self) peers.push_back(node);
  }
  slots_ = cluster::SlotIndex(std::move(peers));
  members_.resize(slots_.size());
  for (std::size_t s = 0; s < members_.size(); ++s) members_[s].node = slots_.nodes()[s];
  reshuffle();
}

Detector::MemberInfo* Detector::find(int node) {
  const int s = slots_.slot(node);
  return s == cluster::SlotIndex::kNoSlot ? nullptr : &members_[static_cast<std::size_t>(s)];
}

const Detector::MemberInfo* Detector::find(int node) const {
  const int s = slots_.slot(node);
  return s == cluster::SlotIndex::kNoSlot ? nullptr : &members_[static_cast<std::size_t>(s)];
}

void Detector::reshuffle() {
  order_.clear();
  for (const MemberInfo& m : members_) order_.push_back(m.node);
  // Fisher-Yates on the injected stream: every member walks its peers
  // in an independent random order, so probe load spreads evenly and no
  // two members gang up on the same victim every period.
  for (std::size_t i = order_.size(); i > 1; --i) {
    std::size_t j = static_cast<std::size_t>(
        rng_.uniform(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order_[i - 1], order_[j]);
  }
  order_pos_ = 0;
}

void Detector::tick(sim::SimTime now, std::vector<Transition>& out) {
  // Close out the previous probe round: a full protocol period elapsed
  // with neither a direct nor an indirect ack — suspect the target at
  // the incarnation we hold for it.
  if (round_.target >= 0 && !round_.acked) {
    const MemberInfo* m = find(round_.target);
    if (m != nullptr && m->state == MemberState::kAlive) {
      apply(Update{round_.target, m->incarnation, MemberState::kSuspect}, now, out);
    }
    round_.target = -1;
    round_.acked = true;
  }
  // Expire suspicions whose refutation window closed.
  if (suspects_ == 0) return;
  for (const MemberInfo& m : members_) {
    if (m.state == MemberState::kSuspect && now >= m.suspect_deadline) {
      apply(Update{m.node, m.incarnation, MemberState::kDead}, now, out);
    }
  }
}

int Detector::next_target(sim::SimTime now) {
  // Randomized round-robin (the SWIM paper's time-bounded variant):
  // walk a shuffled traversal of every peer, reshuffling at each wrap,
  // so a failed member is probed within N periods deterministically —
  // not merely in expectation. Confirmed-dead members are skipped; they
  // rejoin via refutation, not probing.
  for (std::size_t scanned = 0; scanned < 2 * order_.size() + 1; ++scanned) {
    if (order_pos_ >= order_.size()) reshuffle();
    if (order_.empty()) return -1;
    int candidate = order_[order_pos_++];
    const MemberInfo* m = find(candidate);
    if (m == nullptr || m->state == MemberState::kDead) continue;
    round_.target = candidate;
    round_.started = now;
    round_.acked = false;
    ++round_.seq;
    return candidate;
  }
  return -1;  // every peer confirmed dead
}

std::vector<int> Detector::proxies(int target, int k) {
  std::vector<int> candidates;
  for (const MemberInfo& m : members_) {
    if (m.node == target || m.state == MemberState::kDead) continue;
    candidates.push_back(m.node);
  }
  std::vector<int> picked;
  for (int i = 0; i < k && !candidates.empty(); ++i) {
    std::size_t j = static_cast<std::size_t>(
        rng_.uniform(0, static_cast<std::int64_t>(candidates.size()) - 1));
    picked.push_back(candidates[j]);
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(j));
  }
  return picked;
}

void Detector::on_ack(int from, std::uint64_t seq, sim::SimTime now) {
  heard_from(from, now);
  if (from == round_.target && seq == round_.seq) round_.acked = true;
}

void Detector::heard_from(int node, sim::SimTime now) {
  if (MemberInfo* m = find(node)) m->last_heard = now;
}

void Detector::absorb(const Update& u, sim::SimTime now, std::vector<Transition>& out) {
  if (u.node != config_.self && find(u.node) == nullptr) {
    return;  // not a configured member — static membership, ignore
  }
  apply(u, now, out);
}

void Detector::apply(const Update& u, sim::SimTime now, std::vector<Transition>& out) {
  if (u.node == config_.self) {
    // Someone accuses US. The SWIM refutation: bump our incarnation
    // past the accusation and disseminate the alive assertion — the
    // higher incarnation supersedes the suspicion (or the premature
    // death certificate) at every member it reaches.
    if (u.state == MemberState::kAlive || u.incarnation < self_incarnation_) return;
    self_incarnation_ = u.incarnation + 1;
    enqueue(Update{config_.self, self_incarnation_, MemberState::kAlive});
    Transition tr;
    tr.node = config_.self;
    tr.incarnation = self_incarnation_;
    tr.from = u.state;
    tr.to = MemberState::kAlive;
    tr.refuted_death = u.state == MemberState::kDead;
    out.push_back(tr);
    return;
  }
  MemberInfo& m = *find(u.node);  // absorb() and tick() pass configured peers only
  if (!u.supersedes(m.incarnation, m.state)) return;
  Transition tr;
  tr.node = u.node;
  tr.incarnation = u.incarnation;
  tr.from = m.state;
  tr.to = u.state;
  if (m.state == MemberState::kSuspect) tr.suspected_for = now - m.suspect_since;
  tr.refuted_death = m.state == MemberState::kDead && u.state == MemberState::kAlive;
  suspects_ += static_cast<std::size_t>(u.state == MemberState::kSuspect);
  suspects_ -= static_cast<std::size_t>(m.state == MemberState::kSuspect);
  m.incarnation = u.incarnation;
  m.state = u.state;
  switch (u.state) {
    case MemberState::kAlive:
      m.suspect_since = 0;
      m.suspect_deadline = 0;
      // An alive assertion is proof of life even when relayed: the
      // incarnation bump originated at the member itself.
      m.last_heard = std::max(m.last_heard, now);
      break;
    case MemberState::kSuspect:
      m.suspect_since = now;
      m.suspect_deadline = now + config_.suspicion_timeout;
      break;
    case MemberState::kDead:
      m.suspect_since = 0;
      m.suspect_deadline = 0;
      break;
  }
  enqueue(Update{u.node, u.incarnation, u.state});
  if (tr.from != tr.to) out.push_back(tr);
}

void Detector::enqueue(const Update& u) {
  for (auto& b : buffer_) {
    if (b.update.node != u.node) continue;
    if (u == b.update) return;  // already disseminating exactly this
    if (u.supersedes(b.update.incarnation, b.update.state)) {
      b.update = u;
      b.sends = 0;  // fresh news restarts the ride budget
    }
    return;  // an older assertion never displaces a newer one
  }
  buffer_.push_back(Buffered{u, 0});
}

void Detector::piggyback(std::vector<Update>& out) {
  // Freshness-prioritized: least-travelled updates first (they have the
  // most members left to infect), node id as the deterministic
  // tie-break. An insertion sort is stable, like std::stable_sort, but
  // needs no scratch buffer; the buffer stays nearly sorted between
  // calls, since only the entries just sent move.
  auto before = [](const Buffered& a, const Buffered& b) {
    if (a.sends != b.sends) return a.sends < b.sends;
    return a.update.node < b.update.node;
  };
  for (std::size_t i = 1; i < buffer_.size(); ++i) {
    const Buffered x = buffer_[i];
    std::size_t j = i;
    for (; j > 0 && before(x, buffer_[j - 1]); --j) buffer_[j] = buffer_[j - 1];
    buffer_[j] = x;
  }
  out.clear();
  for (auto& b : buffer_) {
    if (out.size() >= kMaxPiggyback) break;
    out.push_back(b.update);
    ++b.sends;
  }
  buffer_.erase(std::remove_if(buffer_.begin(), buffer_.end(),
                               [this](const Buffered& b) { return b.sends >= budget_; }),
                buffer_.end());
}

void Detector::piggyback_for(int peer, std::vector<Update>& out) {
  piggyback(out);
  const MemberInfo* m = find(peer);
  if (m == nullptr || m->state == MemberState::kAlive) return;
  Update accusation{peer, m->incarnation, m->state};
  for (const Update& u : out) {
    if (u.node == peer) return;  // already riding this frame
  }
  if (out.size() >= kMaxPiggyback && !out.empty()) out.pop_back();
  out.insert(out.begin(), accusation);
}

void Detector::announce(int node) {
  if (node == config_.self) {
    enqueue(Update{config_.self, self_incarnation_, MemberState::kAlive});
    return;
  }
  if (const MemberInfo* m = find(node)) enqueue(Update{node, m->incarnation, m->state});
}

MemberState Detector::state(int node) const {
  if (node == config_.self) return MemberState::kAlive;
  const MemberInfo* m = find(node);
  return m == nullptr ? MemberState::kDead : m->state;
}

std::uint32_t Detector::incarnation(int node) const {
  if (node == config_.self) return self_incarnation_;
  const MemberInfo* m = find(node);
  return m == nullptr ? 0 : m->incarnation;
}

sim::SimTime Detector::last_heard(int node) const {
  const MemberInfo* m = find(node);
  return m == nullptr ? 0 : m->last_heard;
}

sim::SimTime Detector::suspect_since(int node) const {
  const MemberInfo* m = find(node);
  return m == nullptr || m->state != MemberState::kSuspect ? 0 : m->suspect_since;
}

}  // namespace oftt::swim
