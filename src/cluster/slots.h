// SlotIndex and MemberSet: dense per-member bookkeeping over a unit's
// static configured membership.
//
// The membership is fixed by configuration (OfttConfig::cluster_nodes):
// promotion and rejoin relabel and reorder members, they never add or
// remove one. So each member resolves once to a dense slot — its
// position in ascending node-id order — and per-member state lives in
// plain arrays indexed by slot instead of node-keyed maps. Lookups are
// one subtraction and one bounds check.
//
// Node ids reach slot() straight off the wire, so it fails closed:
// anything outside the configured set (negative ids, ids past the
// largest member, gaps between members) answers kNoSlot, and callers
// drop the frame instead of growing state for it.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

namespace oftt::cluster {

class SlotIndex {
 public:
  static constexpr int kNoSlot = -1;

  SlotIndex() = default;
  /// Slots in ascending node-id order. Throws std::invalid_argument on a
  /// duplicate id, or when the ids span more than a direct lookup table
  /// should hold (sim node ids are dense, so real configs never do).
  explicit SlotIndex(std::vector<int> nodes);

  int slot(int node) const {
    // One unsigned compare rejects ids on either side of the table.
    const auto off = static_cast<std::uint64_t>(static_cast<std::int64_t>(node) - base_);
    return off < table_.size() ? table_[off] : kNoSlot;
  }
  bool contains(int node) const { return slot(node) != kNoSlot; }
  std::size_t size() const { return nodes_.size(); }
  /// The configured members, ascending; nodes()[s] is the node at slot s.
  const std::vector<int>& nodes() const { return nodes_; }

 private:
  std::int64_t base_ = 0;
  std::vector<int> nodes_;
  std::vector<int> table_;  // node - base_ -> slot, kNoSlot in the gaps
};

/// A set of configured members: a bitmap over a SlotIndex's slots.
/// Inserting an unconfigured node is a no-op. The index must outlive
/// the set.
class MemberSet {
 public:
  /// The empty set over no members: inserts are no-ops until a set over
  /// a real index is assigned.
  MemberSet();
  explicit MemberSet(const SlotIndex& index)
      : index_(&index), words_((index.size() + 63) / 64, 0) {}
  MemberSet(const SlotIndex& index, std::initializer_list<int> nodes) : MemberSet(index) {
    for (int n : nodes) insert(n);
  }

  bool contains(int node) const {
    const int s = index_->slot(node);
    return s != SlotIndex::kNoSlot && (words_[word(s)] & bit(s)) != 0;
  }
  void insert(int node) {
    const int s = index_->slot(node);
    if (s != SlotIndex::kNoSlot) words_[word(s)] |= bit(s);
  }
  void erase(int node) {
    const int s = index_->slot(node);
    if (s != SlotIndex::kNoSlot) words_[word(s)] &= ~bit(s);
  }
  std::size_t size() const;

 private:
  static std::size_t word(int s) { return static_cast<std::size_t>(s) / 64; }
  static std::uint64_t bit(int s) { return std::uint64_t{1} << (s % 64); }

  const SlotIndex* index_;
  std::vector<std::uint64_t> words_;
};

}  // namespace oftt::cluster
