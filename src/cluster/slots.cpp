#include "cluster/slots.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace oftt::cluster {

namespace {
// Bound on max - min + 1 of the configured ids (4 M int slots, 16 MB).
constexpr std::int64_t kMaxSpan = std::int64_t{1} << 22;

const SlotIndex kNoMembers;
}  // namespace

SlotIndex::SlotIndex(std::vector<int> nodes) : nodes_(std::move(nodes)) {
  std::sort(nodes_.begin(), nodes_.end());
  if (std::adjacent_find(nodes_.begin(), nodes_.end()) != nodes_.end()) {
    throw std::invalid_argument("SlotIndex: duplicate node id");
  }
  if (nodes_.empty()) return;
  base_ = nodes_.front();
  const std::int64_t span = std::int64_t{nodes_.back()} - base_ + 1;
  if (span > kMaxSpan) {
    throw std::invalid_argument("SlotIndex: node ids span too wide for a slot table");
  }
  table_.assign(static_cast<std::size_t>(span), kNoSlot);
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    table_[static_cast<std::size_t>(nodes_[s] - base_)] = static_cast<int>(s);
  }
}

MemberSet::MemberSet() : index_(&kNoMembers) {}

std::size_t MemberSet::size() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

}  // namespace oftt::cluster
