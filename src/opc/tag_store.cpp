#include "opc/tag_store.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <utility>

#include "common/strings.h"
#include "nt/memory.h"

namespace oftt::opc {

namespace {

[[maybe_unused]] bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

int log2_of(int v) {
  int b = 0;
  while ((1 << b) < v) ++b;
  return b;
}

constexpr std::uint64_t kLanes = 0x0101010101010101ull;  // 1 in every byte
constexpr std::uint64_t kHighBits = 0x8080808080808080ull;
constexpr std::uint64_t kCtrlEmpty = 0x80;

/// The lanes (high bit of each byte) of a control word whose byte
/// equals `h7`. A lane just above a true match may be set too, so
/// callers verify every candidate.
std::uint64_t match_lanes(std::uint64_t word, std::uint64_t h7) {
  const std::uint64_t x = word ^ (kLanes * h7);
  return (x - kLanes) & ~x & kHighBits;
}

std::size_t lane_of(std::uint64_t lanes) {
  return static_cast<std::size_t>(std::countr_zero(lanes)) / 8;
}

}  // namespace

TagStore::TagStore(int shard_count) {
  assert(is_pow2(shard_count));
  shards_.resize(static_cast<std::size_t>(shard_count));
  shard_mask_ = static_cast<std::uint32_t>(shard_count - 1);
  shard_bits_ = log2_of(shard_count);
}

std::uint32_t TagStore::hash_name(std::string_view name) {
  const std::uint64_t h = std::hash<std::string_view>{}(name);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

std::size_t TagStore::probe(std::string_view name, std::uint32_t hash) const {
  const std::size_t group_mask = ctrl_.size() - 1;
  for (std::size_t g = (hash >> 7) & group_mask;; g = (g + 1) & group_mask) {
    const std::uint64_t word = ctrl_[g];
    for (std::uint64_t m = match_lanes(word, hash & 0x7F); m != 0; m &= m - 1) {
      const std::size_t i = g * 8 + lane_of(m);
      const TagId id = slots_[i];
      if (hashes_[id] == hash && this->name(id) == name) return i;
    }
    if ((word & kHighBits) != 0) return g * 8 + lane_of(word & kHighBits);
  }
}

void TagStore::occupy(std::size_t i, TagId id, std::uint32_t hash) {
  const unsigned shift = static_cast<unsigned>(i % 8) * 8;
  std::uint64_t& word = ctrl_[i / 8];
  word = (word & ~(std::uint64_t{0xFF} << shift)) | (std::uint64_t{hash & 0x7F} << shift);
  slots_[i] = id;
}

void TagStore::grow_index() {
  const std::size_t slots = slots_.empty() ? 64 : slots_.size() * 2;
  ctrl_.assign(slots / 8, kLanes * kCtrlEmpty);
  slots_.assign(slots, kInvalidTagId);
  for (TagId id = 0; id < hashes_.size(); ++id) {
    occupy(probe(name(id), hashes_[id]), id, hashes_[id]);
  }
}

TagId TagStore::intern(std::string_view name) {
  if (2 * (size() + 1) > slots_.size()) grow_index();
  const std::uint32_t hash = hash_name(name);
  const std::size_t i = probe(name, hash);
  if (slots_[i] != kInvalidTagId) return slots_[i];
  const TagId id = static_cast<TagId>(size());
  occupy(i, id, hash);
  hashes_.push_back(hash);
  assert(arena_.size() + name.size() <= 0xFFFFFFFFu);
  arena_.append(name);
  name_at_.push_back(static_cast<std::uint32_t>(arena_.size()));
  // Ids are dense and round-robin over the shards, so the new tag's
  // slot is always its shard's next cell.
  shard(id).cells.push_back();
  return id;
}

TagId TagStore::find(std::string_view name) const {
  if (slots_.empty()) return kInvalidTagId;
  return slots_[probe(name, hash_name(name))];
}

std::vector<std::string> TagStore::sorted_names() const {
  std::vector<std::string> out;
  out.reserve(size());
  for (TagId id = 0; id < size(); ++id) out.emplace_back(name(id));
  std::sort(out.begin(), out.end());
  return out;
}

bool TagStore::set(TagId id, const OpcValue& value, Quality quality, sim::SimTime now) {
  Shard& sh = shard(id);
  const std::size_t slot = slot_of(id);
  Cell& c = sh.cells[slot];
  c.ts = now;
  std::uint8_t type = kSlotEmpty;
  std::uint64_t payload = 0;
  bool same;
  if (value.is_real()) {
    // Compare as doubles, as OpcValue equality does: 0.0 == -0.0 and
    // NaN != NaN.
    const double d = value.as_real();
    type = kSlotReal;
    payload = std::bit_cast<std::uint64_t>(d);
    same = c.type == kSlotReal && std::bit_cast<double>(c.payload) == d;
  } else {
    if (value.is_bool()) {
      type = kSlotBool;
      payload = value.as_bool() ? 1 : 0;
    } else if (value.is_int()) {
      type = kSlotInt;
      payload = static_cast<std::uint64_t>(static_cast<std::int64_t>(value.as_int()));
    } else if (value.is_string()) {
      type = kSlotString;
    }
    same = c.type == type && c.payload == payload &&
           (type != kSlotString || strings_.find(id)->second == value);
  }
  if (same && c.quality == quality) return false;
  if (type == kSlotString) {
    strings_.insert_or_assign(id, value);
  } else if (c.type == kSlotString) {
    strings_.erase(id);
  }
  c.type = type;
  c.payload = payload;
  c.quality = quality;
  ++sh.version;
  ++mutations_;
  if (c.dirty == 0) {
    c.dirty = 1;
    sh.dirty_list.push_back(id);
  }
  if (sh.region != nullptr && slot < sh.region_slots) write_slot(sh, slot);
  return true;
}

OpcValue TagStore::value(TagId id) const {
  const Cell& c = cell(id);
  switch (c.type) {
    case kSlotBool: return OpcValue::from_bool(c.payload != 0);
    case kSlotInt:
      return OpcValue::from_int(static_cast<std::int32_t>(static_cast<std::int64_t>(c.payload)));
    case kSlotReal: return OpcValue::from_real(std::bit_cast<double>(c.payload));
    case kSlotString: return strings_.find(id)->second;
    default: return OpcValue();
  }
}

std::size_t TagStore::dirty_count() const {
  std::size_t n = 0;
  for (const Shard& sh : shards_) n += sh.dirty_list.size();
  return n;
}

void TagStore::bind_regions(nt::MemorySpace& memory, const std::string& prefix) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = shards_[i];
    std::size_t slots = sh.cells.size();
    if (slots == 0) continue;
    nt::Region& region = memory.alloc(cat(prefix, ".", i), slots * kSlotBytes);
    // Precise per-slot dirty marks must never collapse to a full-region
    // delta: allow one range per slot.
    region.set_range_limit(slots);
    sh.region = &region;
    sh.region_slots = slots;
    // Seed the region with the current state so the first delta after
    // binding carries real bytes, and so a backup's restored image is
    // complete even for tags that never mutate again.
    for (std::size_t slot = 0; slot < slots; ++slot) write_slot(sh, slot);
  }
  bound_ = true;
}

void TagStore::write_slot(Shard& sh, std::size_t slot) {
  Cell c = sh.cells[slot];
  c.dirty = 0;
  sh.region->write(slot * kSlotBytes, c);
}

void TagStore::reload_from_regions() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = shards_[i];
    if (sh.region == nullptr) continue;
    std::size_t slots = std::min(sh.region_slots, sh.cells.size());
    for (std::size_t slot = 0; slot < slots; ++slot) {
      const Cell raw = sh.region->read<Cell>(slot * kSlotBytes);
      if (raw.type == kSlotString) continue;  // RAM value is the best we have
      Cell& c = sh.cells[slot];
      if (c.type == kSlotString) {
        strings_.erase(static_cast<TagId>(slot << shard_bits_ | i));
      }
      // Fail closed on foreign bytes: an unknown type reads as empty,
      // an unknown quality as BAD, and payloads take the canonical form
      // set() would have written.
      c.type = raw.type;
      switch (raw.type) {
        case kSlotBool: c.payload = raw.payload != 0 ? 1 : 0; break;
        case kSlotInt:
          c.payload = static_cast<std::uint64_t>(static_cast<std::int64_t>(
              static_cast<std::int32_t>(static_cast<std::int64_t>(raw.payload))));
          break;
        case kSlotReal: c.payload = raw.payload; break;
        default:
          c.type = kSlotEmpty;
          c.payload = 0;
          break;
      }
      c.quality = wire_valid(raw.quality) ? raw.quality : Quality::kBad;
      c.ts = raw.ts;
    }
  }
}

SubscriptionHub::SubId SubscriptionHub::add_subscription() {
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    if (!subs_[i].live) {
      subs_[i].live = true;
      return static_cast<SubId>(i);
    }
  }
  subs_.push_back(Sub{});
  subs_.back().live = true;
  return static_cast<SubId>(subs_.size() - 1);
}

void SubscriptionHub::remove_subscription(SubId sub) {
  Sub& s = subs_[sub];
  for (TagId tag : s.tag_of) {
    if (tag == kInvalidTagId) continue;
    auto& routes = subs_by_tag_[tag];
    std::erase_if(routes, [sub](const Route& r) { return r.sub == sub; });
  }
  s = Sub{};
}

bool SubscriptionHub::mark_pending(Sub& s, Slot slot) {
  std::uint64_t& word = s.pending_bits[slot / 64];
  const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
  if ((word & bit) != 0) return false;
  word |= bit;
  return true;
}

SubscriptionHub::Slot SubscriptionHub::subscribe(SubId sub, TagId tag) {
  Sub& s = subs_[sub];
  Slot slot;
  if (!s.free_slots.empty()) {
    slot = s.free_slots.back();
    s.free_slots.pop_back();
    s.tag_of[slot] = tag;
  } else {
    slot = static_cast<Slot>(s.tag_of.size());
    s.tag_of.push_back(tag);
    if (slot % 64 == 0) s.pending_bits.push_back(0);
  }
  if (subs_by_tag_.size() <= tag) subs_by_tag_.resize(tag + 1);
  subs_by_tag_[tag].push_back(Route{sub, slot});
  mark_pending(s, slot);
  return slot;
}

void SubscriptionHub::unsubscribe(SubId sub, Slot slot) {
  Sub& s = subs_[sub];
  std::erase_if(subs_by_tag_[s.tag_of[slot]], [sub](const Route& r) { return r.sub == sub; });
  s.pending_bits[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  s.tag_of[slot] = kInvalidTagId;
  s.free_slots.push_back(slot);
}

void SubscriptionHub::mark_all_pending(SubId sub) {
  Sub& s = subs_[sub];
  for (Slot slot = 0; slot < s.tag_of.size(); ++slot) {
    if (s.tag_of[slot] != kInvalidTagId) mark_pending(s, slot);
  }
}

void SubscriptionHub::invalidate_all() {
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    if (subs_[i].live) mark_all_pending(static_cast<SubId>(i));
  }
}

void SubscriptionHub::pump(sim::SimTime now) {
  if (now == last_pump_) return;
  last_pump_ = now;
  store_->drain_dirty([this](TagId tag) {
    if (tag >= subs_by_tag_.size()) return;
    for (const Route& r : subs_by_tag_[tag]) {
      if (mark_pending(subs_[r.sub], r.slot)) ++routed_;
    }
  });
}

void SubscriptionHub::take_pending(SubId sub, std::vector<Pending>& out) {
  Sub& s = subs_[sub];
  out.clear();
  for (std::size_t w = 0; w < s.pending_bits.size(); ++w) {
    for (std::uint64_t bits = std::exchange(s.pending_bits[w], 0); bits != 0;
         bits &= bits - 1) {
      const auto slot = static_cast<Slot>(w * 64 + std::countr_zero(bits));
      out.push_back(Pending{s.tag_of[slot], slot});
    }
  }
  // Slot order is TagId order until slots are reused or items are added
  // out of TagId order, so the list is usually sorted already.
  const auto by_tag = [](const Pending& a, const Pending& b) { return a.tag < b.tag; };
  if (!std::is_sorted(out.begin(), out.end(), by_tag)) std::sort(out.begin(), out.end(), by_tag);
}

}  // namespace oftt::opc
