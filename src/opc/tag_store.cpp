#include "opc/tag_store.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <functional>
#include <type_traits>
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

/// The on-region image of one tag (see TagStore::kSlotBytes). Written
/// through nt::Region::write so each store goes into the dirty tracker
/// as one precise slot-sized range.
struct Slot {
  std::uint8_t type = 0;
  std::uint8_t quality = 0;
  std::uint8_t pad[6] = {};
  std::uint64_t payload = 0;
  std::int64_t ts = 0;
};
static_assert(sizeof(Slot) == TagStore::kSlotBytes);
static_assert(std::is_trivially_copyable_v<Slot>);

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
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const IndexEntry& e = index_[i];
    if (e.id == kInvalidTagId || (e.hash == hash && names_[e.id] == name)) return i;
  }
}

void TagStore::grow_index() {
  std::vector<IndexEntry> old = std::move(index_);
  index_.assign(old.empty() ? 16 : old.size() * 2, IndexEntry{});
  const std::size_t mask = index_.size() - 1;
  for (const IndexEntry& e : old) {
    if (e.id == kInvalidTagId) continue;
    std::size_t i = e.hash & mask;
    while (index_[i].id != kInvalidTagId) i = (i + 1) & mask;
    index_[i] = e;
  }
}

TagId TagStore::intern(std::string_view name) {
  if (2 * (names_.size() + 1) > index_.size()) grow_index();
  const std::uint32_t hash = hash_name(name);
  IndexEntry& e = index_[probe(name, hash)];
  if (e.id != kInvalidTagId) return e.id;
  TagId id = static_cast<TagId>(names_.size());
  e = IndexEntry{id, hash};
  names_.emplace_back(name);
  Shard& sh = shards_[static_cast<std::size_t>(shard_of(id))];
  std::size_t slot = slot_of(id);
  if (sh.values.size() <= slot) {
    sh.values.resize(slot + 1);
    sh.quality.resize(slot + 1, Quality::kBad);
    sh.stamps.resize(slot + 1, 0);
    sh.dirty.resize(slot + 1, 0);
  }
  return id;
}

TagId TagStore::find(std::string_view name) const {
  if (index_.empty()) return kInvalidTagId;
  return index_[probe(name, hash_name(name))].id;
}

std::vector<std::string> TagStore::sorted_names() const {
  std::vector<std::string> out = names_;
  std::sort(out.begin(), out.end());
  return out;
}

bool TagStore::set(TagId id, const OpcValue& value, Quality quality, sim::SimTime now) {
  Shard& sh = shards_[static_cast<std::size_t>(shard_of(id))];
  std::size_t slot = slot_of(id);
  bool changed = sh.values[slot] != value || sh.quality[slot] != quality;
  sh.stamps[slot] = now;
  if (!changed) return false;
  sh.values[slot] = value;
  sh.quality[slot] = quality;
  ++sh.version;
  ++mutations_;
  if (sh.dirty[slot] == 0) {
    sh.dirty[slot] = 1;
    sh.dirty_list.push_back(id);
  }
  if (sh.region != nullptr && slot < sh.region_slots) {
    write_slot(sh, slot, value, quality, now);
  }
  return true;
}

std::size_t TagStore::dirty_count() const {
  std::size_t n = 0;
  for (const Shard& sh : shards_) n += sh.dirty_list.size();
  return n;
}

void TagStore::bind_regions(nt::MemorySpace& memory, const std::string& prefix) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = shards_[i];
    std::size_t slots = sh.values.size();
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
    for (std::size_t slot = 0; slot < slots; ++slot) {
      write_slot(sh, slot, sh.values[slot], sh.quality[slot], sh.stamps[slot]);
    }
  }
  bound_ = true;
}

void TagStore::write_slot(Shard& sh, std::size_t slot, const OpcValue& v, Quality q,
                          sim::SimTime now) {
  Slot s;
  if (v.is_bool()) {
    s.type = kSlotBool;
    s.payload = v.as_bool() ? 1 : 0;
  } else if (v.is_int()) {
    s.type = kSlotInt;
    s.payload = static_cast<std::uint64_t>(static_cast<std::int64_t>(v.as_int()));
  } else if (v.is_real()) {
    s.type = kSlotReal;
    double d = v.as_real();
    std::memcpy(&s.payload, &d, sizeof(d));
  } else if (v.is_string()) {
    s.type = kSlotString;  // not restorable; reload keeps the RAM value
  }
  s.quality = static_cast<std::uint8_t>(q);
  s.ts = now;
  sh.region->write(slot * kSlotBytes, s);
}

void TagStore::reload_from_regions() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = shards_[i];
    if (sh.region == nullptr) continue;
    std::size_t slots = std::min(sh.region_slots, sh.values.size());
    for (std::size_t slot = 0; slot < slots; ++slot) {
      Slot raw = sh.region->read<Slot>(slot * kSlotBytes);
      auto q = static_cast<Quality>(raw.quality);
      if (q != Quality::kBad && q != Quality::kUncertain && q != Quality::kGood) {
        q = Quality::kBad;
      }
      OpcValue v;
      switch (raw.type) {
        case kSlotBool: v = OpcValue::from_bool(raw.payload != 0); break;
        case kSlotInt:
          v = OpcValue::from_int(
              static_cast<std::int32_t>(static_cast<std::int64_t>(raw.payload)));
          break;
        case kSlotReal: {
          double d = 0.0;
          std::memcpy(&d, &raw.payload, sizeof(d));
          v = OpcValue::from_real(d);
          break;
        }
        case kSlotString: continue;  // RAM value is the best we have
        default: break;              // kSlotEmpty (or garbage): empty value
      }
      sh.values[slot] = std::move(v);
      sh.quality[slot] = q;
      sh.stamps[slot] = raw.ts;
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
