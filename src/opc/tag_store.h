// TagStore: the sharded, interned point store behind every OPC Device.
//
// The seed kept device points in a std::map<std::string, ItemState> and
// every subscription group re-read every item by string each tick —
// O(items × groups) per tick with string compares on the hot path. At
// the roadmap's scale (10⁶ tags, 10⁴ subscribed clients) that collapses.
// TagStore replaces it with:
//
//  - string → dense TagId interning: tag names are resolved to a
//    std::uint32_t exactly once (AddItems / add_input time); every hot
//    path after that is an array index. Each name is stored once, in
//    id order; the name index is a flat open-addressing table of ids.
//  - a fixed power-of-two shard count. A tag's shard is `id & mask`, its
//    slot within the shard `id >> shard_bits`, so sequential interning
//    round-robins tags across shards and every shard's slot arrays stay
//    dense.
//  - per-shard version counters and dirty lists: set() appends a tag to
//    its shard's dirty list only on a value/quality *change* (timestamp
//    refreshes alone are not changes), so a scan cycle that rewrites
//    10⁶ mostly-constant points costs O(actually-changed) downstream.
//  - optional nt::Region binding: each shard mirrors its numeric slots
//    into a named checkpointable region ("<prefix>.<shard>"), marking
//    precise slot-sized dirty ranges. FTIM delta checkpoints of a bound
//    store are therefore proportional to the mutation rate, not the tag
//    count — the property that keeps warm-passive streaming small and
//    switchover sub-second with a million-point live state. String
//    values stay RAM-only (slot type kSlotString, payload not
//    restorable); processes that fail over string tags re-learn them
//    from the device scan.
//
// SubscriptionHub rides on top: an inverted TagId → subscriber index
// that routes drained dirty lists into per-subscription pending sets.
// Groups consume their pending set at their own update rate — two
// groups at different rates each see every change exactly once.
//
// Determinism: interning order is the caller's insertion order, dirty
// lists preserve mutation order, and drain/pump walk shards in index
// order — byte-identical event histories per seed, as everywhere else.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "opc/value.h"

namespace oftt::nt {
class MemorySpace;
class Region;
}  // namespace oftt::nt

namespace oftt::opc {

using TagId = std::uint32_t;
inline constexpr TagId kInvalidTagId = 0xFFFFFFFFu;

class TagStore {
 public:
  /// Fixed 24-byte checkpoint slot: [u8 type][u8 quality][6B pad]
  /// [u64 payload][i64 last-change timestamp].
  static constexpr std::size_t kSlotBytes = 24;

  explicit TagStore(int shard_count = 16);

  int shard_count() const { return static_cast<int>(shards_.size()); }
  std::size_t size() const { return names_.size(); }
  int shard_of(TagId id) const { return static_cast<int>(id & shard_mask_); }

  /// Resolve-or-create. Ids are dense, assigned in interning order.
  TagId intern(std::string_view name);
  /// Resolve only; kInvalidTagId when unknown.
  TagId find(std::string_view name) const;
  const std::string& name(TagId id) const { return names_[id]; }
  /// Every tag name, lexicographically sorted (the browse order the
  /// seed's std::map gave for free).
  std::vector<std::string> sorted_names() const;

  /// Store (value, quality) and refresh the timestamp. Returns true —
  /// and marks the tag dirty, bumps its shard version — only when the
  /// value or quality actually changed.
  bool set(TagId id, const OpcValue& value, Quality quality, sim::SimTime now);

  const OpcValue& value(TagId id) const { return shard(id).values[slot_of(id)]; }
  Quality quality(TagId id) const { return shard(id).quality[slot_of(id)]; }
  sim::SimTime timestamp(TagId id) const { return shard(id).stamps[slot_of(id)]; }

  std::uint64_t shard_version(int shard) const { return shards_[static_cast<std::size_t>(shard)].version; }
  /// Total value/quality changes across all shards since construction.
  std::uint64_t mutations() const { return mutations_; }
  std::size_t dirty_count() const;

  /// Drain every shard's dirty list (shard index order, append order
  /// within a shard), invoking fn(TagId) per changed tag, and clear the
  /// dirty marks. O(changed), not O(tags).
  template <typename Fn>
  void drain_dirty(Fn&& fn) {
    for (Shard& sh : shards_) {
      for (TagId id : sh.dirty_list) {
        sh.dirty[slot_of(id)] = 0;
        fn(id);
      }
      sh.dirty_list.clear();
    }
  }

  // --- checkpoint sharding ---

  /// Mirror numeric slots into one nt::Region per shard, named
  /// "<prefix>.<shard>". Regions are sized for the tags interned so
  /// far (tags interned later stay RAM-only); each region's dirty-range
  /// cap is raised so scattered per-slot marks never degrade to a
  /// full-region delta. Call after interning, before the first
  /// checkpoint.
  void bind_regions(nt::MemorySpace& memory, const std::string& prefix);
  bool bound() const { return bound_; }

  /// Rebuild slot values from the (restored) regions — the backup-side
  /// half of a failover: FTIM restored region bytes, the store re-reads
  /// them. Tags beyond a region's capacity and string-typed slots are
  /// left untouched.
  void reload_from_regions();

 private:
  enum SlotType : std::uint8_t {
    kSlotEmpty = 0,
    kSlotBool = 1,
    kSlotInt = 2,
    kSlotReal = 3,
    kSlotString = 4,  // payload not checkpointable; value stays RAM-only
  };

  struct Shard {
    std::vector<OpcValue> values;
    std::vector<Quality> quality;
    std::vector<sim::SimTime> stamps;
    std::vector<std::uint8_t> dirty;
    std::vector<TagId> dirty_list;
    std::uint64_t version = 0;
    nt::Region* region = nullptr;
    std::size_t region_slots = 0;
  };

  /// One slot of the name index: the id whose name hashes here, and
  /// that hash, which settles most probes without a string compare.
  struct IndexEntry {
    TagId id = kInvalidTagId;
    std::uint32_t hash = 0;
  };

  std::size_t slot_of(TagId id) const { return id >> shard_bits_; }
  const Shard& shard(TagId id) const { return shards_[static_cast<std::size_t>(shard_of(id))]; }
  void write_slot(Shard& sh, std::size_t slot, const OpcValue& v, Quality q,
                  sim::SimTime now);
  static std::uint32_t hash_name(std::string_view name);
  /// Index slot holding `name`, or the empty slot where it belongs.
  /// The index must not be empty.
  std::size_t probe(std::string_view name, std::uint32_t hash) const;
  void grow_index();

  std::vector<Shard> shards_;
  std::uint32_t shard_mask_ = 0;
  int shard_bits_ = 0;
  /// Name → id: a power-of-two table, linear probing, at most half
  /// full. Nothing iterates it, so its layout never reaches an output.
  std::vector<IndexEntry> index_;
  std::vector<std::string> names_;
  std::uint64_t mutations_ = 0;
  bool bound_ = false;
};

/// Routes TagStore changes to subscriptions. One hub per Device; each
/// OpcGroupObject (or any other consumer) holds one subscription.
///
/// Each (subscription, tag) pair owns a slot, dense within its
/// subscription; a freed slot is reused by the next subscribe. Per-item
/// state lives in arrays indexed by slot, so a subscription's memory
/// grows with its items, never with the store's tag count, and routing
/// a change is one bit test per subscriber.
class SubscriptionHub {
 public:
  using SubId = std::uint32_t;
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = 0xFFFFFFFFu;

  /// One pending item: the tag and its slot in the subscription.
  struct Pending {
    TagId tag = kInvalidTagId;
    Slot slot = kNoSlot;
    bool operator==(const Pending&) const = default;
  };

  explicit SubscriptionHub(TagStore& store) : store_(&store) {}

  SubId add_subscription();
  void remove_subscription(SubId sub);

  /// Subscribe the tag and mark it pending — a fresh subscription's
  /// first tick always announces every item (OPC initial-update
  /// semantics), whether or not the store mutates meanwhile. Returns
  /// the item's slot. The caller keeps its items unique: `sub` must not
  /// hold `tag` already.
  Slot subscribe(SubId sub, TagId tag);
  /// Drop the item in `slot` (as returned by subscribe), pending or
  /// not; the slot is free for the next subscribe.
  void unsubscribe(SubId sub, Slot slot);

  /// Re-announce: every subscribed tag of `sub` back to pending.
  void mark_all_pending(SubId sub);
  /// Re-announce everything for everyone — the device-fault path, where
  /// quality flips BAD/GOOD without any store mutation.
  void invalidate_all();

  /// Drain the store's dirty lists into subscribers' pending sets.
  /// Idempotent per sim timestamp, so every group tick sharing a
  /// timestamp pays for one drain.
  void pump(sim::SimTime now);

  /// Move sub's pending items (sorted by TagId, deduplicated) into out.
  void take_pending(SubId sub, std::vector<Pending>& out);

  std::uint64_t routed() const { return routed_; }

 private:
  struct Route {
    SubId sub;
    Slot slot;
  };
  struct Sub {
    bool live = false;
    /// slot -> tag; kInvalidTagId marks a free slot.
    std::vector<TagId> tag_of;
    /// One bit per slot, set while the item awaits take_pending.
    std::vector<std::uint64_t> pending_bits;
    std::vector<Slot> free_slots;
  };

  /// Set the slot's pending bit; false when it was already set.
  static bool mark_pending(Sub& s, Slot slot);

  TagStore* store_;
  /// tag -> every (subscription, slot) routed that tag.
  std::vector<std::vector<Route>> subs_by_tag_;
  std::vector<Sub> subs_;
  sim::SimTime last_pump_ = -1;
  std::uint64_t routed_ = 0;
};

}  // namespace oftt::opc
