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
//    path after that is an array index. Names sit back to back in one
//    arena, in id order, found by a u32 offset per id; the name index is
//    a flat open-addressing table of ids.
//  - a fixed power-of-two shard count. A tag's shard is `id & mask`, its
//    slot within the shard `id >> shard_bits`, so sequential interning
//    round-robins tags across shards and every shard's cell array stays
//    dense.
//  - one trivially-copyable 24-byte cell per tag holding type, quality,
//    payload and timestamp in the checkpoint slot's layout, so binding
//    and reloading regions copy cells. String payloads live in a side
//    table keyed by TagId.
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
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
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
  std::size_t size() const { return name_at_.size() - 1; }
  int shard_of(TagId id) const { return static_cast<int>(id & shard_mask_); }

  /// Resolve-or-create. Ids are dense, assigned in interning order.
  TagId intern(std::string_view name);
  /// Resolve only; kInvalidTagId when unknown.
  TagId find(std::string_view name) const;
  std::string_view name(TagId id) const {
    return std::string_view(arena_.data() + name_at_[id], name_at_[id + 1] - name_at_[id]);
  }
  /// Every tag name, lexicographically sorted (the browse order the
  /// seed's std::map gave for free).
  std::vector<std::string> sorted_names() const;

  /// Store (value, quality) and refresh the timestamp. Returns true —
  /// and marks the tag dirty, bumps its shard version — only when the
  /// value or quality actually changed, by OpcValue equality (so 0.0 and
  /// -0.0 are the same value and NaN always changes).
  bool set(TagId id, const OpcValue& value, Quality quality, sim::SimTime now);

  OpcValue value(TagId id) const;
  Quality quality(TagId id) const { return cell(id).quality; }
  sim::SimTime timestamp(TagId id) const { return cell(id).ts; }

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
        sh.cells[slot_of(id)].dirty = 0;
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

  /// One tag, laid out as its checkpoint slot (kSlotBytes), so writing
  /// or reading a region slot is a copy. `dirty` sits in the slot's pad
  /// and is RAM-only: regions always see it as 0. A string's payload is
  /// 0 here; its text lives in TagStore::strings_.
  struct Cell {
    std::uint8_t type = kSlotEmpty;
    Quality quality = Quality::kBad;
    std::uint8_t dirty = 0;
    std::uint8_t pad[5] = {};
    std::uint64_t payload = 0;
    sim::SimTime ts = 0;
  };
  static_assert(sizeof(Cell) == kSlotBytes);
  static_assert(std::is_trivially_copyable_v<Cell>);

  /// A shard's cells in slot order, in fixed chunks that never move:
  /// growing a shard allocates one more chunk instead of copying every
  /// cell into a vector twice the size, so a build writes each cell's
  /// memory once.
  class CellArray {
   public:
    std::size_t size() const { return size_; }
    Cell& operator[](std::size_t i) { return chunks_[i / kChunk][i % kChunk]; }
    const Cell& operator[](std::size_t i) const { return chunks_[i / kChunk][i % kChunk]; }
    void push_back() {
      if (size_ % kChunk == 0) chunks_.push_back(std::make_unique<Cell[]>(kChunk));
      ++size_;
    }

   private:
    static constexpr std::size_t kChunk = 256;  // 6 KiB
    std::vector<std::unique_ptr<Cell[]>> chunks_;
    std::size_t size_ = 0;
  };

  struct Shard {
    CellArray cells;
    std::vector<TagId> dirty_list;
    std::uint64_t version = 0;
    nt::Region* region = nullptr;
    std::size_t region_slots = 0;
  };

  std::size_t slot_of(TagId id) const { return id >> shard_bits_; }
  Shard& shard(TagId id) { return shards_[static_cast<std::size_t>(shard_of(id))]; }
  const Shard& shard(TagId id) const { return shards_[static_cast<std::size_t>(shard_of(id))]; }
  const Cell& cell(TagId id) const { return shard(id).cells[slot_of(id)]; }
  static void write_slot(Shard& sh, std::size_t slot);
  static std::uint32_t hash_name(std::string_view name);
  /// Index slot holding `name`, or the empty slot where it belongs.
  /// The index must not be empty.
  std::size_t probe(std::string_view name, std::uint32_t hash) const;
  /// Put `id` in the empty index slot `i`.
  void occupy(std::size_t i, TagId id, std::uint32_t hash);
  void grow_index();

  std::vector<Shard> shards_;
  std::uint32_t shard_mask_ = 0;
  int shard_bits_ = 0;
  /// Name → id: open addressing over groups of eight slots, at most
  /// half full. ctrl_ holds one byte per slot, packed eight to a word:
  /// 0x80 while the slot is empty, else the low seven bits of its name's
  /// hash (bits 7 and up pick the first group to probe). A probe reads
  /// one word per group and compares names only where a byte matches,
  /// and the small control array stays in cache where a table of full
  /// entries would not. Nothing iterates the index, so its layout never
  /// reaches an output.
  std::vector<std::uint64_t> ctrl_;
  /// The id in each slot; kInvalidTagId while the slot is empty.
  std::vector<TagId> slots_;
  /// Each id's name hash: probes check it before comparing names, and
  /// growth re-places ids without hashing their names again.
  std::vector<std::uint32_t> hashes_;
  /// Every name back to back in id order; name `id` is
  /// arena_[name_at_[id], name_at_[id + 1]).
  std::string arena_;
  std::vector<std::uint32_t> name_at_{0};
  /// The value of every string-typed tag; nothing iterates it.
  std::unordered_map<TagId, OpcValue> strings_;
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
