// Golden tests for the TagStore's observable contract: the exact bytes
// set() and bind_regions() leave in the checkpoint regions, the
// reload_from_regions() round trip, set()'s change semantics (0.0 vs
// -0.0 is no change, NaN always changes) and id <-> name <-> find
// across index growth.
//
// The region bytes are spelled out literally, one 24-byte slot per
// line: [u8 type][u8 quality][6B zero pad][u64 payload][i64 timestamp],
// little-endian. They are what a backup restores after a failover, so
// any change to the store's in-memory layout must leave them as they
// are.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "nt/memory.h"
#include "nt/runtime.h"
#include "opc/tag_store.h"
#include "sim/simulation.h"

namespace oftt::opc {
namespace {

/// Region bytes as hex, one slot per line.
std::string slot_hex(const nt::Region& region) {
  std::string out;
  char buf[3];
  for (std::size_t i = 0; i < region.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%02x", region.data()[i]);
    out += buf;
    if ((i + 1) % TagStore::kSlotBytes == 0) out += '\n';
  }
  return out;
}

/// A process to own the regions a store binds.
struct Host {
  sim::Simulation sim{1};
  std::shared_ptr<sim::Process> proc;

  Host() {
    auto& node = sim.add_node("n");
    node.boot();
    proc = node.start_process("p", nullptr);
  }
  nt::MemorySpace& memory() { return nt::NtRuntime::of(*proc).memory(); }
};

/// Six tags over two shards, one per slot kind: even ids on shard 0,
/// odd ids on shard 1.
void populate(TagStore& store) {
  store.intern("flag");    // 0: shard 0 slot 0
  store.intern("count");   // 1: shard 1 slot 0
  store.intern("level");   // 2: shard 0 slot 1
  store.intern("label");   // 3: shard 1 slot 1
  store.intern("broken");  // 4: shard 0 slot 2
  store.intern("idle");    // 5: shard 1 slot 2, never set
  store.set(0, OpcValue::from_bool(true), Quality::kGood, 0x0123456789);
  store.set(1, OpcValue::from_int(-42), Quality::kUncertain, 11);
  store.set(2, OpcValue::from_real(3.25), Quality::kGood, 12);
  store.set(3, OpcValue::from_string("abc"), Quality::kGood, 13);
  store.set(4, OpcValue::from_real(-1.5), Quality::kBad, 14);
}

TEST(TagStoreGolden, BindRegionsWritesPinnedSlotBytes) {
  Host host;
  TagStore store(2);
  populate(store);
  store.bind_regions(host.memory(), "g");

  const nt::Region* s0 = host.memory().find("g.0");
  const nt::Region* s1 = host.memory().find("g.1");
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(slot_hex(*s0),
            // bool true, GOOD
            "010300000000000001000000000000008967452301000000\n"
            // real 3.25, GOOD
            "03030000000000000000000000000a400c00000000000000\n"
            // real -1.5, BAD
            "0300000000000000000000000000f8bf0e00000000000000\n");
  EXPECT_EQ(slot_hex(*s1),
            // int -42 (sign-extended), UNCERTAIN
            "0201000000000000d6ffffffffffffff0b00000000000000\n"
            // string: type only, the payload stays in RAM
            "040300000000000000000000000000000d00000000000000\n"
            // never set: empty, BAD, timestamp 0
            "000000000000000000000000000000000000000000000000\n");
}

TEST(TagStoreGolden, SetAfterBindRewritesOnlyChangedSlots) {
  Host host;
  TagStore store(2);
  populate(store);
  store.bind_regions(host.memory(), "g");
  nt::Region* s0 = host.memory().find("g.0");
  nt::Region* s1 = host.memory().find("g.1");
  s0->clear_dirty();
  s1->clear_dirty();
  const std::string before0 = slot_hex(*s0);

  EXPECT_TRUE(store.set(1, OpcValue::from_int(7), Quality::kGood, 20));
  EXPECT_FALSE(store.set(2, OpcValue::from_real(3.25), Quality::kGood, 21));
  EXPECT_TRUE(store.set(3, OpcValue::from_string("xyz"), Quality::kGood, 22));
  EXPECT_TRUE(store.set(5, OpcValue::from_bool(false), Quality::kGood, 23));

  EXPECT_EQ(store.timestamp(2), 21) << "an unchanged set still refreshes the stamp";
  EXPECT_EQ(slot_hex(*s0), before0) << "but leaves the region alone";
  EXPECT_FALSE(s0->dirty());
  EXPECT_EQ(slot_hex(*s1),
            "020300000000000007000000000000001400000000000000\n"
            "040300000000000000000000000000001600000000000000\n"
            "010300000000000000000000000000001700000000000000\n");
  ASSERT_EQ(s1->dirty_ranges().size(), 1u);
  EXPECT_EQ(s1->dirty_ranges()[0].begin, 0u);
  EXPECT_EQ(s1->dirty_ranges()[0].end, 3 * TagStore::kSlotBytes);
}

TEST(TagStoreGolden, ReloadFromRegionsRoundTripsEverySlotKind) {
  Host host;
  auto backup_proc = host.proc->node().start_process("backup", nullptr);
  nt::MemorySpace& backup_memory = nt::NtRuntime::of(*backup_proc).memory();

  TagStore primary(2);
  TagStore backup(2);
  populate(primary);
  for (const char* name : {"flag", "count", "level", "label", "broken", "idle"}) {
    backup.intern(name);
  }
  backup.set(3, OpcValue::from_string("backup-ram"), Quality::kUncertain, 1);
  backup.set(5, OpcValue::from_int(99), Quality::kGood, 2);
  backup.drain_dirty([](TagId) {});
  primary.bind_regions(host.memory(), "g");
  backup.bind_regions(backup_memory, "g");
  for (const char* region : {"g.0", "g.1"}) {
    const nt::Region* src = host.memory().find(region);
    backup_memory.find(region)->restore(src->snapshot());
  }
  const std::uint64_t version0 = backup.shard_version(0);
  const std::uint64_t mutations = backup.mutations();

  backup.reload_from_regions();

  for (TagId id : {0u, 1u, 2u, 4u, 5u}) {
    EXPECT_EQ(backup.value(id), primary.value(id)) << "tag " << id;
    EXPECT_EQ(backup.quality(id), primary.quality(id)) << "tag " << id;
    EXPECT_EQ(backup.timestamp(id), primary.timestamp(id)) << "tag " << id;
  }
  EXPECT_TRUE(backup.value(5).empty()) << "an empty slot restores as an empty value";
  EXPECT_EQ(backup.value(3), OpcValue::from_string("backup-ram"))
      << "string payloads are RAM-only: reload keeps the backup's own";
  EXPECT_EQ(backup.quality(3), Quality::kUncertain);
  EXPECT_EQ(backup.timestamp(3), 1);
  EXPECT_EQ(backup.shard_version(0), version0) << "reload is not a mutation";
  EXPECT_EQ(backup.mutations(), mutations);
  EXPECT_EQ(backup.dirty_count(), 0u);

  // Binding the reloaded store again reproduces the primary's bytes,
  // apart from the RAM-only string slot.
  Host again;
  backup.bind_regions(again.memory(), "g");
  EXPECT_EQ(slot_hex(*again.memory().find("g.0")), slot_hex(*host.memory().find("g.0")));
}

TEST(TagStoreGolden, ReloadNormalisesForeignSlotBytes) {
  Host host;
  TagStore store(1);
  for (const char* name : {"wide", "odd_quality", "unknown_type", "truthy"}) store.intern(name);
  store.bind_regions(host.memory(), "g");
  nt::Region& region = *host.memory().find("g.0");
  auto put = [&](std::size_t slot, std::uint8_t type, std::uint8_t quality,
                 std::uint64_t payload, std::int64_t ts) {
    std::uint8_t raw[TagStore::kSlotBytes] = {};
    raw[0] = type;
    raw[1] = quality;
    raw[2] = 0xAA;  // pad bytes are ignored
    std::memcpy(raw + 8, &payload, sizeof(payload));
    std::memcpy(raw + 16, &ts, sizeof(ts));
    std::memcpy(region.data() + slot * TagStore::kSlotBytes, raw, sizeof(raw));
  };
  put(0, 2, 3, 0xFFFFFFFF00000005ull, 40);  // int: only the low 32 bits count
  put(1, 3, 7, 0, 41);                      // quality 7 is not a quality: BAD
  put(2, 9, 3, 1234, 42);                   // unknown type: empty value
  put(3, 1, 3, 0x100, 43);                  // any non-zero payload is true

  store.reload_from_regions();

  EXPECT_EQ(store.value(0), OpcValue::from_int(5));
  EXPECT_EQ(store.quality(0), Quality::kGood);
  EXPECT_EQ(store.timestamp(0), 40);
  EXPECT_EQ(store.value(1), OpcValue::from_real(0.0));
  EXPECT_EQ(store.quality(1), Quality::kBad);
  EXPECT_TRUE(store.value(2).empty());
  EXPECT_EQ(store.timestamp(2), 42);
  EXPECT_EQ(store.value(3), OpcValue::from_bool(true));

  // Rebinding writes the normalised slots, not the foreign bytes.
  Host again;
  store.bind_regions(again.memory(), "g");
  EXPECT_EQ(slot_hex(*again.memory().find("g.0")),
            "020300000000000005000000000000002800000000000000\n"
            "030000000000000000000000000000002900000000000000\n"
            "000300000000000000000000000000002a00000000000000\n"
            "010300000000000001000000000000002b00000000000000\n");
}

TEST(TagStoreGolden, SignedZeroIsNoChangeAndNanAlwaysChanges) {
  TagStore store(2);
  const TagId t = store.intern("t");
  ASSERT_TRUE(store.set(t, OpcValue::from_real(0.0), Quality::kGood, 1));
  store.drain_dirty([](TagId) {});
  const std::uint64_t version = store.shard_version(store.shard_of(t));

  EXPECT_FALSE(store.set(t, OpcValue::from_real(-0.0), Quality::kGood, 2));
  EXPECT_FALSE(std::signbit(store.value(t).as_real())) << "the stored +0.0 stays";
  EXPECT_EQ(store.timestamp(t), 2);
  EXPECT_EQ(store.dirty_count(), 0u);
  EXPECT_EQ(store.shard_version(store.shard_of(t)), version);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(store.set(t, OpcValue::from_real(nan), Quality::kGood, 3));
  EXPECT_TRUE(store.set(t, OpcValue::from_real(nan), Quality::kGood, 4))
      << "NaN never equals itself, so every NaN write is a change";
  EXPECT_TRUE(std::isnan(store.value(t).as_real()));
  EXPECT_EQ(store.shard_version(store.shard_of(t)), version + 2);
  EXPECT_EQ(store.mutations(), 3u);
  std::vector<TagId> drained;
  store.drain_dirty([&](TagId id) { drained.push_back(id); });
  EXPECT_EQ(drained, std::vector<TagId>{t}) << "one dirty entry however often it changed";
}

TEST(TagStoreGolden, ChangeMeansVariantEquality) {
  TagStore store(1);
  const TagId t = store.intern("t");
  EXPECT_FALSE(store.set(t, OpcValue(), Quality::kBad, 1)) << "empty/BAD is the initial state";
  EXPECT_TRUE(store.set(t, OpcValue::from_int(1), Quality::kGood, 2));
  EXPECT_TRUE(store.set(t, OpcValue::from_real(1.0), Quality::kGood, 3)) << "int 1 != real 1";
  EXPECT_TRUE(store.set(t, OpcValue::from_bool(true), Quality::kGood, 4)) << "real 1 != true";
  EXPECT_FALSE(store.set(t, OpcValue::from_bool(true), Quality::kGood, 5));
  EXPECT_TRUE(store.set(t, OpcValue::from_int(0), Quality::kGood, 6));
  EXPECT_TRUE(store.set(t, OpcValue::from_bool(false), Quality::kGood, 7)) << "int 0 != false";
  EXPECT_TRUE(store.set(t, OpcValue::from_string(""), Quality::kGood, 8));
  EXPECT_FALSE(store.set(t, OpcValue::from_string(""), Quality::kGood, 9));
  EXPECT_TRUE(store.set(t, OpcValue::from_string("a"), Quality::kGood, 10));
  EXPECT_FALSE(store.set(t, OpcValue::from_string("a"), Quality::kGood, 11));
  EXPECT_TRUE(store.set(t, OpcValue::from_string("a"), Quality::kUncertain, 12));
  EXPECT_TRUE(store.set(t, OpcValue(), Quality::kUncertain, 13)) << "string -> empty";
  EXPECT_TRUE(store.value(t).empty());
  EXPECT_TRUE(store.set(t, OpcValue::from_int(-7), Quality::kUncertain, 14));
  EXPECT_EQ(store.value(t), OpcValue::from_int(-7));
  EXPECT_EQ(store.mutations(), 10u);
}

TEST(TagStoreGolden, DirtyOrderIsShardThenMutationOrder) {
  TagStore store(4);
  for (int i = 0; i < 12; ++i) store.intern(cat("t", i));
  for (TagId id : {9u, 2u, 5u, 1u, 10u, 6u, 2u, 4u}) {
    store.set(id, OpcValue::from_int(static_cast<std::int32_t>(id) + 100), Quality::kGood, 1);
  }
  std::vector<TagId> drained;
  store.drain_dirty([&](TagId id) { drained.push_back(id); });
  EXPECT_EQ(drained, (std::vector<TagId>{4, 9, 5, 1, 2, 10, 6}));
}

TEST(TagStoreGolden, IdNameFindAgreeAcrossIndexGrowth) {
  // Names of mixed length, including the empty name and names that
  // embed a NUL byte, interned through many doublings of the index.
  std::vector<std::string> names{"", std::string("a\0b", 3), std::string("a\0c", 3)};
  for (int i = 0; i < 5000; ++i) {
    names.push_back(i % 7 == 0 ? cat(std::string(static_cast<std::size_t>(i % 61), 'x'), "/", i)
                               : cat("p", i));
  }
  TagStore store(8);
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(store.intern(names[i]), static_cast<TagId>(i)) << i;
    // Every name interned so far still resolves, checked at each
    // power of two (just past each index growth).
    if ((i & (i + 1)) == 0) {
      for (std::size_t j = 0; j <= i; ++j) {
        ASSERT_EQ(store.find(names[j]), static_cast<TagId>(j)) << j << " after " << i;
      }
    }
  }
  ASSERT_EQ(store.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const TagId id = static_cast<TagId>(i);
    EXPECT_EQ(std::string(store.name(id)), names[i]);
    EXPECT_EQ(store.find(store.name(id)), id);
    EXPECT_EQ(store.intern(names[i]), id);
  }
  EXPECT_EQ(store.size(), names.size()) << "re-interning adds nothing";
  EXPECT_EQ(store.find("a"), kInvalidTagId);
  EXPECT_EQ(store.find(std::string("a\0", 2)), kInvalidTagId);
  EXPECT_EQ(store.find("p5000"), kInvalidTagId);
}

}  // namespace
}  // namespace oftt::opc
