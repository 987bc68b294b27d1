// TagStore / SubscriptionHub unit tests: interning, O(changed) dirty
// tracking, shard versioning, region-backed checkpoint sharding, and
// the change-driven group semantics built on top (including the
// percent-deadband first-sample contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"
#include "nt/memory.h"
#include "nt/runtime.h"
#include "opc/server.h"
#include "opc/tag_store.h"
#include "sim/simulation.h"

namespace oftt::opc {
namespace {

TEST(TagStore, InterningIsDenseAndStable) {
  TagStore store(4);
  TagId a = store.intern("plant.a");
  TagId b = store.intern("plant.b");
  TagId c = store.intern("plant.c");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(store.intern("plant.b"), b) << "re-intern returns the same id";
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.find("plant.c"), c);
  EXPECT_EQ(store.find("nope"), kInvalidTagId);
  EXPECT_EQ(store.name(b), "plant.b");
}

TEST(TagStore, SortedNamesMatchesSeedBrowseOrder) {
  TagStore store;
  store.intern("zeta");
  store.intern("alpha");
  store.intern("mid");
  std::vector<std::string> names = store.sorted_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "mid");
  EXPECT_EQ(names[2], "zeta");
}

// Names in a scrambled (non-sorted, non-sequential) order, so neither
// the index nor sorted_names() can lean on insertion order.
std::vector<std::string> scrambled_names(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back("tag." + std::to_string((i * 7919) % 100003));
  return out;
}

TEST(TagStoreIndex, IdsStayDenseInInsertionOrderAcrossGrowths) {
  // 1000 names take the index from 64 slots through 5 doublings.
  const std::vector<std::string> names = scrambled_names(1000);
  TagStore store(4);
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(store.intern(names[i]), static_cast<TagId>(i)) << names[i];
  }
  ASSERT_EQ(store.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(store.find(names[i]), static_cast<TagId>(i)) << names[i];
    EXPECT_EQ(store.name(static_cast<TagId>(i)), names[i]);
  }
}

TEST(TagStoreIndex, ReinterningReturnsTheExistingId) {
  const std::vector<std::string> names = scrambled_names(300);
  TagStore store(4);
  for (const std::string& n : names) store.intern(n);
  for (std::size_t i = names.size(); i-- > 0;) {
    EXPECT_EQ(store.intern(names[i]), static_cast<TagId>(i)) << names[i];
  }
  EXPECT_EQ(store.size(), names.size()) << "re-interning adds nothing";
  EXPECT_EQ(store.intern("fresh"), static_cast<TagId>(names.size()));
}

TEST(TagStoreIndex, FindReturnsInvalidForUnknownNamesAndOnAnEmptyStore) {
  TagStore store;
  EXPECT_EQ(store.find("plant.a"), kInvalidTagId);
  EXPECT_EQ(store.find(""), kInvalidTagId);
  store.intern("plant.a");
  EXPECT_EQ(store.find("plant."), kInvalidTagId) << "a prefix is another name";
  EXPECT_EQ(store.find("plant.ab"), kInvalidTagId) << "so is an extension";
  EXPECT_EQ(store.find(""), kInvalidTagId);
  EXPECT_EQ(store.find("plant.a"), 0u);
  EXPECT_EQ(store.size(), 1u) << "find never interns";
}

TEST(TagStoreIndex, NamesLongerThanTheSsoBufferWork) {
  // Long names sharing a 200-byte prefix differ only in their tail.
  const std::string prefix(200, 'x');
  TagStore store;
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(store.intern(prefix + std::to_string(i)), static_cast<TagId>(i));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(store.find(prefix + std::to_string(i)), static_cast<TagId>(i));
    EXPECT_EQ(store.name(static_cast<TagId>(i)), prefix + std::to_string(i));
  }
  EXPECT_EQ(store.find(prefix), kInvalidTagId);
  EXPECT_EQ(store.intern(prefix + "7"), 7u);
}

TEST(TagStoreIndex, SortedNamesUnchangedAcrossGrowths) {
  std::vector<std::string> names = scrambled_names(500);
  TagStore store;
  for (const std::string& n : names) store.intern(n);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(store.sorted_names(), names);
}

TEST(TagStore, SequentialIdsRoundRobinAcrossShards) {
  TagStore store(8);
  for (int i = 0; i < 16; ++i) store.intern(cat("t", i));
  std::set<int> shards;
  for (TagId id = 0; id < 8; ++id) shards.insert(store.shard_of(id));
  EXPECT_EQ(shards.size(), 8u) << "first 8 sequential ids land on 8 distinct shards";
}

TEST(TagStore, TimestampOnlyUpdatesAreNotChanges) {
  TagStore store(2);
  TagId t = store.intern("t");
  EXPECT_TRUE(store.set(t, OpcValue::from_real(1.0), Quality::kGood, 10));
  EXPECT_EQ(store.dirty_count(), 1u);
  std::uint64_t ver = store.shard_version(store.shard_of(t));

  // Same value, same quality, later timestamp: stamp refreshes, nothing
  // dirties — the property that makes a mostly-constant scan O(changed).
  EXPECT_FALSE(store.set(t, OpcValue::from_real(1.0), Quality::kGood, 20));
  EXPECT_EQ(store.timestamp(t), 20);
  EXPECT_EQ(store.dirty_count(), 1u);
  EXPECT_EQ(store.shard_version(store.shard_of(t)), ver);
  EXPECT_EQ(store.mutations(), 1u);

  // Quality flip alone is a change.
  EXPECT_TRUE(store.set(t, OpcValue::from_real(1.0), Quality::kUncertain, 30));
  EXPECT_EQ(store.shard_version(store.shard_of(t)), ver + 1);
}

TEST(TagStore, DrainDirtyIsProportionalToChanges) {
  TagStore store(16);
  constexpr int kTags = 1000;
  for (int i = 0; i < kTags; ++i) {
    TagId t = store.intern("tag" + std::to_string(i));
    store.set(t, OpcValue::from_int(i), Quality::kGood, 0);
  }
  store.drain_dirty([](TagId) {});  // settle the initial population

  store.set(3, OpcValue::from_int(-1), Quality::kGood, 1);
  store.set(500, OpcValue::from_int(-2), Quality::kGood, 1);
  store.set(997, OpcValue::from_int(-3), Quality::kGood, 1);
  store.set(3, OpcValue::from_int(-4), Quality::kGood, 1);  // re-dirty, no dup

  std::vector<TagId> drained;
  store.drain_dirty([&](TagId id) { drained.push_back(id); });
  std::set<TagId> unique(drained.begin(), drained.end());
  EXPECT_EQ(drained.size(), 3u) << "dirty list dedups per-tag";
  EXPECT_EQ(unique, (std::set<TagId>{3, 500, 997}));
  EXPECT_EQ(store.dirty_count(), 0u);
}

TEST(TagStore, RegionBindingMarksPreciseDirtyRanges) {
  sim::Simulation sim(1);
  auto& node = sim.add_node("n");
  node.boot();
  auto proc = node.start_process("p", nullptr);
  auto& memory = nt::NtRuntime::of(*proc).memory();

  TagStore store(4);
  constexpr int kTags = 256;
  for (int i = 0; i < kTags; ++i) {
    TagId t = store.intern("tag" + std::to_string(i));
    store.set(t, OpcValue::from_real(i), Quality::kGood, 0);
  }
  store.bind_regions(memory, "opc.plc");
  ASSERT_TRUE(store.bound());

  // Binding seeds current state; take that as the checkpoint baseline.
  std::size_t total = 0;
  for (int s = 0; s < 4; ++s) {
    nt::Region* r = memory.find("opc.plc." + std::to_string(s));
    ASSERT_NE(r, nullptr);
    r->clear_dirty();
    total += r->size();
  }
  EXPECT_EQ(total, kTags * TagStore::kSlotBytes);

  // Mutate 5 of 256 tags: delta bytes stay ∝ mutations, not tag count.
  for (TagId t : {7u, 8u, 100u, 200u, 255u}) {
    store.set(t, OpcValue::from_real(-1.0), Quality::kGood, 1);
  }
  std::size_t dirty = 0;
  for (int s = 0; s < 4; ++s) {
    dirty += memory.find("opc.plc." + std::to_string(s))->dirty_bytes();
  }
  EXPECT_EQ(dirty, 5 * TagStore::kSlotBytes);
}

TEST(TagStore, ReloadFromRegionsRestoresNumericState) {
  sim::Simulation sim(2);
  auto& node = sim.add_node("n");
  node.boot();
  auto primary_proc = node.start_process("primary", nullptr);
  auto backup_proc = node.start_process("backup", nullptr);
  auto& mem_a = nt::NtRuntime::of(*primary_proc).memory();
  auto& mem_b = nt::NtRuntime::of(*backup_proc).memory();

  auto build = [](TagStore& st) {
    st.intern("real");
    st.intern("int");
    st.intern("flag");
    st.intern("label");
  };
  TagStore primary(2), backup(2);
  build(primary);
  build(backup);
  primary.set(0, OpcValue::from_real(3.25), Quality::kGood, 100);
  primary.set(1, OpcValue::from_int(-42), Quality::kUncertain, 101);
  primary.set(2, OpcValue::from_bool(true), Quality::kGood, 102);
  primary.set(3, OpcValue::from_string("ram-only"), Quality::kGood, 103);
  primary.bind_regions(mem_a, "s");
  backup.bind_regions(mem_b, "s");

  // Simulate the FTIM checkpoint path: region bytes ship primary ->
  // backup, then the backup-side store reloads on activation.
  for (int s = 0; s < 2; ++s) {
    nt::Region* src = mem_a.find("s." + std::to_string(s));
    nt::Region* dst = mem_b.find("s." + std::to_string(s));
    ASSERT_NE(src, nullptr);
    ASSERT_NE(dst, nullptr);
    ASSERT_EQ(src->size(), dst->size());
    std::memcpy(dst->data(), src->data(), src->size());
  }
  backup.reload_from_regions();

  EXPECT_EQ(backup.value(0), OpcValue::from_real(3.25));
  EXPECT_EQ(backup.quality(0), Quality::kGood);
  EXPECT_EQ(backup.timestamp(0), 100);
  EXPECT_EQ(backup.value(1), OpcValue::from_int(-42));
  EXPECT_EQ(backup.quality(1), Quality::kUncertain);
  EXPECT_EQ(backup.value(2), OpcValue::from_bool(true));
  // String slots are RAM-only: reload leaves whatever the backup had.
  EXPECT_FALSE(backup.value(3).is_string());
}

// --- SubscriptionHub ---

/// The tags take_pending hands out, in its order.
std::vector<TagId> take_tags(SubscriptionHub& hub, SubscriptionHub::SubId sub) {
  std::vector<SubscriptionHub::Pending> pending;
  hub.take_pending(sub, pending);
  std::vector<TagId> tags;
  for (const auto& p : pending) tags.push_back(p.tag);
  return tags;
}

TEST(SubscriptionHub, FreshSubscriptionAnnouncesWithoutMutation) {
  TagStore store(2);
  TagId t = store.intern("t");
  store.set(t, OpcValue::from_int(1), Quality::kGood, 0);
  store.drain_dirty([](TagId) {});

  SubscriptionHub hub(store);
  auto sub = hub.add_subscription();
  hub.subscribe(sub, t);
  hub.pump(10);
  std::vector<TagId> pending = take_tags(hub, sub);
  ASSERT_EQ(pending.size(), 1u) << "initial update with no store change";
  EXPECT_EQ(pending[0], t);

  EXPECT_TRUE(take_tags(hub, sub).empty()) << "announced once, then quiescent";
}

TEST(SubscriptionHub, RoutesEachChangeToEverySubscriberOnce) {
  TagStore store(2);
  TagId a = store.intern("a");
  TagId b = store.intern("b");
  SubscriptionHub hub(store);
  auto s1 = hub.add_subscription();
  auto s2 = hub.add_subscription();
  hub.subscribe(s1, a);
  hub.subscribe(s1, b);
  hub.subscribe(s2, b);
  hub.pump(0);
  take_tags(hub, s1);
  take_tags(hub, s2);

  store.set(b, OpcValue::from_int(7), Quality::kGood, 1);
  hub.pump(1);
  hub.pump(1);  // second pump at the same timestamp is a no-op

  EXPECT_EQ(take_tags(hub, s1), std::vector<TagId>{b});
  EXPECT_EQ(take_tags(hub, s2), std::vector<TagId>{b});

  // Slow consumer: s2 misses a pump cycle but still sees the change
  // exactly once, not once per pump.
  store.set(a, OpcValue::from_int(9), Quality::kGood, 2);
  hub.pump(2);
  store.set(a, OpcValue::from_int(10), Quality::kGood, 3);
  hub.pump(3);
  EXPECT_EQ(take_tags(hub, s1), std::vector<TagId>{a})
      << "two mutations of one tag dedup to one pending entry";
}

TEST(SubscriptionHub, InvalidateAllReannouncesEverything) {
  TagStore store(2);
  TagId a = store.intern("a");
  TagId b = store.intern("b");
  SubscriptionHub hub(store);
  auto sub = hub.add_subscription();
  hub.subscribe(sub, a);
  hub.subscribe(sub, b);
  hub.pump(0);
  take_tags(hub, sub);

  hub.invalidate_all();  // the device-fault path: no store mutation at all
  EXPECT_EQ(take_tags(hub, sub), (std::vector<TagId>{a, b}));
}

TEST(SubscriptionHub, UnsubscribeStopsRouting) {
  TagStore store(2);
  TagId t = store.intern("t");
  SubscriptionHub hub(store);
  auto sub = hub.add_subscription();
  const auto slot = hub.subscribe(sub, t);
  hub.pump(0);
  take_tags(hub, sub);

  hub.unsubscribe(sub, slot);
  store.set(t, OpcValue::from_int(5), Quality::kGood, 1);
  hub.pump(1);
  EXPECT_TRUE(take_tags(hub, sub).empty());

  hub.remove_subscription(sub);
  auto reused = hub.add_subscription();
  EXPECT_EQ(reused, sub) << "dead subscription slots are reused";
}

TEST(SubscriptionHub, UnsubscribeWithdrawsAPendingTag) {
  TagStore store(2);
  TagId t = store.intern("t");
  SubscriptionHub hub(store);
  auto sub = hub.add_subscription();
  auto slot = hub.subscribe(sub, t);  // pending: the initial announce
  hub.unsubscribe(sub, slot);
  EXPECT_TRUE(take_tags(hub, sub).empty()) << "an unsubscribed tag is never announced";

  // The same after a routed change.
  slot = hub.subscribe(sub, t);
  take_tags(hub, sub);
  store.set(t, OpcValue::from_int(1), Quality::kGood, 1);
  hub.pump(1);
  hub.unsubscribe(sub, slot);
  EXPECT_TRUE(take_tags(hub, sub).empty());
}

TEST(SubscriptionHub, ResubscribeQueuesTheTagOnce) {
  TagStore store(2);
  TagId t = store.intern("t");
  TagId u = store.intern("u");
  SubscriptionHub hub(store);
  auto sub = hub.add_subscription();
  hub.unsubscribe(sub, hub.subscribe(sub, t));
  const auto slot = hub.subscribe(sub, t);
  EXPECT_EQ(take_tags(hub, sub), std::vector<TagId>{t});

  // A pending slot handed to another tag is queued once, for that tag.
  store.set(t, OpcValue::from_int(1), Quality::kGood, 1);
  hub.pump(1);
  hub.unsubscribe(sub, slot);
  EXPECT_EQ(hub.subscribe(sub, u), slot);
  EXPECT_EQ(take_tags(hub, sub), std::vector<TagId>{u});
}

TEST(SubscriptionHub, SlotsAreDenseAndFreedSlotsReused) {
  TagStore store(2);
  TagId a = store.intern("a");
  TagId b = store.intern("b");
  TagId c = store.intern("c");
  SubscriptionHub hub(store);
  auto s1 = hub.add_subscription();
  auto s2 = hub.add_subscription();
  EXPECT_EQ(hub.subscribe(s1, c), 0u);
  EXPECT_EQ(hub.subscribe(s1, a), 1u);
  EXPECT_EQ(hub.subscribe(s2, b), 0u) << "slots are dense per subscription";
  hub.unsubscribe(s1, 0);  // c
  EXPECT_EQ(hub.subscribe(s1, b), 0u) << "a freed slot is reused";

  std::vector<SubscriptionHub::Pending> pending;
  hub.take_pending(s1, pending);
  EXPECT_EQ(pending, (std::vector<SubscriptionHub::Pending>{{a, 1}, {b, 0}}))
      << "TagId order, each with its slot";
}

TEST(SubscriptionHub, TakePendingIsInTagIdOrderWhateverTheSlotOrder) {
  constexpr int kTags = 300;
  TagStore store(8);
  for (int i = 0; i < kTags; ++i) store.intern(cat("t", i));
  SubscriptionHub hub(store);
  auto ascending = hub.add_subscription();
  auto descending = hub.add_subscription();
  for (int i = 0; i < kTags; ++i) {
    hub.subscribe(ascending, static_cast<TagId>(i));
    hub.subscribe(descending, static_cast<TagId>(kTags - 1 - i));
  }
  hub.pump(0);
  take_tags(hub, ascending);
  take_tags(hub, descending);

  // Dense (every third tag) and sparse (two tags) change sets, each
  // made in an order the store's shards scramble.
  for (int stride : {3, 150}) {
    for (int i = kTags - 1; i >= 0; i -= stride) {
      store.set(static_cast<TagId>(i), OpcValue::from_int(stride), Quality::kGood, stride);
    }
    hub.pump(stride);
    std::vector<SubscriptionHub::Pending> up, down;
    hub.take_pending(ascending, up);
    hub.take_pending(descending, down);
    ASSERT_EQ(up.size(), down.size());
    ASSERT_FALSE(up.empty());
    for (std::size_t k = 0; k < up.size(); ++k) {
      if (k > 0) {
        EXPECT_LT(up[k - 1].tag, up[k].tag) << "TagId order";
      }
      EXPECT_EQ(down[k].tag, up[k].tag);
      EXPECT_EQ(up[k].slot, up[k].tag) << "slot of the ascending subscription";
      EXPECT_EQ(down[k].slot, static_cast<SubscriptionHub::Slot>(kTags - 1) - down[k].tag);
    }
    EXPECT_TRUE(take_tags(hub, ascending).empty()) << "bits cleared";
    EXPECT_TRUE(take_tags(hub, descending).empty());
  }
}

/// Reference model of the hub: ordered sets, no slots. Slots are
/// checked against what subscribe() returned for each pair. Like
/// OpcGroupObject, the driver subscribes only tags a subscription does
/// not hold and unsubscribes by the slot it was given.
struct HubModel {
  struct Sub {
    std::set<TagId> tags;
    std::set<TagId> pending;
    std::map<TagId, SubscriptionHub::Slot> slot_of;
    std::set<SubscriptionHub::Slot> free_slots;
    SubscriptionHub::Slot slots_made = 0;
  };
  std::vector<bool> live;
  std::map<SubscriptionHub::SubId, Sub> subs;
  std::set<TagId> dirty;
  sim::SimTime last_pump = -1;
  std::uint64_t routed = 0;
};

TEST(SubscriptionHubModel, MatchesAReferenceModelOverSeededOperations) {
  constexpr int kTags = 12;
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    SCOPED_TRACE(cat("seed ", seed));
    sim::Rng rng(seed);
    TagStore store(4);
    for (int i = 0; i < kTags; ++i) store.intern(cat("t", i));
    SubscriptionHub hub(store);
    HubModel m;
    sim::SimTime now = 0;
    std::uint64_t reused = 0;
    auto pick_live = [&]() -> std::int64_t {
      std::vector<SubscriptionHub::SubId> ids;
      for (const auto& [id, _] : m.subs) ids.push_back(id);
      if (ids.empty()) return -1;
      return ids[static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(ids.size()) - 1))];
    };
    for (int step = 0; step < 3000; ++step) {
      const auto tag = static_cast<TagId>(rng.uniform(0, kTags - 1));
      const std::int64_t op = rng.uniform(0, 99);
      const std::int64_t pick = pick_live();
      if (op < 5 || pick < 0) {  // add_subscription
        SubscriptionHub::SubId expect = 0;
        while (expect < m.live.size() && m.live[expect]) ++expect;
        ASSERT_EQ(hub.add_subscription(), expect) << "lowest dead id is reused";
        if (expect == m.live.size()) m.live.push_back(true);
        m.live[expect] = true;
        m.subs[expect] = HubModel::Sub{};
        continue;
      }
      const auto sub = static_cast<SubscriptionHub::SubId>(pick);
      HubModel::Sub& ms = m.subs[sub];
      if (op < 8) {  // remove_subscription
        hub.remove_subscription(sub);
        m.subs.erase(sub);
        m.live[sub] = false;
      } else if (op < 30) {  // subscribe
        if (ms.tags.count(tag) == 0) {
          const SubscriptionHub::Slot slot = hub.subscribe(sub, tag);
          if (ms.free_slots.empty()) {
            ASSERT_EQ(slot, ms.slots_made++) << "dense: the next new slot";
          } else {
            ASSERT_EQ(ms.free_slots.count(slot), 1u) << "a freed slot comes back";
            ms.free_slots.erase(slot);
            ++reused;
          }
          ms.tags.insert(tag);
          ms.pending.insert(tag);
          ms.slot_of[tag] = slot;
        }
      } else if (op < 42) {  // unsubscribe
        if (ms.tags.count(tag) != 0) {
          const SubscriptionHub::Slot slot = ms.slot_of[tag];
          hub.unsubscribe(sub, slot);
          ms.tags.erase(tag);
          ms.pending.erase(tag);
          ms.slot_of.erase(tag);
          ms.free_slots.insert(slot);
        }
      } else if (op < 65) {  // a store change
        if (store.set(tag, OpcValue::from_int(step), Quality::kGood, now)) m.dirty.insert(tag);
      } else if (op < 78) {  // pump, sometimes twice at one timestamp
        if (rng.chance(0.7)) ++now;
        hub.pump(now);
        if (now != m.last_pump) {
          m.last_pump = now;
          for (TagId d : m.dirty) {
            for (auto& [id, s] : m.subs) {
              if (s.tags.count(d) != 0 && s.pending.insert(d).second) ++m.routed;
            }
          }
          m.dirty.clear();
        }
        ASSERT_EQ(hub.routed(), m.routed);
      } else if (op < 93) {  // take_pending
        std::vector<SubscriptionHub::Pending> got;
        hub.take_pending(sub, got);
        std::vector<SubscriptionHub::Pending> want;
        for (TagId t : ms.pending) want.push_back({t, ms.slot_of[t]});
        ASSERT_EQ(got, want);
        ms.pending.clear();
      } else if (op < 97) {  // mark_all_pending
        hub.mark_all_pending(sub);
        ms.pending = ms.tags;
      } else {  // invalidate_all
        hub.invalidate_all();
        for (auto& [id, s] : m.subs) s.pending = s.tags;
      }
    }
    EXPECT_GT(reused, 0u) << "the sequence exercised slot reuse";
    EXPECT_GT(m.routed, 0u);
  }
}

// --- Device string API preservation + fault semantics ---

class ManualDevice final : public Device {
 public:
  using Device::Device;
  void poke(const std::string& tag, OpcValue v, sim::SimTime now,
            Quality q = Quality::kGood) {
    set_point(tag, std::move(v), now, q);
  }
};

TEST(Device, StringApiPreservedOverTagStore) {
  ManualDevice dev("d");
  dev.poke("x", OpcValue::from_real(1.5), 10);
  EXPECT_TRUE(dev.has_tag("x"));
  EXPECT_FALSE(dev.has_tag("y"));

  ItemState s = dev.read("x", 20);
  EXPECT_EQ(s.item_id, "x");
  EXPECT_EQ(s.value, OpcValue::from_real(1.5));
  EXPECT_EQ(s.quality, Quality::kGood);
  EXPECT_EQ(s.timestamp, 10);

  ItemState missing = dev.read("y", 20);
  EXPECT_EQ(missing.quality, Quality::kBad) << "unknown tags read BAD, not fail";

  EXPECT_EQ(dev.write("x", OpcValue::from_real(2.0), 30), S_OK);
  EXPECT_EQ(dev.read("x", 31).value, OpcValue::from_real(2.0));
  EXPECT_EQ(dev.write("y", OpcValue::from_int(0), 30), E_INVALIDARG);
}

TEST(Device, FaultedDeviceDegradesQualityAndRejectsWrites) {
  ManualDevice dev("d");
  dev.poke("x", OpcValue::from_real(1.0), 0);
  dev.set_faulted(true);
  EXPECT_EQ(dev.read("x", 1).quality, Quality::kBad);
  EXPECT_EQ(dev.write("x", OpcValue::from_real(2.0), 1), E_FAIL);
  dev.set_faulted(false);
  EXPECT_EQ(dev.read("x", 2).quality, Quality::kGood);
  EXPECT_EQ(dev.read("x", 2).value, OpcValue::from_real(1.0)) << "value survived the fault";
}

// --- Change-driven group: deadband first-sample semantics ---

class CountingSink final : public com::Object<CountingSink, IOPCDataCallback> {
 public:
  void OnDataChange(std::uint32_t, const std::vector<ItemState>& items) override {
    for (const auto& i : items) values.push_back(i.value.as_real());
  }
  void OnReadComplete(std::uint32_t, HRESULT, const std::vector<ItemState>&) override {}
  std::vector<double> values;
};

class DeadbandFirstSample : public ::testing::Test {
 protected:
  DeadbandFirstSample() {
    node_ = &sim_.add_node("n");
    node_->boot();
    proc_ = node_->start_process("p", nullptr);
    dev_ = std::make_shared<ManualDevice>("d");
    dev_->start(proc_->main_strand(), sim_.fork_rng("d"));
    group_ = OpcGroupObject::create(*proc_, dev_, "g", sim::milliseconds(10));
    sink_ = CountingSink::create();
  }

  void poke(double v) { dev_->poke("x", OpcValue::from_real(v), sim_.now()); }
  void tick() { sim_.run_for(sim::milliseconds(10)); }

  sim::Simulation sim_{3};
  sim::Node* node_;
  std::shared_ptr<sim::Process> proc_;
  std::shared_ptr<ManualDevice> dev_;
  com::ComPtr<OpcGroupObject> group_;
  com::ComPtr<CountingSink> sink_;
};

TEST_F(DeadbandFirstSample, FirstChangeAlwaysNotifiesAndRangeWarmsUpMonotonically) {
  poke(100.0);
  group_->AddItems({"x"}, nullptr);
  group_->SetDeadband(50.0, nullptr);  // brutal deadband: half the observed range
  group_->SetCallback(com::ComPtr<IOPCDataCallback>(sink_.get()), nullptr);

  tick();
  ASSERT_EQ(sink_->values, std::vector<double>{100.0}) << "initial update";

  // The very first *change* after subscription: the sample joins the
  // range before the check, so delta == range and no deadband fraction
  // below 100% can suppress it.
  poke(100.1);
  tick();
  ASSERT_EQ(sink_->values.size(), 2u) << "first change never deadband-suppressed";
  EXPECT_EQ(sink_->values.back(), 100.1);

  // Now the observed range is [100.0, 100.1]; a same-magnitude wiggle is
  // below 50% of it only if the range did NOT grow — but every sample
  // widens the range first, so this one announces too (delta 0.1 ==
  // range 0.1... then range [100.0, 100.2], delta/range = 0.5, not < 0.5).
  poke(100.2);
  tick();
  ASSERT_EQ(sink_->values.size(), 3u);

  // Warm the range up: a big swing widens it to [100.0, 200.2]...
  poke(200.2);
  tick();
  ASSERT_EQ(sink_->values.size(), 4u);
  // ...after which a 0.1 move is < 50% of the range: suppressed.
  poke(200.3);
  tick();
  EXPECT_EQ(sink_->values.size(), 4u) << "sub-deadband move suppressed after warm-up";
  EXPECT_GE(group_->suppressed_total(), 1u);
  // The range never narrows: small moves stay suppressed forever.
  poke(200.25);
  tick();
  EXPECT_EQ(sink_->values.size(), 4u);
  // A quality change pierces the deadband unconditionally.
  dev_->poke("x", OpcValue::from_real(200.25), sim_.now(), Quality::kUncertain);
  tick();
  EXPECT_EQ(sink_->values.size(), 5u) << "quality transitions are never suppressed";
}

TEST_F(DeadbandFirstSample, ReannounceAfterSetCallbackKeepsWarmedRange) {
  poke(0.0);
  group_->AddItems({"x"}, nullptr);
  group_->SetDeadband(10.0, nullptr);
  group_->SetCallback(com::ComPtr<IOPCDataCallback>(sink_.get()), nullptr);
  tick();
  poke(100.0);  // range warms to [0, 100]
  tick();
  ASSERT_EQ(sink_->values.size(), 2u);

  // New sink: everything re-announces once (seen reset)...
  auto sink2 = CountingSink::create();
  group_->SetCallback(com::ComPtr<IOPCDataCallback>(sink2.get()), nullptr);
  tick();
  ASSERT_EQ(sink2->values, std::vector<double>{100.0});
  // ...but the observed range survives the sink swap: a 5-unit move
  // against the [0,100] range is still inside the 10% deadband.
  poke(105.0);
  tick();
  EXPECT_EQ(sink2->values.size(), 1u) << "range is per-item state, not per-sink";
}

}  // namespace
}  // namespace oftt::opc
