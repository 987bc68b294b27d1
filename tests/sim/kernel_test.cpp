// Kernel fast-path tests: slab/pool handle semantics, wheel/run/heap vs
// reference-model ordering, bounded memory under cancel storms, and
// pinned whole-scenario hashes guarding the determinism contract of
// the pooled-event / timer-wheel rewrite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/event_queue.h"
#include "sim/kernel_scenario.h"
#include "sim/node.h"
#include "sim/simulation.h"
#include "sim/time.h"
#include "sim/timer.h"

namespace oftt::sim {
namespace {

// ---------------------------------------------------------------------
// Determinism: whole-scenario history hashes, pinned against the values
// produced by the seed kernel (std::function + shared_ptr tombstones +
// pure comparison heap). The pool/wheel kernel must reproduce them
// bit-for-bit: it may only change what an event costs, never when it
// fires. If a kernel change breaks one of these, it reordered events.
TEST(KernelDeterminism, ScenarioHashesMatchSeedKernel) {
  EXPECT_EQ(testhash::kernel_scenario_hash(42), 0xe745d9cb8d362691ull);
  EXPECT_EQ(testhash::kernel_scenario_hash(7), 0xb06c4166e0c68ed9ull);
  EXPECT_EQ(testhash::kernel_scenario_hash(1234), 0xdda2b972aa99f72aull);
}

TEST(KernelDeterminism, SameSeedSameHash) {
  EXPECT_EQ(testhash::kernel_scenario_hash(99), testhash::kernel_scenario_hash(99));
  EXPECT_NE(testhash::kernel_scenario_hash(99), testhash::kernel_scenario_hash(100));
}

// ---------------------------------------------------------------------
// EventHandle::valid() semantics (documented in event_queue.h): true
// exactly while the event is scheduled and uncancelled.

TEST(KernelHandleSemantics, ValidWhileScheduledInvalidAfterFire) {
  Simulation sim;
  EventHandle h = sim.schedule_at(milliseconds(5), [] {});
  EXPECT_TRUE(h.valid());
  sim.run();
  EXPECT_FALSE(h.valid());
}

TEST(KernelHandleSemantics, InvalidInsideOwnCallback) {
  // The slot is released *before* the callback runs: a fired event's
  // handle reads invalid even inside its own callback.
  Simulation sim;
  EventHandle h;
  bool checked = false;
  h = sim.schedule_at(milliseconds(1), [&] {
    checked = true;
    EXPECT_FALSE(h.valid());
  });
  sim.run();
  EXPECT_TRUE(checked);
}

TEST(KernelHandleSemantics, FireThenCancelIsHarmless) {
  Simulation sim;
  int fired = 0;
  EventHandle h = sim.schedule_at(milliseconds(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.valid());
  sim.cancel(h);  // no-op: the event already fired
  sim.cancel(h);  // and double-cancel is equally harmless
  EXPECT_FALSE(h.valid());
  EXPECT_EQ(fired, 1);
}

TEST(KernelHandleSemantics, DoubleCancelAndRecycledSlotCannotAlias) {
  Simulation sim;
  int a_fired = 0, b_fired = 0;
  EventHandle a = sim.schedule_at(milliseconds(1), [&] { ++a_fired; });
  sim.cancel(a);
  // The slab recycles a's slot for b; a's stale handle must not reach b.
  EventHandle b = sim.schedule_at(milliseconds(2), [&] { ++b_fired; });
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  sim.cancel(a);  // double-cancel of a stale handle: must not touch b
  EXPECT_TRUE(b.valid());
  sim.run();
  EXPECT_EQ(a_fired, 0);
  EXPECT_EQ(b_fired, 1);
}

TEST(KernelHandleSemantics, DefaultHandleIsInert) {
  Simulation sim;
  EventHandle h;
  EXPECT_FALSE(h.valid());
  sim.cancel(h);  // no-op
}

// ---------------------------------------------------------------------
// Randomized property test: the pooled queue against a naive reference
// model (a flat vector, min selected by (at, seq)). Delays deliberately
// straddle every routing lane: sub-tick (heap), inside the 16.8 ms L0
// window, up to the ~4.3 s horizon (L1), beyond it (heap), exact ties
// (FIFO order must hold) and exact tick starts, where a bucket's first
// event meets the heap minimum. Dense same-tick fan-outs fill one bucket
// that is then sorted into a run, and cancels aim at events sitting in
// that run.

struct RefEvent {
  SimTime at;
  std::uint64_t seq;
  int id;
};

bool ref_earlier(const RefEvent& a, const RefEvent& b) {
  return a.at != b.at ? a.at < b.at : a.seq < b.seq;
}

// keyed: every event goes through schedule_keyed with PDES-shaped keys
// ((node+1)<<40 | per-node seq), and some land at exactly the pending
// minimum's time with a key that may undercut it.
void check_against_reference_model(std::uint64_t seed, bool keyed) {
  std::mt19937_64 rng(seed);
  EventQueue q;
  std::vector<RefEvent> model;
  std::vector<std::pair<int, EventHandle>> live_handles;
  std::vector<int> fired;
  std::uint64_t next_seq = 0;
  std::uint64_t node_seq[8] = {};
  int next_id = 0;
  SimTime now = 0;

  auto random_at = [&]() -> SimTime {
    switch (rng() % 7) {
      case 0: return now + static_cast<SimTime>(rng() % 65536);            // sub-tick
      case 1: return now + microseconds(static_cast<int>(rng() % 16800));  // L0 window
      case 2: return now + milliseconds(static_cast<int>(rng() % 4300));   // L1, to the horizon
      case 3: return now + seconds(5 + static_cast<int>(rng() % 100));     // beyond horizon
      case 4: return now;                                                  // exact tie
      case 5: {  // a tick start (window starts included), at most one tick past-due
        SimTime tick = (now >> EventQueue::kTickShift) + static_cast<SimTime>(rng() % 600);
        return tick << EventQueue::kTickShift;
      }
      default: return now + microseconds(100 + static_cast<int>(rng() % 200));  // burst delays
    }
  };
  auto schedule = [&](SimTime at) {
    int id = next_id++;
    std::uint64_t seq;
    EventHandle h;
    if (keyed) {
      std::uint64_t node = rng() % 8;
      seq = ((node + 1) << 40) | node_seq[node]++;
      h = q.schedule_keyed(at, seq, static_cast<std::uint32_t>(node), nullptr,
                           [&fired, id] { fired.push_back(id); });
    } else {
      seq = next_seq++;
      h = q.schedule(at, [&fired, id] { fired.push_back(id); });
    }
    model.push_back(RefEvent{at, seq, id});
    live_handles.emplace_back(id, h);
  };
  auto cancel_id = [&](int id) {
    auto it = std::find_if(live_handles.begin(), live_handles.end(),
                           [id](const auto& p) { return p.first == id; });
    ASSERT_NE(it, live_handles.end());
    EXPECT_TRUE(it->second.valid());
    q.cancel(it->second);
    EXPECT_FALSE(it->second.valid());
    live_handles.erase(it);
    std::erase_if(model, [id](const RefEvent& e) { return e.id == id; });
  };

  for (int step = 0; step < 4000; ++step) {
    unsigned op = static_cast<unsigned>(rng() % 12);
    if (op < 4) {
      schedule(random_at());
    } else if (op == 4) {  // dense same-tick fan-out, some exact ties
      SimTime base = now + microseconds(100 + static_cast<int>(rng() % 200));
      int n = 8 + static_cast<int>(rng() % 9);
      for (int i = 0; i < n; ++i) schedule(base + static_cast<SimTime>(rng() % 4) * 1000);
    } else if (op == 5) {  // insert at exactly the pending minimum's time
      if (!model.empty()) schedule(q.next_time());
    } else if (op < 8) {  // cancel a random live event
      if (!live_handles.empty()) cancel_id(live_handles[rng() % live_handles.size()].first);
    } else if (op == 8) {
      // Peek (which sorts a due bucket into the run), then cancel one of
      // the few earliest pending events: they sit in the run.
      if (!model.empty()) {
        ASSERT_EQ(q.next_time(), std::min_element(model.begin(), model.end(), ref_earlier)->at);
        std::vector<RefEvent> first(std::min<std::size_t>(model.size(), 8));
        std::partial_sort_copy(model.begin(), model.end(), first.begin(), first.end(),
                               ref_earlier);
        cancel_id(first[rng() % first.size()].id);
      }
    } else {  // pop
      ASSERT_EQ(q.empty(), model.empty());
      if (model.empty()) continue;
      auto best = std::min_element(model.begin(), model.end(), ref_earlier);
      SimTime expect_at = best->at;
      int expect_id = best->id;
      model.erase(best);

      ASSERT_EQ(q.next_time(), expect_at) << "seed " << seed << " step " << step;
      std::size_t fired_before = fired.size();
      EventFn fn;
      SimTime at = q.pop(fn);
      ASSERT_EQ(at, expect_at);
      ASSERT_TRUE(static_cast<bool>(fn));
      fn();
      ASSERT_EQ(fired.size(), fired_before + 1);
      ASSERT_EQ(fired.back(), expect_id) << "seed " << seed << " step " << step;
      now = at;
      std::erase_if(live_handles, [expect_id](const auto& p) { return p.first == expect_id; });
    }
  }

  // Drain what's left: the full remaining order must match the model.
  std::sort(model.begin(), model.end(), ref_earlier);
  for (const RefEvent& e : model) {
    EventFn fn;
    SimTime at = q.pop(fn);
    ASSERT_EQ(at, e.at);
    ASSERT_TRUE(static_cast<bool>(fn));
    fn();
    ASSERT_EQ(fired.back(), e.id);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kNever);
}

TEST(KernelProperty, MatchesReferenceModelAcrossLanes) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 77ull, 4242ull}) {
    SCOPED_TRACE(seed);
    check_against_reference_model(seed, /*keyed=*/false);
  }
}

TEST(KernelProperty, KeyedInsertsMatchReferenceModel) {
  for (std::uint64_t seed : {5ull, 6ull, 99ull}) {
    SCOPED_TRACE(seed);
    check_against_reference_model(seed, /*keyed=*/true);
  }
}

// A keyed event parked in the heap (beyond the horizon when scheduled)
// meets a wheel event at the same instant, a window start, with a
// smaller key: the bucket must be sorted into the run and merged, not
// left behind the heap top on the equal timestamp.
TEST(KernelProperty, KeyedTieAtWindowStartMergesBucketFirst) {
  EventQueue q;
  const SimTime t = SimTime{274 * 256} << EventQueue::kTickShift;  // ~4.6 s, a window start
  std::vector<int> order;
  q.schedule_keyed(t, 5, 0, nullptr, [&order] { order.push_back(5); });  // beyond horizon: heap
  q.schedule_keyed(t - seconds(1), 1, 0, nullptr, [&order] { order.push_back(1); });
  EventFn fn;
  q.pop(fn);  // moves the cursor to ~3.6 s
  fn();
  q.schedule_keyed(t, 3, 0, nullptr, [&order] { order.push_back(3); });  // now inside: wheel
  EXPECT_EQ(q.debug_wheel_size(), 1u);
  while (!q.empty()) {
    EXPECT_EQ(q.pop(fn), t);
    fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5}));
}

// Recurring timers ride the wheel; interleave them with one-shots and
// check the merged order against a plain sorted schedule.
TEST(KernelProperty, TimerWheelInterleavesWithOneShots) {
  Simulation sim;
  std::vector<std::pair<SimTime, int>> observed;
  Node& n = sim.add_node("n0");
  n.boot();
  std::shared_ptr<Process> proc = n.start_process("p", nullptr);
  PeriodicTimer fast(proc->main_strand());
  PeriodicTimer slow(proc->main_strand());
  fast.start(milliseconds(10), [&] { observed.emplace_back(sim.now(), 0); });
  slow.start(milliseconds(175), [&] { observed.emplace_back(sim.now(), 1); });
  for (int i = 1; i <= 40; ++i) {
    sim.schedule_at(milliseconds(i * 23), [&, i] { observed.emplace_back(sim.now(), 100 + i); });
  }
  sim.run_until(seconds(1));
  // Times must be non-decreasing and every expected event present.
  for (std::size_t i = 1; i < observed.size(); ++i) {
    ASSERT_LE(observed[i - 1].first, observed[i].first);
  }
  EXPECT_EQ(std::count_if(observed.begin(), observed.end(),
                          [](const auto& e) { return e.second == 0; }),
            100);  // 10 ms timer in [10ms, 1s]
  EXPECT_EQ(std::count_if(observed.begin(), observed.end(),
                          [](const auto& e) { return e.second == 1; }),
            5);  // 175 ms timer: 175, 350, ..., 875
  EXPECT_EQ(std::count_if(observed.begin(), observed.end(),
                          [](const auto& e) { return e.second >= 100; }),
            40);
}

// ---------------------------------------------------------------------
// Bounded memory under schedule/cancel storms (the seed kernel's heap
// only dropped tombstones that surfaced at the top, so this pattern
// grew it without bound). Both lanes must stay bounded.

TEST(KernelBoundedMemory, HeapLaneCancelStormStaysCompact) {
  EventQueue q;
  // Far-future events route to the comparison heap (beyond the wheel
  // horizon). 100k schedule/cancel cycles with a small live set.
  for (int i = 0; i < 100000; ++i) {
    EventHandle h = q.schedule(minutes(10) + i, [] {});
    q.cancel(h);
  }
  EXPECT_EQ(q.size(), 0u);
  EXPECT_LT(q.debug_heap_size(), 300u);   // ~2x the compaction threshold
  EXPECT_LT(q.debug_slab_size(), 300u);   // slots recycle through the freelist
  EXPECT_GT(q.debug_compactions(), 0u);
}

TEST(KernelBoundedMemory, WheelLaneCancelStormStaysCompact) {
  EventQueue q;
  // Short-horizon events route to the wheel; cancelled nodes linger as
  // zombies only until the sweep reclaims them.
  for (int i = 0; i < 100000; ++i) {
    EventHandle h = q.schedule(milliseconds(50 + i % 200), [] {});
    q.cancel(h);
  }
  EXPECT_EQ(q.size(), 0u);
  EXPECT_LT(q.debug_wheel_size(), 300u);
  EXPECT_LT(q.debug_slab_size(), 300u);
  EXPECT_GT(q.debug_wheel_sweeps(), 0u);
}

TEST(KernelBoundedMemory, CancelStormAgainstDrainedRunStaysBounded) {
  EventQueue q;
  // 20k events inside one tick: the first peek sorts them into the run.
  const SimTime base = SimTime{16} << EventQueue::kTickShift;
  std::vector<EventHandle> hs;
  for (int i = 0; i < 20000; ++i) hs.push_back(q.schedule(base + i % 60000, [] {}));
  EXPECT_EQ(q.next_time(), base);
  EXPECT_EQ(q.debug_run_size(), 20000u);
  EXPECT_EQ(q.debug_wheel_size(), 0u);
  // Cancel all but every 1000th, then storm the run's tick: inserts at
  // or before the cursor route to the heap, and the run never grows.
  for (int i = 0; i < 20000; ++i) {
    if (i % 1000 != 0) q.cancel(hs[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(q.debug_compactions(), 0u);  // run refs are not heap tombstones
  for (int i = 0; i < 100000; ++i) {
    EventHandle h = q.schedule(base + i % 60000, [] {});
    q.cancel(h);
  }
  EXPECT_EQ(q.size(), 20u);
  EXPECT_LE(q.debug_run_size(), 20000u);
  EXPECT_LT(q.debug_heap_size(), 300u);
  EXPECT_LE(q.debug_slab_size(), 20001u);  // cancelled run slots recycle
  std::vector<SimTime> popped;
  while (!q.empty()) {
    EventFn fn;
    popped.push_back(q.pop(fn));
  }
  EXPECT_EQ(popped.size(), 20u);
  EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
  EXPECT_EQ(q.next_time(), kNever);  // skips the run's cancelled tail
  EXPECT_EQ(q.debug_run_size(), 0u);
}

TEST(KernelBoundedMemory, MixedLiveAndCancelledBoundedByLiveSet) {
  EventQueue q;
  std::vector<EventHandle> keep;
  for (int i = 0; i < 50000; ++i) {
    EventHandle h = q.schedule(seconds(100) + i, [] {});
    if (i % 100 == 0) {
      keep.push_back(h);  // 1% survives
    } else {
      q.cancel(h);
    }
  }
  EXPECT_EQ(q.size(), keep.size());
  // Tombstones may transiently double the structures but no worse.
  EXPECT_LT(q.debug_heap_size(), 2 * keep.size() + 200);
  EXPECT_LT(q.debug_slab_size(), 2 * keep.size() + 200);
}

}  // namespace
}  // namespace oftt::sim
