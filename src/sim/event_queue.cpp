#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace oftt::sim {

int EventQueue::Bits256::first_from(int i) const {
  unsigned start = i < 0 ? 0 : static_cast<unsigned>(i);
  if (start >= 256) return -1;
  unsigned word = start >> 6;
  std::uint64_t masked = w[word] & ~((start & 63) == 0 ? 0ull : ((1ull << (start & 63)) - 1));
  while (true) {
    if (masked != 0) {
      return static_cast<int>((word << 6) + static_cast<unsigned>(__builtin_ctzll(masked)));
    }
    if (++word >= 4) return -1;
    masked = w[word];
  }
}

int EventQueue::Bits256::first_after_circular(int i) const {
  int r = first_from(i + 1);
  if (r >= 0) return r;
  // Wrap: smallest set index in [0, i] (i's own bucket can never be
  // occupied — see the routing invariants — but scanning it is harmless).
  r = first_from(0);
  return (r >= 0 && r <= i) ? r : -1;
}

EventQueue::EventQueue() {
  hot_.reserve(256);
  cold_.reserve(256);
  for (unsigned i = 0; i < kSlots; ++i) {
    l0_head_[i] = kNilSlot;
    l1_head_[i] = kNilSlot;
  }
}

std::uint32_t EventQueue::alloc_slot() {
  if (free_head_ == kNilSlot) maybe_sweep_wheel();
  if (free_head_ != kNilSlot) {
    std::uint32_t idx = free_head_;
    free_head_ = hot_[idx].next;
    hot_[idx].in_use = true;
    return idx;
  }
  hot_.emplace_back();
  cold_.emplace_back();
  hot_.back().in_use = true;
  return static_cast<std::uint32_t>(hot_.size() - 1);
}

void EventQueue::free_slot(std::uint32_t idx) {
  SlotHot& s = hot_[idx];
  cold_[idx].fn.reset();
  cold_[idx].life.reset();
  ++s.gen;  // invalidates every outstanding handle and heap ref
  s.in_use = false;
  s.next = free_head_;
  free_head_ = idx;
}

EventHandle EventQueue::schedule_on(SimTime at, LifeRef life, EventFn&& fn) {
  return schedule_impl(at, next_seq_++, kNoTarget, std::move(life), std::move(fn));
}

EventHandle EventQueue::schedule_keyed(SimTime at, std::uint64_t key, std::uint32_t target,
                                       LifeRef life, EventFn&& fn) {
  return schedule_impl(at, key, target, std::move(life), std::move(fn));
}

EventHandle EventQueue::schedule_impl(SimTime at, std::uint64_t seq, std::uint32_t target,
                                      LifeRef life, EventFn&& fn) {
  std::uint32_t idx = alloc_slot();
  SlotHot& s = hot_[idx];
  s.at = at;
  s.seq = seq;
  s.target = target;
  cold_[idx].life = std::move(life);
  cold_[idx].fn = std::move(fn);

  // Route by horizon. A negative or huge `at` (kNever) maps to a tick
  // far outside both windows and lands in the heap.
  std::uint64_t tick = tick_of(at);
  std::uint64_t window_delta = (tick >> 8) - (cur_tick_ >> 8);
  if (tick > cur_tick_ && window_delta < kSlots) {
    s.lane = kLaneWheel;
    wheel_insert(idx, tick);
  } else {
    s.lane = kLaneHeap;
    heap_push(Ref{at, s.seq, idx, s.gen});
  }
  ++live_;
  return EventHandle(this, idx, s.gen);
}

void EventQueue::cancel(EventHandle& h) {
  if (h.q_ == this && handle_live(h.idx_, h.gen_)) {
    SlotHot& s = hot_[h.idx_];
    if (s.lane != kLaneWheel) {
      // Heap and run refs are value copies: the slot can recycle
      // immediately, the stale ref is dropped when it surfaces (or, in
      // the heap, at compaction). The run only shrinks.
      if (s.lane == kLaneHeap) ++heap_dead_;
      free_slot(h.idx_);
      maybe_compact_heap();
    } else {
      // Wheel nodes are linked through the slot itself: release the
      // payload now, leave the link in place as a zombie until its
      // bucket is next walked (or the sweep reclaims it).
      cold_[h.idx_].fn.reset();
      cold_[h.idx_].life.reset();
      ++s.gen;
      s.in_use = false;
      ++wheel_dead_;
    }
    assert(live_ > 0);
    --live_;
  }
  h = EventHandle{};
}

void EventQueue::heap_push(Ref r) {
  heap_.push_back(r);
  std::push_heap(heap_.begin(), heap_.end(), later);
}

SimTime EventQueue::live_heap_min() {
  while (!heap_.empty() && !ref_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
    assert(heap_dead_ > 0);
    --heap_dead_;
  }
  return heap_.empty() ? kNever : heap_.front().at;
}

void EventQueue::maybe_compact_heap() {
  // Compact when tombstones outnumber live refs: bounds the heap at
  // ~2x the live event count no matter how cancel-heavy the workload
  // (the seed kernel only reclaimed tombstones that surfaced at the
  // top, so a schedule/cancel loop grew the heap without bound).
  if (heap_dead_ < 64 || heap_dead_ * 2 < heap_.size()) return;
  std::erase_if(heap_, [this](const Ref& r) { return !ref_live(r); });
  std::make_heap(heap_.begin(), heap_.end(), later);
  heap_dead_ = 0;
  ++compactions_;
}

void EventQueue::wheel_insert(std::uint32_t idx, std::uint64_t tick) {
  SlotHot& s = hot_[idx];
  if ((tick >> 8) == (cur_tick_ >> 8)) {
    unsigned b = static_cast<unsigned>(tick & 255);
    s.next = l0_head_[b];
    l0_head_[b] = idx;
    l0_bits_.set(b);
  } else {
    unsigned b = static_cast<unsigned>((tick >> 8) & 255);
    s.next = l1_head_[b];
    l1_head_[b] = idx;
    l1_bits_.set(b);
  }
  ++wheel_count_;
}

void EventQueue::take_bucket(int s) {
  std::uint32_t cur = l0_head_[static_cast<unsigned>(s)];
  while (cur != kNilSlot) {
    SlotHot& sl = hot_[cur];
    std::uint32_t nxt = sl.next;
    assert(wheel_count_ > 0);
    --wheel_count_;
    if (sl.in_use) {
      sl.lane = kLaneRun;
      run_.push_back(Ref{sl.at, sl.seq, cur, sl.gen});
    } else {
      sl.next = free_head_;
      free_head_ = cur;
      assert(wheel_dead_ > 0);
      --wheel_dead_;
    }
    cur = nxt;
  }
  l0_head_[static_cast<unsigned>(s)] = kNilSlot;
  l0_bits_.clear(static_cast<unsigned>(s));
  // Seqs are unique (a counter, or PDES keys carrying the node), so the
  // order is total and an unstable sort is deterministic.
  std::sort(run_.begin(), run_.end(), [](const Ref& x, const Ref& y) { return later(y, x); });
}

void EventQueue::cascade_l1(int j) {
  std::uint32_t cur = l1_head_[static_cast<unsigned>(j)];
  while (cur != kNilSlot) {
    SlotHot& sl = hot_[cur];
    std::uint32_t nxt = sl.next;
    if (sl.in_use) {
      unsigned b = static_cast<unsigned>(tick_of(sl.at) & 255);
      sl.next = l0_head_[b];
      l0_head_[b] = cur;
      l0_bits_.set(b);
    } else {
      sl.next = free_head_;
      free_head_ = cur;
      assert(wheel_count_ > 0 && wheel_dead_ > 0);
      --wheel_count_;
      --wheel_dead_;
    }
    cur = nxt;
  }
  l1_head_[static_cast<unsigned>(j)] = kNilSlot;
  l1_bits_.clear(static_cast<unsigned>(j));
}

void EventQueue::sweep_bucket(std::uint32_t& head, unsigned bit, Bits256& bits) {
  std::uint32_t prev = kNilSlot;
  std::uint32_t cur = head;
  while (cur != kNilSlot) {
    SlotHot& sl = hot_[cur];
    std::uint32_t nxt = sl.next;
    if (!sl.in_use) {
      (prev == kNilSlot ? head : hot_[prev].next) = nxt;
      sl.next = free_head_;
      free_head_ = cur;
      --wheel_count_;
      --wheel_dead_;
    } else {
      prev = cur;
    }
    cur = nxt;
  }
  if (head == kNilSlot) bits.clear(bit);
}

void EventQueue::maybe_sweep_wheel() {
  // Zombies cost memory only when they make the slab grow. Called when
  // the freelist is empty: if zombies are at least half the slab, walk
  // the occupied buckets and unlink them instead, so a schedule/cancel
  // loop whose delays land in the wheel cannot grow the slab without
  // bound, while zombies that sorting or cascading reclaims in time (a
  // timeout cancelled well before it falls due) use free slab space
  // instead of forcing walks.
  if (wheel_dead_ < 64 || wheel_dead_ * 2 < hot_.size()) return;
  for (int i = l0_bits_.first_from(0); i >= 0; i = l0_bits_.first_from(i + 1)) {
    sweep_bucket(l0_head_[i], static_cast<unsigned>(i), l0_bits_);
  }
  for (int i = l1_bits_.first_from(0); i >= 0; i = l1_bits_.first_from(i + 1)) {
    sweep_bucket(l1_head_[i], static_cast<unsigned>(i), l1_bits_);
  }
  ++wheel_sweeps_;
}

void EventQueue::fill_run(SimTime heap_min) {
  while (wheel_count_ > 0 && run_.empty()) {
    // The L0 scan includes the cursor's own tick: a cascade lands
    // events due exactly at the window start there.
    int s = l0_bits_.first_from(static_cast<int>(cur_tick_ & 255));
    if (s >= 0) {
      std::uint64_t tick = (cur_tick_ & ~std::uint64_t{255}) | static_cast<unsigned>(s);
      // Every event in the bucket is at or after its tick start; if even
      // that loses to the heap, the bucket is not due yet.
      if (static_cast<SimTime>(tick << kTickShift) > heap_min) return;
      cur_tick_ = tick;
      take_bucket(s);  // empty when the bucket held only zombies; rescan
      continue;
    }
    std::uint64_t cw = cur_tick_ >> 8;
    int j = l1_bits_.first_after_circular(static_cast<int>(cw & 255));
    if (j < 0) return;  // defensive: counts say occupied but no bits set
    std::uint64_t dist = (static_cast<std::uint64_t>(j) - cw) & 255;
    assert(dist != 0);  // a bucket at the cursor's own window index is unreachable
    std::uint64_t window_start = (cw + dist) << 8;
    if (static_cast<SimTime>(window_start << kTickShift) > heap_min) return;
    cur_tick_ = window_start;
    cascade_l1(j);
  }
}

bool EventQueue::settle() {
  while (run_pos_ < run_.size() && !ref_live(run_[run_pos_])) ++run_pos_;
  SimTime heap_min = live_heap_min();
  if (run_pos_ == run_.size()) {
    run_.clear();
    run_pos_ = 0;
    fill_run(heap_min);
    if (run_.empty()) return false;
  }
  return heap_.empty() || later(heap_.front(), run_[run_pos_]);
}

SimTime EventQueue::next_time() {
  if (settle()) return run_[run_pos_].at;
  return heap_.empty() ? kNever : heap_.front().at;
}

SimTime EventQueue::pop(EventFn& fn) {
  std::uint32_t idx;
  if (settle()) {
    idx = run_[run_pos_++].idx;
    // The run's order is known ahead: warm the slot popped a few events
    // from now, which in a large run is a cache miss otherwise.
    if (run_pos_ + 4 < run_.size()) {
      std::uint32_t ahead = run_[run_pos_ + 4].idx;
      __builtin_prefetch(&hot_[ahead]);
      __builtin_prefetch(&cold_[ahead]);
    }
  } else {
    assert(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), later);
    idx = heap_.back().idx;
    heap_.pop_back();
  }

  SlotHot& s = hot_[idx];
  SlotCold& c = cold_[idx];
  assert(s.in_use);
  SimTime at = s.at;
  last_target_ = s.target;
  // Liveness gate (was a wrapper lambda in the seed kernel): a dead or
  // hung strand's event still advances time but returns no callback.
  if (c.life == nullptr || c.life->runnable()) fn = std::move(c.fn);
  else fn.reset();
  // Free before returning: the event has fired, so its handle must
  // already read invalid inside its own callback.
  free_slot(idx);
  assert(live_ > 0);
  --live_;
  // Re-centre an idle wheel on the present so that after a quiet spell
  // (no short-horizon timers for a few seconds) new short delays land
  // in the wheel again instead of overflowing to the heap. Only legal when
  // the wheel is empty — resident nodes pin the cursor's windows.
  if (wheel_count_ == 0 && tick_of(at) > cur_tick_) cur_tick_ = tick_of(at);
  return at;
}

}  // namespace oftt::sim
