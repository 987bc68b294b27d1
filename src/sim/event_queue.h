// The event queue at the heart of the simulation, rebuilt around a slab
// pool and a two-level timer wheel.
//
// The seed kernel paid three heap allocations per scheduled event: a
// shared_ptr<bool> tombstone for the handle, std::function's capture
// cell, and (for strand events) a second std::function wrapping the
// liveness check. This version allocates nothing on the steady-state
// schedule/fire/cancel cycle:
//
//   - Events live in a slab of reusable Slots; a freelist recycles
//     indices and a per-slot generation counter makes stale handles
//     detectable. EventHandle is {queue, index, generation} — three
//     words, trivially copyable, O(1) cancel, no refcounts.
//   - Callbacks are InlineFn (see inline_fn.h): captures up to 120
//     bytes stay inside the slot.
//   - Strand liveness (StrandLife) is a first-class slot field checked
//     at pop time, not a wrapper lambda.
//
// Ordering lanes. A comparison heap orders arbitrary timestamps in
// O(log n), but most traffic is short-horizon (datagram deliveries,
// heartbeats, RTOs, scan cycles). The wheel only buckets those events
// by tick; each bucket is sorted once, when it falls due, and then pops
// in O(1). Events are routed by delay at schedule time:
//
//   heap  — events due in the cursor's current tick or earlier, and
//           events beyond the wheel horizon (~4.3 s), incl. kNever.
//   L0    — events in the cursor's current 256-tick window
//           (tick = 2^16 ns ≈ 65.5 µs, window ≈ 16.8 ms).
//   L1    — events within the next 255 windows (≈ 4.3 s); cascaded
//           into L0 when the cursor enters their window.
//   run   — the bucket that fell due last: once the previous run is
//           exhausted and the earliest occupied bucket starts at or
//           before the live heap minimum, its live events are sorted by
//           (at, seq) into a vector and the cursor moves to its tick.
//
// pop takes the smaller of the run front and the heap top. Everything
// still in the wheel lies in a later tick than the run, and inserts at
// or before the cursor's tick go to the heap, so the run never grows
// and the two-way merge is the whole (at, seq) order. Wheel buckets are
// intrusive singly-linked lists threaded through the slab (Slot::next
// doubles as the freelist link), so insert, cascade and cancel never
// touch the allocator. The observable order is exactly the (at, seq)
// total order of a single heap: FIFO at equal timestamps, bit-for-bit
// identical to the seed kernel. Determinism is the contract; the lanes
// may only change what an event costs, never when it fires.
//
// Handles must not outlive their EventQueue (in practice: the
// Simulation). Processes and components are destroyed before the queue,
// so any handle stored in application state dies first.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_fn.h"
#include "sim/time.h"

namespace oftt::sim {

using EventFn = InlineFn;

/// Shared liveness token checked at event dispatch; lets us tombstone a
/// whole process (or one strand) in O(1) without touching the heap.
/// (Lives here rather than process.h because the kernel stores it
/// natively in each event slot.)
///
/// Reference-counted intrusively and NON-atomically: a Simulation is
/// strictly single-threaded (the parallel seed sweep runs whole
/// independent Simulations per thread), so the shared_ptr atomics the
/// seed kernel paid twice per strand event bought nothing.
struct StrandLife {
  bool alive = true;
  bool hung = false;
  int refs = 0;  // managed by LifeRef
  bool runnable() const { return alive && !hung; }
};

/// Intrusive smart pointer for StrandLife (see above for why not
/// shared_ptr). Copy = plain int increment.
class LifeRef {
 public:
  LifeRef() = default;
  LifeRef(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  explicit LifeRef(StrandLife* p) : p_(p) {
    if (p_ != nullptr) ++p_->refs;
  }
  LifeRef(const LifeRef& o) : p_(o.p_) {
    if (p_ != nullptr) ++p_->refs;
  }
  LifeRef(LifeRef&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  LifeRef& operator=(const LifeRef& o) {
    LifeRef tmp(o);
    std::swap(p_, tmp.p_);
    return *this;
  }
  LifeRef& operator=(LifeRef&& o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~LifeRef() { release(); }

  static LifeRef make() { return LifeRef(new StrandLife()); }

  void reset() {
    release();
    p_ = nullptr;
  }
  StrandLife* get() const { return p_; }
  StrandLife* operator->() const { return p_; }
  StrandLife& operator*() const { return *p_; }
  explicit operator bool() const { return p_ != nullptr; }
  bool operator==(std::nullptr_t) const { return p_ == nullptr; }

 private:
  void release() {
    if (p_ != nullptr && --p_->refs == 0) delete p_;
  }
  StrandLife* p_ = nullptr;
};

class EventQueue;

/// Opaque handle for cancelling a scheduled event. Default-constructed
/// handles are inert.
///
/// valid() semantics (pinned by KernelHandleSemantics in kernel_test):
/// true exactly while the event is scheduled and uncancelled. The slot
/// is released *before* the callback runs, so a fired event's handle
/// reads invalid — including inside its own callback. cancel() of an
/// invalid handle (already fired, already cancelled, default) is a
/// harmless no-op; fire-then-cancel and double-cancel are therefore
/// safe races. Slot indices are recycled under a 32-bit generation
/// counter, so a stale handle cannot alias a later event.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const;

 private:
  friend class EventQueue;
  EventHandle(const EventQueue* q, std::uint32_t idx, std::uint32_t gen)
      : q_(q), idx_(idx), gen_(gen) {}
  const EventQueue* q_ = nullptr;
  std::uint32_t idx_ = 0;
  std::uint32_t gen_ = 0;
};

class EventQueue {
 public:
  EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  EventHandle schedule(SimTime at, EventFn&& fn) { return schedule_on(at, nullptr, std::move(fn)); }
  /// Schedule with a liveness gate: the callback is dropped (but time
  /// still advances to `at` if it is the earliest event) when the
  /// strand has died or hung by fire time.
  EventHandle schedule_on(SimTime at, LifeRef life, EventFn&& fn);
  /// Parallel-engine entry: the caller supplies the tie-break key (a
  /// deterministic per-node sequence, not this queue's own counter) and
  /// the node the event targets, so a shard queue's pop order is a pure
  /// function of its contents — identical however events arrived. Keys
  /// share the (at, key) comparator with ordinary seqs.
  EventHandle schedule_keyed(SimTime at, std::uint64_t key, std::uint32_t target, LifeRef life,
                             EventFn&& fn);

  void cancel(EventHandle& h);
  /// Cancel through the handle's *own* queue. Under the parallel engine
  /// a handle may belong to a shard queue rather than the simulation's
  /// global queue; cancel() on the wrong queue is a silent no-op, so
  /// Simulation::cancel routes here.
  static void cancel_owned(EventHandle& h) {
    if (h.q_ != nullptr) const_cast<EventQueue*>(h.q_)->cancel(h);
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }
  /// Earliest pending event time, or kNever. May internally cascade due
  /// wheel windows, sort a due bucket into the run and reclaim
  /// tombstones (hence non-const).
  SimTime next_time();

  /// Pop the earliest live event into `fn` and return its time;
  /// precondition: !empty(). `fn` is left empty when the event's strand
  /// died or hung — the caller still advances time but has nothing to
  /// run. (Out-param form: one InlineFn relocation, slot -> fn.)
  SimTime pop(EventFn& fn);
  /// Target node of the most recently popped event (kNoTarget when it
  /// was scheduled without one). Read by parallel workers to install
  /// the node execution context.
  static constexpr std::uint32_t kNoTarget = 0xFFFFFFFF;
  std::uint32_t last_target() const { return last_target_; }

  // --- introspection for tests and benches ---------------------------
  std::size_t debug_heap_size() const { return heap_.size(); }
  std::size_t debug_wheel_size() const { return wheel_count_; }
  std::size_t debug_run_size() const { return run_.size() - run_pos_; }
  std::size_t debug_slab_size() const { return hot_.size(); }
  std::uint64_t debug_compactions() const { return compactions_; }
  std::uint64_t debug_wheel_sweeps() const { return wheel_sweeps_; }
  bool handle_live(std::uint32_t idx, std::uint32_t gen) const {
    return idx < hot_.size() && hot_[idx].in_use && hot_[idx].gen == gen;
  }

  static constexpr int kTickShift = 16;         // 1 tick = 2^16 ns ≈ 65.5 µs
  static constexpr std::uint32_t kSlots = 256;  // per wheel level

 private:
  enum Lane : std::uint8_t { kLaneHeap = 0, kLaneWheel = 1, kLaneRun = 2 };
  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFF;

  /// A slot is split structure-of-arrays style: the ordering and link
  /// fields live in a 32-byte hot record (two per cache line) while the
  /// ~140-byte payload (inline callable + liveness token) sits in a
  /// parallel cold array. Bucket walks, cascades, heap compaction and
  /// handle checks touch only hot_; the payload is read exactly twice
  /// per event (written at schedule, moved out at pop).
  struct SlotHot {
    SimTime at = 0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 0;
    /// Freelist link while free; intrusive bucket link while resident
    /// in a wheel bucket (a slot is never on both lists at once: a
    /// cancelled wheel slot stays linked as a zombie until its bucket
    /// is walked, and only then joins the freelist).
    std::uint32_t next = kNilSlot;
    std::uint32_t target = kNoTarget;  // node the event targets (parallel engine)
    Lane lane = kLaneHeap;
    bool in_use = false;
  };
  static_assert(sizeof(SlotHot) <= 32, "keep two hot slots per cache line");

  struct SlotCold {
    EventFn fn;
    LifeRef life;
  };

  /// What the comparison heap and the run hold: 24 bytes, trivially
  /// copyable.
  /// `gen` detects refs whose slot was cancelled (and possibly reused).
  struct Ref {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t idx;
    std::uint32_t gen;
  };
  static bool later(const Ref& a, const Ref& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }

  /// 256-bit occupancy bitmap: which wheel buckets are non-empty.
  struct Bits256 {
    std::uint64_t w[4] = {0, 0, 0, 0};
    void set(unsigned i) { w[i >> 6] |= 1ull << (i & 63); }
    void clear(unsigned i) { w[i >> 6] &= ~(1ull << (i & 63)); }
    /// Smallest set index >= i (pass i-1 semantics via callers), or -1.
    int first_from(int i) const;
    /// Smallest set index in circular order starting after `i` (wraps;
    /// never returns `i` itself), or -1 when empty.
    int first_after_circular(int i) const;
  };

  static std::uint64_t tick_of(SimTime at) {
    return static_cast<std::uint64_t>(at) >> kTickShift;
  }

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t idx);
  bool ref_live(const Ref& r) const { return hot_[r.idx].in_use && hot_[r.idx].gen == r.gen; }

  void heap_push(Ref r);
  /// Drop cancelled refs off the heap top; min live heap time or kNever.
  SimTime live_heap_min();
  void maybe_compact_heap();

  void wheel_insert(std::uint32_t idx, std::uint64_t tick);
  /// Move the live nodes of L0 bucket `s` into the run, sorted by
  /// (at, seq); zombies go back to the freelist.
  void take_bucket(int s);
  /// Refill an exhausted run from the earliest occupied bucket whose
  /// tick starts at or before `heap_min`, cascading L1 windows on the
  /// way. Leaves the run empty when the heap top comes first.
  void fill_run(SimTime heap_min);
  /// Relink L1 bucket `j` (the window the cursor just entered) into L0.
  void cascade_l1(int j);
  void maybe_sweep_wheel();
  void sweep_bucket(std::uint32_t& head, unsigned bit, Bits256& bits);

  /// The ordering step shared by next_time() and pop(): drop dead refs
  /// off the run front and the heap top, refill an exhausted run, and
  /// return true when the earliest live event is the run front (false:
  /// the heap top, or nothing).
  bool settle();

  // --- slab (parallel hot/cold arrays, same index space) --------------
  std::vector<SlotHot> hot_;
  std::vector<SlotCold> cold_;
  std::uint32_t free_head_ = kNilSlot;

  // --- comparison heap (manual vector + std::push/pop_heap) ----------
  std::vector<Ref> heap_;
  std::size_t heap_dead_ = 0;
  std::uint64_t compactions_ = 0;

  // --- timer wheel ----------------------------------------------------
  std::uint32_t l0_head_[kSlots];
  std::uint32_t l1_head_[kSlots];
  Bits256 l0_bits_;
  Bits256 l1_bits_;
  /// Wheel nodes always have tick >= cur_tick_, and L0 holds exactly
  /// the cursor's current 256-tick window.
  std::uint64_t cur_tick_ = 0;
  std::size_t wheel_count_ = 0;  // nodes resident in buckets (incl. zombies)
  std::size_t wheel_dead_ = 0;   // cancelled nodes awaiting unlink
  std::uint64_t wheel_sweeps_ = 0;

  // --- sorted run: the due bucket, popped from run_pos_ onward --------
  std::vector<Ref> run_;
  std::size_t run_pos_ = 0;

  EventHandle schedule_impl(SimTime at, std::uint64_t seq, std::uint32_t target, LifeRef life,
                            EventFn&& fn);

  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;  // scheduled, not yet fired or cancelled
  std::uint32_t last_target_ = kNoTarget;
};

inline bool EventHandle::valid() const { return q_ != nullptr && q_->handle_live(idx_, gen_); }

}  // namespace oftt::sim
