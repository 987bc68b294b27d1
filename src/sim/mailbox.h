// Bounded SPSC mailbox for cross-partition event exchange.
//
// Each (source shard, destination shard) pair owns one mailbox. The
// producer is the source worker (pushing deliveries whose timestamps
// land at or beyond the current window's end — the conservative
// lookahead guarantees it); the consumer is the coordinator, which
// drains every mailbox at the window barrier while all workers are
// parked. Push/size use acquire/release atomics so the handoff is
// clean under TSAN even though the barrier itself already orders the
// two sides.
//
// The ring starts at EngineConfig::mailbox_capacity. A full ring must
// not block the producer — a blocked worker would deadlock the barrier
// — so overflow spills into a mutex-guarded vector and is counted
// (oftt.pdes.mailbox_spills). The drain after a spill grows the ring to
// hold that whole window's traffic, so spills stop after the first busy
// windows instead of recurring every window. Determinism is unaffected
// either way: the destination queue re-orders by (time, key)
// regardless of arrival order.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace oftt::sim {

/// One cross-partition event: the target node's shard queue re-keys
/// nothing — `key` was derived from the *sending* node's deterministic
/// counter at send time (stamped with send-time semantics), so delivery
/// order is reconstructed identically for any worker count.
struct CrossEvent {
  SimTime at = 0;
  std::uint64_t key = 0;
  std::uint32_t target = 0;  // destination node id
  EventFn fn;
};

class SpscMailbox {
 public:
  explicit SpscMailbox(std::size_t capacity) { resize(capacity); }

  SpscMailbox(const SpscMailbox&) = delete;
  SpscMailbox& operator=(const SpscMailbox&) = delete;

  /// Producer side (single thread). Never blocks: a full ring spills.
  void push(CrossEvent&& e) {
    std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= ring_.size()) {
      std::lock_guard<std::mutex> lock(spill_mu_);
      spill_.push_back(std::move(e));
      spills_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ring_[head & mask_] = std::move(e);
    head_.store(head + 1, std::memory_order_release);
    std::size_t occ = head + 1 - tail;
    std::size_t peak = peak_.load(std::memory_order_relaxed);
    while (occ > peak &&
           !peak_.compare_exchange_weak(peak, occ, std::memory_order_relaxed)) {
    }
  }

  /// Consumer side; only called at barriers (producer parked).
  template <typename Fn>
  void drain(Fn&& deliver) {
    std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t head = head_.load(std::memory_order_acquire);
    while (tail != head) {
      deliver(std::move(ring_[tail & mask_]));
      ++tail;
    }
    tail_.store(tail, std::memory_order_release);
    std::lock_guard<std::mutex> lock(spill_mu_);
    if (spill_.empty()) return;
    for (CrossEvent& e : spill_) deliver(std::move(e));
    resize(ring_.size() + spill_.size());  // the ring is empty now
    std::vector<CrossEvent>().swap(spill_);  // the grown ring replaces its memory
  }

  std::size_t capacity() const { return ring_.size(); }
  std::uint64_t spills() const { return spills_.load(std::memory_order_relaxed); }
  /// High-water occupancy since construction (the oftt.pdes metric).
  std::size_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  /// Fresh ring of at least `capacity` (a power of two, ≥ 8). Only with
  /// the ring empty and the producer parked.
  void resize(std::size_t capacity) {
    std::size_t cap = 8;
    while (cap < capacity) cap <<= 1;
    ring_ = std::vector<CrossEvent>(cap);
    mask_ = cap - 1;
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
  }

  std::vector<CrossEvent> ring_;
  std::size_t mask_ = 0;
  std::atomic<std::size_t> head_{0};
  std::atomic<std::size_t> tail_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::uint64_t> spills_{0};
  std::mutex spill_mu_;
  std::vector<CrossEvent> spill_;
};

}  // namespace oftt::sim
