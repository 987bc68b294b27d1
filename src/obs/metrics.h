// MetricsRegistry: named counters, gauges and fixed-bucket histograms
// addressed by cheap handles. A handle is resolved from the metric name
// exactly once (at component construction), after which the hot path is
// a pointer-chase increment — no std::map<std::string, ...> lookup and
// no string concatenation per datagram, which is what the old
// Simulation::counter(std::string) interface cost on every network
// send/deliver.
//
// Cells live in deques so handles stay valid as the registry grows.
// Handles are trivially copyable and default-construct to an inert
// state (increments are dropped), so components can hold them by value.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace oftt::obs {

namespace detail {
// Cells are relaxed atomics: under the parallel engine, workers on
// different nodes increment shared cells (node.deliver_*, net.lost)
// concurrently. Counter/histogram reads are sums, so every observable
// value stays a deterministic function of the event history no matter
// how increments interleave; sequential runs pay one uncontended
// lock-free RMW, which is within noise of the old plain increment.
struct CounterCell {
  std::atomic<std::uint64_t> value{0};
};
struct GaugeCell {
  std::atomic<std::int64_t> value{0};
};
struct HistogramCell {
  std::vector<std::int64_t> bounds;  // upper bounds, ascending; implicit +inf last
  std::vector<std::atomic<std::uint64_t>> counts;  // bounds.size() + 1 buckets
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::int64_t> sum{0};
  // Sentinels until the first sample; readers gate on count > 0.
  std::atomic<std::int64_t> min{INT64_MAX};
  std::atomic<std::int64_t> max{INT64_MIN};

  /// Record v n times; n = 0 records nothing.
  void record(std::int64_t v, std::uint64_t n = 1);
  /// Approximate quantile (0..1): linear interpolation inside the
  /// bucket holding the q-th sample; exact at bucket edges.
  std::int64_t quantile(double q) const;
};
}  // namespace detail

class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t delta = 1) {
    if (cell_ != nullptr) cell_->value.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return cell_ != nullptr ? cell_->value.load(std::memory_order_relaxed) : 0;
  }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterCell* cell) : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) {
    if (cell_ != nullptr) cell_->value.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) {
    if (cell_ != nullptr) cell_->value.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return cell_ != nullptr ? cell_->value.load(std::memory_order_relaxed) : 0;
  }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

class Histogram {
 public:
  Histogram() = default;
  /// record(v, n) equals n calls of record(v), in one update per cell.
  void record(std::int64_t v, std::uint64_t n = 1) {
    if (cell_ != nullptr) cell_->record(v, n);
  }
  std::uint64_t count() const {
    return cell_ != nullptr ? cell_->count.load(std::memory_order_relaxed) : 0;
  }
  std::int64_t sum() const {
    return cell_ != nullptr ? cell_->sum.load(std::memory_order_relaxed) : 0;
  }
  std::int64_t quantile(double q) const {
    return cell_ != nullptr ? cell_->quantile(q) : 0;
  }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolve-or-create. Call once per component, keep the handle.
  /// Resolution is mutex-guarded (parallel-engine workers construct
  /// components — and thus resolve handles — concurrently at node
  /// boots); the handles themselves are lock-free.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  /// `bounds` are ascending upper bucket bounds; an implicit +inf
  /// bucket is appended. Re-resolving an existing histogram ignores the
  /// bounds argument.
  Histogram histogram(std::string_view name, std::vector<std::int64_t> bounds);

  // Slow by-name reads for tests/benches (not hot paths).
  std::uint64_t counter_value(std::string_view name) const;
  std::int64_t gauge_value(std::string_view name) const;

  // Deterministically ordered snapshots for the JSON exporter.
  const std::map<std::string, detail::CounterCell*, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, detail::GaugeCell*, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, detail::HistogramCell*, std::less<>>& histograms() const {
    return histograms_;
  }

 private:
  mutable std::mutex mu_;
  std::deque<detail::CounterCell> counter_cells_;
  std::deque<detail::GaugeCell> gauge_cells_;
  std::deque<detail::HistogramCell> histogram_cells_;
  std::map<std::string, detail::CounterCell*, std::less<>> counters_;
  std::map<std::string, detail::GaugeCell*, std::less<>> gauges_;
  std::map<std::string, detail::HistogramCell*, std::less<>> histograms_;
};

}  // namespace oftt::obs
