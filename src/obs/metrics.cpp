#include "obs/metrics.h"

#include <algorithm>

namespace oftt::obs {
namespace detail {

void HistogramCell::record(std::int64_t v, std::uint64_t n) {
  if (n == 0) return;
  count.fetch_add(n, std::memory_order_relaxed);
  // Unsigned product: wraps exactly as n separate atomic adds would.
  sum.fetch_add(static_cast<std::int64_t>(static_cast<std::uint64_t>(v) * n),
                std::memory_order_relaxed);
  std::int64_t seen = min.load(std::memory_order_relaxed);
  while (v < seen && !min.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = max.load(std::memory_order_relaxed);
  while (v > seen && !max.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  std::size_t i = 0;
  while (i < bounds.size() && v > bounds[i]) ++i;
  counts[i].fetch_add(n, std::memory_order_relaxed);
}

std::int64_t HistogramCell::quantile(double q) const {
  std::uint64_t n = count.load(std::memory_order_relaxed);
  if (n == 0) return 0;
  std::int64_t lo_bound = min.load(std::memory_order_relaxed);
  std::int64_t hi_bound = max.load(std::memory_order_relaxed);
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based, nearest-rank).
  std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(n - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    std::uint64_t c = counts[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    std::uint64_t next = seen + c;
    if (rank <= next) {
      std::int64_t lo = i == 0 ? lo_bound : bounds[i - 1];
      std::int64_t hi = i < bounds.size() ? bounds[i] : hi_bound;
      lo = std::clamp(lo, lo_bound, hi_bound);
      hi = std::clamp(hi, lo_bound, hi_bound);
      if (hi <= lo || c == 1) return hi;
      // Linear interpolation across the bucket's samples.
      double frac = static_cast<double>(rank - seen) / static_cast<double>(c);
      return lo + static_cast<std::int64_t>(static_cast<double>(hi - lo) * frac);
    }
    seen = next;
  }
  return hi_bound;
}

}  // namespace detail

Counter MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counter_cells_.emplace_back();
    it = counters_.emplace(std::string(name), &counter_cells_.back()).first;
  }
  return Counter(it->second);
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauge_cells_.emplace_back();
    it = gauges_.emplace(std::string(name), &gauge_cells_.back()).first;
  }
  return Gauge(it->second);
}

Histogram MetricsRegistry::histogram(std::string_view name, std::vector<std::int64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    histogram_cells_.emplace_back();
    detail::HistogramCell& cell = histogram_cells_.back();
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    cell.bounds = std::move(bounds);
    // Atomics are not copyable, so the bucket array is sized once here
    // (vector move-assign) and never resized.
    cell.counts = std::vector<std::atomic<std::uint64_t>>(cell.bounds.size() + 1);
    it = histograms_.emplace(std::string(name), &cell).first;
  }
  return Histogram(it->second);
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value.load(std::memory_order_relaxed);
}

std::int64_t MetricsRegistry::gauge_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->value.load(std::memory_order_relaxed);
}

}  // namespace oftt::obs
