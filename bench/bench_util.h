// Shared helpers for the experiment harnesses: fixed-width table
// printing and small statistics.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/sweep.h"

namespace oftt::bench {

/// CI smoke mode: when OFTT_BENCH_SMOKE is set (non-empty, not "0"),
/// benches shrink their seed/iteration counts so every binary finishes
/// in a few seconds. The numbers are meaningless then — the point is
/// exercising each harness end to end (build, run, JSON export) on
/// every change, not measuring.
inline bool smoke_mode() {
  const char* v = std::getenv("OFTT_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

/// `full` seeds normally, a tiny count under OFTT_BENCH_SMOKE.
inline int seeds_or(int full, int smoke = 2) { return smoke_mode() ? smoke : full; }

inline void title(const std::string& name, const std::string& what) {
  std::printf("\n%s\n%s\n", name.c_str(), std::string(name.size(), '=').c_str());
  std::printf("%s\n\n", what.c_str());
}

/// Print a row of columns each padded to width 14 (first column 28).
inline void row(const std::vector<std::string>& cols) {
  // The leading space keeps columns apart even when a value (a 16-digit
  // hex digest) is wider than the column.
  for (std::size_t i = 0; i < cols.size(); ++i) {
    std::printf(i == 0 ? "%-28s" : " %13s", cols[i].c_str());
  }
  std::printf("\n");
}

inline void rule(std::size_t cols) {
  std::printf("%s\n", std::string(28 + 14 * (cols - 1), '-').c_str());
}

inline std::string fmt(double v, int prec = 2) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}
inline std::string fmt_int(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", v);
  return buf;
}
inline std::string fmt_pct(double v, int prec = 1) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f%%", prec, v * 100.0);
  return buf;
}

/// Write `content` to `path` (overwrite). The benches use this for the
/// BENCH_*.json exports; returns false (and logs) when the path is not
/// writable rather than aborting the run.
inline bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::printf("(could not write %s)\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s (%zu bytes)\n", path.c_str(), content.size());
  return true;
}

// The sweep thread pool itself lives in src/common/sweep.h (shared
// with the chaos campaign runner); the bench-facing names stay here.
using oftt::sweep_seeds;
using oftt::sweep_threads;

struct Stats {
  double mean = 0, p50 = 0, p95 = 0, min = 0, max = 0;
  std::size_t n = 0;
};

inline Stats stats_of(std::vector<double> xs) {
  Stats s;
  s.n = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  s.mean = std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
  s.p50 = xs[xs.size() / 2];
  s.p95 = xs[static_cast<std::size_t>(static_cast<double>(xs.size() - 1) * 0.95)];
  s.min = xs.front();
  s.max = xs.back();
  return s;
}

}  // namespace oftt::bench
