// The benchmark's statistics rules, kept free of library dependencies so the
// self-test can check them directly:
//   * nearest-rank percentiles and the median;
//   * the tail rule: the highest percentile with at least `beyond` samples
//     strictly above it, reported only when the sample count supports it;
//   * the backlog test and the rung verdict of the served-rate ladder;
//   * the fixed, absolute rate ladder and its search.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile, q in [0, 1]. 0 for an empty sample.
inline double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Middle value (mean of the two middle values for even counts).
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

struct Tail {
  double value = 0.0;
  /// Share of samples at or below `value`, in percent: 100·(n−beyond)/n.
  double percentile = 0.0;
  std::size_t samples = 0;
  /// False when fewer than beyond+1 samples exist; value is then 0.
  bool supported = false;
};

/// The highest percentile that still has at least `beyond` samples above
/// it: the (beyond+1)-th largest sample.
inline Tail tail_of(std::vector<double> xs, std::size_t beyond = 10) {
  Tail t;
  t.samples = xs.size();
  if (xs.size() < beyond + 1) return t;
  std::sort(xs.begin(), xs.end());
  t.value = xs[xs.size() - 1 - beyond];
  t.percentile = 100.0 * static_cast<double>(xs.size() - beyond) /
                 static_cast<double>(xs.size());
  t.supported = true;
  return t;
}

/// Backlog test for one open-loop rung. `latency[i]` belongs to the i-th
/// request in scheduled-arrival order. The queue is growing when the median
/// latency of the last quarter of arrivals exceeds that of the first quarter
/// by more than half the p99 limit: a stable queue keeps both quarters at
/// the same level, an overloaded one drifts upward for the whole rung.
inline bool backlog_growing(const std::vector<double>& latency,
                            double p99_limit_s) {
  const std::size_t n = latency.size();
  if (n < 8) return false;
  const std::size_t q = n / 4;
  const std::vector<double> first(latency.begin(), latency.begin() + q);
  const std::vector<double> last(latency.end() - q, latency.end());
  return median(last) - median(first) > 0.5 * p99_limit_s;
}

struct RungVerdict {
  double p99_s = 0.0;
  bool backlog = false;
  bool pass = false;
};

/// A rung passes when every request completed, p99 latency is within the
/// limit and the backlog is not growing.
inline RungVerdict judge_rung(const std::vector<double>& latency,
                              std::size_t submitted, double p99_limit_s) {
  RungVerdict v;
  v.p99_s = percentile(latency, 0.99);
  v.backlog = backlog_growing(latency, p99_limit_s);
  v.pass = !latency.empty() && latency.size() == submitted &&
           v.p99_s <= p99_limit_s && !v.backlog;
  return v;
}

/// Fixed geometric ladder: base·ratio^i, i = 0..count−1, rounded to whole
/// requests per second.
inline std::vector<double> rate_ladder(double base, double ratio, int count) {
  std::vector<double> rungs;
  for (int i = 0; i < count; ++i) {
    rungs.push_back(std::round(base * std::pow(ratio, i)));
  }
  return rungs;
}

/// Highest rung index whose probe passes, by bisection (the verdict is
/// monotone in the offered rate up to noise). −1 when even rung 0 fails.
inline int highest_passing_rung(int count,
                                const std::function<bool(int)>& passes) {
  int lo = -1;      // highest index known to pass
  int hi = count;   // lowest index known to fail
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace perfbench
