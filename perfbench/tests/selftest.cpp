// Self-test of the benchmark's statistics rules (perfbench/src/stats.hpp):
// the percentile and tail rules, the backlog test, the rung verdict and
// the ladder search. Run through `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> one_to(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Nearest-rank percentiles and the median.
  check(near(percentile(one_to(100), 0.99), 99.0), "p99 of 1..100 is 99");
  check(near(percentile(one_to(100), 0.50), 50.0), "p50 of 1..100 is 50");
  check(near(percentile(one_to(10), 1.0), 10.0), "p100 is the maximum");
  check(near(percentile({}, 0.5), 0.0), "empty percentile is 0");
  check(near(median(one_to(5)), 3.0), "odd median");
  check(near(median(one_to(4)), 2.5), "even median");

  // Tail rule: the (beyond+1)-th largest sample, supported from beyond+1
  // samples on.
  {
    const Tail t = tail_of(one_to(100));
    check(t.supported, "100 samples support a tail");
    check(near(t.value, 90.0), "tail of 1..100 is the 11th largest");
    check(near(t.percentile, 90.0), "tail percentile of 100 samples is p90");
    check(t.samples == 100, "tail records its sample count");
  }
  {
    const Tail t = tail_of(one_to(11));
    check(t.supported && near(t.value, 1.0), "11 samples: the minimum");
  }
  {
    const Tail t = tail_of(one_to(10));
    check(!t.supported && near(t.value, 0.0), "10 samples do not support it");
  }
  {
    const Tail t = tail_of(one_to(1000));
    check(near(t.value, 990.0) && near(t.percentile, 99.0),
          "1000 samples: the tail is p99");
  }

  // Backlog test: flat latencies are stable, a ramp is a growing backlog.
  {
    std::vector<double> flat(400, 0.02), ramp;
    for (int i = 0; i < 400; ++i) ramp.push_back(0.02 + 0.004 * i);
    check(!backlog_growing(flat, 0.5), "flat latency is no backlog");
    check(backlog_growing(ramp, 0.5), "a latency ramp is a backlog");
    // Noise around a constant level is not a backlog either.
    std::vector<double> noisy;
    for (int i = 0; i < 400; ++i) noisy.push_back(i % 7 == 0 ? 0.3 : 0.02);
    check(!backlog_growing(noisy, 0.5), "stationary spikes are no backlog");
    check(!backlog_growing({0.1, 0.9}, 0.5), "too few samples to judge");
  }

  // Rung verdict: p99 limit, backlog and completeness.
  {
    std::vector<double> ok(200, 0.02);
    check(judge_rung(ok, 200, 0.5).pass, "fast complete rung passes");
    check(!judge_rung(ok, 201, 0.5).pass, "a lost request fails the rung");
    std::vector<double> slow(200, 0.02);
    for (int i = 0; i < 5; ++i) slow[i * 40] = 0.9;
    check(!judge_rung(slow, 200, 0.5).pass, "p99 above the limit fails");
  }

  // Ladder and search.
  {
    const std::vector<double> ladder = rate_ladder(100.0, 1.08, 15);
    check(ladder.size() == 15 && near(ladder[0], 100.0) &&
              near(ladder[1], 108.0) && near(ladder[14], 294.0),
          "fixed geometric ladder");
    for (int cap = -1; cap < 15; ++cap) {
      int probes = 0;
      const int got = highest_passing_rung(15, [&](int i) {
        ++probes;
        return i <= cap;
      });
      check(got == cap, "bisection finds the highest passing rung");
      check(probes <= 4, "15 rungs need at most 4 probes");
    }
  }

  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
