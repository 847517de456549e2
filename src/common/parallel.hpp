// Thin OpenMP helpers. All parallel loops in the library go through these so
// thread-count policy lives in one place (set_num_threads() > DDMGNN_THREADS
// env var > OMP_NUM_THREADS; benches and tools report the effective count).
#pragma once

#include <omp.h>

#include <atomic>
#include <cstdlib>
#include <exception>
#include <functional>

#include "common/error.hpp"

namespace ddmgnn {

namespace detail {
inline std::atomic<int>& thread_override() {
  static std::atomic<int> v{0};
  return v;
}
}  // namespace detail

/// Programmatic thread-count override (tools' --threads flag, tests probing
/// determinism across counts). Values <= 0 restore the environment default.
inline void set_num_threads(int n) {
  detail::thread_override().store(n > 0 ? n : 0, std::memory_order_relaxed);
}

/// Effective worker-thread count
/// (set_num_threads > env DDMGNN_THREADS > OpenMP default).
inline int num_threads() {
  const int overridden =
      detail::thread_override().load(std::memory_order_relaxed);
  if (overridden > 0) return overridden;
  static const int env_default = [] {
    if (const char* env = std::getenv("DDMGNN_THREADS")) {
      const int v = std::atoi(env);
      if (v > 0) return v;
    }
    return omp_get_max_threads();
  }();
  return env_default;
}

namespace detail {
/// Keeps the first exception thrown inside a thread team. An exception may
/// not leave an OpenMP region (that is std::terminate), so the team's work
/// runs under a catch-all and the caller rethrows after the region's closing
/// barrier.
class FirstException {
 public:
  template <typename Fn>
  void run(const Fn& fn) noexcept {
    try {
      fn();
    } catch (...) {
      if (!failed_.exchange(true, std::memory_order_acq_rel)) {
        first_ = std::current_exception();
      }
    }
  }
  bool failed() const { return failed_.load(std::memory_order_relaxed); }
  /// Call on the calling thread after the region has joined.
  void rethrow_if_any() const {
    if (first_) std::rethrow_exception(first_);
  }

 private:
  std::atomic<bool> failed_{false};
  std::exception_ptr first_;
};
}  // namespace detail

/// Parallel loop over [0, n) with a grain size below which it runs serially
/// (avoids fork/join overhead on tiny subdomain kernels). Inside an already
/// active parallel region the loop runs serially on the calling thread —
/// nested teams would only add fork overhead, and keeping the iteration
/// order fixed keeps results identical to the flat case. Threads take
/// contiguous blocks, the first n % threads one iteration longer (OpenMP's
/// schedule(static) partition), each run as one tight loop. An exception
/// thrown by `body` reaches the caller: the serial branch propagates it as
/// is; in a team the throwing thread stops its block, the others finish
/// theirs, and the first exception is rethrown on the calling thread.
template <typename Fn>
void parallel_for(long n, const Fn& body, long grain = 256) {
  if (n <= 0) return;
  if (n < grain || num_threads() == 1 || omp_in_parallel()) {
    for (long i = 0; i < n; ++i) body(i);
    return;
  }
  detail::FirstException first;
#pragma omp parallel num_threads(num_threads())
  {
    const long t = omp_get_thread_num();
    const long team = omp_get_num_threads();
    const long q = n / team;
    const long r = n % team;
    const long lo = t * q + (t < r ? t : r);
    const long hi = lo + q + (t < r ? 1 : 0);
    first.run([&] {
      for (long i = lo; i < hi; ++i) body(i);
    });
  }
  first.rethrow_if_any();
}

/// Parallel loop with dynamic scheduling for irregular task costs
/// (per-subdomain factorizations, per-graph GNN inference). Exceptions reach
/// the caller as in parallel_for; once one is thrown, the iterations not
/// yet started are skipped.
template <typename Fn>
void parallel_for_dynamic(long n, const Fn& body) {
  if (n <= 0) return;
  if (n == 1 || num_threads() == 1 || omp_in_parallel()) {
    for (long i = 0; i < n; ++i) body(i);
    return;
  }
  detail::FirstException first;
#pragma omp parallel for schedule(dynamic, 1) num_threads(num_threads())
  for (long i = 0; i < n; ++i) {
    if (!first.failed()) first.run([&] { body(i); });
  }
  first.rethrow_if_any();
}

}  // namespace ddmgnn
