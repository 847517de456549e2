// Failure containment: an exception thrown inside a parallel loop reaches
// the caller as a catchable error instead of aborting the process.
//   - parallel_for / parallel_for_dynamic rethrow the first exception of a
//     thread team on the calling thread (and their serial branch propagates
//     it unchanged), after which the same loops run normally again;
//   - a mildly indefinite operator (the 150×150 5-point Laplacian shifted by
//     −0.05) makes the ddm-lu local Cholesky factorizations throw inside the
//     parallel setup loop: SolverSession::setup must throw a ddmgnn error the
//     caller can catch, and the process keeps solving afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/solver_session.hpp"
#include "la/csr.hpp"

namespace {

using namespace ddmgnn;

/// Restores the ambient thread count when a test overrides it.
struct ThreadGuard {
  ~ThreadGuard() { set_num_threads(0); }
};

/// 5-point Laplacian on a side×side grid with the Dirichlet boundary folded
/// in; a negative `diagonal_shift` below the smallest eigenvalue makes it
/// indefinite.
la::CsrMatrix grid_laplacian(la::Index side, double diagonal_shift) {
  const la::Index n = side * side;
  la::CooBuilder coo(n, n);
  for (la::Index r = 0; r < side; ++r) {
    for (la::Index c = 0; c < side; ++c) {
      const la::Index i = r * side + c;
      coo.add(i, i, 4.0 + diagonal_shift);
      if (r > 0) coo.add(i, i - side, -1.0);
      if (r + 1 < side) coo.add(i, i + side, -1.0);
      if (c > 0) coo.add(i, i - 1, -1.0);
      if (c + 1 < side) coo.add(i, i + 1, -1.0);
    }
  }
  return std::move(coo).build();
}

TEST(ParallelExceptions, TeamLoopsRethrowTheFirstExceptionOnTheCaller) {
  ThreadGuard guard;
  const long n = 10000;
  for (const int threads : {4, 1}) {  // team branch, then the serial one
    set_num_threads(threads);
    std::atomic<long> ran{0};
    auto body = [&](long i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 6001) DDMGNN_CHECK(false, "iteration 6001 failed");
    };
    EXPECT_THROW(parallel_for(n, body, /*grain=*/1), ContractError)
        << "threads=" << threads;
    EXPECT_LE(ran.load(), n);
    ran = 0;
    EXPECT_THROW(parallel_for_dynamic(n, body), ContractError)
        << "threads=" << threads;
    EXPECT_LE(ran.load(), n);

    // Any exception type crosses, not only the library's own.
    EXPECT_THROW(parallel_for_dynamic(
                     64, [](long i) {
                       if (i % 7 == 3) throw std::out_of_range("boom");
                     }),
                 std::out_of_range)
        << "threads=" << threads;

    // The loops are usable again afterwards and run every iteration.
    std::vector<int> hit(n, 0);
    parallel_for(n, [&](long i) { hit[i] += 1; }, /*grain=*/1);
    parallel_for_dynamic(n, [&](long i) { hit[i] += 1; });
    for (long i = 0; i < n; ++i) ASSERT_EQ(hit[i], 2) << "i=" << i;
  }
}

TEST(ParallelExceptions, MessageOfTheThrowingIterationSurvives) {
  ThreadGuard guard;
  set_num_threads(4);
  try {
    parallel_for_dynamic(100, [](long i) {
      if (i == 42) DDMGNN_CHECK(false, "subdomain 42 is indefinite");
    });
    FAIL() << "no exception reached the caller";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("subdomain 42 is indefinite"),
              std::string::npos)
        << e.what();
  }
}

TEST(FailureContainment, IndefiniteOperatorSetupThrowsCatchableError) {
  ThreadGuard guard;
  set_num_threads(4);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.rel_tol = 1e-8;
  const la::CsrMatrix shifted = grid_laplacian(150, -0.05);
  core::SolverSession session;
  EXPECT_THROW(session.setup(shifted, cfg), ContractError);
  EXPECT_FALSE(session.ready());

  // The process keeps running: the same session re-keys to the SPD operator
  // and solves it.
  const la::CsrMatrix spd = grid_laplacian(150, 0.0);
  session.setup(spd, cfg);
  ASSERT_TRUE(session.ready());
  const std::vector<double> ones(spd.rows(), 1.0);
  const std::vector<double> b = spd.apply(ones);
  std::vector<double> x(b.size(), 0.0);
  const auto res = session.solve(b, x);
  EXPECT_TRUE(res.converged) << "iterations=" << res.iterations;
}

}  // namespace
