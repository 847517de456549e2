// Serving-configuration convergence suite (the bench_serving bugfix):
//   - the cached-session ddm-gnn configuration at bench smoke scale —
//     adaptive refine-until-contractive setup + mixed-precision applies on
//     an UNTRAINED model — converges on every solve. The untrained model is
//     the worst case the serving bench used to fail on: the adaptive setup
//     must detect the non-contractive subdomains and rescue them with the
//     exact Cholesky fallback.
//   - at the paper's model shape, the fast DSS forward (aggregate-then-
//     project edge MLPs) is BITWISE identical at 1/2/4 threads (fixed
//     per-node accumulation order) and within 1e-4 of the reference path.
//   - a mixed-precision (fp32 preconditioner apply) solve still meets the
//     fp64 tolerance on the true residual, and the default Krylov selection
//     bumps PCG to flexible PCG when fp32 is on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/session_cache.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "gnn/dss_model.hpp"
#include "gnn/graph.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "obs/forensics.hpp"
#include "solver/krylov.hpp"

namespace {

using namespace ddmgnn;
using la::Index;
using mesh::Point2;

/// Restores the ambient thread count when a test overrides it.
struct ThreadGuard {
  ~ThreadGuard() { set_num_threads(0); }
};

struct MeshProblem {
  mesh::Mesh m;
  fem::PoissonProblem prob;
};

/// The serving bench's smoke-scale problem shape: an irregular random-domain
/// mesh around 800 nodes.
MeshProblem smoke_problem(std::uint64_t seed = 7, Index nodes = 800) {
  mesh::Mesh m =
      mesh::generate_mesh_target_nodes(mesh::random_domain(seed), nodes, seed);
  const auto q = fem::sample_quadratic_data(seed);
  auto prob = fem::assemble_poisson(
      m, [&](const Point2& p) { return q.f(p); },
      [&](const Point2& p) { return q.g(p); });
  return {std::move(m), std::move(prob)};
}

/// The bench's served ddm-gnn configuration (bench/bench_serving.cpp):
/// adaptive refine-until-contractive setup plus fp32 preconditioner applies.
core::HybridConfig served_config(const gnn::DssModel& model) {
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-gnn";
  cfg.subdomain_target_nodes = 350;
  cfg.rel_tol = 1e-6;
  cfg.max_iterations = 500;
  cfg.track_history = false;
  cfg.model = &model;
  cfg.gnn_adaptive_refinement = true;
  cfg.precond_fp32 = true;
  return cfg;
}

double true_rel_residual(const la::CsrMatrix& A, std::span<const double> b,
                         std::span<const double> x) {
  std::vector<double> r(b.size());
  A.multiply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  return la::norm2(r) / la::norm2(b);
}

TEST(ServingConvergence, CachedSessionDdmGnnConvergesAtSmokeScale) {
  auto [m, prob] = smoke_problem();
  // Untrained paper-shape model (k̄=10, d=10, hidden=10): the exact
  // configuration the serving bench used to fail every solve on.
  gnn::DssConfig mc;
  gnn::DssModel model(mc, /*seed=*/3);
  const core::HybridConfig cfg = served_config(model);

  core::SessionCache cache(/*byte_budget=*/1u << 30);
  auto session = cache.get_or_setup(m, prob, cfg);
  ASSERT_TRUE(session->ready());
  // fp32 applies make the preconditioner effectively nonlinear: the default
  // method must be the flexible variant.
  EXPECT_EQ(session->method(), solver::KrylovMethod::kFpcg);

  // Single-RHS path.
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = session->solve(prob.b, x);
  EXPECT_TRUE(res.converged)
      << "failure=" << obs::failure_reason_name(res.failure)
      << " iterations=" << res.iterations;
  EXPECT_LT(true_rel_residual(prob.A, prob.b, x), 1e-5);

  // Batched path (the bench's solve_many traffic), through the cache hit.
  auto again = cache.get_or_setup(m, prob, cfg);
  EXPECT_EQ(again.get(), session.get());
  Rng rng(99);
  std::vector<std::vector<double>> bs(4);
  for (auto& b : bs) {
    b.resize(prob.b.size());
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
  }
  std::vector<std::vector<double>> xs;
  const auto results = again->solve_many(bs, xs);
  ASSERT_EQ(results.size(), bs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].converged)
        << "rhs " << i
        << " failure=" << obs::failure_reason_name(results[i].failure);
    EXPECT_LT(true_rel_residual(prob.A, bs[i], xs[i]), 1e-5);
  }
}

TEST(ServingConvergence, FastForwardBitwiseAcrossThreadsAndNearReference) {
  ThreadGuard guard;
  // Above the kernels' 2048-node fork threshold, so 2 and 4 threads really
  // split the node loops.
  auto [m, prob] = smoke_problem(/*seed=*/11, /*nodes=*/3000);
  const la::CsrMatrix pattern = gnn::adjacency_pattern(m.adj_ptr(), m.adj());
  gnn::GraphSample s;
  s.topo = gnn::build_topology(prob.A, m.points(), prob.dirichlet, &pattern);
  ASSERT_GT(s.topo->n, 2048);
  s.rhs.resize(prob.b.size());
  Rng rng(21);
  for (double& v : s.rhs) v = rng.uniform(-1.0, 1.0);
  const double norm = la::norm2(s.rhs);
  for (double& v : s.rhs) v /= norm;

  gnn::DssConfig mc;  // paper shape, untrained — bit patterns are what count
  gnn::DssModel model(mc, /*seed=*/3);
  gnn::DssWorkspace ws;
  const gnn::DssEdgeCache cache = model.precompute_edges(*s.topo);

  model.set_fast_inference(false);
  std::vector<float> ref;
  model.forward(s, ws, ref);
  ASSERT_EQ(ref.size(), prob.b.size());
  float max_abs = 0.0f;
  for (const float v : ref) max_abs = std::max(max_abs, std::abs(v));

  model.set_fast_inference(true);
  std::vector<float> one;
  for (const int threads : {1, 2, 4}) {
    set_num_threads(threads);
    std::vector<float> fast;
    model.forward(s, &cache, ws, fast);
    ASSERT_EQ(fast.size(), ref.size()) << "threads=" << threads;
    if (threads == 1) {
      one = fast;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_NEAR(fast[i], ref[i], 1e-4f * (1.0f + max_abs)) << "i=" << i;
      }
      continue;
    }
    EXPECT_EQ(std::memcmp(fast.data(), one.data(), one.size() * sizeof(float)),
              0)
        << "fast forward not bitwise at threads=" << threads;
  }
}

TEST(ServingConvergence, MixedPrecisionLuSolveMeetsFp64Tolerance) {
  auto [m, prob] = smoke_problem(/*seed=*/5, /*nodes=*/600);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 200;
  cfg.rel_tol = 1e-8;
  cfg.precond_fp32 = true;
  cfg.track_history = false;

  core::SolverSession session;
  session.setup(m, prob, cfg);
  // Symmetric preconditioner, but fp32 rounding breaks exact symmetry: the
  // trait-based default must pick flexible PCG.
  EXPECT_EQ(session.method(), solver::KrylovMethod::kFpcg);
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = session.solve(prob.b, x);
  EXPECT_TRUE(res.converged)
      << "failure=" << obs::failure_reason_name(res.failure);
  // Convergence is declared on the fp64 residual recurrence; verify against
  // the true residual so fp32 rounding cannot fake it.
  EXPECT_LT(true_rel_residual(prob.A, prob.b, x), 1e-7);
}

}  // namespace
