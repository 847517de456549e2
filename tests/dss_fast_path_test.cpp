// Equivalence suite for the factorized DSS inference engine
// (gnn/dss_kernels.hpp):
//   - fused Linear kernel vs the scalar reference across shapes and
//     thread counts (including the fused-ReLU variant),
//   - one full message-passing block through the three-pass kernels
//     (stacked projection, two-MLP gather, Ψ with the edge MLPs' second
//     layer folded in) vs a double-precision per-edge reference, across
//     latent/hidden widths and the Dirichlet channel, including receivers
//     without in-edges, bitwise identical at any thread count,
//   - factorized forward vs reference forward within 1e-4 relative on
//     random graphs across latent/hidden sizes, cached and cache-less
//     (which must agree bit-for-bit with each other),
//   - solver-level: PCG iteration counts for every ddm-gnn registry entry
//     unchanged (±1) between the fast and reference paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "gnn/dss_kernels.hpp"
#include "gnn/dss_model.hpp"
#include "gnn/graph.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "nn/mlp.hpp"
#include "precond/registry.hpp"

namespace {

using namespace ddmgnn;
using la::CooBuilder;
using la::CsrMatrix;
using la::Index;
using mesh::Point2;

/// Restores the ambient thread count when a test overrides it.
struct ThreadGuard {
  ~ThreadGuard() { set_num_threads(0); }
};

/// Random connected-ish graph: n nodes at random coordinates, a symmetric
/// random pattern of ~`degree` neighbors per node plus a ring backbone, a
/// couple of Dirichlet nodes, diagonally dominant local operator.
gnn::GraphSample random_sample(Index n, std::uint64_t seed, int degree) {
  Rng rng(seed);
  std::vector<Point2> coords(n);
  for (auto& c : coords) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  std::vector<std::uint8_t> dirichlet(n, 0);
  dirichlet[0] = 1;
  if (n > 4) dirichlet[static_cast<Index>(n / 2)] = 1;

  CooBuilder pat(n, n);
  for (Index i = 0; i < n; ++i) {
    pat.add(i, (i + 1) % n, 1.0);
    pat.add((i + 1) % n, i, 1.0);
    for (int k = 0; k < degree; ++k) {
      const auto j = static_cast<Index>(rng.uniform(0, n - 1e-9));
      if (j == i) continue;
      pat.add(i, j, 1.0);
      pat.add(j, i, 1.0);
    }
  }
  const CsrMatrix pattern = std::move(pat).build();

  CooBuilder coo(n, n);
  for (Index i = 0; i < n; ++i) {
    if (dirichlet[i]) {
      coo.add(i, i, 1.0);
      continue;
    }
    double row_sum = 0.0;
    const auto rp = pattern.row_ptr();
    const auto ci = pattern.col_idx();
    for (la::Offset e = rp[i]; e < rp[i + 1]; ++e) {
      const Index j = ci[e];
      if (j == i || dirichlet[j]) continue;
      coo.add(i, j, -1.0);
      row_sum += 1.0;
    }
    coo.add(i, i, row_sum + 1.0);
  }

  gnn::GraphSample s;
  s.topo =
      gnn::build_topology(std::move(coo).build(), coords, dirichlet, &pattern);
  s.rhs.resize(n);
  for (double& v : s.rhs) v = rng.uniform(-1, 1);
  const double norm = la::norm2(s.rhs);
  for (double& v : s.rhs) v /= norm;
  return s;
}

TEST(FusedLinear, MatchesReferenceAcrossShapesAndThreadCounts) {
  ThreadGuard guard;
  Rng rng(5);
  for (const auto [in, out, rows] :
       {std::array<int, 3>{23, 10, 17}, {3, 16, 100}, {33, 7, 5000},
        {10, 10, 9001}}) {
    nn::ParameterStore ps;
    nn::Linear lin(ps, in, out);
    ps.finalize();
    lin.init_xavier(ps.values(), rng);
    nn::Tensor x(rows, in);
    for (auto& v : x.d) v = static_cast<float>(rng.uniform(-2, 2));

    nn::Tensor y_ref, y_fused, y_relu, y_fused4;
    lin.forward(ps.data(), x, y_ref);
    lin.forward_fused(ps.data(), x, y_fused, /*relu=*/false);
    ASSERT_EQ(y_fused.rows, y_ref.rows);
    ASSERT_EQ(y_fused.cols, y_ref.cols);
    for (std::size_t i = 0; i < y_ref.size(); ++i) {
      EXPECT_NEAR(y_fused.d[i], y_ref.d[i],
                  1e-5f * (1.0f + std::abs(y_ref.d[i])))
          << "in=" << in << " out=" << out << " i=" << i;
    }
    // Fused ReLU == max(0, reference) under the same tolerance.
    lin.forward_fused(ps.data(), x, y_relu, /*relu=*/true);
    for (std::size_t i = 0; i < y_ref.size(); ++i) {
      const float r = y_ref.d[i] > 0.0f ? y_ref.d[i] : 0.0f;
      EXPECT_NEAR(y_relu.d[i], r, 1e-5f * (1.0f + std::abs(r)));
    }
    // Row-parallel execution is bitwise identical to single-threaded.
    set_num_threads(4);
    lin.forward_fused(ps.data(), x, y_fused4, /*relu=*/false);
    set_num_threads(1);
    nn::Tensor y_fused1;
    lin.forward_fused(ps.data(), x, y_fused1, /*relu=*/false);
    set_num_threads(0);
    ASSERT_EQ(y_fused4.size(), y_fused1.size());
    EXPECT_EQ(std::memcmp(y_fused4.d.data(), y_fused1.d.data(),
                          y_fused1.size() * sizeof(float)),
              0);
  }
}

/// One message-passing block in double precision, per edge, straight from
/// the model definition (Eqs. 18–20): both edge MLPs on the materialized
/// edge inputs, Σ per receiver, Ψ on [h, c, (flag), φ→, φ←], then the ResNet
/// step. With `magnitude`, every weight, input and activation is replaced by
/// its absolute value and ReLU by the identity: the result bounds the sum of
/// |terms| reaching each output, which is what the float kernels' rounding
/// error is relative to.
std::vector<double> reference_block(const gnn::GraphTopology& topo,
                                    const std::vector<double>& rhs,
                                    const nn::Tensor& h, const float* params,
                                    const nn::Mlp& phi_fwd,
                                    const nn::Mlp& phi_bwd,
                                    const nn::Mlp& psi, bool flag,
                                    double alpha, bool magnitude) {
  auto v = [&](double x) { return magnitude ? std::abs(x) : x; };
  auto mlp = [&](const nn::Mlp& m, const std::vector<double>& x) {
    const nn::Linear& l1 = m.l1();
    const nn::Linear& l2 = m.l2();
    const int in = l1.in_dim();
    const int hid = l1.out_dim();
    std::vector<double> a(hid), y(l2.out_dim());
    for (int o = 0; o < hid; ++o) {
      double acc = v(l1.bias(params)[o]);
      for (int k = 0; k < in; ++k) {
        acc += v(l1.weights(params)[o * in + k]) * x[k];
      }
      a[o] = magnitude ? acc : std::max(acc, 0.0);
    }
    for (int o = 0; o < l2.out_dim(); ++o) {
      double acc = v(l2.bias(params)[o]);
      for (int k = 0; k < hid; ++k) {
        acc += v(l2.weights(params)[o * hid + k]) * a[k];
      }
      y[o] = acc;
    }
    return y;
  };
  const int d = h.cols;
  std::vector<std::vector<double>> phi_f(topo.n, std::vector<double>(d, 0.0));
  std::vector<std::vector<double>> phi_b = phi_f;
  for (Index e = 0; e < topo.num_edges(); ++e) {
    std::vector<double> x(2 * d + 3);
    for (int k = 0; k < d; ++k) {
      x[k] = v(h.row(topo.recv[e])[k]);
      x[d + k] = v(h.row(topo.send[e])[k]);
    }
    const float* a = &topo.attr[static_cast<std::size_t>(e) * 3];
    for (const bool flip : {false, true}) {
      const double sign = flip ? -1.0 : 1.0;
      x[2 * d] = v(sign * a[0]);
      x[2 * d + 1] = v(sign * a[1]);
      x[2 * d + 2] = v(a[2]);
      const auto m = mlp(flip ? phi_bwd : phi_fwd, x);
      auto& phi = flip ? phi_b[topo.recv[e]] : phi_f[topo.recv[e]];
      for (int k = 0; k < d; ++k) phi[k] += m[k];
    }
  }
  std::vector<double> out(static_cast<std::size_t>(topo.n) * d);
  for (Index j = 0; j < topo.n; ++j) {
    std::vector<double> x;
    for (int k = 0; k < d; ++k) x.push_back(v(h.row(j)[k]));
    x.push_back(v(rhs[j]));
    if (flag) x.push_back(topo.dirichlet[j] ? 1.0 : 0.0);
    for (int k = 0; k < d; ++k) x.push_back(phi_f[j][k]);
    for (int k = 0; k < d; ++k) x.push_back(phi_b[j][k]);
    const auto u = mlp(psi, x);
    for (int k = 0; k < d; ++k) {
      out[static_cast<std::size_t>(j) * d + k] = v(h.row(j)[k]) + alpha * u[k];
    }
  }
  return out;
}

TEST(DssBlockKernels, MatchPerEdgeDoubleReferenceOfOneBlock) {
  ThreadGuard guard;
  struct Case {
    int latent, hidden;
    bool flag;
  };
  // latent ≠ hidden both ways, Dirichlet channel on and off, and hidden
  // widths up to 80 (no kernel buffer may be capped below the model width).
  const Case cases[] = {{6, 10, true},  {10, 16, false}, {10, 3, true},
                        {10, 3, false}, {10, 10, true},  {10, 10, false},
                        {10, 40, true}, {10, 40, false}, {10, 80, true},
                        {10, 80, false}};
  const Index n = 3000;  // above the node-loop fork threshold (2048)
  const float alpha = 1.0f;
  for (const Case c : cases) {
    SCOPED_TRACE("d=" + std::to_string(c.latent) +
                 " h=" + std::to_string(c.hidden) +
                 " flag=" + std::to_string(c.flag));
    const int d = c.latent;
    const int hid = c.hidden;
    const int in = c.flag ? 2 : 1;
    const auto s = random_sample(n, 400 + 7 * hid + d, 3);
    const auto& topo = *s.topo;
    nn::ParameterStore ps;
    const nn::Mlp phi_fwd(ps, 2 * d + 3, hid, d);
    const nn::Mlp phi_bwd(ps, 2 * d + 3, hid, d);
    const nn::Mlp psi(ps, 3 * d + in, hid, d);
    ps.finalize();
    // Every parameter random, biases included (β of identity 3 must count).
    Rng rng(17 + hid + d);
    for (float& w : ps.values()) w = static_cast<float>(rng.uniform(-0.5, 0.5));
    nn::Tensor h(n, d);
    for (float& x : h.d) x = static_cast<float>(rng.uniform(-1, 1));
    const float* p = ps.data();

    // The fast block, at 1, 2 and 4 threads: bitwise identical.
    gnn::DssBlockPack pack;
    gnn::pack_dss_block(p, phi_fwd, phi_bwd, psi, d, in, pack);
    nn::Tensor proj, attr, msg_sum, hidden, h_next, h_next1, msg_sum1;
    for (const int threads : {1, 2, 4}) {
      set_num_threads(threads);
      nn::fused_gemm(pack.proj.data(), d, /*col0=*/0, 4 * hid, nullptr,
                     /*relu=*/false, h, proj);
      gnn::project_attr(topo, phi_fwd.l1().weights(p), phi_fwd.l1().bias(p),
                        phi_bwd.l1().weights(p), phi_bwd.l1().bias(p),
                        2 * d + 3, 2 * d, hid, attr);
      gnn::aggregate_edge_mlps(topo, proj, attr, msg_sum);
      gnn::update_nodes(topo, s.rhs, pack, alpha, h, msg_sum, hidden, h_next);
      if (threads == 1) {
        h_next1 = h_next;
        msg_sum1 = msg_sum;
        continue;
      }
      ASSERT_EQ(h_next.size(), h_next1.size());
      EXPECT_EQ(std::memcmp(h_next.d.data(), h_next1.d.data(),
                            h_next1.size() * sizeof(float)),
                0)
          << "threads=" << threads;
      EXPECT_EQ(std::memcmp(msg_sum.d.data(), msg_sum1.d.data(),
                            msg_sum1.size() * sizeof(float)),
                0)
          << "threads=" << threads;
    }
    set_num_threads(0);

    const auto ref = reference_block(topo, s.rhs, h, p, phi_fwd, phi_bwd, psi,
                                     c.flag, alpha, /*magnitude=*/false);
    const auto mag = reference_block(topo, s.rhs, h, p, phi_fwd, phi_bwd, psi,
                                     c.flag, alpha, /*magnitude=*/true);
    ASSERT_EQ(h_next1.rows, n);
    ASSERT_EQ(h_next1.cols, d);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_LE(std::abs(h_next1.d[i] - ref[i]), 1e-6 * mag[i])
          << "entry " << i;
    }
    // random_sample marks nodes 0 and n/2 Dirichlet: they receive no
    // messages, so their whole message row (sums and degree) is exactly 0.
    for (const Index j : {Index{0}, static_cast<Index>(n / 2)}) {
      ASSERT_EQ(topo.recv_ptr[j], topo.recv_ptr[j + 1]) << "node " << j;
      for (int k = 0; k <= 2 * hid; ++k) {
        EXPECT_EQ(msg_sum1.row(j)[k], 0.0f) << "node " << j << " col " << k;
      }
    }
  }
}

TEST(ReceiverCsr, IsAStablePermutationOfTheEdgeList) {
  const auto s = random_sample(120, 9, 4);
  const auto& topo = *s.topo;
  ASSERT_EQ(topo.recv_ptr.size(), static_cast<std::size_t>(topo.n) + 1);
  ASSERT_EQ(topo.recv_order.size(), static_cast<std::size_t>(topo.num_edges()));
  std::vector<int> seen(topo.num_edges(), 0);
  for (Index j = 0; j < topo.n; ++j) {
    Index prev = -1;
    for (la::Offset idx = topo.recv_ptr[j]; idx < topo.recv_ptr[j + 1];
         ++idx) {
      const Index e = topo.recv_order[idx];
      EXPECT_EQ(topo.recv[e], j);
      EXPECT_GT(e, prev) << "segment order must be increasing edge order";
      prev = e;
      ++seen[e];
    }
  }
  for (Index e = 0; e < topo.num_edges(); ++e) EXPECT_EQ(seen[e], 1) << e;
}

TEST(FastForward, MatchesReferenceWithinToleranceAcrossSizes) {
  struct Shape {
    int latent, hidden;
  };
  for (const Shape shape : {Shape{4, 4}, {6, 8}, {10, 10}, {3, 16}}) {
    for (const Index n : {12, 90, 400}) {
      const auto s = random_sample(n, 31 * n + shape.latent, 3);
      gnn::DssConfig cfg;
      cfg.iterations = 3;
      cfg.latent = shape.latent;
      cfg.hidden = shape.hidden;
      gnn::DssModel model(cfg, 1234);
      gnn::DssWorkspace ws;

      std::vector<float> ref, fast_nocache, fast_cached;
      model.set_fast_inference(false);
      model.forward(s, ws, ref);
      model.set_fast_inference(true);
      model.forward(s, ws, fast_nocache);
      const gnn::DssEdgeCache cache = model.precompute_edges(*s.topo);
      model.forward(s, &cache, ws, fast_cached);

      ASSERT_EQ(ref.size(), static_cast<std::size_t>(n));
      ASSERT_EQ(fast_nocache.size(), ref.size());
      ASSERT_EQ(fast_cached.size(), ref.size());
      float max_abs = 0.0f;
      for (const float v : ref) max_abs = std::max(max_abs, std::abs(v));
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_NEAR(fast_nocache[i], ref[i], 1e-4f * (1.0f + max_abs))
            << "d=" << shape.latent << " h=" << shape.hidden << " n=" << n
            << " i=" << i;
        // The cache holds exactly what the cache-less path recomputes —
        // identical arithmetic, identical bits.
        EXPECT_EQ(fast_cached[i], fast_nocache[i])
            << "d=" << shape.latent << " h=" << shape.hidden << " i=" << i;
      }
    }
  }
}

TEST(FastForward, ProfileAccumulatesIntoAllPhases) {
  const auto s = random_sample(300, 77, 3);
  gnn::DssConfig cfg;
  cfg.iterations = 4;
  cfg.latent = 8;
  cfg.hidden = 8;
  gnn::DssModel model(cfg, 5);
  gnn::DssWorkspace ws;
  std::vector<float> out;
  gnn::DssPhaseProfile prof;
  for (int r = 0; r < 3; ++r) model.forward(s, nullptr, ws, out, &prof);
  EXPECT_GT(prof.projection, 0.0);
  EXPECT_GT(prof.aggregate, 0.0);
  EXPECT_GT(prof.update, 0.0);
  EXPECT_GT(prof.decode, 0.0);
  EXPECT_GT(prof.total(), 0.0);
  // aggregate_edge_mlp fuses the per-edge gather into the aggregate slot.
  EXPECT_EQ(prof.gather, 0.0);
}

TEST(FastForward, SolverIterationCountsMatchReferenceForAllGnnEntries) {
  mesh::Mesh m = mesh::generate_mesh_target_nodes(mesh::random_domain(7), 900,
                                                  7);
  const auto q = fem::sample_quadratic_data(7);
  auto prob = fem::assemble_poisson(
      m, [&](const Point2& p) { return q.f(p); },
      [&](const Point2& p) { return q.g(p); });

  gnn::DssConfig mc;
  mc.iterations = 2;
  mc.latent = 4;
  mc.hidden = 4;

  int covered = 0;
  for (const std::string& name : precond::preconditioner_names()) {
    if (name.rfind("ddm-gnn", 0) != 0) continue;
    ++covered;

    auto run = [&](bool fast) {
      gnn::DssModel model(mc, 7);  // same seed ⇒ identical weights
      model.set_fast_inference(fast);
      core::HybridConfig cfg;
      cfg.preconditioner = name;
      cfg.subdomain_target_nodes = 250;
      cfg.rel_tol = 1e-8;
      cfg.max_iterations = 60;  // untrained model: bound the run, compare
                                // trajectories rather than convergence
      cfg.model = &model;
      cfg.seed = 11;
      core::SolverSession session;
      session.setup(m, prob, cfg);
      std::vector<double> x(prob.b.size(), 0.0);
      return session.solve(prob.b, x);
    };

    const auto res_ref = run(/*fast=*/false);
    const auto res_fast = run(/*fast=*/true);
    EXPECT_NEAR(res_fast.iterations, res_ref.iterations, 1) << name;
  }
  EXPECT_GE(covered, 2);  // ddm-gnn and ddm-gnn-1level at minimum
}

}  // namespace
