// Input generation, the correctness re-check, process and host probes, and
// the standalone layer timings (SpMV, Cholesky sweeps, DSS phases).
#include <immintrin.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "gnn/graph.hpp"
#include "la/skyline_cholesky.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace ddmgnn;

namespace {

double seconds_since(std::int64_t t0_ns) { return (now_ns() - t0_ns) * 1e-9; }

/// Sets the library's thread count for a scope and restores it after.
class ThreadScope {
 public:
  explicit ThreadScope(int n) : saved_(num_threads()) { set_num_threads(n); }
  ~ThreadScope() { set_num_threads(saved_); }

 private:
  int saved_;
};

}  // namespace

Problem make_problem(la::Index target_nodes, std::uint64_t seed) {
  const mesh::Domain dom = mesh::random_domain(seed);
  const double h = std::sqrt(dom.area() / (0.8660254 * 1000.0));
  const double radius_scale = std::sqrt(target_nodes / 1000.0);
  const mesh::Domain scaled = mesh::random_domain(seed, radius_scale);
  mesh::Mesh m = mesh::generate_mesh(scaled, h, seed);
  const auto q = fem::sample_quadratic_data(seed, radius_scale);
  auto prob = fem::assemble_poisson(
      m, [&](const mesh::Point2& p) { return q.f(p); },
      [&](const mesh::Point2& p) { return q.g(p); });
  return {std::move(m), std::move(prob)};
}

std::vector<std::vector<double>> make_rhs(la::Index n, int count,
                                          std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x51ull);
  std::vector<std::vector<double>> out(count, std::vector<double>(n));
  for (auto& b : out) {
    for (double& v : b) v = rng.normal();
  }
  return out;
}

double true_relative_residual(const la::CsrMatrix& A,
                              const std::vector<double>& b,
                              const std::vector<double>& x) {
  std::vector<double> r = A.apply(x);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  const double nb = la::norm2(b);
  return la::norm2(r) / (nb > 0.0 ? nb : 1.0);
}

bool solve_ok(const solver::SolveResult& res, double true_residual,
              double rel_tol) {
  return res.converged && res.failure == obs::FailureReason::kNone &&
         std::isfinite(true_residual) && true_residual <= 1.01 * rel_tol;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  // "5" resets the high-water mark to the current RSS (Linux >= 4.0).
  std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {

// FMA peak: 16 independent accumulator chains per thread hide the FMA
// latency on two ports. Dispatched on the widest ISA the CPU supports.
constexpr int kChains = 16;
constexpr long kFmaIters = 1L << 22;
volatile double g_fma_sink = 0.0;

__attribute__((target("avx512f"))) double fma_chains_avx512(long iters) {
  __m512d acc[kChains];
  const __m512d a = _mm512_set1_pd(0.999999);
  const __m512d b = _mm512_set1_pd(1e-7);
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_pd(c);
  for (long i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = _mm512_fmadd_pd(acc[c], a, b);
  }
  double sink = 0.0;
  alignas(64) double lanes[8];
  for (int c = 0; c < kChains; ++c) {
    _mm512_store_pd(lanes, acc[c]);
    for (const double v : lanes) sink += v;
  }
  return sink;
}

__attribute__((target("avx2,fma"))) double fma_chains_avx2(long iters) {
  __m256d acc[kChains];
  const __m256d a = _mm256_set1_pd(0.999999);
  const __m256d b = _mm256_set1_pd(1e-7);
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_pd(c);
  for (long i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_pd(acc[c], a, b);
  }
  double sink = 0.0;
  alignas(32) double lanes[4];
  for (int c = 0; c < kChains; ++c) {
    _mm256_store_pd(lanes, acc[c]);
    for (const double v : lanes) sink += v;
  }
  return sink;
}

/// GFLOP/s of the FMA loop on `threads` threads (best of three).
double fma_gflops(int threads) {
  const bool avx512 = __builtin_cpu_supports("avx512f");
  const double width = avx512 ? 8.0 : 4.0;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    double sink = 0.0;
    const std::int64_t t0 = now_ns();
#pragma omp parallel num_threads(threads) reduction(+ : sink)
    sink += avx512 ? fma_chains_avx512(kFmaIters) : fma_chains_avx2(kFmaIters);
    const double s = seconds_since(t0);
    g_fma_sink = sink;  // keeps the chains from being optimized away
    const double flops = 2.0 * width * kChains * double(kFmaIters) * threads;
    best = std::max(best, flops / s * 1e-9);
  }
  return best;
}

}  // namespace

HostProbe probe_host(int threads) {
  HostProbe hp;
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  hp.llc_bytes = llc > 0 ? double(llc) : 32.0 * 1024 * 1024;
  // Each triad array is 4x the last-level cache, so no pass is served from it.
  const std::size_t n = static_cast<std::size_t>(4.0 * hp.llc_bytes / 8.0);
  hp.array_bytes = double(n) * 8.0;
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  const long ln = static_cast<long>(n);
#pragma omp parallel for schedule(static) num_threads(threads)
  for (long i = 0; i < ln; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
#pragma omp parallel for schedule(static) num_threads(threads)
    for (long i = 0; i < ln; ++i) a[i] = b[i] + 3.0 * c[i];
    const double s = seconds_since(t0);
    best = std::max(best, 3.0 * 8.0 * double(n) / s * 1e-9);
  }
  hp.stream_gbs = best;
  hp.fma_gflops = fma_gflops(threads);
  hp.fma_gflops_1t = fma_gflops(1);
  return hp;
}

SpmvProbe probe_spmv(const la::CsrMatrix& A, int threads) {
  ThreadScope scope(threads);
  const auto n = static_cast<std::size_t>(A.rows());
  std::vector<double> x(n, 1.0), y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) x[i] = 1.0 + 1e-3 * double(i % 97);
  const int reps = std::max(1, static_cast<int>(2e7 / double(A.nnz() + 1)));
  A.multiply(x, y);  // warm
  std::vector<double> per_spmv;
  for (int batch = 0; batch < 7; ++batch) {
    const std::int64_t t0 = now_ns();
    for (int r = 0; r < reps; ++r) A.multiply(x, y);
    per_spmv.push_back(seconds_since(t0) / reps);
  }
  SpmvProbe p;
  p.seconds = median(per_spmv);
  // Computed traffic: values + column indices + row pointers, x read once,
  // y written once.
  p.bytes = double(A.nnz()) * (8.0 + 4.0) + double(n + 1) * 8.0 +
            2.0 * double(n) * 8.0;
  return p;
}

CholeskyProbe probe_cholesky(const la::CsrMatrix& A,
                             const partition::Decomposition& dec,
                             int threads) {
  ThreadScope scope(threads);
  const long k = dec.num_parts;
  std::vector<std::unique_ptr<la::SkylineCholesky>> factors(k);
  std::vector<std::vector<double>> rhs(k);
  parallel_for_dynamic(k, [&](long i) {
    factors[i] = std::make_unique<la::SkylineCholesky>(
        A.principal_submatrix(dec.subdomains[i]), true);
    rhs[i].assign(dec.subdomains[i].size(), 1.0);
  });
  std::vector<std::vector<double>> work = rhs;
  std::vector<double> passes;
  for (int rep = 0; rep < 7; ++rep) {
    const std::int64_t t0 = now_ns();
    parallel_for_dynamic(k, [&](long i) {
      std::copy(rhs[i].begin(), rhs[i].end(), work[i].begin());
      factors[i]->solve_inplace(work[i]);
    });
    passes.push_back(seconds_since(t0));
  }
  CholeskyProbe p;
  p.seconds = median(passes);
  // Computed traffic: the envelope is read once by each of the two sweeps.
  for (const auto& f : factors) p.bytes += 2.0 * 8.0 * double(f->envelope_size());
  return p;
}

DssProbe probe_dss(const gnn::DssModel& model, const Problem& p,
                   const partition::Decomposition& dec, int max_subdomains) {
  ThreadScope scope(1);
  const la::CsrMatrix pattern =
      gnn::adjacency_pattern(p.mesh.adj_ptr(), p.mesh.adj());
  const auto points = p.mesh.points();
  const gnn::DssConfig& mc = model.config();
  const double d = mc.latent, h = mc.hidden, in = mc.node_input_dim();
  const int count = std::min<int>(max_subdomains, dec.num_parts);
  DssProbe out;
  gnn::DssWorkspace ws;
  std::vector<float> result;
  for (int i = 0; i < count; ++i) {
    const auto& nodes = dec.subdomains[i];
    std::vector<mesh::Point2> coords(nodes.size());
    std::vector<std::uint8_t> dirichlet(nodes.size());
    for (std::size_t l = 0; l < nodes.size(); ++l) {
      coords[l] = points[nodes[l]];
      dirichlet[l] = p.prob.dirichlet[nodes[l]];
    }
    const la::CsrMatrix local_pattern = pattern.principal_submatrix(nodes);
    gnn::GraphSample sample;
    sample.topo = gnn::build_topology(p.prob.A.principal_submatrix(nodes),
                                      coords, dirichlet, &local_pattern);
    const gnn::DssEdgeCache cache = model.precompute_edges(*sample.topo);
    sample.rhs.assign(nodes.size(), 1.0 / std::sqrt(double(nodes.size())));
    model.forward(sample, &cache, ws, result);  // warm the workspace
    gnn::DssPhaseProfile prof;
    model.forward(sample, &cache, ws, result, &prof);
    out.projection += prof.projection;
    out.gather += prof.gather;
    out.aggregate += prof.aggregate;
    out.update += prof.update;
    out.decode += prof.decode;
    // Reference-algebra flops per block: two edge MLPs (2d+3 -> h -> d) per
    // directed edge, the update MLP (3d+in -> h -> d) and the decoder
    // (d -> h -> 1) per node.
    const double ne = sample.topo->num_edges(), nn = sample.topo->n;
    out.flops += mc.iterations *
                 (2.0 * ne * 2.0 * ((2 * d + 3) * h + h * d) +
                  nn * 2.0 * ((3 * d + in) * h + h * d) +
                  nn * 2.0 * (d * h + h));
  }
  if (count > 0) {
    out.projection /= count;
    out.gather /= count;
    out.aggregate /= count;
    out.update /= count;
    out.decode /= count;
    out.flops /= count;
  }
  return out;
}

}  // namespace perfbench
