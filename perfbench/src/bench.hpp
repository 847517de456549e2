// Shared pieces of the perfbench program: the result record a run fills, the
// input generators (operator, right-hand sides), the correctness re-check
// and the process probes. Inputs are generated here, outside every timed
// region; the library only ever sees the generated operator and vectors.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "gnn/dss_model.hpp"
#include "mesh/mesh.hpp"
#include "partition/decomposition.hpp"
#include "solver/krylov.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the metrics, the operation counts the correctness
/// verdict is built from, and free-form lines printed before the result.
struct RunResult {
  std::map<std::string, Metric> metrics;
  long attempted = 0;
  long failed = 0;
  /// Checks that are not per-operation (trace consistency, fixture load).
  std::vector<std::string> errors;
  std::vector<std::string> info;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string model_path;
  std::string spans_path;  // where the traced run writes its span log
};

/// Random-blob FEM Poisson problem at ~target_nodes (the recipe of
/// bench::make_problem: fixed element size, radius grown with √target).
struct Problem {
  ddmgnn::mesh::Mesh mesh;
  ddmgnn::fem::PoissonProblem prob;
};
Problem make_problem(ddmgnn::la::Index target_nodes, std::uint64_t seed);

/// `count` seeded right-hand sides for `n` unknowns: standard-normal
/// entries, the same for the same seed.
std::vector<std::vector<double>> make_rhs(ddmgnn::la::Index n, int count,
                                          std::uint64_t seed);

/// ‖b − A x‖ / ‖b‖ computed by the benchmark itself.
double true_relative_residual(const ddmgnn::la::CsrMatrix& A,
                              const std::vector<double>& b,
                              const std::vector<double>& x);

/// One solve's verdict: converged, no classified failure, and a re-checked
/// true residual within tolerance (a 1% allowance covers the rounding gap
/// between the recursive and the recomputed residual).
bool solve_ok(const ddmgnn::solver::SolveResult& res, double true_residual,
              double rel_tol);

/// Peak resident set (VmHWM) in MiB, and a reset of that mark so input
/// generation does not count towards it.
double peak_rss_mb();
void reset_peak_rss();

/// Host probes (traced runs only).
struct HostProbe {
  double stream_gbs = 0.0;       // STREAM triad, all threads
  double fma_gflops = 0.0;       // FMA peak, all threads
  double fma_gflops_1t = 0.0;    // FMA peak, one thread
  double llc_bytes = 0.0;        // last-level cache as the OS reports it
  double array_bytes = 0.0;      // bytes of each triad array
};
HostProbe probe_host(int threads);

/// Standalone CsrMatrix::multiply timing at `threads` threads: seconds per
/// SpMV (median of repeated batches) and the computed bytes it moves.
struct SpmvProbe {
  double seconds = 0.0;
  double bytes = 0.0;
};
SpmvProbe probe_spmv(const ddmgnn::la::CsrMatrix& A, int threads);

/// Standalone skyline-Cholesky sweeps over the workload's subdomains (all
/// K factored, swept in parallel): seconds per sweep pass and the computed
/// bytes of the factor envelopes read by the forward and backward sweeps.
struct CholeskyProbe {
  double seconds = 0.0;
  double bytes = 0.0;
};
CholeskyProbe probe_cholesky(const ddmgnn::la::CsrMatrix& A,
                             const ddmgnn::partition::Decomposition& dec,
                             int threads);

/// Standalone DssModel::forward with the phase profile on up to
/// `max_subdomains` of the workload's subdomains, one thread: mean seconds
/// per subdomain inference for each phase and the computed flops of the
/// reference algebra.
struct DssProbe {
  double projection = 0.0, gather = 0.0, aggregate = 0.0, update = 0.0,
         decode = 0.0;
  double flops = 0.0;  // per subdomain inference
  double total() const {
    return projection + gather + aggregate + update + decode;
  }
};
DssProbe probe_dss(const ddmgnn::gnn::DssModel& model, const Problem& p,
                   const ddmgnn::partition::Decomposition& dec,
                   int max_subdomains);

/// Workload entry points.
void run_closed_loop(const Args& args, RunResult& out);
void run_service(const Args& args, RunResult& out);

}  // namespace perfbench
