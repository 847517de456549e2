// The three workloads. Each generates its inputs from fixed operator seeds
// plus the run's --seed (right-hand sides, arrivals, operator assignment),
// measures through the library's public API only, and re-checks every
// answer itself.
//
//   lu-160k      closed loop, SolverSession over ddm-lu (dense Nicolaides
//                coarse), PCG, 4 threads
//   gnn-10k      closed loop, SolverSession over ddm-gnn (DSS on every
//                subdomain, fp64, FPCG, no fallback), 4 threads
//   service-2op  open-loop Poisson arrivals into SolveService (default
//                ServiceConfig, 1 inner thread per worker) over two cached
//                operators: served ddm-gnn at 2k and ddm-lu-ml at 8k
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/gnn_subdomain_solver.hpp"
#include "core/solve_service.hpp"
#include "gnn/graph.hpp"
#include "gnn/model_io.hpp"
#include "mg/hierarchy.hpp"
#include "mg/vcycle.hpp"
#include "partition/coarse_space.hpp"
#include "precond/asm_precond.hpp"
#include "precond/registry.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace ddmgnn;

namespace {

constexpr int kClosedLoopThreads = 4;

// ---- fixed workload parameters --------------------------------------------
// The operators are part of the workload definition: their mesh seeds are
// fixed, so a run's --seed changes the right-hand sides and arrivals but
// never the operator (a new mesh per seed would make every metric measure
// the mesh lottery instead of the code).
constexpr std::uint64_t kLuMeshSeed = 160;
constexpr std::uint64_t kGnnMeshSeed = 10;
constexpr std::uint64_t kServedGnnMeshSeed = 2;
constexpr std::uint64_t kServedMlMeshSeed = 8;

// Served rates are absolute numbers, never derived from the code under test.
constexpr double kReferenceRate = 60.0;    // requests/s, both operators
constexpr double kP99Limit = 0.500;        // seconds
constexpr double kLadderBase = 100.0;      // requests/s, rung 0
constexpr double kLadderRatio = 1.08;
constexpr int kLadderRungs = 15;
constexpr double kGnnShare = 0.3;          // share of requests to served ddm-gnn
constexpr int kSetupReps = 9;
constexpr double kRungSeconds = 6.0;        // offered-load time per rung
constexpr int kTailRequests = 1100;         // p99 with 11 samples beyond it

double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return (b_ns - a_ns) * 1e-9;
}

double sum_of(const std::vector<double>& xs) {
  double s = 0.0;
  for (const double x : xs) s += x;
  return s;
}

/// Per-layer totals of one traced phase (zero for layers it never entered).
struct Layers {
  std::map<std::string, LayerTotals> t;
  double self(const char* n) const { return get(n).self_s; }
  double incl(const char* n) const { return get(n).inclusive_s; }
  long count(const char* n) const { return get(n).count; }
  const LayerTotals& get(const char* n) const {
    static const LayerTotals zero;
    const auto it = t.find(n);
    return it == t.end() ? zero : it->second;
  }
  /// Sum of every layer's self time: what the spans account for.
  double attributed() const {
    double s = 0.0;
    for (const auto& [name, lt] : t) s += lt.self_s;
    return s;
  }
};

Layers collect(std::vector<Span> spans, std::vector<Span>* keep) {
  Layers l{layer_totals(spans)};
  if (keep != nullptr) keep->insert(keep->end(), spans.begin(), spans.end());
  return l;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << "name,start_ns,end_ns,id,parent,request\n";
  for (const Span& s : spans) {
    out << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.id
        << ',' << s.parent << ',' << s.request << '\n';
  }
}

/// Layer metrics every workload reports, zero where the layer is not on
/// the workload's path; the workloads overwrite what they measure.
void zero_layers(RunResult& out) {
  for (const char* name :
       {"precond.apply_s", "precond.local_solve_s", "precond.apply_many_col_s",
        "partition.restrict_prolong_s", "partition.coarse_apply_s",
        "mg.cycle_apply_s", "solver.iterate_s", "solver.window_overhead_s",
        "core.setup.decompose_s", "core.setup.local_s", "core.setup.coarse_s",
        "core.service.queue_wait_p50_s", "solve_tail_s", "latency_p99_s",
        "bench.injector_late_p99_s", "bench.unattributed_s"}) {
    out.set(name, 0.0, "s");
  }
  for (const char* name :
       {"precond.local_solve_speedup_4t", "partition.restrict_prolong_speedup_4t",
        "partition.coarse_speedup_4t", "core.cache_hit_ratio",
        "gnn.fallback_share", "bench.trace_overhead", "bench.failed_ops_share"}) {
    out.set(name, 0.0, "ratio");
  }
  out.set("solver.iterations", 0.0, "count");
  out.set("solve_tail_samples", 0.0, "count");
  out.set("core.service.window_cols_mean", 0.0, "count");
  out.set("core.service.applies_per_solve", 0.0, "count");
}

/// Standalone layer probes shared by all workloads (traced runs only).
void report_probes(const Problem& p, const partition::Decomposition& dec,
                   const Problem& dss_problem,
                   const partition::Decomposition& dss_dec,
                   const gnn::DssModel& model, RunResult& out) {
  const HostProbe host = probe_host(kClosedLoopThreads);
  out.info.push_back("host: llc_bytes=" + std::to_string(host.llc_bytes) +
                     " triad_array_bytes=" + std::to_string(host.array_bytes));
  out.set("host.stream_gbs", host.stream_gbs, "GB/s");
  out.set("host.fma_gflops", host.fma_gflops, "GFLOP/s");

  const SpmvProbe s4 = probe_spmv(p.prob.A, kClosedLoopThreads);
  const SpmvProbe s1 = probe_spmv(p.prob.A, 1);
  out.set("la.spmv_s", s4.seconds, "s");
  out.set("la.spmv_gbs", s4.bytes / s4.seconds * 1e-9, "GB/s");
  out.set("la.spmv_speedup_4t", s1.seconds / s4.seconds, "ratio");
  out.set("la.spmv_roofline_frac",
          s4.bytes / s4.seconds * 1e-9 / host.stream_gbs, "ratio");

  const CholeskyProbe chol = probe_cholesky(p.prob.A, dec, kClosedLoopThreads);
  out.set("precond.cholesky_roofline_frac",
          chol.bytes / chol.seconds * 1e-9 / host.stream_gbs, "ratio");

  const DssProbe dss = probe_dss(model, dss_problem, dss_dec, 32);
  out.set("gnn.projection_s", dss.projection, "s");
  out.set("gnn.gather_s", dss.gather, "s");
  out.set("gnn.aggregate_s", dss.aggregate, "s");
  out.set("gnn.update_s", dss.update, "s");
  out.set("gnn.decode_s", dss.decode, "s");
  const double gflops = dss.total() > 0.0 ? dss.flops / dss.total() * 1e-9 : 0.0;
  out.set("gnn.gflops", gflops, "GFLOP/s");
  out.set("gnn.roofline_frac", gflops / host.fma_gflops_1t, "ratio");
}

/// Self time per application of the layers under one preconditioner, from
/// an apply-only pass at `threads` threads.
struct ApplyPass {
  double local = 0.0, restrict_prolong = 0.0, coarse = 0.0;
};

ApplyPass apply_pass(const std::vector<const precond::Preconditioner*>& ms,
                     const std::vector<const std::vector<double>*>& rs,
                     int threads) {
  const int saved = num_threads();
  set_num_threads(threads);
  SpanLog::instance().enable(true);
  long applies = 0;
  for (std::size_t k = 0; k < ms.size(); ++k) {
    const auto ws = ms[k]->make_workspace();
    std::vector<double> z(rs[k]->size());
    const std::int64_t t0 = now_ns();
    // At least 3 applications, and at least 0.3 s of them per operator.
    for (int i = 0; i < 3 || seconds_between(t0, now_ns()) < 0.3; ++i) {
      ms[k]->apply(*rs[k], z, ws.get());
      ++applies;
    }
  }
  SpanLog::instance().enable(false);
  set_num_threads(saved);
  const Layers l = collect(SpanLog::instance().take(), nullptr);
  ApplyPass p;
  p.local = l.incl("precond.local_solve") / applies;
  p.restrict_prolong = l.self("precond.apply") / applies;
  p.coarse = (l.incl("partition.coarse_apply") + l.incl("mg.cycle_apply")) /
             applies;
  return p;
}

void report_thread_pass(const std::vector<const precond::Preconditioner*>& ms,
                        const std::vector<const std::vector<double>*>& rs,
                        RunResult& out) {
  const ApplyPass t4 = apply_pass(ms, rs, kClosedLoopThreads);
  const ApplyPass t1 = apply_pass(ms, rs, 1);
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  out.set("precond.local_solve_speedup_4t", ratio(t1.local, t4.local), "ratio");
  out.set("partition.restrict_prolong_speedup_4t",
          ratio(t1.restrict_prolong, t4.restrict_prolong), "ratio");
  out.set("partition.coarse_speedup_4t", ratio(t1.coarse, t4.coarse), "ratio");
}

/// Check that the layer self times account for the traced wall time:
/// attributed <= wall <= attributed + epsilon.
void reconcile(double wall, const Layers& l, RunResult& out) {
  const double attributed = l.attributed();
  const double unattributed = wall - attributed;
  const double epsilon = 0.01 * wall + 1e-3;
  out.set("bench.unattributed_s", unattributed, "s");
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "trace: wall=%.6fs attributed=%.6fs unattributed=%.6fs", wall,
                attributed, unattributed);
  out.info.push_back(buf);
  if (unattributed < -1e-6 || unattributed > epsilon) {
    out.errors.push_back(std::string("layer self times do not reconcile: ") +
                         buf);
  }
}

// ---- closed loop (lu-160k, gnn-10k) ---------------------------------------

struct ClosedLoopSpec {
  la::Index nodes;
  std::uint64_t mesh_seed;
  core::HybridConfig cfg;
};

ClosedLoopSpec closed_loop_spec(const std::string& workload,
                                const gnn::DssModel* model) {
  ClosedLoopSpec s;
  s.cfg.rel_tol = 1e-6;
  s.cfg.max_iterations = 2000;
  s.cfg.track_history = false;
  if (workload == "lu-160k") {
    s.nodes = 160000;
    s.mesh_seed = kLuMeshSeed;
    s.cfg.preconditioner = "ddm-lu";
    s.cfg.subdomain_target_nodes = 1000;
  } else {
    s.nodes = 10000;
    s.mesh_seed = kGnnMeshSeed;
    s.cfg.preconditioner = "ddm-gnn";
    s.cfg.subdomain_target_nodes = 350;
    s.cfg.model = model;
  }
  return s;
}

solver::SolveOptions solve_options(const core::HybridConfig& cfg) {
  solver::SolveOptions o;
  o.rel_tol = cfg.rel_tol;
  o.max_iterations = cfg.max_iterations;
  o.track_history = cfg.track_history;
  o.gmres_restart = cfg.gmres_restart;
  o.precond_fp32 = cfg.precond_fp32;
  return o;
}

struct LoopStats {
  std::vector<double> seconds;
  std::vector<int> iterations;
};

using SolveFn = std::function<solver::SolveResult(const std::vector<double>&,
                                                  std::vector<double>&)>;

/// Closed-loop rounds until `budget_s` has passed (or exactly `fixed_rounds`
/// rounds when positive). A round solves the next right-hand side with each
/// function in turn, so two stacks compared against each other share every
/// slow spell of the host. Every answer is re-checked.
std::vector<LoopStats> solve_rounds(const std::vector<SolveFn>& solves,
                                    const la::CsrMatrix& A,
                                    const std::vector<std::vector<double>>& rhs,
                                    double rel_tol, double budget_s,
                                    int fixed_rounds, RunResult& out) {
  std::vector<LoopStats> st(solves.size());
  std::vector<double> x(A.rows());
  const std::int64_t start = now_ns();
  for (int i = 0;; ++i) {
    if (fixed_rounds > 0
            ? i >= fixed_rounds
            : (i > 0 && seconds_between(start, now_ns()) >= budget_s)) {
      break;
    }
    const auto& b = rhs[i % rhs.size()];
    SpanLog::request() = i;
    for (std::size_t k = 0; k < solves.size(); ++k) {
      std::fill(x.begin(), x.end(), 0.0);
      const std::int64_t t0 = now_ns();
      const solver::SolveResult res = solves[k](b, x);
      st[k].seconds.push_back(seconds_between(t0, now_ns()));
      st[k].iterations.push_back(res.iterations);
      ++out.attempted;
      if (!solve_ok(res, true_relative_residual(A, b, x), rel_tol)) {
        ++out.failed;
      }
    }
  }
  return st;
}

}  // namespace

void run_closed_loop(const Args& args, RunResult& out) {
  set_num_threads(kClosedLoopThreads);
  std::optional<gnn::DssModel> model = gnn::load_model(args.model_path);
  if (!model) {
    out.errors.push_back("cannot load the DSS model fixture " + args.model_path);
    return;
  }
  const ClosedLoopSpec spec = closed_loop_spec(args.workload, &*model);
  const Problem p = make_problem(spec.nodes, spec.mesh_seed);
  const auto rhs = make_rhs(p.prob.A.rows(), 8, args.seed);
  const core::HybridConfig& cfg = spec.cfg;
  out.info.push_back("operator: n=" + std::to_string(p.prob.A.rows()) +
                     " nnz=" + std::to_string(p.prob.A.nnz()));
  reset_peak_rss();

  if (!args.trace) {
    // Setups are interleaved with the solves, one before each segment of the
    // run, so setup_s samples the host over the whole run; each segment then
    // solves on the session its setup just built.
    std::vector<double> setups;
    LoopStats st;
    core::SolverSession session;
    for (int r = 0; r < kSetupReps; ++r) {
      core::SolverSession fresh;
      const std::int64_t t0 = now_ns();
      fresh.setup(p.mesh, p.prob, cfg);
      setups.push_back(seconds_between(t0, now_ns()));
      session = std::move(fresh);
      const LoopStats seg =
          solve_rounds({[&](const std::vector<double>& b,
                            std::vector<double>& x) {
                         return session.solve(b, x);
                       }},
                       p.prob.A, rhs, cfg.rel_tol, args.seconds / kSetupReps, 0,
                       out)[0];
      st.seconds.insert(st.seconds.end(), seg.seconds.begin(),
                        seg.seconds.end());
      st.iterations.insert(st.iterations.end(), seg.iterations.begin(),
                           seg.iterations.end());
    }
    out.info.push_back("subdomains: K=" +
                       std::to_string(session.num_subdomains()));
    out.set("setup_s", median(setups), "s");
    out.set("latency_p50_s", median(st.seconds), "s");
    out.set("max_rate_per_s", double(st.seconds.size()) / sum_of(st.seconds),
            "1/s");
    out.set("peak_rss_mb", peak_rss_mb(), "MiB");
    out.info.push_back("solves: " + std::to_string(st.seconds.size()) +
                       " iterations[0]=" + std::to_string(st.iterations[0]));
    return;
  }

  // ---- traced run: untraced pass, decorated pass, thread pass, probes ----
  zero_layers(out);
  core::SolverSession session;
  session.setup(p.mesh, p.prob, cfg);
  // The decorated stack, assembled from the public constructors exactly as
  // the registry's ddm-lu / ddm-gnn factories assemble it.
  std::int64_t t0 = now_ns();
  const partition::Decomposition dec = partition::decompose_target_size(
      p.mesh.adj_ptr(), p.mesh.adj(), cfg.subdomain_target_nodes, cfg.overlap,
      cfg.seed);
  out.set("core.setup.decompose_s", seconds_between(t0, now_ns()), "s");
  std::unique_ptr<precond::SubdomainSolver> local;
  if (cfg.preconditioner == "ddm-lu") {
    local = std::make_unique<precond::CholeskySubdomainSolver>();
  } else {
    core::GnnSubdomainSolver::Options o;
    local = std::make_unique<core::GnnSubdomainSolver>(
        *model, std::vector<mesh::Point2>(p.mesh.points().begin(),
                                          p.mesh.points().end()),
        p.prob.dirichlet, gnn::adjacency_pattern(p.mesh.adj_ptr(), p.mesh.adj()),
        o);
  }
  SpanLog::instance().enable(true);
  t0 = now_ns();
  auto nicolaides =
      std::make_unique<partition::NicolaidesCoarseSpace>(p.prob.A, dec);
  out.set("core.setup.coarse_s", seconds_between(t0, now_ns()), "s");
  const precond::AdditiveSchwarz schwarz(
      p.prob.A, dec, std::make_unique<TimedSubdomainSolver>(std::move(local)),
      std::make_unique<TimedCoarse>(std::move(nicolaides),
                                    "partition.coarse_apply"));
  SpanLog::instance().enable(false);
  std::vector<Span> all_spans = SpanLog::instance().take();
  out.set("core.setup.local_s",
          Layers{layer_totals(all_spans)}.incl("core.setup.local"), "s");
  const TimedPreconditioner timed(schwarz);
  const solver::SolveOptions opts = solve_options(cfg);

  // Untraced and decorated solves alternate on the same right-hand sides;
  // one warm-up round first.
  const std::vector<SolveFn> both = {
      [&](const std::vector<double>& b, std::vector<double>& x) {
        return session.solve(b, x);
      },
      [&](const std::vector<double>& b, std::vector<double>& x) {
        SpanLog::instance().enable(true);
        solver::SolveResult res;
        {
          SpanLog::Scope s("solver.solve");
          res = solver::run_krylov(session.method(), p.prob.A, timed, b, x,
                                   opts);
        }
        SpanLog::instance().enable(false);
        return res;
      }};
  solve_rounds(both, p.prob.A, rhs, cfg.rel_tol, 0.0, 1, out);
  SpanLog::instance().take();
  const std::vector<LoopStats> rounds = solve_rounds(
      both, p.prob.A, rhs, cfg.rel_tol, 2.0 * args.seconds / 3.0, 0, out);
  const LoopStats& plain = rounds[0];
  const LoopStats& traced = rounds[1];
  const int solves = static_cast<int>(plain.seconds.size());
  const Layers l = collect(SpanLog::instance().take(), &all_spans);

  if (traced.iterations != plain.iterations) {
    out.errors.push_back(
        "traced iteration counts differ from the untraced run");
  }
  reconcile(sum_of(traced.seconds), l, out);
  out.set("bench.trace_overhead", sum_of(traced.seconds) / sum_of(plain.seconds),
          "ratio");
  const long applies = l.count("precond.apply");
  out.set("precond.apply_s", l.incl("precond.apply") / applies, "s");
  out.set("precond.local_solve_s", l.incl("precond.local_solve") / applies, "s");
  out.set("partition.restrict_prolong_s", l.self("precond.apply") / applies,
          "s");
  out.set("partition.coarse_apply_s", l.incl("partition.coarse_apply") / applies,
          "s");
  out.set("solver.iterate_s", l.self("solver.solve") / solves, "s");
  std::vector<double> iters(plain.iterations.begin(), plain.iterations.end());
  out.set("solver.iterations", median(iters), "count");
  const Tail tail = tail_of(plain.seconds);
  out.set("solve_tail_s", tail.value, "s");
  out.set("solve_tail_samples", double(tail.samples), "count");

  // Block application of 16 columns through the same decorated stack.
  {
    const la::Index n = p.prob.A.rows();
    la::MultiVector r(n, 16), z(n, 16);
    for (la::Index j = 0; j < 16; ++j) {
      const auto& b = rhs[j % rhs.size()];
      std::copy(b.begin(), b.end(), r.col(j).begin());
    }
    const auto ws = timed.make_workspace();
    timed.apply_many(r, z, ws.get());  // warm the block scratch
    const std::int64_t b0 = now_ns();
    timed.apply_many(r, z, ws.get());
    out.set("precond.apply_many_col_s", seconds_between(b0, now_ns()) / 16.0,
            "s");
  }
  report_thread_pass({&timed}, {&rhs[0]}, out);
  report_probes(p, dec, p, dec, *model, out);
  write_spans(args.spans_path, all_spans);
  out.info.push_back("solves: " + std::to_string(solves) + " per pass");
}

// ---- open loop (service-2op) ----------------------------------------------

namespace {

struct ServedOp {
  Problem p;
  core::HybridConfig cfg;
  std::vector<std::vector<double>> rhs;
};

/// The two served operators; `traced` selects the decorated registry
/// entries (same construction, timing decorators around each layer).
core::HybridConfig served_gnn_cfg(const gnn::DssModel& model, bool traced) {
  core::HybridConfig c;
  c.preconditioner = traced ? "perfbench.ddm-gnn" : "ddm-gnn";
  c.subdomain_target_nodes = 350;
  c.rel_tol = 1e-6;
  c.max_iterations = 500;
  c.track_history = false;
  c.model = &model;
  c.gnn_adaptive_refinement = true;
  c.precond_fp32 = true;
  return c;
}

core::HybridConfig served_ml_cfg(bool traced) {
  core::HybridConfig c;
  c.preconditioner = traced ? "perfbench.ddm-lu-ml" : "ddm-lu-ml";
  c.subdomain_target_nodes = 350;
  c.rel_tol = 1e-6;
  c.max_iterations = 500;
  c.track_history = false;
  c.mg_levels = 2;
  return c;
}

/// Fallback counts of every traced GNN local solver built so far.
struct GnnCensus {
  std::mutex mu;
  std::vector<const core::GnnSubdomainSolver*> solvers;
};
GnnCensus& gnn_census() {
  static GnnCensus c;
  return c;
}

/// Register the decorated twins of ddm-gnn and ddm-lu-ml: the registry's
/// own construction (same local solver options, same coarse component)
/// with a timing decorator on the preconditioner, the local solver and the
/// coarse correction.
void register_traced_entries() {
  static const bool once = [] {
    auto& reg = precond::PrecondRegistry::instance();
    reg.add("perfbench.ddm-gnn", reg.traits("ddm-gnn"),
            [](const precond::PrecondContext& ctx) {
              std::vector<std::uint8_t> dirichlet(ctx.dirichlet.begin(),
                                                  ctx.dirichlet.end());
              if (dirichlet.empty()) dirichlet.assign(ctx.A->rows(), 0);
              core::GnnSubdomainSolver::Options o;
              o.refinement_steps = ctx.gnn_refinement_steps;
              o.normalize_input = ctx.gnn_normalize;
              o.adaptive_refinement = ctx.gnn_adaptive_refinement;
              o.contraction_target = ctx.gnn_contraction_target;
              o.max_refinement_steps = ctx.gnn_max_refinement_steps;
              o.cost_aware_fallback = ctx.gnn_cost_aware_fallback;
              o.fp32_fallback = ctx.gnn_fp32_fallback;
              auto local = std::make_unique<core::GnnSubdomainSolver>(
                  *ctx.model,
                  std::vector<mesh::Point2>(ctx.coords.begin(),
                                            ctx.coords.end()),
                  std::move(dirichlet), *ctx.edge_pattern, o);
              {
                std::lock_guard<std::mutex> lock(gnn_census().mu);
                gnn_census().solvers.push_back(local.get());
              }
              std::unique_ptr<partition::CoarseComponent> coarse;
              {
                SpanLog::Scope s("core.setup.coarse");
                coarse = std::make_unique<partition::NicolaidesCoarseSpace>(
                    *ctx.A, *ctx.dec);
              }
              return std::make_unique<TimedPreconditioner>(
                  std::make_unique<precond::AdditiveSchwarz>(
                      *ctx.A, *ctx.dec,
                      std::make_unique<TimedSubdomainSolver>(std::move(local)),
                      std::make_unique<TimedCoarse>(std::move(coarse),
                                                    "partition.coarse_apply")));
            });
    reg.add("perfbench.ddm-lu-ml", reg.traits("ddm-lu-ml"),
            [](const precond::PrecondContext& ctx) {
              std::unique_ptr<partition::CoarseComponent> cycle;
              {
                SpanLog::Scope s("core.setup.coarse");
                mg::HierarchyOptions ho;
                ho.levels = ctx.mg_levels;
                ho.aggregate_target = ctx.mg_aggregate_target;
                ho.seed = ctx.seed;
                mg::CycleConfig cc;
                cc.w_cycle = ctx.mg_cycle == "w";
                cc.smoother = ctx.mg_smoother == "chebyshev"
                                  ? mg::Smoother::kChebyshev
                                  : mg::Smoother::kJacobi;
                cc.smooth_steps = ctx.mg_smooth_steps;
                cycle = std::make_unique<mg::VCycle>(
                    mg::build_hierarchy(*ctx.A, *ctx.dec, ho), cc);
              }
              return std::make_unique<TimedPreconditioner>(
                  std::make_unique<precond::AdditiveSchwarz>(
                      *ctx.A, *ctx.dec,
                      std::make_unique<TimedSubdomainSolver>(
                          std::make_unique<precond::CholeskySubdomainSolver>()),
                      std::make_unique<TimedCoarse>(std::move(cycle),
                                                    "mg.cycle_apply"),
                      "-ml"));
            });
    return true;
  }();
  (void)once;
}

struct OpenLoopOut {
  std::vector<double> latency;     // scheduled arrival -> completion
  std::vector<double> queue_wait;  // admission -> window start
  std::vector<double> iterations;
  /// How late the generator sent each request (a blocked submit delays
  /// every later one).
  std::vector<double> injector_late;
  std::size_t submitted = 0;
  core::SolveService::Stats stats;
  /// Per executed window: block solve wall time minus its apply time.
  std::vector<double> window_overhead;
};

/// Offer `count` Poisson arrivals at `rate` to a fresh SolveService over the
/// warm cache, harvest every future and re-check every answer.
OpenLoopOut open_loop(core::SessionCache& cache, std::vector<ServedOp>& ops,
                      double rate, int count, std::uint64_t seed,
                      RunResult& out) {
  core::SolveService svc(cache);
  std::vector<core::SolveService::OperatorKey> keys;
  for (ServedOp& op : ops) {
    keys.push_back(svc.register_operator(op.p.mesh, op.p.prob, op.cfg));
  }
  // Schedule, operator assignment and right-hand side, all from the seed.
  // Exactly kGnnShare of the requests go to operator 0, in seeded order.
  Rng rng(seed * 0xD1B54A32D192ED03ull + 0x7ull);
  std::vector<double> at(count);
  std::vector<int> which(count), pick(count);
  const int to_gnn = static_cast<int>(std::lround(kGnnShare * count));
  for (int i = 0; i < count; ++i) which[i] = i < to_gnn ? 0 : 1;
  for (int i = count - 1; i > 0; --i) {
    std::swap(which[i], which[static_cast<int>(rng.uniform() * (i + 1))]);
  }
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    double u = rng.uniform();
    while (u <= 1e-300) u = rng.uniform();
    t += -std::log(u) / rate;
    at[i] = t;
    pick[i] = static_cast<int>(rng.uniform() * ops[which[i]].rhs.size());
  }
  using Clock = std::chrono::steady_clock;
  std::vector<std::optional<std::future<core::SolveService::Reply>>> futs(
      count);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto scheduled = [&](int i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(at[i]));
  };
  OpenLoopOut o;
  o.submitted = count;
  std::map<std::pair<std::int64_t, int>, std::pair<double, double>> windows;
  // Replies are harvested in arrival order, while the generator waits for
  // its next send time and after the last send, so finished solutions are
  // not held for the rest of the phase.
  const auto harvest = [&](int i) {
    ++out.attempted;
    if (!futs[i].has_value() ||
        futs[i]->wait_for(std::chrono::seconds(60)) !=
            std::future_status::ready) {
      ++out.failed;  // rejected, or never completed
      return;
    }
    core::SolveService::Reply r;
    try {
      r = futs[i]->get();
    } catch (...) {
      ++out.failed;
      return;
    }
    const ServedOp& op = ops[which[i]];
    if (!solve_ok(r.result,
                  true_relative_residual(op.p.prob.A, op.rhs[pick[i]], r.x),
                  op.cfg.rel_tol)) {
      ++out.failed;
    }
    o.latency.push_back(
        std::chrono::duration<double>(r.completed_at - scheduled(i)).count());
    o.queue_wait.push_back(r.queue_seconds);
    o.iterations.push_back(r.result.iterations);
    // Replies of one window share its completion stamp.
    auto& w = windows[{r.completed_at.time_since_epoch().count(),
                       r.batch_columns}];
    w.first = std::max(w.first, r.result.total_seconds);
    w.second += r.result.precond_seconds;
  };
  int harvested = 0;
  for (int i = 0; i < count; ++i) {
    while (harvested < i && Clock::now() < scheduled(i) &&
           (!futs[harvested].has_value() ||
            futs[harvested]->wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready)) {
      harvest(harvested++);
    }
    std::this_thread::sleep_until(scheduled(i));
    o.injector_late.push_back(
        std::chrono::duration<double>(Clock::now() - scheduled(i)).count());
    futs[i] = svc.submit(keys[which[i]], ops[which[i]].rhs[pick[i]]);
  }
  while (harvested < count) harvest(harvested++);
  svc.shutdown();
  o.stats = svc.stats();
  for (const auto& [key, w] : windows) {
    o.window_overhead.push_back(w.first - w.second);
  }
  return o;
}

}  // namespace

void run_service(const Args& args, RunResult& out) {
  // Two workers with one inner thread each plus this injector thread.
  set_num_threads(1);
  std::optional<gnn::DssModel> model = gnn::load_model(args.model_path);
  if (!model) {
    out.errors.push_back("cannot load the DSS model fixture " + args.model_path);
    return;
  }
  register_traced_entries();
  std::vector<ServedOp> ops(2);
  ops[0].p = make_problem(2000, kServedGnnMeshSeed);
  ops[1].p = make_problem(8000, kServedMlMeshSeed);
  for (int k = 0; k < 2; ++k) {
    ops[k].cfg = k == 0 ? served_gnn_cfg(*model, false) : served_ml_cfg(false);
    ops[k].rhs = make_rhs(ops[k].p.prob.A.rows(), 32, args.seed * 2 + k);
    out.info.push_back("operator " + std::to_string(k) +
                       ": n=" + std::to_string(ops[k].p.prob.A.rows()));
  }
  reset_peak_rss();
  core::SessionCache cache(std::size_t{1} << 30);

  if (!args.trace) {
    // One cold-cache setup before every measured phase, so setup_s samples
    // the host over the whole run.
    std::vector<double> setups;
    const auto setup_rep = [&] {
      core::SessionCache cold(std::size_t{1} << 30);
      core::SolveService svc(cold);
      const std::int64_t t0 = now_ns();
      for (ServedOp& op : ops) {
        svc.register_operator(op.p.mesh, op.p.prob, op.cfg);
      }
      setups.push_back(seconds_between(t0, now_ns()));
    };
    for (ServedOp& op : ops) cache.get_or_setup(op.p.mesh, op.p.prob, op.cfg);
    for (int r = 0; r < kSetupReps / 2; ++r) setup_rep();
    // Reference rate: a third of the run.
    const int ref_count =
        std::max(200, static_cast<int>(kReferenceRate * args.seconds / 3.0));
    const OpenLoopOut ref =
        open_loop(cache, ops, kReferenceRate, ref_count, args.seed, out);
    // Rate ladder: bisection over the fixed rungs, each offered for
    // kRungSeconds.
    const std::vector<double> ladder =
        rate_ladder(kLadderBase, kLadderRatio, kLadderRungs);
    const int best = highest_passing_rung(kLadderRungs, [&](int i) {
      setup_rep();
      const int n = static_cast<int>(ladder[i] * kRungSeconds);
      const OpenLoopOut o =
          open_loop(cache, ops, ladder[i], n, args.seed + 1000 + i, out);
      const RungVerdict v = judge_rung(o.latency, o.submitted, kP99Limit);
      char buf[128];
      std::snprintf(buf, sizeof(buf), "rung %.0f/s: p99=%.4fs backlog=%d %s",
                    ladder[i], v.p99_s, v.backlog ? 1 : 0,
                    v.pass ? "pass" : "fail");
      out.info.push_back(buf);
      return v.pass;
    });
    while (setups.size() < kSetupReps) setup_rep();
    out.set("setup_s", median(setups), "s");
    out.set("latency_p50_s", median(ref.latency), "s");
    out.set("max_rate_per_s", best >= 0 ? ladder[best] : 0.0, "1/s");
    out.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // ---- traced run ----
  zero_layers(out);
  std::vector<ServedOp> traced_ops = ops;
  traced_ops[0].cfg = served_gnn_cfg(*model, true);
  traced_ops[1].cfg = served_ml_cfg(true);
  std::vector<std::shared_ptr<core::SolverSession>> plain_s, traced_s;
  for (ServedOp& op : ops) {
    plain_s.push_back(cache.get_or_setup(op.p.mesh, op.p.prob, op.cfg));
  }
  SpanLog::instance().enable(true);
  for (ServedOp& op : traced_ops) {
    traced_s.push_back(cache.get_or_setup(op.p.mesh, op.p.prob, op.cfg));
  }
  SpanLog::instance().enable(false);
  std::vector<Span> all_spans;
  const Layers setup_layers = collect(SpanLog::instance().take(), &all_spans);
  out.set("core.setup.local_s", setup_layers.incl("core.setup.local"), "s");
  out.set("core.setup.coarse_s", setup_layers.incl("core.setup.coarse"), "s");
  double decompose = 0.0;
  std::vector<partition::Decomposition> decs;
  for (ServedOp& op : ops) {
    const std::int64_t t0 = now_ns();
    decs.push_back(partition::decompose_target_size(
        op.p.mesh.adj_ptr(), op.p.mesh.adj(), op.cfg.subdomain_target_nodes,
        op.cfg.overlap, op.cfg.seed));
    decompose += seconds_between(t0, now_ns());
  }
  out.set("core.setup.decompose_s", decompose, "s");

  // Deterministic consistency pass: the same scalar solves on the plain and
  // the decorated sessions, alternating, must take the same iterations.
  std::vector<double> plain_wall, traced_wall;
  std::vector<int> plain_it, traced_it;
  for (int k = 0; k < 2; ++k) {
    const std::vector<LoopStats> rounds = solve_rounds(
        {[&](const std::vector<double>& b, std::vector<double>& x) {
           return plain_s[k]->solve(b, x);
         },
         [&](const std::vector<double>& b, std::vector<double>& x) {
           SpanLog::instance().enable(true);
           solver::SolveResult res;
           {
             SpanLog::Scope s("solver.solve");
             res = traced_s[k]->solve(b, x);
           }
           SpanLog::instance().enable(false);
           return res;
         }},
        ops[k].p.prob.A, ops[k].rhs, ops[k].cfg.rel_tol, 0.0, 16, out);
    plain_wall.insert(plain_wall.end(), rounds[0].seconds.begin(),
                      rounds[0].seconds.end());
    traced_wall.insert(traced_wall.end(), rounds[1].seconds.begin(),
                       rounds[1].seconds.end());
    plain_it.insert(plain_it.end(), rounds[0].iterations.begin(),
                    rounds[0].iterations.end());
    traced_it.insert(traced_it.end(), rounds[1].iterations.begin(),
                     rounds[1].iterations.end());
  }
  const Layers l = collect(SpanLog::instance().take(), &all_spans);
  if (plain_it != traced_it) {
    out.errors.push_back(
        "traced iteration counts differ from the untraced run");
  }
  reconcile(sum_of(traced_wall), l, out);
  out.set("bench.trace_overhead", sum_of(traced_wall) / sum_of(plain_wall),
          "ratio");
  const long applies = l.count("precond.apply");
  out.set("precond.apply_s", l.incl("precond.apply") / applies, "s");
  out.set("precond.local_solve_s", l.incl("precond.local_solve") / applies, "s");
  out.set("partition.restrict_prolong_s", l.self("precond.apply") / applies, "s");
  if (l.count("partition.coarse_apply") > 0) {
    out.set("partition.coarse_apply_s",
            l.incl("partition.coarse_apply") / l.count("partition.coarse_apply"),
            "s");
  }
  if (l.count("mg.cycle_apply") > 0) {
    out.set("mg.cycle_apply_s",
            l.incl("mg.cycle_apply") / l.count("mg.cycle_apply"), "s");
  }
  out.set("solver.iterate_s", l.self("solver.solve") / l.count("solver.solve"),
          "s");

  // Untraced reference phase long enough for 11 samples beyond p99, then
  // the offered load of an end-to-end run's reference phase, traced.
  const OpenLoopOut ref =
      open_loop(cache, ops, kReferenceRate, kTailRequests, args.seed, out);
  out.set("latency_p99_s", percentile(ref.latency, 0.99), "s");
  out.set("bench.injector_late_p99_s", percentile(ref.injector_late, 0.99),
          "s");
  const int ref_count =
      std::max(200, static_cast<int>(kReferenceRate * args.seconds / 3.0));
  SpanLog::instance().enable(true);
  const OpenLoopOut tr =
      open_loop(cache, traced_ops, kReferenceRate, ref_count, args.seed, out);
  SpanLog::instance().enable(false);
  const Layers sl = collect(SpanLog::instance().take(), &all_spans);
  const auto cs = cache.stats();
  out.set("core.cache_hit_ratio", double(cs.hits) / double(cs.hits + cs.misses),
          "ratio");
  long columns = 0;
  for (const auto& s : traced_s) {
    columns += static_cast<const TimedPreconditioner&>(s->preconditioner())
                   .columns();
  }
  if (columns > 0) {
    out.set("precond.apply_many_col_s", sl.incl("precond.apply_many") / columns,
            "s");
  }
  out.set("solver.window_overhead_s", median(tr.window_overhead), "s");
  out.set("solver.iterations", median(tr.iterations), "count");
  out.set("core.service.queue_wait_p50_s", median(tr.queue_wait), "s");
  out.set("core.service.window_cols_mean",
          double(tr.stats.columns) / double(tr.stats.windows), "count");
  out.set("core.service.applies_per_solve",
          double(tr.stats.precond_applies) / double(tr.stats.completed),
          "count");
  {
    std::lock_guard<std::mutex> lock(gnn_census().mu);
    double fallbacks = 0.0, parts = 0.0;
    for (const auto* g : gnn_census().solvers) {
      fallbacks += double(g->fallback_count());
      parts += double(g->topologies().size());
    }
    out.set("gnn.fallback_share", parts > 0.0 ? fallbacks / parts : 0.0,
            "ratio");
  }

  std::vector<const precond::Preconditioner*> ms;
  std::vector<const std::vector<double>*> rs;
  for (int k = 0; k < 2; ++k) {
    ms.push_back(&traced_s[k]->preconditioner());
    rs.push_back(&ops[k].rhs[0]);
  }
  report_thread_pass(ms, rs, out);
  report_probes(ops[1].p, decs[1], ops[0].p, decs[0], *model, out);
  write_spans(args.spans_path, all_spans);
}

}  // namespace perfbench
