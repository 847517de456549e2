#include "core/gnn_subdomain_solver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "gnn/dss_kernels.hpp"
#include "la/vector_ops.hpp"
#include "obs/flags.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ddmgnn::core {

namespace {

/// One timed + traced DSS inference. The phase profile is only collected
/// while timing is on; the disabled path is the bare virtual call.
inline void timed_forward(const gnn::DssModel& model,
                          const gnn::GraphSample& sample,
                          const gnn::DssEdgeCache* cache,
                          gnn::DssWorkspace& dss, std::vector<float>& out) {
  if (!obs::timing_enabled()) {
    model.forward(sample, cache, dss, out);
    return;
  }
  gnn::DssPhaseProfile prof;
  const std::int64_t t0 = obs::TraceRecorder::instance().now_ns();
  model.forward(sample, cache, dss, out, &prof);
  gnn::record_phase_profile(prof, t0, obs::TraceRecorder::instance().now_ns());
}

/// Per-caller inference scratch. One Lane per OpenMP thread of the caller's
/// solve: the lanes are touched only inside this caller's parallel region,
/// so two clients hammering the same solver never share a DssWorkspace (the
/// former `static thread_local` did — across ALL solver instances — and was
/// both a data race on concurrent sessions and an unaccounted leak).
struct GnnWorkspace final : precond::SubdomainSolver::Workspace {
  struct Lane {
    gnn::DssWorkspace dss;
    gnn::GraphSample sample;          // topo rebound per shard, rhs owned here
    std::vector<float> out;
    std::vector<double> scale;
    std::vector<std::vector<double>> res;
  };
  std::vector<Lane> lanes;

  Lane& lane(int thread) {
    return lanes[static_cast<std::size_t>(thread)];
  }
  void ensure_lanes(int count) {
    if (static_cast<int>(lanes.size()) < count) {
      lanes.resize(static_cast<std::size_t>(count));
    }
  }
};

GnnWorkspace& workspace_of(precond::SubdomainSolver::Workspace* ws) {
  auto* gws = dynamic_cast<GnnWorkspace*>(ws);
  DDMGNN_CHECK(gws != nullptr,
               "GnnSubdomainSolver: solve needs a workspace from this "
               "solver's make_workspace()");
  return *gws;
}

/// Merged-node budget per inference shard. Bounds the forward workspace (the
/// per-edge tensors of all k̄ blocks) while still fusing several local
/// problems into one DSS call; shard count never drops below the thread
/// count, so the batched path keeps every core busy.
constexpr la::Index kShardNodeBudget = 4096;

std::size_t topology_bytes(const gnn::GraphTopology& t) {
  return static_cast<std::size_t>(t.num_edges()) *
             (2 * sizeof(la::Index) + 3 * sizeof(float) + sizeof(la::Index)) +
         static_cast<std::size_t>(t.n + 1) * sizeof(la::Offset) +
         static_cast<std::size_t>(t.n) * sizeof(std::uint8_t) +
         static_cast<std::size_t>(t.a_local.nnz()) *
             (sizeof(la::Index) + sizeof(double)) +
         static_cast<std::size_t>(t.a_local.rows() + 1) * sizeof(la::Offset);
}

}  // namespace

GnnSubdomainSolver::GnnSubdomainSolver(const gnn::DssModel& model,
                                       const mesh::Mesh& m,
                                       std::span<const std::uint8_t> dirichlet,
                                       Options options)
    : GnnSubdomainSolver(
          model, std::vector<mesh::Point2>(m.points().begin(), m.points().end()),
          std::vector<std::uint8_t>(dirichlet.begin(), dirichlet.end()),
          gnn::adjacency_pattern(m.adj_ptr(), m.adj()), options) {}

GnnSubdomainSolver::GnnSubdomainSolver(const gnn::DssModel& model,
                                       std::vector<mesh::Point2> coords,
                                       std::vector<std::uint8_t> dirichlet,
                                       la::CsrMatrix message_pattern,
                                       Options options)
    : model_(&model),
      coords_(std::move(coords)),
      dirichlet_(std::move(dirichlet)),
      mesh_pattern_(std::move(message_pattern)),
      options_(options) {
  DDMGNN_CHECK(coords_.size() == dirichlet_.size() &&
                   mesh_pattern_.rows() == static_cast<la::Index>(coords_.size()),
               "GnnSubdomainSolver: geometry/pattern size mismatch");
}

void GnnSubdomainSolver::setup(std::vector<la::CsrMatrix> local_matrices,
                               const partition::Decomposition& dec) {
  DDMGNN_CHECK(dec.num_nodes() == static_cast<la::Index>(coords_.size()),
               "GnnSubdomainSolver: geometry size mismatch");
  {
    std::unique_lock lock(plans_mutex_);
    plans_.clear();
  }
  const auto k = static_cast<la::Index>(local_matrices.size());
  topologies_.resize(k);
  edge_caches_.assign(k, nullptr);
  // Edge geometry never changes across iterations, applies, or solves, so
  // the attr projections of every message-passing block are paid once here.
  const bool precompute = model_->config().fast_inference;
  obs::Span setup_span("gnn.setup");
  const bool timing = obs::timing_enabled();
  std::atomic<double> edge_cache_seconds{0.0};
  parallel_for_dynamic(k, [&](long i) {
    const auto& nodes = dec.subdomains[i];
    std::vector<mesh::Point2> local_coords(nodes.size());
    std::vector<std::uint8_t> local_dirichlet(nodes.size());
    for (std::size_t l = 0; l < nodes.size(); ++l) {
      local_coords[l] = coords_[nodes[l]];
      local_dirichlet[l] = dirichlet_[nodes[l]];
    }
    const la::CsrMatrix local_pattern =
        mesh_pattern_.principal_submatrix(nodes);
    topologies_[i] = gnn::build_topology(std::move(local_matrices[i]),
                                         local_coords, local_dirichlet,
                                         &local_pattern);
    if (precompute) {
      Timer cache_timer;
      edge_caches_[i] = std::make_shared<const gnn::DssEdgeCache>(
          model_->precompute_edges(*topologies_[i]));
      if (timing) {
        edge_cache_seconds.fetch_add(cache_timer.seconds(),
                                     std::memory_order_relaxed);
      }
    }
  });
  if (timing && precompute) {
    // CPU seconds summed across the parallel precompute — can exceed the
    // phase's wall time, which is exactly the signal (edge-cache build
    // parallelism).
    static obs::Gauge& g =
        obs::Registry::instance().gauge("setup.dss_edge_cache_cpu_seconds");
    if (obs::metrics_enabled()) g.add(edge_cache_seconds.load());
    setup_span.arg("edge_cache_cpu_seconds", edge_cache_seconds.load());
  }

  refine_steps_.clear();
  fallback_.clear();
  fallback_count_ = 0;
  if (!options_.adaptive_refinement) return;

  // Refine-until-contractive: probe each subdomain with deterministic unit
  // residuals and keep the smallest pass count whose measured contraction
  // ‖r − A_i z‖/‖r‖ meets the target; subdomains the model cannot contract
  // within the pass budget get an exact Cholesky fallback. With
  // cost_aware_fallback, contractive subdomains additionally get the exact
  // solve when a flop model (deterministic — no timing, so the chosen
  // configuration is reproducible across runs and machines) predicts the
  // refined GNN apply to cost more than fallback_cost_margin × the envelope
  // sweeps.
  refine_steps_.assign(k, std::max(0, options_.refinement_steps));
  fallback_.resize(k);
  const int max_steps =
      std::max(options_.refinement_steps, options_.max_refinement_steps);
  const int probes = std::max(1, options_.probes);
  const double target = options_.contraction_target;
  const gnn::DssConfig& mc = model_->config();
  std::atomic<la::Index> fallbacks{0};
  parallel_for_dynamic(k, [&](long i) {
    const auto& topo = topologies_[i];
    std::unique_ptr<la::SkylineCholesky> chol;
    // Cost model, per preconditioner application. Exact: forward+backward
    // envelope sweeps, 2 flops per stored entry each (the factorization is
    // one-time setup cost, not counted). GNN: (passes+1) inferences, each k̄
    // three-pass blocks (dss_kernels.hpp): the stacked n×d×4h projection
    // GEMM, the per-edge gather-add of both MLPs' hidden-width activations
    // (ne·2h), and Ψ on [h, c, (flag), S→, S←, deg] plus its second layer,
    // n·((d + in + 2h + 1)·h + h·d) multiply-adds — 2 flops per
    // multiply-add throughout.
    double exact_flops = 0.0;
    double per_inference = 0.0;
    if (options_.cost_aware_fallback) {
      chol = std::make_unique<la::SkylineCholesky>(topo->a_local);
      exact_flops = 4.0 * static_cast<double>(chol->envelope_size());
      const double nd = static_cast<double>(topo->n);
      const double ne = static_cast<double>(topo->num_edges());
      const double d = static_cast<double>(mc.latent);
      const double h = static_cast<double>(mc.hidden);
      const double in = static_cast<double>(mc.node_input_dim());
      per_inference =
          static_cast<double>(mc.iterations) *
          (2.0 * nd * d * 4.0 * h + ne * 2.0 * h +
           2.0 * nd * ((d + in + 2.0 * h + 1.0) * h + h * d));
    }
    auto too_costly = [&](int passes) {
      return options_.cost_aware_fallback &&
             (passes + 1) * per_inference >
                 options_.fallback_cost_margin * exact_flops;
    };
    // One inference already over budget: every probe outcome ends in the
    // fallback (non-contractive, or contractive at ≥ 1 inference per apply),
    // so the probes are skipped.
    bool use_fallback = too_costly(0);
    int needed = -1;  // pass count reaching the target, max over probes
    if (!use_fallback) {
      const auto n = static_cast<std::size_t>(topo->n);
      gnn::DssWorkspace dss;  // setup-time scratch, dropped after probing
      gnn::GraphSample sample;
      sample.topo = topo;
      sample.rhs.resize(n);
      std::vector<float> out;
      std::vector<double> r(n), z(n), res(n);
      for (int probe = 0; probe < probes; ++probe) {
        Rng rng((0x5EEDull << 32) ^ (static_cast<std::uint64_t>(i) << 8) ^
                static_cast<std::uint64_t>(probe));
        for (std::size_t l = 0; l < n; ++l) r[l] = rng.uniform(-1.0, 1.0);
        const double r0 = la::norm2(r);
        std::fill(z.begin(), z.end(), 0.0);
        res = r;
        int reached = -1;
        for (int pass = 0; pass <= max_steps; ++pass) {
          const double norm = la::norm2(res);
          if (norm <= options_.zero_threshold) {
            reached = pass == 0 ? 0 : pass - 1;
            break;
          }
          const double inv = options_.normalize_input ? 1.0 / norm : 1.0;
          for (std::size_t l = 0; l < n; ++l) sample.rhs[l] = res[l] * inv;
          timed_forward(*model_, sample, edge_caches_[i].get(), dss, out);
          const double scale = options_.normalize_input ? norm : 1.0;
          for (std::size_t l = 0; l < n; ++l) {
            z[l] += scale * static_cast<double>(out[l]);
          }
          topo->a_local.multiply(z, res);
          for (std::size_t l = 0; l < n; ++l) res[l] = r[l] - res[l];
          const double rho = la::norm2(res) / (r0 > 0.0 ? r0 : 1.0);
          if (std::isfinite(rho) && rho <= target) {
            reached = pass;
            break;
          }
        }
        if (reached < 0) {
          needed = -1;  // one bad probe disqualifies the subdomain
          break;
        }
        needed = std::max(needed, reached);
      }
      // Non-contractive: correctness fallback; else the cost model decides.
      use_fallback = needed < 0 || too_costly(needed);
    }
    if (use_fallback) {
      if (!chol) chol = std::make_unique<la::SkylineCholesky>(topo->a_local);
      if (options_.fp32_fallback) chol->enable_fp32();
      fallback_[i] = std::move(chol);
      // Fallback subdomains never run DSS: neither solve_all nor the shard
      // plans read their edge cache.
      edge_caches_[i].reset();
      fallbacks.fetch_add(1, std::memory_order_relaxed);
    } else {
      refine_steps_[i] = std::max(refine_steps_[i], needed);
    }
  });
  fallback_count_ = fallbacks.load();
  int max_chosen = 0;
  for (la::Index i = 0; i < k; ++i) {
    if (!fallback_[i]) max_chosen = std::max(max_chosen, refine_steps_[i]);
  }
  setup_span.arg("adaptive_fallback_subdomains",
                 static_cast<double>(fallback_count_));
  setup_span.arg("adaptive_max_passes", static_cast<double>(max_chosen));
  if (obs::metrics_enabled()) {
    obs::Registry::instance()
        .gauge("gnn.adaptive_fallback_subdomains")
        .set(static_cast<double>(fallback_count_));
    obs::Registry::instance()
        .gauge("gnn.adaptive_max_passes")
        .set(static_cast<double>(max_chosen));
  }
}

std::unique_ptr<precond::SubdomainSolver::Workspace>
GnnSubdomainSolver::make_workspace() const {
  auto ws = std::make_unique<GnnWorkspace>();
  ws->ensure_lanes(std::max(1, num_threads()));
  return ws;
}

std::size_t GnnSubdomainSolver::workspace_bytes() const {
  // Coarse steady-state estimate of one caller's warmed-up lanes on the fast
  // path: every lane ends up sized to the largest shard (≈ the merged node
  // budget) it has processed. The forward buffers are all per-node — latent
  // ping-pong (2 × latent), stacked projections (4 × hidden), message sums
  // and degree (2 × hidden + 1), Ψ/decoder hidden scratch (hidden), the
  // decode — because setup always hands the forward an edge cache, so no
  // per-edge tensor is allocated. The lane's rhs and correction vectors add
  // two doubles per node.
  long max_nodes = 0;
  for (const auto& t : topologies_) max_nodes = std::max<long>(max_nodes, t->n);
  if (max_nodes == 0) return 0;
  const long shard_nodes = std::max<long>(max_nodes, kShardNodeBudget);
  const auto& cfg = model_->config();
  const std::size_t per_lane =
      static_cast<std::size_t>(shard_nodes) *
      ((2 * cfg.latent + 7 * cfg.hidden + 2) * sizeof(float) +
       2 * sizeof(double));
  return per_lane * static_cast<std::size_t>(std::max(1, num_threads()));
}

void GnnSubdomainSolver::solve_all(
    const std::vector<std::vector<double>>& r_loc,
    std::vector<std::vector<double>>& z_loc, Workspace* ws) const {
  DDMGNN_CHECK(r_loc.size() == topologies_.size(),
               "GnnSubdomainSolver: batch size mismatch");
  GnnWorkspace& gws = workspace_of(ws);
  // Read the thread count once: a concurrent set_num_threads() between
  // sizing the lanes and forking the team must not leave the team wider
  // than the lane array.
  const int team = std::max(1, num_threads());
  gws.ensure_lanes(team);
#pragma omp parallel for schedule(dynamic, 1) num_threads(team)
  for (long i = 0; i < static_cast<long>(r_loc.size()); ++i) {
    GnnWorkspace::Lane& lane = gws.lane(omp_get_thread_num());
    const auto& topo = topologies_[i];
    const auto& r = r_loc[i];
    auto& z = z_loc[i];
    const std::size_t n = r.size();
    if (!fallback_.empty() && fallback_[i] != nullptr) {
      // Non-contractive subdomain: exact local solve (adaptive setup).
      z.assign(r.begin(), r.end());
      if (options_.fp32_fallback) {
        fallback_[i]->solve_inplace_fp32(z);
      } else {
        fallback_[i]->solve_inplace(z);
      }
      continue;
    }
    const int steps =
        refine_steps_.empty() ? options_.refinement_steps : refine_steps_[i];
    z.assign(n, 0.0);
    gnn::GraphSample& sample = lane.sample;
    sample.topo = topo;
    sample.rhs.resize(n);
    std::vector<float>& out = lane.out;
    std::vector<double> res(r.begin(), r.end());  // current local residual
    for (int pass = 0; pass <= steps; ++pass) {
      const double norm = la::norm2(res);
      if (norm <= options_.zero_threshold) break;
      const double inv = options_.normalize_input ? 1.0 / norm : 1.0;
      for (std::size_t j = 0; j < n; ++j) sample.rhs[j] = res[j] * inv;
      timed_forward(*model_, sample, edge_caches_[i].get(), lane.dss, out);
      const double scale = options_.normalize_input ? norm : 1.0;
      for (std::size_t j = 0; j < n; ++j) {
        z[j] += scale * static_cast<double>(out[j]);
      }
      if (pass == steps) break;
      // res = r − A_i z for the next correction pass.
      topo->a_local.multiply(z, res);
      for (std::size_t j = 0; j < n; ++j) res[j] = r[j] - res[j];
    }
    sample.topo.reset();  // drop the shared ref; the rhs buffer stays warm
  }
}

namespace {

/// Shard plans retained per solver. Deflation walks the column count down
/// during a solve and repeated solve_many calls revisit the same counts, so
/// a handful of plans covers steady-state serving; each plan holds merged
/// topology copies, so the cache is deliberately small.
constexpr std::size_t kMaxShardPlans = 6;

}  // namespace

GnnSubdomainSolver::ShardPlan GnnSubdomainSolver::build_shards(
    la::Index s) const {
  const auto k = static_cast<la::Index>(topologies_.size());
  // Fallback subdomains (adaptive setup) are served by their Cholesky factor
  // outside the merged shards.
  auto sharded = [&](la::Index i) {
    return fallback_.empty() || fallback_[i] == nullptr;
  };
  long total_nodes = 0;
  la::Index sharded_parts = 0;
  for (la::Index i = 0; i < k; ++i) {
    if (!sharded(i)) continue;
    total_nodes += topologies_[i]->n;
    ++sharded_parts;
  }
  total_nodes *= s;
  const long ntasks = static_cast<long>(sharded_parts) * s;
  if (ntasks == 0) return ShardPlan{};
  const long by_budget = (total_nodes + kShardNodeBudget - 1) /
                         kShardNodeBudget;
  const long nshards =
      std::max<long>(1, std::min(ntasks,
                                 std::max<long>(by_budget, num_threads())));
  const long node_target = (total_nodes + nshards - 1) / nshards;

  ShardPlan plan;
  plan.shards.reserve(nshards);
  // Column-major task order so one shard holds whole subdomain groups of a
  // column before moving on; packing closes a shard at the node target.
  std::vector<ShardTask> tasks;
  long shard_nodes = 0;
  auto flush = [&]() {
    if (tasks.empty()) return;
    Shard shard;
    shard.tasks = std::move(tasks);
    std::vector<gnn::GraphSample> samples(shard.tasks.size());
    for (std::size_t t = 0; t < shard.tasks.size(); ++t) {
      samples[t].topo = topologies_[shard.tasks[t].part];
      samples[t].rhs.assign(samples[t].topo->n, 0.0);
      shard.tasks[t].slot = static_cast<la::Index>(t);
    }
    shard.batch = gnn::batch_samples(samples);
    plan.bytes += topology_bytes(*shard.batch.merged.topo) +
                  shard.batch.merged.rhs.size() * sizeof(double);
    if (model_->config().fast_inference) {
      shard.cache = std::make_shared<const gnn::DssEdgeCache>(
          model_->precompute_edges(*shard.batch.merged.topo));
      plan.bytes += shard.cache->bytes();
    }
    plan.shards.push_back(std::move(shard));
    tasks.clear();
    shard_nodes = 0;
  };
  for (la::Index j = 0; j < s; ++j) {
    for (la::Index i = 0; i < k; ++i) {
      if (!sharded(i)) continue;
      if (shard_nodes > 0 && shard_nodes + topologies_[i]->n > node_target) {
        flush();
      }
      tasks.push_back(ShardTask{i, j, 0});
      shard_nodes += topologies_[i]->n;
    }
  }
  flush();
  return plan;
}

std::shared_ptr<const GnnSubdomainSolver::ShardPlan>
GnnSubdomainSolver::plan_for(la::Index s) const {
  {
    std::shared_lock lock(plans_mutex_);
    for (const auto& [cols, plan] : plans_) {
      if (cols == s) return plan;
    }
  }
  std::unique_lock lock(plans_mutex_);
  for (const auto& [cols, plan] : plans_) {  // lost the build race?
    if (cols == s) return plan;
  }
  // Building under the writer lock serializes plan construction (stampede
  // safety: concurrent first-comers at one column count pay one build); the
  // read path above stays contention-free for warmed-up column counts.
  auto plan = std::make_shared<const ShardPlan>(build_shards(s));
  plans_.emplace_back(s, plan);
  if (plans_.size() > kMaxShardPlans) {
    // Evict the smallest column count EXCLUDING the plan just inserted —
    // small merges are the cheapest to rebuild, but evicting the newcomer
    // itself would make every iteration at its width a miss+rebuild.
    const auto smallest = std::min_element(
        plans_.begin(), plans_.end() - 1,
        [](const auto& a, const auto& b) { return a.first < b.first; });
    plans_.erase(smallest);  // in-flight users hold their shared_ptr
  }
  return plan;
}

std::size_t GnnSubdomainSolver::plan_cache_bytes() const {
  std::shared_lock lock(plans_mutex_);
  std::size_t bytes = 0;
  for (const auto& [cols, plan] : plans_) bytes += plan->bytes;
  return bytes;
}

void GnnSubdomainSolver::solve_all_block(
    const std::vector<la::MultiVector>& r_loc,
    std::vector<la::MultiVector>& z_loc, Workspace* ws) const {
  DDMGNN_CHECK(r_loc.size() == topologies_.size(),
               "GnnSubdomainSolver: block batch size mismatch");
  if (r_loc.empty()) return;
  GnnWorkspace& gws = workspace_of(ws);
  const int team = std::max(1, num_threads());  // once — see solve_all
  gws.ensure_lanes(team);
  const la::Index s = r_loc[0].cols();
  const std::shared_ptr<const ShardPlan> plan = plan_for(s);
  for (auto& z : z_loc) z.fill(0.0);

#pragma omp parallel for schedule(dynamic, 1) num_threads(team)
  for (long sh = 0; sh < static_cast<long>(plan->shards.size()); ++sh) {
    const Shard& shard = plan->shards[sh];
    GnnWorkspace::Lane& lane = gws.lane(omp_get_thread_num());
    const std::size_t nt = shard.tasks.size();
    // The shard's merged sample is shared read-only; the rhs channel of this
    // application lives in the lane (rebound topo + workspace-owned buffer).
    gnn::GraphSample& merged = lane.sample;
    merged.topo = shard.batch.merged.topo;
    merged.rhs.resize(shard.batch.merged.rhs.size());
    std::vector<float>& out = lane.out;
    lane.scale.assign(nt, 0.0);
    std::vector<double>& rhs = merged.rhs;
    // Adaptive setup gives every subdomain its own pass count; the shard
    // iterates to the largest one and tasks that are done contribute a zero
    // slice (and a zero scale), exactly like the below-threshold case.
    auto steps_for = [&](la::Index part) {
      return refine_steps_.empty() ? options_.refinement_steps
                                   : refine_steps_[part];
    };
    int shard_steps = 0;
    for (const ShardTask& task : shard.tasks) {
      shard_steps = std::max(shard_steps, steps_for(task.part));
    }
    if (shard_steps > 0) {
      lane.res.resize(nt);
    }
    for (int pass = 0; pass <= shard_steps; ++pass) {
      for (std::size_t t = 0; t < nt; ++t) {
        const ShardTask& task = shard.tasks[t];
        const la::Index n = topologies_[task.part]->n;
        const la::Index off = shard.batch.offsets[task.slot];
        if (pass > steps_for(task.part)) {
          lane.scale[t] = 0.0;
          std::fill(rhs.begin() + off, rhs.begin() + off + n, 0.0);
          continue;
        }
        const std::span<const double> cur =
            pass == 0 ? r_loc[task.part].col(task.column)
                      : std::span<const double>(lane.res[t]);
        const double norm = la::norm2(cur);
        if (norm <= options_.zero_threshold) {
          // Below threshold the scalar path stops refining this task; a zero
          // rhs slice (and zero scale) contributes exactly nothing here.
          lane.scale[t] = 0.0;
          std::fill(rhs.begin() + off, rhs.begin() + off + n, 0.0);
          continue;
        }
        const double inv = options_.normalize_input ? 1.0 / norm : 1.0;
        for (la::Index l = 0; l < n; ++l) rhs[off + l] = cur[l] * inv;
        lane.scale[t] = options_.normalize_input ? norm : 1.0;
      }
      timed_forward(*model_, merged, shard.cache.get(), lane.dss, out);
      for (std::size_t t = 0; t < nt; ++t) {
        const ShardTask& task = shard.tasks[t];
        const la::Index n = topologies_[task.part]->n;
        const la::Index off = shard.batch.offsets[task.slot];
        auto z = z_loc[task.part].col(task.column);
        for (la::Index l = 0; l < n; ++l) {
          z[l] += lane.scale[t] * static_cast<double>(out[off + l]);
        }
      }
      if (pass == shard_steps) break;
      for (std::size_t t = 0; t < nt; ++t) {
        const ShardTask& task = shard.tasks[t];
        if (pass >= steps_for(task.part)) continue;
        const auto& topo = topologies_[task.part];
        lane.res[t].resize(topo->n);
        topo->a_local.multiply(z_loc[task.part].col(task.column), lane.res[t]);
        const auto r = r_loc[task.part].col(task.column);
        for (la::Index l = 0; l < topo->n; ++l) {
          lane.res[t][l] = r[l] - lane.res[t][l];
        }
      }
    }
    merged.topo.reset();
  }

  if (fallback_count_ > 0) {
    // Exact-local-solve subdomains (adaptive setup) run outside the merged
    // shards: per (subdomain, column), copy the residual and sweep.
    std::vector<la::Index> fb;
    fb.reserve(static_cast<std::size_t>(fallback_count_));
    for (std::size_t i = 0; i < fallback_.size(); ++i) {
      if (fallback_[i] != nullptr) fb.push_back(static_cast<la::Index>(i));
    }
    const long nfb = static_cast<long>(fb.size()) * s;
#pragma omp parallel for schedule(dynamic, 1) num_threads(team)
    for (long t = 0; t < nfb; ++t) {
      const la::Index part = fb[static_cast<std::size_t>(t / s)];
      const auto col = static_cast<la::Index>(t % s);
      auto z = z_loc[part].col(col);
      const auto r = r_loc[part].col(col);
      for (std::size_t l = 0; l < z.size(); ++l) z[l] = r[l];
      if (options_.fp32_fallback) {
        fallback_[part]->solve_inplace_fp32(z);
      } else {
        fallback_[part]->solve_inplace(z);
      }
    }
  }
}

}  // namespace ddmgnn::core
