#include "gnn/dss_model.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "gnn/dss_kernels.hpp"

namespace ddmgnn::gnn {

DssModel::DssModel(DssConfig cfg, std::uint64_t seed) : cfg_(cfg) {
  DDMGNN_CHECK(cfg_.iterations >= 1 && cfg_.latent >= 1 && cfg_.hidden >= 1,
               "DssModel: bad config");
  blocks_.reserve(cfg_.iterations);
  for (int k = 0; k < cfg_.iterations; ++k) {
    Block b;
    b.phi_fwd = nn::Mlp(store_, cfg_.message_input_dim(), cfg_.hidden,
                        cfg_.latent);
    b.phi_bwd = nn::Mlp(store_, cfg_.message_input_dim(), cfg_.hidden,
                        cfg_.latent);
    b.psi = nn::Mlp(store_, cfg_.update_input_dim(), cfg_.hidden, cfg_.latent);
    b.dec = nn::Mlp(store_, cfg_.latent, cfg_.hidden, 1);
    blocks_.push_back(b);
  }
  store_.finalize();
  Rng rng(seed ^ 0x8BADF00DCAFEBABEull);
  for (const Block& b : blocks_) {
    b.phi_fwd.init(store_.values(), rng);
    b.phi_bwd.init(store_.values(), rng);
    b.psi.init(store_.values(), rng);
    b.dec.init(store_.values(), rng);
  }
}

void DssModel::run_forward(const GraphSample& g, DssWorkspace& ws,
                           bool keep_all_decodes) const {
  const GraphTopology& topo = *g.topo;
  const Index n = topo.n;
  const int d = cfg_.latent;
  const int in_dim = cfg_.node_input_dim();
  const float* p = store_.data();

  ws.h.resize(cfg_.iterations + 1);
  ws.iters.resize(cfg_.iterations);
  ws.h[0].resize(n, d);
  ws.h[0].zero();

  for (int k = 0; k < cfg_.iterations; ++k) {
    const Block& blk = blocks_[k];
    auto& st = ws.iters[k];
    const nn::Tensor& h = ws.h[k];

    build_edge_inputs(topo, h, /*flip=*/false, st.x_fwd);
    blk.phi_fwd.forward(p, st.x_fwd, st.m_fwd, st.c_fwd);
    aggregate_scatter(topo, st.m_fwd, n, st.phi_fwd);

    build_edge_inputs(topo, h, /*flip=*/true, st.x_bwd);
    blk.phi_bwd.forward(p, st.x_bwd, st.m_bwd, st.c_bwd);
    aggregate_scatter(topo, st.m_bwd, n, st.phi_bwd);

    // Ψ input: [h, c (, dirichlet flag), φ→, φ←].
    st.x_psi.resize(n, cfg_.update_input_dim());
    for (Index i = 0; i < n; ++i) {
      float* row = st.x_psi.row(i);
      const float* hi = h.row(i);
      for (int kk = 0; kk < d; ++kk) row[kk] = hi[kk];
      row[d] = static_cast<float>(g.rhs[i]);
      if (in_dim == 2) row[d + 1] = topo.dirichlet[i] ? 1.0f : 0.0f;
      const float* pf = st.phi_fwd.row(i);
      const float* pb = st.phi_bwd.row(i);
      for (int kk = 0; kk < d; ++kk) row[d + in_dim + kk] = pf[kk];
      for (int kk = 0; kk < d; ++kk) row[d + in_dim + d + kk] = pb[kk];
    }
    blk.psi.forward(p, st.x_psi, st.u, st.c_psi);

    ws.h[k + 1].resize(n, d);
    for (std::size_t i = 0; i < ws.h[k].size(); ++i) {
      ws.h[k + 1].d[i] = ws.h[k].d[i] + cfg_.alpha * st.u.d[i];
    }
    if (keep_all_decodes || k == cfg_.iterations - 1) {
      blk.dec.forward(p, ws.h[k + 1], st.rhat, st.c_dec);
    }
  }
}

DssEdgeCache DssModel::precompute_edges(const GraphTopology& topo) const {
  DssEdgeCache cache;
  cache.attr.resize(cfg_.iterations);
  for (int k = 0; k < cfg_.iterations; ++k) {
    project_block_attr(topo, k, cache.attr[k]);
  }
  return cache;
}

void DssModel::project_block_attr(const GraphTopology& topo, int k,
                                  nn::Tensor& attr) const {
  const float* p = store_.data();
  const nn::Linear& l1f = blocks_[k].phi_fwd.l1();
  const nn::Linear& l1b = blocks_[k].phi_bwd.l1();
  project_attr(topo, l1f.weights(p), l1f.bias(p), l1b.weights(p),
               l1b.bias(p), cfg_.message_input_dim(), /*col0=*/2 * cfg_.latent,
               cfg_.hidden, attr);
}

void DssModel::run_forward_fast(const GraphSample& g, const DssEdgeCache* cache,
                                DssWorkspace& ws,
                                DssPhaseProfile* profile) const {
  const GraphTopology& topo = *g.topo;
  DDMGNN_CHECK(topo.recv_ptr.size() == static_cast<std::size_t>(topo.n) + 1,
               "DssModel: fast inference requires a finalized topology "
               "(finalize_topology builds the receiver-CSR index)");
  DDMGNN_CHECK(cache == nullptr ||
                   (cache->attr.size() ==
                        static_cast<std::size_t>(cfg_.iterations) &&
                    cache->attr[0].rows == topo.num_edges() &&
                    cache->attr[0].cols == 2 * cfg_.hidden),
               "DssModel: edge cache does not match the model depth and the "
               "sample's topology (caches are per (topology, model) pair)");
  const Index n = topo.n;
  const int d = cfg_.latent;
  const int hid = cfg_.hidden;
  const float* p = store_.data();
  auto& f = ws.fast;

  Timer phase_timer;
  auto tic = [&] {
    if (profile != nullptr) phase_timer.reset();
  };
  auto toc = [&](double DssPhaseProfile::*slot) {
    if (profile != nullptr) profile->*slot += phase_timer.seconds();
  };

  f.h_cur.resize(n, d);
  f.h_cur.zero();

  // Each block is three passes over nodes (dss_kernels.hpp).
  for (int k = 0; k < cfg_.iterations; ++k) {
    const Block& blk = blocks_[k];
    tic();
    pack_dss_block(p, blk.phi_fwd, blk.phi_bwd, blk.psi, d,
                   cfg_.node_input_dim(), f.pack);
    if (k == 0) {
      // H⁰ = 0 ⇒ every node projection is exactly zero; skip the GEMM.
      f.proj.resize(n, 4 * hid);
      f.proj.zero();
    } else {
      nn::fused_gemm(f.pack.proj.data(), d, /*col0=*/0, 4 * hid,
                     /*b=*/nullptr, /*relu=*/false, f.h_cur, f.proj);
    }
    const nn::Tensor* attr = &f.attr_scratch;
    if (cache != nullptr) {
      attr = &cache->attr[k];
    } else {
      project_block_attr(topo, k, f.attr_scratch);
    }
    toc(&DssPhaseProfile::projection);

    tic();
    aggregate_edge_mlps(topo, f.proj, *attr, f.msg_sum);
    toc(&DssPhaseProfile::aggregate);

    tic();
    update_nodes(topo, g.rhs, f.pack, cfg_.alpha, f.h_cur, f.msg_sum,
                 f.hidden, f.h_next);
    std::swap(f.h_cur, f.h_next);
    toc(&DssPhaseProfile::update);
  }

  tic();
  blocks_.back().dec.infer(p, f.h_cur, f.rhat, f.hidden);
  toc(&DssPhaseProfile::decode);
}

void DssModel::forward(const GraphSample& g, const DssEdgeCache* cache,
                       DssWorkspace& ws, std::vector<float>& out,
                       DssPhaseProfile* profile) const {
  if (cfg_.fast_inference) {
    run_forward_fast(g, cache, ws, profile);
    out.assign(ws.fast.rhat.d.begin(), ws.fast.rhat.d.end());
    return;
  }
  run_forward(g, ws, /*keep_all_decodes=*/false);
  const nn::Tensor& rhat = ws.iters.back().rhat;
  out.assign(rhat.d.begin(), rhat.d.end());
}

void DssModel::forward(const GraphSample& g, DssWorkspace& ws,
                       std::vector<float>& out) const {
  forward(g, /*cache=*/nullptr, ws, out, /*profile=*/nullptr);
}

double DssModel::residual_loss(const GraphTopology& topo,
                               std::span<const double> rhs,
                               const nn::Tensor& rhat,
                               std::vector<double>& residual) const {
  const Index n = topo.n;
  residual.resize(n);
  const auto rp = topo.a_local.row_ptr();
  const auto ci = topo.a_local.col_idx();
  const auto va = topo.a_local.values();
  double loss = 0.0;
  for (Index i = 0; i < n; ++i) {
    double acc = -rhs[i];
    for (la::Offset e = rp[i]; e < rp[i + 1]; ++e) {
      acc += va[e] * static_cast<double>(rhat.d[ci[e]]);
    }
    residual[i] = acc;
    loss += acc * acc;
  }
  return loss / static_cast<double>(n);
}

double DssModel::final_residual_loss(const GraphSample& g,
                                     DssWorkspace& ws) const {
  run_forward(g, ws, /*keep_all_decodes=*/false);
  std::vector<double> residual;
  return residual_loss(*g.topo, g.rhs, ws.iters.back().rhat, residual);
}

double DssModel::loss_and_gradient(const GraphSample& g, DssWorkspace& ws,
                                   float* grads) const {
  const GraphTopology& topo = *g.topo;
  const Index n = topo.n;
  const int d = cfg_.latent;
  const int in_dim = cfg_.node_input_dim();
  const float* p = store_.data();

  run_forward(g, ws, /*keep_all_decodes=*/true);

  // Forward losses (also caches residual vectors for the backward pass).
  double total_loss = 0.0;
  for (int k = 0; k < cfg_.iterations; ++k) {
    total_loss +=
        residual_loss(topo, g.rhs, ws.iters[k].rhat, ws.iters[k].residual);
  }

  // Reverse sweep. dh holds ∂L/∂H^{k+1} entering iteration k.
  ws.dh.resize(n, d);
  ws.dh.zero();
  for (int k = cfg_.iterations - 1; k >= 0; --k) {
    const Block& blk = blocks_[k];
    auto& st = ws.iters[k];

    // Loss at decode k: dL/dr̂ = (2/n)·Aᵀ·residual, then through the decoder
    // into dh (gradients w.r.t. H^{k+1}).
    {
      std::vector<double> at_res(n, 0.0);
      const auto rp = topo.a_local.row_ptr();
      const auto ci = topo.a_local.col_idx();
      const auto va = topo.a_local.values();
      for (Index i = 0; i < n; ++i) {
        const double ri = st.residual[i];
        for (la::Offset e = rp[i]; e < rp[i + 1]; ++e) {
          at_res[ci[e]] += va[e] * ri;
        }
      }
      ws.drhat.resize(n, 1);
      const double scale = 2.0 / static_cast<double>(n);
      for (Index i = 0; i < n; ++i) {
        ws.drhat.d[i] = static_cast<float>(scale * at_res[i]);
      }
      nn::Tensor dh_dec;
      blk.dec.backward(p, ws.h[k + 1], st.c_dec, ws.drhat, &dh_dec, grads);
      for (std::size_t i = 0; i < ws.dh.size(); ++i) {
        ws.dh.d[i] += dh_dec.d[i];
      }
    }

    // ResNet split: H^{k+1} = H^k + α U ⇒ dU = α·dh, identity part -> dh_next.
    ws.du.resize(n, d);
    for (std::size_t i = 0; i < ws.du.size(); ++i) {
      ws.du.d[i] = cfg_.alpha * ws.dh.d[i];
    }
    ws.dh_next = ws.dh;  // identity path

    // Ψ backward.
    blk.psi.backward(p, st.x_psi, st.c_psi, ws.du, &ws.dx_psi, grads);
    // Slice dx_psi = [dH | dc(,dflag) | dφ→ | dφ←].
    ws.dphi_fwd.resize(n, d);
    ws.dphi_bwd.resize(n, d);
    for (Index i = 0; i < n; ++i) {
      const float* row = ws.dx_psi.row(i);
      float* dhn = ws.dh_next.row(i);
      for (int kk = 0; kk < d; ++kk) dhn[kk] += row[kk];
      float* df = ws.dphi_fwd.row(i);
      float* db = ws.dphi_bwd.row(i);
      for (int kk = 0; kk < d; ++kk) df[kk] = row[d + in_dim + kk];
      for (int kk = 0; kk < d; ++kk) db[kk] = row[d + in_dim + d + kk];
    }

    // Message MLPs backward: dM[e] = dφ[recv[e]]; input grads flow to both
    // endpoint latent states.
    const Index ne = topo.num_edges();
    for (const bool flip : {false, true}) {
      const nn::Tensor& dphi = flip ? ws.dphi_bwd : ws.dphi_fwd;
      const nn::Tensor& x_edge = flip ? st.x_bwd : st.x_fwd;
      const nn::Mlp::Cache& cache = flip ? st.c_bwd : st.c_fwd;
      const nn::Mlp& mlp = flip ? blk.phi_bwd : blk.phi_fwd;
      ws.dm.resize(ne, d);
      for (Index e = 0; e < ne; ++e) {
        const float* src = dphi.row(topo.recv[e]);
        float* dst = ws.dm.row(e);
        for (int kk = 0; kk < d; ++kk) dst[kk] = src[kk];
      }
      mlp.backward(p, x_edge, cache, ws.dm, &ws.dx_edge, grads);
      for (Index e = 0; e < ne; ++e) {
        const float* row = ws.dx_edge.row(e);
        float* dr = ws.dh_next.row(topo.recv[e]);
        float* dsnd = ws.dh_next.row(topo.send[e]);
        for (int kk = 0; kk < d; ++kk) dr[kk] += row[kk];
        for (int kk = 0; kk < d; ++kk) dsnd[kk] += row[d + kk];
      }
    }
    std::swap(ws.dh, ws.dh_next);
  }
  return total_loss;
}

}  // namespace ddmgnn::gnn
