#include "gnn/dss_kernels.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/flags.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ddmgnn::gnn {

namespace {
constexpr long kEdgeGrain = 2048;  // per-edge kernels: rows per fork threshold
constexpr long kNodeGrain = 2048;  // per-node kernels
}  // namespace

void record_phase_profile(const DssPhaseProfile& prof, std::int64_t start_ns,
                          std::int64_t end_ns) {
  if (obs::metrics_enabled()) {
    // CPU time summed across concurrent forwards: the total can exceed the
    // wall-time asm.subdomain_solve_seconds that contains them.
    static obs::Gauge& projection =
        obs::Registry::instance().gauge("dss.projection_cpu_seconds");
    static obs::Gauge& aggregate =
        obs::Registry::instance().gauge("dss.aggregate_cpu_seconds");
    static obs::Gauge& update =
        obs::Registry::instance().gauge("dss.update_cpu_seconds");
    static obs::Gauge& decode =
        obs::Registry::instance().gauge("dss.decode_cpu_seconds");
    projection.add(prof.projection);
    aggregate.add(prof.aggregate);
    update.add(prof.update);
    decode.add(prof.decode);
  }
  if (!obs::trace_enabled()) return;
  obs::emit_span("dss.forward", start_ns, end_ns - start_ns);
  // The phases are measured independently and the loop interleaves them, so
  // the children are synthesized end-to-end from the forward's start: their
  // positions are schematic, their durations exact.
  struct Child {
    const char* name;
    double seconds;
  };
  const Child children[] = {{"dss.projection", prof.projection},
                            {"dss.aggregate", prof.aggregate},
                            {"dss.update", prof.update},
                            {"dss.decode", prof.decode}};
  std::int64_t at = start_ns;
  for (const Child& c : children) {
    const auto dur = static_cast<std::int64_t>(c.seconds * 1e9);
    if (dur <= 0) continue;
    obs::emit_span(c.name, at, dur);
    at += dur;
  }
}

void build_edge_inputs(const GraphTopology& topo, const nn::Tensor& h,
                       bool flip_direction, nn::Tensor& x) {
  const int d = h.cols;
  const Index ne = topo.num_edges();
  x.resize(ne, 2 * d + 3);
  const float sign = flip_direction ? -1.0f : 1.0f;
  for (Index e = 0; e < ne; ++e) {
    float* row = x.row(e);
    const float* hr = h.row(topo.recv[e]);
    const float* hs = h.row(topo.send[e]);
    for (int k = 0; k < d; ++k) row[k] = hr[k];
    for (int k = 0; k < d; ++k) row[d + k] = hs[k];
    const float* a = &topo.attr[static_cast<std::size_t>(e) * 3];
    row[2 * d + 0] = sign * a[0];
    row[2 * d + 1] = sign * a[1];
    row[2 * d + 2] = a[2];
  }
}

void aggregate_scatter(const GraphTopology& topo, const nn::Tensor& m,
                       Index n, nn::Tensor& phi) {
  const int d = m.cols;
  phi.resize(n, d);
  phi.zero();
  for (Index e = 0; e < topo.num_edges(); ++e) {
    float* dst = phi.row(topo.recv[e]);
    const float* src = m.row(e);
    for (int k = 0; k < d; ++k) dst[k] += src[k];
  }
}

void project_attr(const GraphTopology& topo, const float* w_fwd,
                  const float* b_fwd, const float* w_bwd, const float* b_bwd,
                  int ldw, int col0, int hidden, nn::Tensor& y) {
  const Index ne = topo.num_edges();
  const int out = 2 * hidden;
  y.resize(ne, out);
  if (ne == 0 || out == 0) return;
  // Pre-transpose the three attr weight columns of both MLPs, with Φ←'s
  // direction sign baked into its dx/dy rows, plus the biases, so the edge
  // loop is three fused broadcast-multiply-adds over unit-stride outputs.
  std::vector<float> wt(static_cast<std::size_t>(4) * out);
  for (int o = 0; o < hidden; ++o) {
    const float* wf = w_fwd + static_cast<std::size_t>(o) * ldw + col0;
    const float* wb = w_bwd + static_cast<std::size_t>(o) * ldw + col0;
    wt[o] = wf[0];
    wt[out + o] = wf[1];
    wt[2 * out + o] = wf[2];
    wt[3 * out + o] = b_fwd[o];
    wt[hidden + o] = -wb[0];
    wt[out + hidden + o] = -wb[1];
    wt[2 * out + hidden + o] = wb[2];
    wt[3 * out + hidden + o] = b_bwd[o];
  }
  const float* w0 = wt.data();
  const float* w1 = w0 + out;
  const float* w2 = w1 + out;
  const float* b = w2 + out;
  parallel_for(
      ne,
      [&](long e) {
        const float* a = &topo.attr[static_cast<std::size_t>(e) * 3];
        const float a0 = a[0];
        const float a1 = a[1];
        const float a2 = a[2];
        float* row = y.row(static_cast<int>(e));
#pragma omp simd
        for (int o = 0; o < out; ++o) {
          row[o] = b[o] + a0 * w0[o] + a1 * w1[o] + a2 * w2[o];
        }
      },
      kEdgeGrain);
}

void pack_dss_block(const float* params, const nn::Mlp& phi_fwd,
                    const nn::Mlp& phi_bwd, const nn::Mlp& psi, int latent,
                    int node_inputs, DssBlockPack& pack) {
  const int d = latent;
  const int in = node_inputs;
  const int hid = phi_fwd.l1().out_dim();
  const int ldw = phi_fwd.l1().in_dim();
  const int ld_psi = psi.l1().in_dim();
  DDMGNN_ASSERT(ldw == 2 * d + 3 && phi_bwd.l1().in_dim() == ldw &&
                phi_bwd.l1().out_dim() == hid && phi_fwd.out_dim() == d &&
                phi_bwd.out_dim() == d && ld_psi == 3 * d + in &&
                psi.l1().out_dim() == hid && psi.out_dim() == d);
  pack.latent = d;
  pack.hidden = hid;
  pack.node_inputs = in;

  // Pass-1 weights: rows [W_recv→ | W_recv← | W_send→ | W_send←].
  const float* w1f = phi_fwd.l1().weights(params);
  const float* w1b = phi_bwd.l1().weights(params);
  pack.proj.resize(static_cast<std::size_t>(4) * hid * d);
  const float* sources[4] = {w1f, w1b, w1f + d, w1b + d};
  for (int blk = 0; blk < 4; ++blk) {
    for (int r = 0; r < hid; ++r) {
      const float* src = sources[blk] + static_cast<std::size_t>(r) * ldw;
      float* dst =
          pack.proj.data() + (static_cast<std::size_t>(blk) * hid + r) * d;
      for (int c = 0; c < d; ++c) dst[c] = src[c];
    }
  }

  // Ψ's first layer, transposed, on [h, c, (flag), S→, S←, deg] (identity 3).
  const float* wp = psi.l1().weights(params);
  const float* w2f = phi_fwd.l2().weights(params);  // [d × hid]
  const float* w2b = phi_bwd.l2().weights(params);
  const float* b2f = phi_fwd.l2().bias(params);
  const float* b2b = phi_bwd.l2().bias(params);
  const int k_in = pack.update_inputs();
  const int ld1 = pack.psi1_ld();
  pack.psi1.assign(static_cast<std::size_t>(k_in) * ld1, 0.0f);
  float* psi1 = pack.psi1.data();
  for (int o = 0; o < hid; ++o) {
    const float* wo = wp + static_cast<std::size_t>(o) * ld_psi;
    for (int k = 0; k < d + in; ++k) {
      psi1[static_cast<std::size_t>(k) * ld1 + o] = wo[k];
    }
    const float* wphi[2] = {wo + d + in, wo + d + in + d};
    const float* w2[2] = {w2f, w2b};
    const float* b2[2] = {b2f, b2b};
    double beta = 0.0;
    for (int dir = 0; dir < 2; ++dir) {
      for (int m = 0; m < hid; ++m) {
        double c = 0.0;
        for (int t = 0; t < d; ++t) {
          c += static_cast<double>(wphi[dir][t]) *
               w2[dir][static_cast<std::size_t>(t) * hid + m];
        }
        const int row = d + in + dir * hid + m;
        psi1[static_cast<std::size_t>(row) * ld1 + o] = static_cast<float>(c);
      }
      for (int t = 0; t < d; ++t) {
        beta += static_cast<double>(wphi[dir][t]) * b2[dir][t];
      }
    }
    psi1[static_cast<std::size_t>(k_in - 1) * ld1 + o] =
        static_cast<float>(beta);
  }
  const float* bp = psi.l1().bias(params);
  pack.psi1_bias.assign(ld1, 0.0f);
  std::copy(bp, bp + hid, pack.psi1_bias.begin());

  // Ψ's second layer, transposed to [hid × d].
  const float* wq = psi.l2().weights(params);
  const int ld2 = pack.psi2_ld();
  pack.psi2.assign(static_cast<std::size_t>(hid) * ld2, 0.0f);
  for (int o = 0; o < d; ++o) {
    for (int m = 0; m < hid; ++m) {
      pack.psi2[static_cast<std::size_t>(m) * ld2 + o] =
          wq[static_cast<std::size_t>(o) * hid + m];
    }
  }
  const float* bq = psi.l2().bias(params);
  pack.psi2_bias.assign(ld2, 0.0f);
  std::copy(bq, bq + d, pack.psi2_bias.begin());
}

void aggregate_edge_mlps(const GraphTopology& topo, const nn::Tensor& proj,
                         const nn::Tensor& attr, nn::Tensor& msg_sum) {
  const Index n = topo.n;
  DDMGNN_CHECK(topo.recv_ptr.size() == static_cast<std::size_t>(n) + 1,
               "aggregate_edge_mlps: topology not finalized "
               "(call finalize_topology)");
  const int width = attr.cols;  // 2h: both directions side by side
  DDMGNN_ASSERT(width % 2 == 0 && proj.rows == n && proj.cols == 2 * width &&
                attr.rows == topo.num_edges());
  msg_sum.resize(n, width + 1);
  parallel_for(
      n,
      [&](long j) {
        float* acc = msg_sum.row(static_cast<int>(j));
        for (int k = 0; k <= width; ++k) acc[k] = 0.0f;
        // Every edge in node j's segment has recv[e] == j, so the receiver
        // projections of both MLPs are one row; the sender's are the other
        // half of its P row.
        const float* pr = proj.row(static_cast<int>(j));
        const la::Offset lo = topo.recv_ptr[j];
        const la::Offset hi = topo.recv_ptr[j + 1];
        for (la::Offset idx = lo; idx < hi; ++idx) {
          const Index e = topo.recv_order[idx];
          const float* ps = proj.row(topo.send[e]) + width;
          const float* ap = attr.row(e);
#pragma omp simd
          for (int k = 0; k < width; ++k) {
            const float v = pr[k] + ps[k] + ap[k];
            acc[k] += v > 0.0f ? v : 0.0f;
          }
        }
        acc[width] = static_cast<float>(hi - lo);
      },
      kNodeGrain);
}

namespace {

/// Output columns per register tile of the update pass (one 4-float simd
/// vector per node). The packed Ψ weights are zero-padded to a multiple of
/// it, so every tile runs at full width and only valid columns are stored.
constexpr int kTile = DssBlockPack::kTile;

/// One input segment into a tile of R nodes: acc[b][c] += x_b[k]·w[k·ld + c]
/// for k < count. Each output keeps the order bias, then inputs in sequence,
/// whatever R is.
template <int R>
inline void tile_segment(const float* const (&x)[R], int count,
                         const float* w, int ld, float (&acc)[R][kTile]) {
  for (int k = 0; k < count; ++k) {
    const float* wk = w + static_cast<std::size_t>(k) * ld;
    for (int b = 0; b < R; ++b) {
      const float a = x[b][k];
#pragma omp simd
      for (int c = 0; c < kTile; ++c) acc[b][c] += a * wk[c];
    }
  }
}

template <int R>
inline void tile_init(const float* bias, float (&acc)[R][kTile]) {
  for (int b = 0; b < R; ++b) {
    for (int c = 0; c < kTile; ++c) acc[b][c] = bias[c];
  }
}

/// Pass 3 on the R consecutive nodes starting at j0.
template <int R>
void update_rows(const GraphTopology& topo, std::span<const double> rhs,
                 const DssBlockPack& pack, float alpha, const nn::Tensor& h,
                 const nn::Tensor& msg_sum, nn::Tensor& hidden,
                 nn::Tensor& h_next, Index j0) {
  const int d = pack.latent;
  const int hid = pack.hidden;
  const int in = pack.node_inputs;
  const int ld1 = pack.psi1_ld();
  const int ld2 = pack.psi2_ld();
  const float* w_h = pack.psi1.data();  // rows of h_j
  const float* w_node = w_h + static_cast<std::size_t>(d) * ld1;  // c, flag
  const float* w_msg = w_node + static_cast<std::size_t>(in) * ld1;
  const float* x_h[R];
  const float* x_node[R];
  const float* x_msg[R];
  const float* x_hid[R];
  float node[R][2];  // [c_j, flag_j]
  for (int b = 0; b < R; ++b) {
    const Index j = j0 + b;
    node[b][0] = static_cast<float>(rhs[j]);
    node[b][1] = in == 2 && topo.dirichlet[j] ? 1.0f : 0.0f;
    x_h[b] = h.row(j);
    x_node[b] = node[b];
    x_msg[b] = msg_sum.row(j);
    x_hid[b] = hidden.row(j);
  }
  // Ψ's first layer on [h_j, c_j, (flag_j), S→_j, S←_j, deg_j], then ReLU.
  for (int t = 0; t < hid; t += kTile) {
    float acc[R][kTile];
    tile_init<R>(pack.psi1_bias.data() + t, acc);
    tile_segment<R>(x_h, d, w_h + t, ld1, acc);
    tile_segment<R>(x_node, in, w_node + t, ld1, acc);
    tile_segment<R>(x_msg, 2 * hid + 1, w_msg + t, ld1, acc);
    const int valid = std::min(kTile, hid - t);
    for (int b = 0; b < R; ++b) {
      float* y = hidden.row(j0 + b) + t;
      for (int c = 0; c < valid; ++c) {
        y[c] = acc[b][c] > 0.0f ? acc[b][c] : 0.0f;
      }
    }
  }
  // Ψ's second layer u, then the ResNet step h_next = h + α·u.
  for (int t = 0; t < d; t += kTile) {
    float acc[R][kTile];
    tile_init<R>(pack.psi2_bias.data() + t, acc);
    tile_segment<R>(x_hid, hid, pack.psi2.data() + t, ld2, acc);
    const int valid = std::min(kTile, d - t);
    for (int b = 0; b < R; ++b) {
      const float* hj = x_h[b] + t;
      float* out = h_next.row(j0 + b) + t;
      for (int c = 0; c < valid; ++c) out[c] = hj[c] + alpha * acc[b][c];
    }
  }
}

}  // namespace

void update_nodes(const GraphTopology& topo, std::span<const double> rhs,
                  const DssBlockPack& pack, float alpha, const nn::Tensor& h,
                  const nn::Tensor& msg_sum, nn::Tensor& hidden,
                  nn::Tensor& h_next) {
  const Index n = topo.n;
  const int d = pack.latent;
  const int hid = pack.hidden;
  DDMGNN_ASSERT(h.rows == n && h.cols == d && msg_sum.rows == n &&
                msg_sum.cols == 2 * hid + 1 &&
                rhs.size() == static_cast<std::size_t>(n) &&
                (pack.node_inputs == 1 || pack.node_inputs == 2));
  hidden.resize(n, hid);
  h_next.resize(n, d);
  const long blocks = (static_cast<long>(n) + 3) / 4;
  parallel_for(
      blocks,
      [&](long blk) {
        const auto j0 = static_cast<Index>(blk * 4);
        if (j0 + 4 <= n) {
          update_rows<4>(topo, rhs, pack, alpha, h, msg_sum, hidden, h_next,
                         j0);
          return;
        }
        for (Index j = j0; j < n; ++j) {  // tail of fewer than 4 nodes
          update_rows<1>(topo, rhs, pack, alpha, h, msg_sum, hidden, h_next,
                         j);
        }
      },
      kNodeGrain / 4);
}

}  // namespace ddmgnn::gnn
