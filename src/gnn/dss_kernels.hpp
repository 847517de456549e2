// Inference kernels of the factorized DSS engine, plus the scalar reference
// implementations they are tested against.
//
// Three exact identities (exact in real arithmetic; in float they differ from
// the reference only by rounding) turn the edge MLPs into node-level work.
//
// 1. Split the first layer. The first layer of an edge MLP computes
//    [h_recv | h_send | ±attr] · W₁ᵀ + b₁ over all ne edges. Split
//    W₁ = [W_recv | W_send | W_attr] by column block and the per-edge GEMM
//    becomes
//
//      pre[e] = (H·W_recvᵀ)[recv[e]] + (H·W_sendᵀ)[send[e]] + (attr·W_attrᵀ + b₁)[e]
//
//    i.e. node GEMMs on node states (instead of one ne×(2d+3) GEMM on a
//    materialized edge-input matrix) plus a per-edge gather-sum. The attr
//    term depends only on edge geometry and frozen model parameters, so it
//    is precomputed once per (topology, model) pair — DssEdgeCache — and
//    reused across every apply of every solve.
//
// 2. Aggregate, then project. The second layer is linear and aggregation is
//    a sum, so with a_e = ReLU(pre[e]), S_j = Σ_{e→j} a_e and deg_j the
//    in-degree of node j
//
//      φ_j = Σ_{e→j} (W₂·a_e + b₂) = W₂·S_j + deg_j·b₂.
//
//    The per-edge work shrinks to gather, add, ReLU and accumulate (ne·h).
//
// 3. Fold the second layer into Ψ. Ψ's first layer reads φ→ and φ← through
//    its column blocks W_ψφ→ and W_ψφ←, and identity 2 makes both linear in
//    (S_j, deg_j):
//
//      W_ψφ→·φ→_j = (W_ψφ→·W₂→)·S→_j + deg_j·(W_ψφ→·b₂→)     (likewise ←).
//
//    The composed h×h matrices and the β = W_ψφ→·b₂→ + W_ψφ←·b₂← vector are
//    packed once per block and forward call (pack_dss_block: 2h²d
//    multiply-adds per block, noise next to the inference), so Ψ's first
//    layer runs directly on [h_j, c_j, flag_j, S→_j, S←_j, deg_j] and no φ
//    is ever formed. Nothing is cached across calls, so parameter updates
//    need no invalidation.
//
// With these, one message-passing block is three passes over nodes:
//   1. projection: one GEMM P = H·W_projᵀ (n × 4h) on the stacked rows
//      [W_recv→ | W_recv← | W_send→ | W_send←];
//   2. aggregate: one receiver-CSR walk gathers both edge MLPs,
//      S_j = [Σ ReLU(P_j,recv→ + P_s,send→ + attr→_e) | … ← …] and deg_j
//      (aggregate_edge_mlps);
//   3. update: Ψ (identity 3 folded in) and the ResNet step, 4 nodes at a
//      time (update_nodes).
// Both per-node passes walk nodes in parallel with no atomics and a fixed
// per-node arithmetic order, so results are bitwise identical at any thread
// count. Every buffer is sized from the model widths (DssWorkspace); the
// only fixed-size locals are register tiles, so no width is capped.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gnn/graph.hpp"
#include "nn/mlp.hpp"
#include "nn/tensor.hpp"

namespace ddmgnn::gnn {

/// Precomputed attr-column projections of the edge MLPs' first layers: per
/// message-passing block k, attr[k] is the ne × 2·hidden matrix whose row e
/// is [attr_e·W_attr→ᵀ + b₁→ | attr'_e·W_attr←ᵀ + b₁←] — the plain (Φ→) and
/// sign-flipped (Φ←) edge attributes side by side, the layout
/// aggregate_edge_mlps reads. Valid as long as both the topology and the
/// model parameters are unchanged (frozen trained models at inference time).
struct DssEdgeCache {
  std::vector<nn::Tensor> attr;

  std::size_t bytes() const {
    std::size_t b = 0;
    for (const auto& t : attr) b += t.size() * sizeof(float);
    return b;
  }
};

/// Wall-clock seconds per phase of one (or many, accumulated) fast forward
/// passes — the bench_precond_apply breakdown.
struct DssPhaseProfile {
  double projection = 0.0;  ///< pass 1: weight packing + the stacked node GEMM
  /// Always 0 on the fast path: aggregate_edge_mlps fuses the per-edge
  /// gather into its reduction, so that time lands on `aggregate`. The slot
  /// stays so profile consumers keep their five-phase layout.
  double gather = 0.0;
  double aggregate = 0.0;   ///< pass 2: aggregate_edge_mlps
  double update = 0.0;      ///< pass 3: update_nodes (Ψ + ResNet step)
  double decode = 0.0;      ///< decoder MLP

  double total() const {
    return projection + gather + aggregate + update + decode;
  }
  DssPhaseProfile& operator+=(const DssPhaseProfile& o) {
    projection += o.projection;
    gather += o.gather;
    aggregate += o.aggregate;
    update += o.update;
    decode += o.decode;
    return *this;
  }
};

/// Telemetry bridge: fold one measured forward pass into the obs layer — a
/// "dss.forward" span over [start_ns, end_ns) with the non-zero phases laid
/// end-to-end as child spans (when tracing), and per-phase
/// dss.*_cpu_seconds gauges (when metrics are on). Concurrent forwards each
/// add their own phase times, so the gauges hold CPU time summed across
/// threads, not wall time. The profile is only filled by the fast path; a
/// zero total() still emits the parent span so wall-time coverage holds on
/// the reference path. Safe to call from OpenMP worker threads.
void record_phase_profile(const DssPhaseProfile& prof, std::int64_t start_ns,
                          std::int64_t end_ns);

/// Reference edge-input assembly: row e = [h_recv, h_send, ±dx, ±dy, dist].
void build_edge_inputs(const GraphTopology& topo, const nn::Tensor& h,
                       bool flip_direction, nn::Tensor& x);

/// Reference aggregation: phi[recv[e]] += m[e], serial scatter in edge order.
void aggregate_scatter(const GraphTopology& topo, const nn::Tensor& m,
                       Index n, nn::Tensor& phi);

/// Attr-column projections of both edge MLPs, side by side (the
/// DssEdgeCache layout): y[e, 0:h) = [dx, dy, dist]·W_attr→ᵀ + b→ and
/// y[e, h:2h) = [−dx, −dy, dist]·W_attr←ᵀ + b←, where W_attr is columns
/// [col0, col0+3) of the row-major [h × ldw] first-layer weights `w_fwd` /
/// `w_bwd`. The biases are folded in here so the gather kernel is pure adds.
void project_attr(const GraphTopology& topo, const float* w_fwd,
                  const float* b_fwd, const float* w_bwd, const float* b_bwd,
                  int ldw, int col0, int hidden, nn::Tensor& y);

/// One message-passing block's parameters packed for the three-pass kernels
/// (h = hidden, d = latent, in = node input channels).
struct DssBlockPack {
  int latent = 0;
  int hidden = 0;
  int node_inputs = 0;
  /// [4h × d] row-major: the node-state columns of the edge MLPs' first
  /// layers stacked as [W_recv→ | W_recv← | W_send→ | W_send←] — the weight
  /// matrix of the pass-1 GEMM.
  std::vector<float> proj;
  /// [(d + in + 2h + 1) × psi1_ld()]: Ψ's first layer transposed, with
  /// identity 3 folded in, so row k holds the weights of input k of
  /// [h_j, c_j, (flag_j), S→_j, S←_j, deg_j]. Columns past h are zero.
  std::vector<float> psi1;
  std::vector<float> psi1_bias;  ///< psi1_ld(), zero past h
  std::vector<float> psi2;       ///< [h × psi2_ld()]: Ψ's second layer transposed
  std::vector<float> psi2_bias;  ///< psi2_ld(), zero past d

  /// Ψ's rows are padded to whole register tiles of kTile columns, so the
  /// update kernel never runs a partial-width simd loop.
  static constexpr int kTile = 4;
  int update_inputs() const { return latent + node_inputs + 2 * hidden + 1; }
  int psi1_ld() const { return (hidden + kTile - 1) / kTile * kTile; }
  int psi2_ld() const { return (latent + kTile - 1) / kTile * kTile; }
};

/// Pack one block's Φ→, Φ← and Ψ (1-hidden-layer MLPs over `params`) for the
/// fast kernels. Identity 3's compositions are accumulated in double and
/// rounded once. `node_inputs` is the number of node channels between h_j
/// and φ→_j in Ψ's input (1 = rhs only, 2 = rhs + Dirichlet flag).
void pack_dss_block(const float* params, const nn::Mlp& phi_fwd,
                    const nn::Mlp& phi_bwd, const nn::Mlp& psi, int latent,
                    int node_inputs, DssBlockPack& pack);

/// Pass 2: both edge MLPs gathered in one receiver-CSR walk. `proj` is the
/// n × 4h pass-1 output, `attr` the ne × 2h attr projections. Writes
/// msg_sum[j] = [S→_j (h) | S←_j (h) | deg_j] (n × (2h+1)), where
/// S_j = Σ_{e→j} ReLU(P_j,recv + P_send[e],send + attr_e) per direction, in
/// recv_order. Receivers without in-edges (Dirichlet nodes) get an all-zero
/// row. Parallel over nodes; bitwise identical at any thread count.
/// Requires finalize_topology().
void aggregate_edge_mlps(const GraphTopology& topo, const nn::Tensor& proj,
                         const nn::Tensor& attr, nn::Tensor& msg_sum);

/// Pass 3: h_next = h + α·Ψ(h, c, flag, φ→, φ←) with Ψ evaluated through
/// the packed weights on [h_j, c_j, (flag_j), msg_sum_j] (identity 3).
/// `hidden` is n × h scratch. Nodes run in fixed 4-node blocks (plus a
/// single-node tail), parallel over blocks; bitwise identical at any thread
/// count.
void update_nodes(const GraphTopology& topo, std::span<const double> rhs,
                  const DssBlockPack& pack, float alpha, const nn::Tensor& h,
                  const nn::Tensor& msg_sum, nn::Tensor& hidden,
                  nn::Tensor& h_next);

}  // namespace ddmgnn::gnn
