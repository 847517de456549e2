#include "gnn/dss_kernels.hpp"

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

void project_attr(const GraphTopology& topo, const float* w, int ldw,
                  int col0, const float* b, float sign, int out,
                  nn::Tensor& y) {
  const Index ne = topo.num_edges();
  y.resize(ne, out);
  if (ne == 0 || out == 0) return;
  // Pre-transpose the three attr weight columns with the direction sign
  // baked into the dx/dy rows, so the edge loop is three fused
  // broadcast-multiply-adds over unit-stride outputs.
  thread_local std::vector<float> wt;
  wt.resize(static_cast<std::size_t>(3) * out);
  for (int o = 0; o < out; ++o) {
    const float* wo = w + static_cast<std::size_t>(o) * ldw + col0;
    wt[o] = sign * wo[0];
    wt[out + o] = sign * wo[1];
    wt[2 * static_cast<std::size_t>(out) + o] = wo[2];
  }
  const float* w0 = wt.data();
  const float* w1 = w0 + out;
  const float* w2 = w1 + out;
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

void aggregate_edge_mlp(const GraphTopology& topo, const nn::Tensor& p_recv,
                        const nn::Tensor& p_send, const nn::Tensor& attr_proj,
                        const float* w2, const float* b2, int out,
                        nn::Tensor& act_sum, nn::Tensor& phi) {
  const Index n = topo.n;
  DDMGNN_CHECK(topo.recv_ptr.size() == static_cast<std::size_t>(n) + 1,
               "aggregate_edge_mlp: topology not finalized "
               "(call finalize_topology)");
  const int hid = p_recv.cols;
  DDMGNN_ASSERT(p_send.cols == hid && attr_proj.cols == hid &&
                attr_proj.rows == topo.num_edges());
  act_sum.resize(n, hid);
  phi.resize(n, out);
  if (n == 0 || out == 0) return;
  // W₂ transposed to [hid × out], so the per-node product below is hid
  // broadcast-multiply-adds over unit-stride outputs.
  std::vector<float> wt(static_cast<std::size_t>(hid) * out);
  for (int o = 0; o < out; ++o) {
    const float* wo = w2 + static_cast<std::size_t>(o) * hid;
    for (int k = 0; k < hid; ++k) {
      wt[static_cast<std::size_t>(k) * out + o] = wo[k];
    }
  }
  const float* wtp = wt.data();
  parallel_for(
      n,
      [&](long j) {
        float* dst = phi.row(static_cast<int>(j));
        const la::Offset lo = topo.recv_ptr[j];
        const la::Offset hi = topo.recv_ptr[j + 1];
        if (lo == hi) {  // no in-edges (Dirichlet receiver): φ_j = 0
          for (int o = 0; o < out; ++o) dst[o] = 0.0f;
          return;
        }
        // Σ_e a_e over node j's segment, in recv_order. Every edge in the
        // segment has recv[e] == j, so the receiver projection is one row.
        float* acc = act_sum.row(static_cast<int>(j));
        for (int k = 0; k < hid; ++k) acc[k] = 0.0f;
        const float* pr = p_recv.row(static_cast<int>(j));
        for (la::Offset idx = lo; idx < hi; ++idx) {
          const Index e = topo.recv_order[idx];
          const float* ps = p_send.row(topo.send[e]);
          const float* ap = attr_proj.row(e);
#pragma omp simd
          for (int k = 0; k < hid; ++k) {
            const float v = pr[k] + ps[k] + ap[k];
            acc[k] += v > 0.0f ? v : 0.0f;
          }
        }
        // φ_j = W₂·acc + deg_j·b₂.
        const auto deg = static_cast<float>(hi - lo);
        for (int o = 0; o < out; ++o) dst[o] = deg * b2[o];
        for (int k = 0; k < hid; ++k) {
          const float a = acc[k];
          const float* wk = wtp + static_cast<std::size_t>(k) * out;
#pragma omp simd
          for (int o = 0; o < out; ++o) dst[o] += a * wk[o];
        }
      },
      kNodeGrain);
}

}  // namespace ddmgnn::gnn
