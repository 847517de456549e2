// In-memory span log and the timing decorators the traced run wraps around
// the library's public seams. Nothing here reaches into the library: every
// decorator implements a public interface (Preconditioner, SubdomainSolver,
// CoarseComponent) and forwards to the real object, so the decorated stack
// does exactly the arithmetic of the undecorated one.
//
// A span is (name, start, end, parent, request). Parents come from a
// per-thread stack, so a span opened inside another on the same thread
// nests under it; spans are appended under a mutex when they close and are
// only read once the traced phase is over.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "partition/coarse_component.hpp"
#include "precond/preconditioner.hpp"
#include "precond/subdomain_solver.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t id;
  std::int64_t parent;  // -1 for a root span
  std::int64_t request;
};

class SpanLog {
 public:
  static SpanLog& instance() {
    static SpanLog log;
    return log;
  }

  /// RAII span. A no-op unless the log is enabled.
  class Scope {
   public:
    explicit Scope(const char* name) {
      SpanLog& log = instance();
      if (!log.enabled_.load(std::memory_order_relaxed)) return;
      span_.name = name;
      span_.id = log.next_id_++;
      span_.parent = current();
      span_.request = request();
      current() = span_.id;
      span_.start_ns = now_ns();
      active_ = true;
    }
    ~Scope() {
      if (!active_) return;
      span_.end_ns = now_ns();
      current() = span_.parent;
      instance().push(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Span span_{};
    bool active_ = false;
  };

  void enable(bool on) { enabled_.store(on); }
  /// Request id stamped on spans opened by this thread from now on.
  static std::int64_t& request() {
    thread_local std::int64_t r = -1;
    return r;
  }

  std::vector<Span> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  static std::int64_t& current() {
    thread_local std::int64_t c = -1;
    return c;
  }
  void push(const Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-name totals over a span set: inclusive time, self time (inclusive
/// minus the children's inclusive time) and the span count.
struct LayerTotals {
  double inclusive_s = 0.0;
  double self_s = 0.0;
  long count = 0;
};

inline std::map<std::string, LayerTotals> layer_totals(
    const std::vector<Span>& spans) {
  std::map<std::int64_t, double> child_ns;
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += double(s.end_ns - s.start_ns);
  }
  std::map<std::string, LayerTotals> out;
  for (const Span& s : spans) {
    LayerTotals& t = out[s.name];
    const double dur = double(s.end_ns - s.start_ns);
    const auto it = child_ns.find(s.id);
    t.inclusive_s += dur * 1e-9;
    t.self_s += (dur - (it == child_ns.end() ? 0.0 : it->second)) * 1e-9;
    ++t.count;
  }
  return out;
}

/// Preconditioner decorator: one "precond.apply" / "precond.apply_many" span
/// per application. Either borrows the wrapped object (handed to
/// run_krylov) or owns it (returned from a registry factory).
class TimedPreconditioner final : public ddmgnn::precond::Preconditioner {
 public:
  explicit TimedPreconditioner(const Preconditioner& inner) : inner_(&inner) {}
  explicit TimedPreconditioner(std::unique_ptr<Preconditioner> owned)
      : owned_(std::move(owned)), inner_(owned_.get()) {}

  using Preconditioner::apply;
  using Preconditioner::apply_many;
  std::unique_ptr<ddmgnn::precond::ApplyWorkspace> make_workspace()
      const override {
    return inner_->make_workspace();
  }
  std::size_t workspace_bytes() const override {
    return inner_->workspace_bytes();
  }
  void apply(std::span<const double> r, std::span<double> z,
             ddmgnn::precond::ApplyWorkspace* ws) const override {
    SpanLog::Scope s("precond.apply");
    inner_->apply(r, z, ws);
  }
  void apply_many(const ddmgnn::la::MultiVector& r, ddmgnn::la::MultiVector& z,
                  ddmgnn::precond::ApplyWorkspace* ws) const override {
    SpanLog::Scope s("precond.apply_many");
    columns_ += r.cols();
    inner_->apply_many(r, z, ws);
  }
  std::string name() const override { return inner_->name(); }
  bool is_symmetric() const override { return inner_->is_symmetric(); }
  /// Columns pushed through apply_many so far (all callers).
  long columns() const { return columns_.load(); }

 private:
  std::unique_ptr<Preconditioner> owned_;
  const Preconditioner* inner_;
  mutable std::atomic<long> columns_{0};
};

/// SubdomainSolver decorator: "core.setup.local" around setup,
/// "precond.local_solve" around every batch of local solves.
class TimedSubdomainSolver final : public ddmgnn::precond::SubdomainSolver {
 public:
  explicit TimedSubdomainSolver(std::unique_ptr<SubdomainSolver> inner)
      : inner_(std::move(inner)) {}

  void setup(std::vector<ddmgnn::la::CsrMatrix> local_matrices,
             const ddmgnn::partition::Decomposition& dec) override {
    SpanLog::Scope s("core.setup.local");
    inner_->setup(std::move(local_matrices), dec);
  }
  std::unique_ptr<Workspace> make_workspace() const override {
    return inner_->make_workspace();
  }
  std::size_t workspace_bytes() const override {
    return inner_->workspace_bytes();
  }
  void solve_all(const std::vector<std::vector<double>>& r_loc,
                 std::vector<std::vector<double>>& z_loc,
                 Workspace* ws) const override {
    SpanLog::Scope s("precond.local_solve");
    inner_->solve_all(r_loc, z_loc, ws);
  }
  void solve_all_block(const std::vector<ddmgnn::la::MultiVector>& r_loc,
                       std::vector<ddmgnn::la::MultiVector>& z_loc,
                       Workspace* ws) const override {
    SpanLog::Scope s("precond.local_solve");
    inner_->solve_all_block(r_loc, z_loc, ws);
  }
  std::string name() const override { return inner_->name(); }
  bool is_symmetric() const override { return inner_->is_symmetric(); }

 private:
  std::unique_ptr<SubdomainSolver> inner_;
};

/// CoarseComponent decorator; `span_name` is "partition.coarse_apply" for
/// the dense Nicolaides solve and "mg.cycle_apply" for the hierarchy.
class TimedCoarse final : public ddmgnn::partition::CoarseComponent {
 public:
  TimedCoarse(std::unique_ptr<CoarseComponent> inner, const char* span_name)
      : inner_(std::move(inner)), span_name_(span_name) {}

  void apply_add(std::span<const double> r,
                 std::span<double> z) const override {
    SpanLog::Scope s(span_name_);
    inner_->apply_add(r, z);
  }
  void apply_add_many(const ddmgnn::la::MultiVector& r,
                      ddmgnn::la::MultiVector& z) const override {
    SpanLog::Scope s(span_name_);
    inner_->apply_add_many(r, z);
  }
  std::string name() const override { return inner_->name(); }
  bool is_symmetric() const override { return inner_->is_symmetric(); }
  std::size_t memory_bytes() const override { return inner_->memory_bytes(); }
  std::size_t dense_factor_bytes() const override {
    return inner_->dense_factor_bytes();
  }

 private:
  std::unique_ptr<CoarseComponent> inner_;
  const char* span_name_;
};

}  // namespace perfbench
