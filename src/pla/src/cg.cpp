#include "hymv/pla/cg.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "convergence.hpp"
#include "hymv/common/error.hpp"
#include "hymv/obs/metrics.hpp"
#include "hymv/obs/trace.hpp"

namespace hymv::pla {

namespace {

/// Lane j of a solve iterates while active[j] != 0.
using Mask = std::span<const unsigned char>;

// The steps of standard CG that differ between one vector and a panel. One
// lane keeps the single-vector apply and vector kernels (the fused residual
// update + norm included): a width-1 panel rounds differently and costs more.

std::size_t lane_count(const DistVector& /*v*/) { return 1; }
std::size_t lane_count(const DistMultiVector& v) {
  return static_cast<std::size_t>(v.width());
}

DistVector zeros_like(const DistVector& /*v*/, const Layout& layout) {
  return DistVector(layout);
}
DistMultiVector zeros_like(const DistMultiVector& v, const Layout& layout) {
  return DistMultiVector(layout, v.width());
}

const auto& fault_hook(const CgOptions& options, const DistVector& /*x*/) {
  return options.fault_hook;
}
const auto& fault_hook(const CgOptions& options, const DistMultiVector& /*x*/) {
  return options.fault_hook_multi;
}

void apply(simmpi::Comm& comm, LinearOperator& a, const DistVector& x,
           DistVector& y) {
  a.apply(comm, x, y);
}
void apply(simmpi::Comm& comm, LinearOperator& a, const DistMultiVector& x,
           DistMultiVector& y) {
  a.apply_multi(comm, x, y);
}

/// Per-lane global dot products (one allreduce).
void dots(simmpi::Comm& comm, const DistVector& x, const DistVector& y,
          std::span<double> out) {
  out[0] = dot(comm, x, y);
}
void dots(simmpi::Comm& comm, const DistMultiVector& x,
          const DistMultiVector& y, std::span<double> out) {
  dot_lanes(comm, x, y, out);
}

/// Per-lane global 2-norms (one allreduce).
template <class V>
void norms(simmpi::Comm& comm, const V& x, std::span<double> out) {
  dots(comm, x, x, out);
  for (double& v : out) {
    v = std::sqrt(v);
  }
}

/// y(i) = f(i) for every entry i of a panel's active lanes.
template <class F>
void assign_active(DistMultiVector& y, Mask active, F f) {
  const auto ys = y.values();
  for (std::size_t i = 0; i < ys.size(); i += active.size()) {
    for (std::size_t j = 0; j < active.size(); ++j) {
      if (active[j] != 0) {
        ys[i + j] = f(i + j);
      }
    }
  }
}

/// r = b − q on the active lanes.
void residual(const DistVector& b, const DistVector& q, DistVector& r,
              Mask /*active*/) {
  copy(b, r);
  axpy(-1.0, q, r);
}
void residual(const DistMultiVector& b, const DistMultiVector& q,
              DistMultiVector& r, Mask active) {
  const auto bs = b.values();
  const auto qs = q.values();
  assign_active(r, active, [&](std::size_t i) { return bs[i] - qs[i]; });
}

/// r = b − A x on the active lanes and its per-lane norms (one allreduce);
/// q is scratch.
template <class V>
void true_residual(simmpi::Comm& comm, LinearOperator& a, const V& b,
                   const V& x, V& q, V& r, Mask active,
                   std::span<double> rnorm) {
  apply(comm, a, x, q);
  residual(b, q, r, active);
  norms(comm, r, rnorm);
}

/// x += α p, r −= α q on the active lanes, and the new per-lane ‖r‖ (one
/// allreduce; one fused sweep over r for a single vector).
void step(simmpi::Comm& comm, std::span<const double> alpha,
          const DistVector& p, const DistVector& q, DistVector& x,
          DistVector& r, Mask /*active*/, std::span<double> rnorm) {
  axpy(alpha[0], p, x);
  rnorm[0] = std::sqrt(axpy_dot(comm, -alpha[0], q, r));
}
void step(simmpi::Comm& comm, std::span<const double> alpha,
          const DistMultiVector& p, const DistMultiVector& q,
          DistMultiVector& x, DistMultiVector& r, Mask active,
          std::span<double> rnorm) {
  axpy_lanes(alpha, p, x, active);
  for (std::size_t j = 0; j < alpha.size(); ++j) {
    rnorm[j] = -alpha[j];  // scratch until the norms overwrite it
  }
  axpy_lanes(rnorm, q, r, active);
  norm2_lanes(comm, r, rnorm);
}

/// z = M r on the active lanes.
void precondition(simmpi::Comm& comm, Preconditioner& m, const DistVector& r,
                  DistVector& z, Mask /*active*/) {
  m.apply(comm, r, z);
}
void precondition(simmpi::Comm& comm, Preconditioner& m,
                  const DistMultiVector& r, DistMultiVector& z, Mask active) {
  m.apply_multi(comm, r, z, active);
}

/// p = z on the active lanes (a restarted search direction).
void restart_direction(const DistVector& z, DistVector& p, Mask /*active*/) {
  copy(z, p);
}
void restart_direction(const DistMultiVector& z, DistMultiVector& p,
                       Mask active) {
  const auto zs = z.values();
  assign_active(p, active, [&](std::size_t i) { return zs[i]; });
}

/// p = z + β p on the active lanes.
void update_direction(const DistVector& z, std::span<const double> beta,
                      DistVector& p, Mask /*active*/) {
  xpby(z, beta[0], p);
}
void update_direction(const DistMultiVector& z, std::span<const double> beta,
                      DistMultiVector& p, Mask active) {
  xpby_lanes(z, beta, p, active);
}

/// Per-lane results and the lanes still iterating. A checkpoint copies it
/// whole, so a rollback also revives lanes that finished after it.
struct Lanes {
  std::vector<CgResult> results;
  std::vector<unsigned char> active;
};

/// A registry counter and its value at solve entry: the registry stays the
/// single source of truth, and a CgResult reports the per-solve delta.
struct Tally {
  obs::Counter& counter;
  std::int64_t at_entry = counter.value();
  [[nodiscard]] std::int64_t delta() const {
    return counter.value() - at_entry;
  }
};

/// The type of a checkpoint of the state a std::tie names, holding a copy of
/// every part: `ck = tie()` takes it and `tie() = *ck` restores it.
template <class... T>
std::optional<std::tuple<T...>> checkpoint_of(std::tuple<T&...> state);

/// What every CG recurrence shares, for one lane or a panel: entry checks,
/// targets, lane state, counters, the cancel check, the rollback budget and
/// the publish epilogue. Decisions read allreduced scalars or the
/// collective should_stop, so every rank takes the same branch. A panel
/// counts each recovery event once; every lane reports the solve's deltas.
class Ledger {
 public:
  template <class V>
  Ledger(simmpi::Comm& comm, const LinearOperator& a, const V& b, const V& x,
         const CgOptions& options)
      : lanes{std::vector<CgResult>(lane_count(b)),
              std::vector<unsigned char>(lane_count(b), 1)},
        options_(options),
        mets_(comm.metrics()) {
    HYMV_CHECK_MSG(lane_count(b) >= 1 && lane_count(x) == lane_count(b),
                   "cg_solve_multi: panel width mismatch");
    HYMV_CHECK_MSG(b.owned_size() == a.layout().owned() &&
                       x.owned_size() == a.layout().owned(),
                   "cg_solve: vector/operator layout mismatch");
  }

  Lanes lanes;

  [[nodiscard]] Mask active() const { return lanes.active; }
  [[nodiscard]] bool any_active() const {
    return std::ranges::find(lanes.active, 1) != lanes.active.end();
  }
  void reduced(std::int64_t n = 1) { allreduces_.add(n); }

  /// Calls f(j) for every lane j still iterating.
  template <class F>
  void for_active(F f) {
    for (std::size_t j = 0; j < lanes.active.size(); ++j) {
      if (lanes.active[j] != 0) {
        f(j);
      }
    }
  }

  /// Records ‖b‖ and the targets and retires the lanes whose initial
  /// residual meets its target. Returns whether any lane iterates.
  bool start(std::span<const double> bnorm, std::span<const double> rnorm) {
    bnorm_.assign(bnorm.begin(), bnorm.end());
    best_.assign(rnorm.begin(), rnorm.end());
    for (std::size_t j = 0; j < bnorm.size(); ++j) {
      target_.push_back(convergence_target(options_, bnorm[j]));
      converged(j, rnorm[j]);
    }
    return any_active();
  }

  /// Retires lane j as converged when ‖r‖ meets its target.
  bool converged(std::size_t j, double rnorm) {
    if (!(rnorm <= target_[j])) {
      return false;
    }
    lanes.results[j].converged = true;
    lanes.active[j] = 0;
    return true;
  }
  /// converged(), else tracks the lane's best ‖r‖ for the divergence test.
  bool accept(std::size_t j, double rnorm) {
    if (converged(j, rnorm)) {
      return true;
    }
    best_[j] = std::min(best_[j], rnorm);
    return false;
  }
  void break_down(std::size_t j, const char* reason) {
    lanes.results[j].breakdown = true;
    lanes.results[j].breakdown_reason = reason;
    lanes.active[j] = 0;
  }

  /// The cooperative stop: marks the lanes still iterating canceled.
  bool stopped(std::int64_t it) {
    if (!options_.should_stop || !options_.should_stop(it)) {
      return false;
    }
    for_active([&](std::size_t j) { lanes.results[j].canceled = true; });
    return true;
  }

  /// Whether an active lane holds a fault a rollback can repair: a
  /// non-finite value or, for a new ‖r‖ (`diverging`), one above
  /// divergence_factor × the lane's best.
  [[nodiscard]] bool faulted(std::span<const double> v,
                             bool diverging = false) const {
    for (std::size_t j = 0; j < v.size(); ++j) {
      if (lanes.active[j] != 0 &&
          (!std::isfinite(v[j]) ||
           (diverging && v[j] > options_.divergence_factor * best_[j]))) {
        return true;
      }
    }
    return false;
  }

  /// Restores checkpoint `ck` into `state` (a std::tie) within the
  /// rollback budget. Once max_rollbacks are spent the lanes still
  /// iterating break down instead, and this returns false.
  template <class Checkpoint, class State>
  bool roll_back(const Checkpoint& ck, State state) {
    if (rollbacks_.delta() >= options_.max_rollbacks) {
      for_active([&](std::size_t j) {
        break_down(j,
                   "cg_solve: exceeded the rollback budget (persistent "
                   "fault?)");
      });
      return false;
    }
    state = *ck;
    rollbacks_.counter.inc();
    HYMV_TRACE_INSTANT("cg.rollback", "cg");
    return true;
  }

  /// Whether to checkpoint after `it` completed iterations, counting the
  /// checkpoint if so: every checkpoint_every iterations, and only states
  /// whose active lanes all carry a finite ‖r‖.
  bool checkpoint_due(std::int64_t it, std::span<const double> rnorm) {
    if (options_.checkpoint_every <= 0 ||
        it % options_.checkpoint_every != 0 || faulted(rnorm)) {
      return false;
    }
    checkpoints_.counter.inc();
    HYMV_TRACE_INSTANT("cg.checkpoint", "cg");
    return true;
  }

  [[nodiscard]] bool replacement_due(std::int64_t it) const {
    return options_.true_residual_every > 0 &&
           it % options_.true_residual_every == 0;
  }
  /// Counts a true-residual replacement and sets cg.residual_drift, the
  /// largest |recurrence ‖r‖ − true ‖r‖| / true ‖r‖ over the active lanes:
  /// a mixed-precision solve watches it to validate its refinement cadence.
  void replaced(std::span<const double> recurrence,
                std::span<const double> truth) {
    replacements_.counter.inc();
    double drift = -1.0;
    for_active([&](std::size_t j) {
      if (std::isfinite(truth[j]) && truth[j] > 0.0) {
        drift = std::max(drift, std::abs(recurrence[j] - truth[j]) / truth[j]);
      }
    });
    if (drift >= 0.0) {
      mets_.gauge("cg.residual_drift").set(drift);
    }
    HYMV_TRACE_INSTANT("cg.residual_replace", "cg");
  }

  /// The one epilogue, on every exit: per-lane residuals and recovery
  /// deltas, and the cg.solves / cg.iterations / cg.converged /
  /// cg.breakdowns counters (a panel is one solve of its longest lane).
  std::vector<CgResult> publish(std::span<const double> rnorm) {
    std::int64_t iterations = 0;
    for (std::size_t j = 0; j < lanes.results.size(); ++j) {
      CgResult& result = lanes.results[j];
      set_residuals(result, bnorm_[j], rnorm[j]);
      result.checkpoints_taken = checkpoints_.delta();
      result.rollbacks = rollbacks_.delta();
      result.residual_replacements = replacements_.delta();
      iterations = std::max(iterations, result.iterations);
      if (result.converged) {
        mets_.counter("cg.converged").inc();
      }
      if (result.breakdown) {
        mets_.counter("cg.breakdowns").inc();
      }
    }
    mets_.counter("cg.solves").inc();
    mets_.counter("cg.iterations").add(iterations);
    return std::move(lanes.results);
  }

 private:
  const CgOptions& options_;
  obs::MetricsRegistry& mets_;
  obs::Counter& allreduces_ = mets_.counter("cg.allreduces");
  Tally checkpoints_{mets_.counter("cg.checkpoints_taken")};
  Tally rollbacks_{mets_.counter("cg.rollbacks")};
  Tally replacements_{mets_.counter("cg.residual_replacements")};
  std::vector<double> bnorm_, target_, best_;
};

/// Standard preconditioned CG over one vector or a panel of k lanes: one
/// operator apply per iteration and one allreduce per reduction serve every
/// lane, while α, β and convergence stay per lane. A finished lane is
/// deflated: its x, r, p and z stop changing, bitwise. A non-finite p·Ap or
/// ‖r‖, or a diverging ‖r‖, on any active lane rolls the whole panel back
/// to its last checkpoint; a finite p·Ap ≤ 0 (an indefinite operator,
/// which recomputation would reproduce) breaks that lane down instead.
template <class V>
std::vector<CgResult> standard_cg(simmpi::Comm& comm, LinearOperator& a,
                                  Preconditioner& m, const V& b, V& x,
                                  const CgOptions& options) {
  Ledger book(comm, a, b, x, options);
  const Layout& layout = a.layout();
  V r = zeros_like(b, layout), z = zeros_like(b, layout),
    p = zeros_like(b, layout), q = zeros_like(b, layout);
  const std::size_t k = lane_count(b);
  std::vector<double> bnorm(k), rnorm(k), trial(k), pq(k), rz(k), rz_new(k),
      alpha(k), beta(k);

  true_residual(comm, a, b, x, q, r, book.active(), rnorm);
  norms(comm, b, bnorm);
  book.reduced(2);
  if (!book.start(bnorm, rnorm)) {
    return book.publish(rnorm);
  }
  // z = M r, p = z on the active lanes: a (re)started search direction.
  const auto restart = [&] {
    precondition(comm, m, r, z, book.active());
    restart_direction(z, p, book.active());
    dots(comm, r, z, rz);
    book.reduced();
  };
  restart();

  std::int64_t done = 0;  // completed iterations
  const auto state = [&] {
    return std::tie(x, r, p, rz, rnorm, book.lanes, done);
  };
  decltype(checkpoint_of(state())) ck;
  if (book.checkpoint_due(done, rnorm)) {
    ck = state();
  }

  while (done < options.max_iters && book.any_active()) {
    const std::int64_t it = done + 1;
    if (book.stopped(it)) {
      break;
    }
    if (const auto& hook = fault_hook(options, x)) {
      hook(it, x, r);
    }
    apply(comm, a, p, q);
    dots(comm, p, q, pq);
    book.reduced();
    if (ck && book.faulted(pq)) {
      if (!book.roll_back(ck, state())) {
        break;
      }
      continue;
    }
    book.for_active([&](std::size_t j) {
      if (!(pq[j] > 0.0)) {
        book.break_down(
            j, "cg_solve: operator is not positive definite (p·Ap <= 0)");
        return;
      }
      alpha[j] = rz[j] / pq[j];
      book.lanes.results[j].iterations = it;
    });
    if (!book.any_active()) {
      break;
    }
    step(comm, alpha, p, q, x, r, book.active(), trial);
    book.reduced();
    if (ck && book.faulted(trial, /*diverging=*/true)) {
      if (!book.roll_back(ck, state())) {
        break;
      }
      continue;
    }
    book.for_active(
        [&](std::size_t j) { book.accept(j, rnorm[j] = trial[j]); });
    if (!book.any_active()) {
      break;
    }
    if (book.replacement_due(it)) {
      // Replace the recurrence residual with the true residual b − A x and
      // restart the search direction: repairs drift a transient fault
      // injected into x or r has caused.
      true_residual(comm, a, b, x, q, r, book.active(), trial);
      book.reduced();
      book.replaced(rnorm, trial);
      if (ck && book.faulted(trial)) {
        if (!book.roll_back(ck, state())) {
          break;
        }
        continue;
      }
      book.for_active(
          [&](std::size_t j) { book.converged(j, rnorm[j] = trial[j]); });
      if (!book.any_active()) {
        break;
      }
      restart();
    } else {
      precondition(comm, m, r, z, book.active());
      dots(comm, r, z, rz_new);
      book.reduced();
      book.for_active([&](std::size_t j) {
        beta[j] = rz_new[j] / rz[j];
        rz[j] = rz_new[j];
      });
      update_direction(z, beta, p, book.active());
    }
    done = it;
    if (book.checkpoint_due(done, rnorm)) {
      ck = state();
    }
  }
  return book.publish(rnorm);
}

/// Rank-local partial dot product — the pipelined iteration batches three of
/// these into one split allreduce. Same index-order accumulation as
/// pla::dot, so a 1-rank pipelined solve reduces to the serial recurrences.
double local_dot(const DistVector& x, const DistVector& y) {
  const auto xs = x.values();
  const auto ys = y.values();
  double local = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    local += xs[i] * ys[i];
  }
  return local;
}

/// Ghysels & Vanroose pipelined PCG. The three reductions of a standard
/// iteration fuse into ONE split allreduce whose messages fly while the
/// next preconditioner + operator applies (including the apply's ghost
/// exchange) execute underneath:
///   gamma = (r,u), delta = (w,u), rr = (r,r)   [one allreduce_start]
///   mv = M w,  nv = A mv                       [overlapped]
///   beta  = gamma / gamma_old                  (0 on restart)
///   alpha = gamma / (delta - beta*gamma/alpha_old)   (gamma/delta on restart)
///   z = nv + beta z;  q = mv + beta q;  s = w + beta s;  p = u + beta p
///   x += alpha p;  r -= alpha s;  u -= alpha q;  w -= alpha z
/// maintaining u = M r and w = A u by recurrence. Convergence tests use the
/// fused ‖r‖² — it describes the residual of the PREVIOUS update, so the
/// loop checks before computing the next step, and a converged run performs
/// exactly iterations + 3 allreduces (2 setup norms + one per loop entry).
/// Checkpoint/rollback and true-residual replacement follow standard_cg;
/// the checkpoint holds all eight recurrence vectors, and a replacement
/// restarts the four direction recurrences (restart = true).
CgResult pipelined_cg(simmpi::Comm& comm, LinearOperator& a, Preconditioner& m,
                      const DistVector& b, DistVector& x,
                      const CgOptions& options) {
  Ledger book(comm, a, b, x, options);
  const Layout& layout = a.layout();
  DistVector r(layout), u(layout), w(layout), mv(layout), nv(layout),
      z(layout), q(layout), s(layout), p(layout);

  double rnorm = 0.0, bnorm = 0.0;
  true_residual(comm, a, b, x, nv, r, book.active(), {&rnorm, 1});
  norms(comm, b, {&bnorm, 1});
  book.reduced(2);
  if (!book.start({&bnorm, 1}, {&rnorm, 1})) {
    return book.publish({&rnorm, 1})[0];
  }
  m.apply(comm, r, u);  // u = M r
  a.apply(comm, u, w);  // w = A u

  double gamma_old = 0.0;
  double alpha_old = 0.0;
  bool restart = true;  // first iteration + after every residual replacement
  std::int64_t it = 0;  // completed iterations
  const auto state = [&] {
    return std::tie(x, r, u, w, z, q, s, p, gamma_old, alpha_old, rnorm,
                    restart, book.lanes, it);
  };
  decltype(checkpoint_of(state())) ck;
  if (book.checkpoint_due(it, {&rnorm, 1})) {
    ck = state();
  }

  for (;;) {
    if (book.stopped(it + 1)) {
      break;
    }
    if (options.fault_hook) {
      options.fault_hook(it + 1, x, r);
    }
    // The iteration's one reduction: start it, run M w and A(M w) while its
    // messages are in flight, then combine (rank order ⇒ deterministic).
    const double sums[3] = {local_dot(r, u), local_dot(w, u),
                            local_dot(r, r)};
    simmpi::AllreduceHandle handle = comm.allreduce_start(sums);
    m.apply(comm, w, mv);
    a.apply(comm, mv, nv);
    double red[3];
    comm.allreduce_finish(handle, red);
    book.reduced();
    const double gamma = red[0];
    const double delta = red[1];
    rnorm = std::sqrt(red[2]);

    if (ck && book.faulted({&rnorm, 1}, /*diverging=*/true)) {
      if (!book.roll_back(ck, state())) {
        break;
      }
      continue;
    }
    if (book.accept(0, rnorm) || it >= options.max_iters) {
      break;
    }

    const double beta = restart ? 0.0 : gamma / gamma_old;
    const double denom = restart ? delta : delta - beta * gamma / alpha_old;
    const double alpha = gamma / denom;
    if (!(denom > 0.0) || !std::isfinite(alpha)) {
      // As in standard_cg: a non-finite denominator is corrupted state a
      // rollback can repair; a finite denom <= 0 is genuine indefiniteness.
      if (ck && (!std::isfinite(denom) || !std::isfinite(alpha))) {
        if (!book.roll_back(ck, state())) {
          break;
        }
        continue;
      }
      book.break_down(0,
                      "cg_solve: operator is not positive definite (pipelined "
                      "denominator <= 0)");
      break;
    }

    if (restart) {
      copy(nv, z);
      copy(mv, q);
      copy(w, s);
      copy(u, p);
    } else {
      xpby(nv, beta, z);
      xpby(mv, beta, q);
      xpby(w, beta, s);
      xpby(u, beta, p);
    }
    axpy(alpha, p, x);
    axpy(-alpha, s, r);
    axpy(-alpha, q, u);
    axpy(-alpha, z, w);
    gamma_old = gamma;
    alpha_old = alpha;
    restart = false;
    ++it;
    book.lanes.results[0].iterations = it;

    if (book.replacement_due(it)) {
      // True-residual replacement: recompute r = b − A x, then rebuild the
      // u/w recurrences and restart the four direction vectors.
      const double recurrence = rnorm;
      true_residual(comm, a, b, x, nv, r, book.active(), {&rnorm, 1});
      book.reduced();
      book.replaced({&recurrence, 1}, {&rnorm, 1});
      if (ck && !std::isfinite(rnorm)) {
        if (!book.roll_back(ck, state())) {
          break;
        }
        continue;
      }
      if (book.converged(0, rnorm)) {
        break;
      }
      m.apply(comm, r, u);
      a.apply(comm, u, w);
      restart = true;
    }
    if (book.checkpoint_due(it, {&rnorm, 1})) {
      ck = state();
    }
  }
  return book.publish({&rnorm, 1})[0];
}

}  // namespace

CgResult cg_solve(simmpi::Comm& comm, LinearOperator& a, Preconditioner& m,
                  const DistVector& b, DistVector& x,
                  const CgOptions& options) {
  if (options.pipelined) {
    HYMV_TRACE_SCOPE("cg.solve_pipelined", "cg");
    return pipelined_cg(comm, a, m, b, x, options);
  }
  HYMV_TRACE_SCOPE("cg.solve", "cg");
  return standard_cg(comm, a, m, b, x, options)[0];
}

std::vector<CgResult> cg_solve_multi(simmpi::Comm& comm, LinearOperator& a,
                                     Preconditioner& m,
                                     const DistMultiVector& b,
                                     DistMultiVector& x,
                                     const CgOptions& options) {
  HYMV_TRACE_SCOPE("cg.solve_multi", "cg");
  return standard_cg(comm, a, m, b, x, options);
}

}  // namespace hymv::pla
