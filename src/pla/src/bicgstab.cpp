#include "hymv/pla/bicgstab.hpp"

#include <cmath>

#include "convergence.hpp"
#include "hymv/common/error.hpp"

namespace hymv::pla {

CgResult bicgstab_solve(simmpi::Comm& comm, LinearOperator& a,
                        Preconditioner& m, const DistVector& b, DistVector& x,
                        const CgOptions& options) {
  const Layout& layout = a.layout();
  HYMV_CHECK_MSG(b.owned_size() == layout.owned() &&
                     x.owned_size() == layout.owned(),
                 "bicgstab_solve: vector/operator layout mismatch");

  DistVector r(layout), r0(layout), p(layout), v(layout), s(layout),
      t(layout), phat(layout), shat(layout);

  a.apply(comm, x, v);
  copy(b, r);
  axpy(-1.0, v, r);
  copy(r, r0);  // shadow residual

  const double bnorm = norm2(comm, b);
  const double target = convergence_target(options, bnorm);

  CgResult result;
  double rnorm = norm2(comm, r);
  result.converged = rnorm <= target;

  double rho_prev = 1.0, alpha = 1.0, omega = 1.0;
  v.set_all(0.0);
  p.set_all(0.0);

  // Numerical breakdowns (orthogonality collapses, stagnation divisors)
  // end the iteration with a status instead of aborting the caller; the
  // iterate so far stays in x, mirroring how converged=false is reported.
  const auto broke = [&result](const char* reason) {
    result.breakdown = true;
    result.breakdown_reason = reason;
  };

  for (std::int64_t it = 1; !result.converged && it <= options.max_iters;
       ++it) {
    const double rho = dot(comm, r0, r);
    if (!(std::abs(rho) > 1e-300)) {
      broke("bicgstab_solve: rho breakdown (r0 ⊥ r)");
      break;
    }
    if (it == 1) {
      copy(r, p);
    } else {
      const double beta = (rho / rho_prev) * (alpha / omega);
      // p = r + beta (p - omega v)
      axpy(-omega, v, p);
      xpby(r, beta, p);
    }
    m.apply(comm, p, phat);
    a.apply(comm, phat, v);
    const double r0v = dot(comm, r0, v);
    if (!(std::abs(r0v) > 1e-300)) {
      broke("bicgstab_solve: r0·v breakdown");
      break;
    }
    alpha = rho / r0v;
    // Fused s = r - alpha v: one sweep instead of copy + axpy.
    xpay(r, -alpha, v, s);
    result.iterations = it;
    const double snorm = norm2(comm, s);
    if (snorm <= target) {
      axpy(alpha, phat, x);  // early half-step convergence
      rnorm = snorm;
      result.converged = true;
      break;
    }
    m.apply(comm, s, shat);
    a.apply(comm, shat, t);
    const double tt = dot(comm, t, t);
    if (!(tt > 0.0)) {
      // s is the current residual; keep the half-step iterate.
      axpy(alpha, phat, x);
      rnorm = snorm;
      broke("bicgstab_solve: t = 0 breakdown");
      break;
    }
    omega = dot(comm, t, s) / tt;
    axpy(alpha, phat, x);
    axpy(omega, shat, x);
    xpay(s, -omega, t, r);  // fused r = s - omega t
    rnorm = norm2(comm, r);
    if (rnorm <= target) {
      result.converged = true;
      break;
    }
    if (!(std::abs(omega) > 1e-300)) {
      broke("bicgstab_solve: omega breakdown");
      break;
    }
    rho_prev = rho;
  }
  set_residuals(result, bnorm, rnorm);
  return result;
}

}  // namespace hymv::pla
