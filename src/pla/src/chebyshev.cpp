#include "hymv/pla/chebyshev.hpp"

#include <cmath>

#include "hymv/common/error.hpp"
#include "hymv/obs/metrics.hpp"
#include "hymv/obs/trace.hpp"

namespace hymv::pla {

ChebyshevPreconditioner::ChebyshevPreconditioner(
    simmpi::Comm& comm, LinearOperator& a, const ChebyshevOptions& options)
    : a_(&a),
      opt_(options),
      res_(a.layout()),
      dir_(a.layout()),
      tmp_(a.layout()) {
  HYMV_TRACE_SCOPE("precond.cheb.setup", "precond");
  HYMV_CHECK_MSG(opt_.degree >= 1 && opt_.degree <= 64,
                 "ChebyshevPreconditioner: degree out of range");
  HYMV_CHECK_MSG(opt_.eig_iters >= 1 && opt_.eig_iters <= 1000,
                 "ChebyshevPreconditioner: eig_iters out of range");
  HYMV_CHECK_MSG(opt_.eig_ratio > 1.0,
                 "ChebyshevPreconditioner: eig_ratio must be > 1");

  // Jacobi scaling with the shared singular-row policy (identity fallback
  // on zero diagonals, counted; throw under strict).
  std::vector<double> inv_diag = a.diagonal(comm);
  std::int64_t singular = 0;
  for (double& d : inv_diag) {
    if (!(std::abs(d) > 0.0)) {
      HYMV_CHECK_MSG(!opt_.strict, "ChebyshevPreconditioner: zero diagonal");
      d = 1.0;
      ++singular;
      continue;
    }
    d = 1.0 / d;
  }
  if (singular > 0) {
    comm.metrics().counter("precond.singular_rows").add(singular);
  }
  if (opt_.fp32) {
    inv_diag32_.assign(inv_diag.begin(), inv_diag.end());
  } else {
    inv_diag_ = std::move(inv_diag);
  }

  // Power iteration for λ_max of D⁻¹A. The start vector is a deterministic
  // function of the GLOBAL index, so the estimate does not depend on how
  // DoFs are split across ranks (up to allreduce rounding).
  const Layout& layout = a.layout();
  DistVector v(layout), w(layout);
  for (std::int64_t i = 0; i < v.owned_size(); ++i) {
    v[i] = 1.0 + 0.5 * std::sin(0.7 * static_cast<double>(layout.begin + i));
  }
  double lmax = 1.0;
  for (int it = 0; it < opt_.eig_iters; ++it) {
    a_->apply(comm, v, w);
    scale_inv_diag(w, w);
    const double vv = dot(comm, v, v);
    const double vw = dot(comm, v, w);
    if (vv > 0.0 && vw > 0.0) {
      lmax = vw / vv;  // Rayleigh quotient
    }
    const double wnorm = norm2(comm, w);
    if (!(wnorm > 0.0)) {
      break;  // degenerate operator; keep the last estimate
    }
    for (std::int64_t i = 0; i < v.owned_size(); ++i) {
      v[i] = w[i] / wnorm;
    }
  }
  lmax_ = opt_.boost * lmax;
  lmin_ = lmax_ / opt_.eig_ratio;
  comm.metrics().gauge("precond.cheb.lmax").set(lmax_);
}

void ChebyshevPreconditioner::scale_inv_diag(const DistVector& v,
                                             DistVector& out) const {
  const auto vs = v.values();
  const auto os = out.values();
  if (!inv_diag32_.empty()) {
    // fp32 state, fp64 arithmetic: load the stored float scaling, widen,
    // multiply-accumulate in double (the kFp32 discipline from
    // element_store.hpp).
    for (std::size_t i = 0; i < vs.size(); ++i) {
      os[i] = static_cast<double>(inv_diag32_[i]) * vs[i];
    }
    return;
  }
  for (std::size_t i = 0; i < vs.size(); ++i) {
    os[i] = inv_diag_[i] * vs[i];
  }
}

void ChebyshevPreconditioner::apply(simmpi::Comm& comm, const DistVector& r,
                                    DistVector& z) {
  HYMV_TRACE_SCOPE("precond.cheb.apply", "precond");
  HYMV_CHECK_MSG(r.owned_size() == z.owned_size() &&
                     r.owned_size() == res_.owned_size(),
                 "ChebyshevPreconditioner: size mismatch");

  // Classic three-term Chebyshev semi-iteration on A z = r, scaled by
  // D⁻¹, over [λ_min, λ_max] (hypre/PETSc cheby+jacobi):
  //   θ = (λmax + λmin)/2,  δ = (λmax − λmin)/2,  σ = θ/δ
  //   d₁ = D⁻¹ r / θ;  z₁ = d₁
  //   ρ₁ = 1/σ;  ρ_k = 1/(2σ − ρ_{k−1})
  //   d_k = ρ_k ρ_{k−1} d_{k−1} + (2ρ_k/δ) D⁻¹ res_{k−1}
  //   z_k = z_{k−1} + d_k,   res_k = res_{k−1} − A d_k
  // degree terms perform degree − 1 operator applies (the final residual
  // update is skipped).
  const double theta = 0.5 * (lmax_ + lmin_);
  const double delta = 0.5 * (lmax_ - lmin_);
  const double sigma = theta / delta;

  copy(r, res_);
  scale_inv_diag(res_, dir_);
  const double inv_theta = 1.0 / theta;
  const auto ds = dir_.values();
  const auto zs = z.values();
  for (std::size_t i = 0; i < ds.size(); ++i) {
    ds[i] *= inv_theta;
    zs[i] = ds[i];
  }

  double rho = 1.0 / sigma;
  for (int k = 1; k < opt_.degree; ++k) {
    // res -= A d
    a_->apply(comm, dir_, tmp_);
    axpy(-1.0, tmp_, res_);
    scale_inv_diag(res_, tmp_);  // tmp = D⁻¹ res
    const double rho_new = 1.0 / (2.0 * sigma - rho);
    const double c_dir = rho_new * rho;
    const double c_res = 2.0 * rho_new / delta;
    const auto ts = tmp_.values();
    for (std::size_t i = 0; i < ds.size(); ++i) {
      ds[i] = c_dir * ds[i] + c_res * ts[i];
      zs[i] += ds[i];
    }
    rho = rho_new;
  }
}

}  // namespace hymv::pla
