#pragma once

/// \file chebyshev.hpp
/// Chebyshev polynomial preconditioner (paper §V-F context: the smoother
/// family HYMV's matrix-free operators want, following Panigrahi et al.,
/// arXiv:2208.07129): M⁻¹ r = p(D⁻¹A) D⁻¹ r with p the Chebyshev
/// polynomial minimizing the residual over [λ_max/ratio, boost·λ_max].
///
/// Matrix-free by construction — the only operator capabilities it needs
/// are apply() and diagonal(), so every backend (assembled, HYMV,
/// matrix-free, GPU, adaptive) plugs in unchanged. λ_max of D⁻¹A is
/// estimated once at construction by power iteration with a deterministic
/// start vector; the estimate is published as the `precond.cheb.lmax`
/// gauge.
///
/// The applied operator is a fixed symmetric positive definite polynomial
/// in D⁻¹A (the same polynomial every apply), so outer CG sees a constant
/// SPD preconditioner — unlike restarted/adaptive smoothers, no flexible
/// variant is needed.

#include <vector>

#include "hymv/pla/dist_vector.hpp"
#include "hymv/pla/operator.hpp"
#include "hymv/pla/preconditioner.hpp"

namespace hymv::pla {

struct ChebyshevOptions {
  /// Number of Chebyshev terms per apply; costs (degree − 1) operator
  /// applies per preconditioner application. Valid range [1, 64].
  int degree = 3;
  /// Power-iteration steps for the λ_max estimate. Valid range [1, 1000].
  int eig_iters = 10;
  /// Target interval lower bound: λ_min = λ_max / eig_ratio (must be > 1).
  /// 10 suits a standalone CG preconditioner; multigrid smoothing wants a
  /// narrower high-frequency band (~30), which the MG levels set
  /// themselves.
  double eig_ratio = 10.0;
  /// Safety factor on the λ_max estimate (power iteration approaches from
  /// below; Chebyshev diverges on eigenvalues above the interval).
  double boost = 1.1;
  /// fp32 preconditioner state: the Jacobi scaling D⁻¹ is stored in fp32
  /// and applied with fp64 accumulation (the kFp32 widening-accumulate
  /// discipline). Combine with the kFp32 store layout to also run the
  /// operator applies from fp32 element storage.
  bool fp32 = false;
  /// Zero-diagonal policy (see JacobiPreconditioner): false = identity
  /// fallback + `precond.singular_rows` count, true = throw.
  bool strict = false;
};

/// z = p(D⁻¹A) D⁻¹ r — see file doc.
class ChebyshevPreconditioner final : public Preconditioner {
 public:
  /// Collective: queries A's diagonal and runs the power iteration.
  /// `a` must outlive the preconditioner (its apply() is called from
  /// every preconditioner application).
  ChebyshevPreconditioner(simmpi::Comm& comm, LinearOperator& a,
                          const ChebyshevOptions& options = {});

  void apply(simmpi::Comm& comm, const DistVector& r, DistVector& z) override;

  /// Boosted λ_max estimate of D⁻¹A the polynomial targets.
  [[nodiscard]] double lambda_max() const { return lmax_; }

 private:
  /// tmp = D⁻¹ v (fp64 or widening fp32 path).
  void scale_inv_diag(const DistVector& v, DistVector& out) const;

  LinearOperator* a_;
  ChebyshevOptions opt_;
  std::vector<double> inv_diag_;    ///< fp64 path (empty when fp32)
  std::vector<float> inv_diag32_;   ///< fp32 path (empty when fp64)
  double lmax_ = 1.0;               ///< boosted λ_max estimate
  double lmin_ = 0.0;               ///< λ_max / eig_ratio
  DistVector res_, dir_, tmp_;      ///< recurrence scratch
};

}  // namespace hymv::pla
