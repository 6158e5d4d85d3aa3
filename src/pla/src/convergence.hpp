#pragma once

/// \file convergence.hpp
/// The convergence conventions CG and BiCGStab share, written once.

#include <algorithm>

#include "hymv/pla/cg.hpp"

namespace hymv::pla {

/// The convergence target max(atol, rtol·‖b‖). For ‖b‖ = 0 the relative
/// part degenerates to rtol (PETSc's rule).
inline double convergence_target(const CgOptions& options, double bnorm) {
  return std::max(options.atol, options.rtol * (bnorm > 0.0 ? bnorm : 1.0));
}

/// Writes the exit residual ‖r‖ into `result` under CgResult's ‖b‖ = 0
/// convention: a converged solve found the exact x = 0 and reports a
/// relative residual of 0; any other exit reports the absolute ‖r‖, so the
/// failure magnitude stays visible. Reads result.converged.
inline void set_residuals(CgResult& result, double bnorm, double rnorm) {
  result.final_residual = rnorm;
  result.relative_residual =
      bnorm > 0.0 ? rnorm / bnorm : (result.converged ? 0.0 : rnorm);
}

}  // namespace hymv::pla
