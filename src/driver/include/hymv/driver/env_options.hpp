#pragma once

/// \file env_options.hpp
/// The one place the per-object `HYMV_*` knobs are read. Library objects
/// (operators, backends, preconditioners, the solve service's states) run
/// the options they are given; edge code — solve_problem, measure_spmv and
/// the example and bench mains that build operators themselves —
/// resolves the environment onto a fallback here, once, and passes the
/// result down. Each resolver returns `fallback` with every set variable
/// applied; a value the reader rejects warns once to stderr and keeps the
/// fallback's field (common/env.hpp). Accepted values and ranges are the
/// README table's.

#include "hymv/driver/driver.hpp"

namespace hymv::driver {

/// HYMV_STORE_LAYOUT ("padded" | "interleaved" | "sympacked" | "fp32"),
/// HYMV_THREAD_SCHEDULE ("serial" | "colored") and HYMV_APPLY_TASKGRAPH
/// (0/1) on top of `fallback`.
[[nodiscard]] core::HymvOptions hymv_options_from_env(
    core::HymvOptions fallback = {});

/// HYMV_SELL_C ([1, 256]), HYMV_SELL_SIGMA ([1, 1048576]),
/// HYMV_ADAPTIVE_PROBES ([0, 1000]), HYMV_ADAPTIVE_FORCE ("" | "stored" |
/// "matrixfree" | "sell") and HYMV_ADAPTIVE_REPLAY (a path) on top of
/// `fallback`. Its `hymv` field is left as given: build_backend runs the
/// composite over its own HymvOptions.
[[nodiscard]] core::AdaptiveOptions adaptive_options_from_env(
    core::AdaptiveOptions fallback = {});

/// HYMV_CHEB_DEGREE ([1, 64]), HYMV_CHEB_EIG_ITERS ([1, 1000]) and
/// HYMV_CHEB_EIG_RATIO (> 1) on top of `fallback`.
[[nodiscard]] pla::ChebyshevOptions chebyshev_options_from_env(
    pla::ChebyshevOptions fallback = {});

/// HYMV_MG_LEVELS ([2, 10]), HYMV_MG_SWEEPS ([1, 8]), HYMV_MG_SMOOTHER
/// ("chebyshev" | "jacobi"), HYMV_MG_CHEB_DEGREE ([1, 8]) and
/// HYMV_MG_COARSE ("direct" | "ilu0") on top of `fallback`.
[[nodiscard]] pla::MultigridOptions multigrid_options_from_env(
    pla::MultigridOptions fallback = {});

/// HYMV_NRHS, the panel width measure_spmv applies at ([1, 64], the panel
/// widths the kernels support).
[[nodiscard]] int nrhs_from_env(int fallback);

/// HYMV_BACKEND: the backend_name() vocabulary ("assembled" | "hymv" |
/// "matrix-free" | "hymv-gpu" | "assembled-gpu" | "adaptive").
[[nodiscard]] Backend backend_from_env(Backend fallback);

/// HYMV_PRECOND: the precond_name() vocabulary ("none" | "jacobi" |
/// "block-jacobi" | "node-block-jacobi" | "chebyshev" | "multigrid").
[[nodiscard]] Precond precond_from_env(Precond fallback);

}  // namespace hymv::driver
