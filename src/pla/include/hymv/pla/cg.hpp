#pragma once

/// \file cg.hpp
/// Preconditioned conjugate-gradient solver (the KSP the paper uses for
/// every total-solve experiment, §V-F). Operator-agnostic: assembled CSR,
/// HYMV, matrix-free and GPU-backed operators all plug in through
/// LinearOperator.

#include <cstdint>
#include <functional>
#include <vector>

#include "hymv/pla/dist_multi_vector.hpp"
#include "hymv/pla/dist_vector.hpp"
#include "hymv/pla/operator.hpp"
#include "hymv/pla/preconditioner.hpp"

namespace hymv::pla {

struct CgOptions {
  double rtol = 1e-8;        ///< relative residual tolerance ‖r‖/‖b‖
  double atol = 0.0;         ///< absolute residual tolerance
  std::int64_t max_iters = 10000;

  /// Pipelined CG (Ghysels & Vanroose): the three per-iteration reductions
  /// fuse into ONE allreduce whose communication overlaps the next
  /// preconditioner + operator apply (simmpi's split allreduce keeps the
  /// combine order rank-deterministic). Same Krylov space, different
  /// rounding — iteration counts may differ from standard CG by a few (the
  /// pinning test guards the counts). Checkpoint/rollback and true-residual
  /// replacement work unchanged. cg_solve_multi has no pipelined variant
  /// and falls back to the standard panel iteration. driver::solve_problem
  /// sets this from the HYMV_CG_PIPELINED environment variable (0/1).
  bool pipelined = false;

  // --- resilience (every knob defaults OFF; with the defaults the
  // iteration is bitwise identical to the pre-resilience solver) ----------

  /// Every N iterations, replace the recurrence residual with the true
  /// residual b − A x (one extra operator apply) and restart the search
  /// direction from the preconditioned residual. Detects and repairs
  /// recurrence drift from transient data corruption. 0 = never.
  std::int64_t true_residual_every = 0;
  /// Every N iterations, snapshot {x, r, p, rz, ‖r‖} in memory so a
  /// detected fault can roll the iteration back instead of failing the
  /// solve. 0 = no checkpoints (faults surface as breakdowns).
  std::int64_t checkpoint_every = 0;
  /// Rollbacks allowed before the solve reports a breakdown — bounds the
  /// work a persistent fault can consume.
  int max_rollbacks = 3;
  /// A finite ‖r‖ above divergence_factor × best-so-far is treated as a
  /// fault (rollback) rather than normal non-convergence.
  double divergence_factor = 1e4;
  /// Test hook, called at the top of every iteration with (it, x, r) —
  /// fault campaigns corrupt the iterate mid-stream through this. Must
  /// behave identically on every rank (recovery decisions are collective).
  std::function<void(std::int64_t, DistVector&, DistVector&)> fault_hook;
  /// Panel-solver counterpart of fault_hook.
  std::function<void(std::int64_t, DistMultiVector&, DistMultiVector&)>
      fault_hook_multi;

  // --- cooperative cancellation (default off: bitwise-identical) ---------

  /// Polled at the top of every iteration with the iteration number.
  /// Returning true stops the solve immediately: the best iterate so far is
  /// left in x and the result reports canceled=true (converged stays
  /// false). Lanes of cg_solve_multi that already converged before the stop
  /// keep their converged result — only still-active lanes are marked
  /// canceled. The callback MUST return the same answer on every rank (the
  /// stop decision is collective); deadline checks against a wall clock are
  /// safe only on single-rank jobs or with a rank-0 broadcast. The
  /// SolveService uses this for per-request deadlines and watchdog kills.
  std::function<bool(std::int64_t)> should_stop;
};

struct CgResult {
  std::int64_t iterations = 0;
  double final_residual = 0.0;   ///< ‖r‖₂ at exit
  /// ‖r‖₂ / ‖b‖₂ at exit. Convention for ‖b‖ = 0 (the convergence target
  /// degenerates to max(atol, rtol), matching PETSc): a converged solve
  /// found the exact solution x = 0 and reports 0 here; a non-converged /
  /// broken-down / canceled solve reports the absolute ‖r‖₂ so the failure
  /// magnitude is still visible. final_residual always carries ‖r‖₂.
  double relative_residual = 0.0;
  bool converged = false;
  /// True when the iteration stopped on a numerical breakdown (e.g. an
  /// indefinite operator yields p·Ap ≤ 0, or a BiCGStab orthogonality
  /// collapse). The best iterate so far is left in x — reported like a
  /// non-converged run rather than aborting the caller.
  bool breakdown = false;
  const char* breakdown_reason = "";  ///< static description, "" if none
  /// True when CgOptions::should_stop ended the iteration before the lane
  /// converged (deadline/cancellation, not a numerical event).
  bool canceled = false;

  // --- recovery visibility (every detection/repair event is counted) -----
  std::int64_t checkpoints_taken = 0;
  std::int64_t rollbacks = 0;              ///< checkpoint restores performed
  std::int64_t residual_replacements = 0;  ///< true-residual recomputations
};

/// Solve A x = b with preconditioner M, starting from the provided x.
/// Collective over `comm`.
CgResult cg_solve(simmpi::Comm& comm, LinearOperator& a, Preconditioner& m,
                  const DistVector& b, DistVector& x,
                  const CgOptions& options = {});

/// Multi-RHS CG: solve A x_j = b_j for every lane j of the panel at once.
/// One apply_multi() per iteration serves all lanes (the operator — HYMV's
/// element-matrix stream — is traversed once per iteration instead of once
/// per lane), while α/β/convergence stay *per lane*: each lane runs the
/// recurrence of a standalone cg_solve, equal to it up to rounding (the
/// panel kernels round differently, so a lane's iteration count may differ
/// by one). Converged (or broken-down) lanes are deflated: their x/r/p/z
/// updates stop — frozen bitwise, like a finished standalone solve — and
/// only the shared applies still touch them. Iteration stops when every
/// lane is done. Collective.
std::vector<CgResult> cg_solve_multi(simmpi::Comm& comm, LinearOperator& a,
                                     Preconditioner& m,
                                     const DistMultiVector& b,
                                     DistMultiVector& x,
                                     const CgOptions& options = {});

}  // namespace hymv::pla
