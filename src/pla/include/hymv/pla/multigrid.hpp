#pragma once

/// \file multigrid.hpp
/// Geometric multigrid preconditioner on the structured-mesh lattice
/// hierarchy. One symmetric V-cycle per application:
///
///   * levels built by full coarsening of the fine half-step lattice
///     (stride doubling; coarse levels live on the vertex sub-lattice, so
///     the same hierarchy serves hex8/hex20/hex27 fine meshes),
///   * linear (trilinear) interpolation P with restriction R = Pᵀ — the
///     transpose pair that keeps the V-cycle symmetric,
///   * Galerkin coarse operators A_{l+1} = Pᵀ A_l P,
///   * Chebyshev (default) or damped-Jacobi smoothing, same sweep count
///     pre and post, so the cycle is a fixed SPD operator and plain CG
///     (not flexible CG) is sound on top of it,
///   * direct dense-LU or ILU(0) coarse solve.
///
/// The cycle itself is SERIAL and rank-replicated: under p simmpi ranks,
/// apply() allgathers the owned residual blocks into the global vector
/// (rank ranges are ordered, so concatenation IS the global ordering),
/// every rank runs the identical deterministic V-cycle, and copies out its
/// owned slice. That trades redundant flops for zero communication inside
/// the cycle — the right trade at the scale this repo's simulated-MPI jobs
/// run, and it keeps results independent of the rank count by
/// construction.
///
/// fp32 mode stores the level matrices and smoother scalings in fp32 and
/// applies them with fp64 accumulation (the kFp32 widening-accumulate
/// discipline); transfers keep exact power-of-two weights and the coarse
/// factorization stays fp64.

#include <cstdint>
#include <memory>
#include <vector>

#include "hymv/pla/csr.hpp"
#include "hymv/pla/dist_vector.hpp"
#include "hymv/pla/preconditioner.hpp"

namespace hymv::pla {

/// Fine-lattice description handed in by the driver: the solver node id at
/// every point of the structured half-step lattice (mx·my·mz entries, x
/// fastest), or -1 where the element type hosts no node.
struct MgGridSpec {
  std::int64_t mx = 0;
  std::int64_t my = 0;
  std::int64_t mz = 0;
  std::vector<std::int64_t> node_at;  ///< solver node id or -1, x fastest
  int ndof = 1;                       ///< unknowns per node

  [[nodiscard]] std::size_t index(std::int64_t i, std::int64_t j,
                                  std::int64_t k) const {
    return static_cast<std::size_t>((k * my + j) * mx + i);
  }
};

struct MultigridOptions {
  /// Level cap including the fine level. Valid range [2, 10]; coarsening
  /// also stops when the next level would not divide the lattice or the
  /// coarse problem reaches coarse_target DoFs.
  int max_levels = 4;
  /// Pre- and post-smoothing sweeps per level (same count both sides —
  /// symmetry). Valid range [1, 8].
  int sweeps = 1;
  enum class Smoother { kChebyshev, kJacobi };
  Smoother smoother = Smoother::kChebyshev;
  /// Chebyshev smoother polynomial degree. Valid range [1, 8].
  int cheb_degree = 2;
  enum class CoarseSolve { kDirect, kIlu0 };
  CoarseSolve coarse = CoarseSolve::kDirect;
  /// Stop coarsening once a level is at or below this many DoFs.
  std::int64_t coarse_target = 2000;
  /// fp32 level matrices + smoother scalings (fp64 accumulation).
  bool fp32 = false;
  /// Singular coarse diagonals: false = identity row fallback counted in
  /// `precond.singular_rows`, true = throw.
  bool strict = false;
};

/// See the file doc. Construction is collective only in the trivial sense
/// (every rank builds the identical hierarchy from the identical serial
/// inputs); apply() is collective (one allgatherv when nranks > 1).
class GeometricMultigridPreconditioner final : public Preconditioner {
 public:
  /// `a_fine` is the SERIAL constrained global matrix Â (e.g. from
  /// core::assemble_global_serial), `grid` the fine lattice, and
  /// `constrained[g]` the Dirichlet flag of global DoF g — transfers are
  /// zeroed there so the hierarchy preserves Â's identity rows. `layout`
  /// is this rank's owned slice of the global ordering.
  GeometricMultigridPreconditioner(simmpi::Comm& comm, CsrMatrix a_fine,
                                   const MgGridSpec& grid,
                                   const std::vector<std::uint8_t>& constrained,
                                   const Layout& layout,
                                   const MultigridOptions& options = {});
  ~GeometricMultigridPreconditioner() override;

  void apply(simmpi::Comm& comm, const DistVector& r, DistVector& z) override;

  [[nodiscard]] int num_levels() const;
  [[nodiscard]] std::int64_t coarse_dofs() const;

  /// One serial V-cycle z = M⁻¹ b on full-length global vectors — the
  /// entry point apply() wraps; exposed for convergence-factor tests.
  void v_cycle(const std::vector<double>& b, std::vector<double>& z);

 private:
  struct Level;
  /// Pre/post smoothing sweeps on one level (same operation both sides —
  /// a fixed polynomial in D⁻¹A, so the V-cycle stays symmetric).
  void smooth(std::size_t level);
  static void level_spmv(const Level& lvl, std::span<const double> x,
                         std::span<double> y);
  static void level_scale(const Level& lvl, std::span<const double> v,
                          std::span<double> t);

  Layout layout_;
  MultigridOptions opt_;
  std::vector<std::unique_ptr<Level>> levels_;
  std::vector<double> gr_, gz_;  ///< global gather/solution scratch
};

}  // namespace hymv::pla
