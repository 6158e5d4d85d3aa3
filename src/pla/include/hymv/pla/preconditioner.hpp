#pragma once

/// \file preconditioner.hpp
/// Preconditioners for the CG solver (paper §V-F): identity, Jacobi
/// (point diagonal scaling) and block-Jacobi (one block per rank, ILU(0)
/// sub-solve — PETSc's bjacobi/ilu default). The block variant is the case
/// where HYMV must assemble its owned diagonal block (paper's remark in
/// §V-F), which hymv::HymvOperator::owned_block provides.

#include <memory>
#include <span>
#include <vector>

#include "hymv/pla/csr.hpp"
#include "hymv/pla/dist_multi_vector.hpp"
#include "hymv/pla/dist_vector.hpp"
#include "hymv/pla/operator.hpp"

namespace hymv::pla {

/// z = M⁻¹ r interface used inside CG.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void apply(simmpi::Comm& comm, const DistVector& r,
                     DistVector& z) = 0;
  /// Panel twin of apply(): z(·,j) = M⁻¹ r(·,j) for every lane j with
  /// active[j] != 0; the other lanes of z stay bitwise untouched. The
  /// default copies each active lane out, runs apply() on it and copies it
  /// back, so every preconditioner serves panel CG; pointwise ones override
  /// it with one pass over the lane-interleaved panel. Collective when
  /// apply() is.
  virtual void apply_multi(simmpi::Comm& comm, const DistMultiVector& r,
                           DistMultiVector& z,
                           std::span<const unsigned char> active);
};

/// z = r.
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(simmpi::Comm& comm, const DistVector& r, DistVector& z) override;
};

/// z = diag(A)⁻¹ r.
///
/// Singular-diagonal policy (shared with NodeBlockJacobiPreconditioner):
/// a zero diagonal entry — typically a constrained-DoF row of an operator
/// that was not wrapped in ConstrainedOperator — used to silently become
/// inf and poison the solve. By default the offending row now falls back
/// to identity scaling (z_i = r_i) and is counted in the collective
/// `precond.singular_rows` counter of comm.metrics(); `strict = true`
/// restores the old throw-on-construction behavior.
class JacobiPreconditioner final : public Preconditioner {
 public:
  /// Collective: queries A's diagonal.
  JacobiPreconditioner(simmpi::Comm& comm, LinearOperator& a,
                       bool strict = false);
  void apply(simmpi::Comm& comm, const DistVector& r, DistVector& z) override;
  /// One pass over the panel: z(i,j) = inv_diag[i] · r(i,j) on the active
  /// lanes, apply()'s product, so each lane has apply()'s bits.
  void apply_multi(simmpi::Comm& comm, const DistMultiVector& r,
                   DistMultiVector& z,
                   std::span<const unsigned char> active) override;

 private:
  std::vector<double> inv_diag_;
};

/// Node-block Jacobi for vector-valued problems (ndof unknowns per node):
/// inverts each node's ndof×ndof diagonal block exactly. Stronger than
/// point Jacobi for elasticity (couples the displacement components at a
/// node) while staying embarrassingly local — the "block preconditioner
/// support" the paper lists among HYMV's features (§I).
class NodeBlockJacobiPreconditioner final : public Preconditioner {
 public:
  /// Collective: extracts the node-diagonal blocks from A's owned block.
  /// `ndof` must divide the owned size. Singular node blocks follow the
  /// JacobiPreconditioner policy: identity fallback for the whole block
  /// (all ndof rows counted in `precond.singular_rows`) unless `strict`.
  NodeBlockJacobiPreconditioner(simmpi::Comm& comm, LinearOperator& a,
                                int ndof, bool strict = false);
  void apply(simmpi::Comm& comm, const DistVector& r, DistVector& z) override;

 private:
  int ndof_;
  /// Inverted blocks, ndof×ndof column-major per node.
  std::vector<double> inv_blocks_;
};

/// One block per rank: z_local = ILU0(A_owned_block)⁻¹ r_local.
class BlockJacobiPreconditioner final : public Preconditioner {
 public:
  /// Collective: queries A's owned diagonal block and factors it.
  BlockJacobiPreconditioner(simmpi::Comm& comm, LinearOperator& a);
  void apply(simmpi::Comm& comm, const DistVector& r, DistVector& z) override;

 private:
  std::unique_ptr<Ilu0> ilu_;
};

}  // namespace hymv::pla
