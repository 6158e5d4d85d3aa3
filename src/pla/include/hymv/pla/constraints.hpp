#pragma once

/// \file constraints.hpp
/// Dirichlet boundary conditions applied symmetrically at the operator
/// level. All three SPMV backends (assembled, HYMV, matrix-free) are
/// wrapped identically, so the method comparison is apples-to-apples:
///
///   Â = P A P + (I − P),   b̂ = P (b − A u_D) + u_D on constrained DoFs,
///
/// where P zeroes constrained DoFs. Â is SPD whenever A is SPD on the
/// interior subspace, and the CG solution carries the prescribed values
/// exactly (the PETSc MatZeroRowsColumns treatment).

#include <cstdint>
#include <vector>

#include "hymv/pla/operator.hpp"

namespace hymv::pla {

/// A set of constrained *owned-local* DoF indices with prescribed values.
class DirichletConstraints {
 public:
  /// Record constraint u[local_dof] = value (local_dof in [0, owned)).
  void add(std::int64_t local_dof, double value);

  /// Sort/dedupe; must be called once before use. Duplicate DoFs must carry
  /// identical values.
  void finalize();

  [[nodiscard]] std::int64_t size() const {
    return static_cast<std::int64_t>(dofs_.size());
  }
  [[nodiscard]] const std::vector<std::int64_t>& dofs() const { return dofs_; }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] bool finalized() const { return finalized_; }

  /// Zero the constrained entries of v (the projector P).
  void project(DistVector& v) const;
  /// P applied to every lane of a panel.
  void project(DistMultiVector& v) const;

  /// Write the prescribed values into the constrained entries of v.
  void apply_values(DistVector& v) const;

  /// True if local dof i is constrained (binary search).
  [[nodiscard]] bool is_constrained(std::int64_t local_dof) const;

 private:
  std::vector<std::int64_t> dofs_;
  std::vector<double> values_;
  bool finalized_ = false;
};

/// The symmetric constrained wrapper Â = P A P + (I − P). Panels forward
/// to the inner operator's apply_multi, so a k-lane apply streams the inner
/// operator once, not once per lane.
class ConstrainedOperator final : public LinearOperator {
 public:
  /// `inner` and `constraints` must outlive this wrapper.
  ConstrainedOperator(LinearOperator& inner,
                      const DirichletConstraints& constraints);

  [[nodiscard]] const Layout& layout() const override {
    return inner_->layout();
  }
  void apply(simmpi::Comm& comm, const DistVector& x, DistVector& y) override;
  void apply_multi(simmpi::Comm& comm, const DistMultiVector& x,
                   DistMultiVector& y) override;
  std::vector<double> diagonal(simmpi::Comm& comm) override;
  CsrMatrix owned_block(simmpi::Comm& comm) override;
  [[nodiscard]] std::int64_t apply_flops() const override {
    return inner_->apply_flops();
  }
  [[nodiscard]] std::int64_t apply_bytes() const override {
    return inner_->apply_bytes();
  }
  [[nodiscard]] std::int64_t apply_flops_multi(int nrhs) const override {
    return inner_->apply_flops_multi(nrhs);
  }
  [[nodiscard]] std::int64_t apply_bytes_multi(int nrhs) const override {
    return inner_->apply_bytes_multi(nrhs);
  }

 private:
  LinearOperator* inner_;
  const DirichletConstraints* constraints_;
  DistVector scratch_;
  DistMultiVector scratch_panel_;  ///< sized on first use per panel width
};

/// Transform the right-hand side: b ← P (b − A u_D) + u_D on constrained
/// DoFs. Collective (performs one A·u_D apply).
void apply_constraints_to_rhs(simmpi::Comm& comm, LinearOperator& a,
                              const DirichletConstraints& constraints,
                              DistVector& b);

}  // namespace hymv::pla
