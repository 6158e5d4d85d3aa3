#include "hymv/pla/constraints.hpp"

#include <algorithm>
#include <numeric>

#include "hymv/common/error.hpp"

namespace hymv::pla {

void DirichletConstraints::add(std::int64_t local_dof, double value) {
  HYMV_CHECK_MSG(!finalized_, "DirichletConstraints: add after finalize");
  HYMV_CHECK_MSG(local_dof >= 0, "DirichletConstraints: negative dof");
  dofs_.push_back(local_dof);
  values_.push_back(value);
}

void DirichletConstraints::finalize() {
  HYMV_CHECK_MSG(!finalized_, "DirichletConstraints: finalize called twice");
  std::vector<std::size_t> order(dofs_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return dofs_[a] < dofs_[b];
  });
  std::vector<std::int64_t> dofs;
  std::vector<double> values;
  dofs.reserve(dofs_.size());
  values.reserve(values_.size());
  for (const std::size_t k : order) {
    if (!dofs.empty() && dofs.back() == dofs_[k]) {
      HYMV_CHECK_MSG(values.back() == values_[k],
                     "DirichletConstraints: conflicting values for one DoF");
      continue;
    }
    dofs.push_back(dofs_[k]);
    values.push_back(values_[k]);
  }
  dofs_ = std::move(dofs);
  values_ = std::move(values);
  finalized_ = true;
}

void DirichletConstraints::project(DistVector& v) const {
  HYMV_CHECK_MSG(finalized_, "DirichletConstraints: not finalized");
  for (const std::int64_t d : dofs_) {
    v[d] = 0.0;
  }
}

void DirichletConstraints::project(DistMultiVector& v) const {
  HYMV_CHECK_MSG(finalized_, "DirichletConstraints: not finalized");
  for (const std::int64_t d : dofs_) {
    for (int j = 0; j < v.width(); ++j) {
      v.at(d, j) = 0.0;
    }
  }
}

void DirichletConstraints::apply_values(DistVector& v) const {
  HYMV_CHECK_MSG(finalized_, "DirichletConstraints: not finalized");
  for (std::size_t k = 0; k < dofs_.size(); ++k) {
    v[dofs_[k]] = values_[k];
  }
}

bool DirichletConstraints::is_constrained(std::int64_t local_dof) const {
  return std::binary_search(dofs_.begin(), dofs_.end(), local_dof);
}

ConstrainedOperator::ConstrainedOperator(
    LinearOperator& inner, const DirichletConstraints& constraints)
    : inner_(&inner),
      constraints_(&constraints),
      scratch_(inner.layout()) {
  HYMV_CHECK_MSG(constraints.finalized(),
                 "ConstrainedOperator: constraints must be finalized");
}

void ConstrainedOperator::apply(simmpi::Comm& comm, const DistVector& x,
                                DistVector& y) {
  // y = P A (P x) + (I − P) x
  copy(x, scratch_);
  constraints_->project(scratch_);
  inner_->apply(comm, scratch_, y);
  constraints_->project(y);
  for (const std::int64_t d : constraints_->dofs()) {
    y[d] = x[d];
  }
}

void ConstrainedOperator::apply_multi(simmpi::Comm& comm,
                                      const DistMultiVector& x,
                                      DistMultiVector& y) {
  // The same Â as apply(), lane by lane, through ONE inner panel apply.
  const int k = x.width();
  HYMV_CHECK_MSG(k >= 1 && y.width() == k,
                 "ConstrainedOperator::apply_multi: panel width mismatch");
  if (scratch_panel_.width() != k) {
    scratch_panel_ = DistMultiVector(layout(), k);
  }
  copy(x, scratch_panel_);
  constraints_->project(scratch_panel_);
  inner_->apply_multi(comm, scratch_panel_, y);
  for (const std::int64_t d : constraints_->dofs()) {
    for (int j = 0; j < k; ++j) {
      y.at(d, j) = x.at(d, j);
    }
  }
}

std::vector<double> ConstrainedOperator::diagonal(simmpi::Comm& comm) {
  std::vector<double> diag = inner_->diagonal(comm);
  for (const std::int64_t d : constraints_->dofs()) {
    diag[static_cast<std::size_t>(d)] = 1.0;
  }
  return diag;
}

CsrMatrix ConstrainedOperator::owned_block(simmpi::Comm& comm) {
  const CsrMatrix block = inner_->owned_block(comm);
  // Rebuild with constrained rows/cols cleared and unit diagonal.
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(block.num_nonzeros()));
  const auto& row_ptr = block.row_ptr();
  const auto& col_idx = block.col_idx();
  const auto& vals = block.values();
  for (std::int64_t r = 0; r < block.num_rows(); ++r) {
    const bool row_constrained = constraints_->is_constrained(r);
    for (std::int64_t k = row_ptr[static_cast<std::size_t>(r)];
         k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      const std::int64_t c = col_idx[static_cast<std::size_t>(k)];
      if (row_constrained || constraints_->is_constrained(c)) {
        continue;
      }
      triplets.push_back(Triplet{r, c, vals[static_cast<std::size_t>(k)]});
    }
  }
  for (const std::int64_t d : constraints_->dofs()) {
    triplets.push_back(Triplet{d, d, 1.0});
  }
  return CsrMatrix::from_triplets(block.num_rows(), block.num_cols(),
                                  std::move(triplets));
}

void apply_constraints_to_rhs(simmpi::Comm& comm, LinearOperator& a,
                              const DirichletConstraints& constraints,
                              DistVector& b) {
  DistVector ud(a.layout()), aud(a.layout());
  constraints.apply_values(ud);
  a.apply(comm, ud, aud);
  axpy(-1.0, aud, b);
  constraints.project(b);
  constraints.apply_values(b);
}

}  // namespace hymv::pla
