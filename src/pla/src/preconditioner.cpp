#include "hymv/pla/preconditioner.hpp"

#include <cmath>

#include "hymv/common/error.hpp"
#include "hymv/obs/metrics.hpp"

namespace hymv::pla {

// Default for operators that cannot cheaply produce their owned block.
CsrMatrix LinearOperator::owned_block(simmpi::Comm&) {
  HYMV_THROW("LinearOperator: owned_block not supported by this operator");
}

void Preconditioner::apply_multi(simmpi::Comm& comm, const DistMultiVector& r,
                                 DistMultiVector& z,
                                 std::span<const unsigned char> active) {
  DistVector rj(r.layout());
  DistVector zj(r.layout());
  for (int j = 0; j < r.width(); ++j) {
    if (active[static_cast<std::size_t>(j)] != 0) {
      r.get_lane(j, rj);
      apply(comm, rj, zj);
      z.set_lane(j, zj);
    }
  }
}

void IdentityPreconditioner::apply(simmpi::Comm&, const DistVector& r,
                                   DistVector& z) {
  copy(r, z);
}

JacobiPreconditioner::JacobiPreconditioner(simmpi::Comm& comm,
                                           LinearOperator& a, bool strict)
    : inv_diag_(a.diagonal(comm)) {
  std::int64_t singular = 0;
  for (double& d : inv_diag_) {
    if (!(std::abs(d) > 0.0)) {
      HYMV_CHECK_MSG(!strict, "JacobiPreconditioner: zero diagonal");
      // Identity fallback: z_i = r_i on the degenerate row instead of the
      // silent inf that 1/0 produced. Typical cause: a constrained-DoF row
      // of an operator not wrapped in ConstrainedOperator.
      d = 1.0;
      ++singular;
      continue;
    }
    d = 1.0 / d;
  }
  if (singular > 0) {
    comm.metrics().counter("precond.singular_rows").add(singular);
  }
}

void JacobiPreconditioner::apply(simmpi::Comm&, const DistVector& r,
                                 DistVector& z) {
  HYMV_CHECK_MSG(static_cast<std::size_t>(r.owned_size()) == inv_diag_.size(),
                 "JacobiPreconditioner: size mismatch");
  const auto rs = r.values();
  const auto zs = z.values();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    zs[i] = inv_diag_[i] * rs[i];
  }
}

void JacobiPreconditioner::apply_multi(simmpi::Comm&, const DistMultiVector& r,
                                       DistMultiVector& z,
                                       std::span<const unsigned char> active) {
  HYMV_CHECK_MSG(static_cast<std::size_t>(r.owned_size()) == inv_diag_.size() &&
                     z.owned_size() == r.owned_size() &&
                     z.width() == r.width() &&
                     active.size() == static_cast<std::size_t>(r.width()),
                 "JacobiPreconditioner: panel size mismatch");
  const std::size_t k = active.size();
  const auto rs = r.values();
  const auto zs = z.values();
  for (std::size_t i = 0; i < inv_diag_.size(); ++i) {
    const double d = inv_diag_[i];
    for (std::size_t j = 0; j < k; ++j) {
      if (active[j] != 0) {
        zs[i * k + j] = d * rs[i * k + j];
      }
    }
  }
}

namespace {

/// Gauss-Jordan inversion of a d×d column-major block, with partial
/// pivoting. Returns false (inv unspecified) when a pivot vanishes.
bool invert_block(std::size_t d, std::vector<double>& m,
                  std::vector<double>& inv) {
  std::fill(inv.begin(), inv.end(), 0.0);
  for (std::size_t i = 0; i < d; ++i) {
    inv[i * d + i] = 1.0;
  }
  for (std::size_t col = 0; col < d; ++col) {
    // Partial pivoting within the block.
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < d; ++row) {
      if (std::abs(m[col * d + row]) > std::abs(m[col * d + pivot])) {
        pivot = row;
      }
    }
    if (!(std::abs(m[col * d + pivot]) > 0.0)) {
      return false;
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < d; ++c) {
        std::swap(m[c * d + col], m[c * d + pivot]);
        std::swap(inv[c * d + col], inv[c * d + pivot]);
      }
    }
    const double scale = 1.0 / m[col * d + col];
    for (std::size_t c = 0; c < d; ++c) {
      m[c * d + col] *= scale;
      inv[c * d + col] *= scale;
    }
    for (std::size_t row = 0; row < d; ++row) {
      if (row == col) {
        continue;
      }
      const double factor = m[col * d + row];
      for (std::size_t c = 0; c < d; ++c) {
        m[c * d + row] -= factor * m[c * d + col];
        inv[c * d + row] -= factor * inv[c * d + col];
      }
    }
  }
  return true;
}

}  // namespace

NodeBlockJacobiPreconditioner::NodeBlockJacobiPreconditioner(
    simmpi::Comm& comm, LinearOperator& a, int ndof, bool strict)
    : ndof_(ndof) {
  HYMV_CHECK_MSG(ndof >= 1 && ndof <= 6,
                 "NodeBlockJacobiPreconditioner: unsupported block size");
  const CsrMatrix block = a.owned_block(comm);
  const std::int64_t n = block.num_rows();
  HYMV_CHECK_MSG(n % ndof == 0,
                 "NodeBlockJacobiPreconditioner: ndof must divide owned size");
  const std::int64_t nodes = n / ndof;
  const auto d = static_cast<std::size_t>(ndof);
  inv_blocks_.assign(static_cast<std::size_t>(nodes) * d * d, 0.0);

  std::int64_t singular = 0;
  std::vector<double> m(d * d), inv(d * d);
  for (std::int64_t node = 0; node < nodes; ++node) {
    for (std::size_t j = 0; j < d; ++j) {
      for (std::size_t i = 0; i < d; ++i) {
        m[j * d + i] = block.at(node * ndof + static_cast<std::int64_t>(i),
                                node * ndof + static_cast<std::int64_t>(j));
      }
    }
    if (!invert_block(d, m, inv)) {
      HYMV_CHECK_MSG(!strict,
                     "NodeBlockJacobiPreconditioner: singular node block");
      // Identity fallback for the whole node block (see the class doc):
      // the old behavior silently baked garbage from a half-finished
      // elimination into inv_blocks_.
      std::fill(inv.begin(), inv.end(), 0.0);
      for (std::size_t i = 0; i < d; ++i) {
        inv[i * d + i] = 1.0;
      }
      singular += ndof;
    }
    std::copy(inv.begin(), inv.end(),
              inv_blocks_.begin() + static_cast<std::ptrdiff_t>(
                                        static_cast<std::size_t>(node) * d * d));
  }
  if (singular > 0) {
    comm.metrics().counter("precond.singular_rows").add(singular);
  }
}

void NodeBlockJacobiPreconditioner::apply(simmpi::Comm&, const DistVector& r,
                                          DistVector& z) {
  const auto d = static_cast<std::size_t>(ndof_);
  const auto rs = r.values();
  const auto zs = z.values();
  HYMV_CHECK_MSG(rs.size() % d == 0 &&
                     (rs.size() / d) * d * d == inv_blocks_.size(),
                 "NodeBlockJacobiPreconditioner: size mismatch");
  const std::size_t nodes = rs.size() / d;
  for (std::size_t node = 0; node < nodes; ++node) {
    const double* inv = inv_blocks_.data() + node * d * d;
    const double* rn = rs.data() + node * d;
    double* zn = zs.data() + node * d;
    for (std::size_t i = 0; i < d; ++i) {
      zn[i] = 0.0;
    }
    for (std::size_t j = 0; j < d; ++j) {
      for (std::size_t i = 0; i < d; ++i) {
        zn[i] += inv[j * d + i] * rn[j];
      }
    }
  }
}

BlockJacobiPreconditioner::BlockJacobiPreconditioner(simmpi::Comm& comm,
                                                     LinearOperator& a) {
  const CsrMatrix block = a.owned_block(comm);
  ilu_ = std::make_unique<Ilu0>(block);
}

void BlockJacobiPreconditioner::apply(simmpi::Comm&, const DistVector& r,
                                      DistVector& z) {
  ilu_->solve(r.values(), z.values());
}

}  // namespace hymv::pla
