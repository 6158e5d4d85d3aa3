#pragma once

/// \file emv_reference.hpp
/// Row-dot reference EMV for the tests and benches. Each output is one
/// dot product over its row in ascending column order, multiply then add:
/// the access pattern a naive implementation produces, against which the
/// library's column-sweep kernels are checked and timed. No library path
/// runs it.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hymv/core/element_store.hpp"
#include "hymv/core/hymv_operator.hpp"

namespace hymv::reference {

/// v = K u, K column-major n×n with leading dimension ld.
inline void emv_rowdot(const double* ke, std::size_t ld, std::size_t n,
                       const double* u, double* v) {
  for (std::size_t r = 0; r < n; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      sum += ke[c * ld + r] * u[c];
    }
    v[r] = sum;
  }
}

/// v_e = K_e u_e for element e of a store in any layout, by row dots over
/// the entries ElementMatrixStore::at() reads.
inline void emv_rowdot(const core::ElementMatrixStore& store, std::int64_t e,
                       const double* u, double* v) {
  const int n = store.ndofs();
  for (int r = 0; r < n; ++r) {
    double sum = 0.0;
    for (int c = 0; c < n; ++c) {
      sum += store.at(e, r, c) * u[c];
    }
    v[r] = sum;
  }
}

/// y = A x through op's maps and store with every element's product taken
/// by emv_rowdot: the operator's apply with the reference in place of its
/// kernels, serial, in element order. Collective over comm.
inline void apply_rowdot(simmpi::Comm& comm, core::HymvOperator& op,
                         const pla::DistVector& x, pla::DistVector& y) {
  core::DofMaps& maps = op.mutable_maps();
  core::DistributedArray u(maps), v(maps);
  std::copy(x.values().begin(), x.values().end(), u.owned().begin());
  maps.exchange().forward_begin(comm, x.values());
  maps.exchange().forward_end(comm);
  u.load_ghosts(maps.exchange().ghost_values());
  const auto n = static_cast<std::size_t>(op.store().ndofs());
  std::vector<double> ue(n), ve(n);
  for (std::int64_t e = 0; e < maps.num_elements(); ++e) {
    const auto e2l = maps.e2l(e);
    for (std::size_t a = 0; a < n; ++a) {
      ue[a] = u.all()[static_cast<std::size_t>(e2l[a])];
    }
    emv_rowdot(op.store(), e, ue.data(), ve.data());
    for (std::size_t a = 0; a < n; ++a) {
      v.all()[static_cast<std::size_t>(e2l[a])] += ve[a];
    }
  }
  std::vector<double> ghosts(
      static_cast<std::size_t>(maps.n_pre() + maps.n_post()));
  core::reduce_da_to_owned(comm, maps, v, ghosts, y.values());
}

}  // namespace hymv::reference
