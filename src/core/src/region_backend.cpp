#include "hymv/core/region_backend.hpp"

#include <algorithm>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "hymv/common/aligned.hpp"
#include "hymv/common/error.hpp"
#include "hymv/core/dense_kernels.hpp"

namespace hymv::core {

StoredRegionBackend::StoredRegionBackend(
    const DofMaps& maps, const ElementMatrixStore& store,
    const std::vector<std::int64_t>& elements, const ElementSchedule& sched,
    ThreadSchedule schedule, bool threaded, int rank_tag)
    : sweep_(maps, store),
      store_(&store),
      elements_(&elements),
      sched_(&sched),
      schedule_(schedule),
      threaded_(threaded),
      rank_tag_(rank_tag) {}

void StoredRegionBackend::apply(std::span<const double> u_da,
                                std::span<double> v_da) {
  if (schedule_ == ThreadSchedule::kColored) {
    sweep_.colored_loop(*sched_, threaded_, rank_tag_, u_da, v_da);
    return;
  }
  sweep_.serial_loop(*elements_, u_da, v_da);
}

void StoredRegionBackend::apply_multi(std::span<const double> u_da,
                                      std::span<double> v_da, int k) {
  const auto ku = static_cast<std::size_t>(k);
  if (schedule_ == ThreadSchedule::kColored) {
    sweep_.colored_loop_multi(*sched_, threaded_, rank_tag_, ku, u_da, v_da);
    return;
  }
  sweep_.serial_loop_multi(*elements_, ku, u_da, v_da);
}

void StoredRegionBackend::add_diagonal(std::span<double> v_da) {
  if (schedule_ == ThreadSchedule::kColored) {
    sweep_.diagonal_colored(*sched_, threaded_, v_da);
    return;
  }
  sweep_.diagonal_serial(*elements_, v_da);
}

void StoredRegionBackend::update_elements(
    std::span<const std::int64_t> dirty) {
  (void)dirty;  // the sweep reads the shared store live
}

std::int64_t StoredRegionBackend::apply_flops() const {
  const auto n = static_cast<std::int64_t>(store_->ndofs());
  return static_cast<std::int64_t>(elements_->size()) * 2 * n * n;
}

std::int64_t StoredRegionBackend::apply_bytes() const {
  // Layout-true matrix streaming + u_e gather / v_e scatter, the per-element
  // terms of HymvOperator::apply_bytes restricted to this region.
  const auto n = static_cast<std::int64_t>(store_->ndofs());
  return static_cast<std::int64_t>(elements_->size()) *
         (store_->emv_traffic_bytes_per_elem() + 40 * n);
}

std::int64_t StoredRegionBackend::apply_flops_multi(int k) const {
  return apply_flops() * k;
}

std::int64_t StoredRegionBackend::apply_bytes_multi(int k) const {
  const auto n = static_cast<std::int64_t>(store_->ndofs());
  return static_cast<std::int64_t>(elements_->size()) *
         (store_->emv_panel_traffic_bytes_per_elem() + k * 40 * n);
}

MatrixFreeRegionBackend::MatrixFreeRegionBackend(
    const DofMaps& maps, const fem::ElementOperator& op,
    std::span<const mesh::Point> elem_coords,
    const std::vector<std::int64_t>& elements, const ElementSchedule& sched,
    ThreadSchedule schedule, bool threaded)
    : maps_(&maps),
      op_(&op),
      elem_coords_(elem_coords),
      elements_(&elements),
      sched_(&sched),
      schedule_(schedule),
      threaded_(threaded) {
  HYMV_CHECK_MSG(op.ndof_per_node() == maps.ndof_per_node(),
                 "MatrixFreeRegionBackend: operator/maps DoF mismatch");
}

void MatrixFreeRegionBackend::set_element_op(const fem::ElementOperator& op) {
  HYMV_CHECK_MSG(op.num_dofs() == op_->num_dofs() &&
                     op.num_nodes() == op_->num_nodes(),
                 "MatrixFreeRegionBackend: operator size mismatch");
  op_ = &op;
}

void MatrixFreeRegionBackend::apply(std::span<const double> u_da,
                                    std::span<double> v_da) {
  const auto n = static_cast<std::size_t>(op_->num_dofs());
  const auto nper = static_cast<std::size_t>(op_->num_nodes());

  const auto process = [&](std::int64_t e, std::vector<double>& ke,
                           double* ue, double* ve) {
    const auto e2l = maps_->e2l(e);
    for (std::size_t a = 0; a < n; ++a) {
      ue[a] = u_da[static_cast<std::size_t>(e2l[a])];
    }
    op_->element_matrix(
        std::span<const mesh::Point>(elem_coords_.data() + e * nper, nper),
        ke);
    emv_simd(ke.data(), n, n, ue, ve);
    for (std::size_t a = 0; a < n; ++a) {
      v_da[static_cast<std::size_t>(e2l[a])] += ve[a];
    }
  };

  if (schedule_ == ThreadSchedule::kColored) {
    const std::span<const std::int64_t> order = sched_->order();
#ifdef _OPENMP
    if (threaded_) {
#pragma omp parallel
      {
        std::vector<double> ke(n * n);
        hymv::aligned_vector<double> ue(n), ve(n);
        for (int c = 0; c < sched_->num_colors(); ++c) {
          const std::span<const ElementSchedule::Block> blocks =
              sched_->blocks(c);
#pragma omp for schedule(dynamic, 1)
          for (std::int64_t b = 0;
               b < static_cast<std::int64_t>(blocks.size()); ++b) {
            const ElementSchedule::Block& blk =
                blocks[static_cast<std::size_t>(b)];
            for (std::int64_t i = blk.begin; i < blk.end; ++i) {
              process(order[static_cast<std::size_t>(i)], ke, ue.data(),
                      ve.data());
            }
          }
        }
      }
      return;
    }
#endif
    // Same color-major order serially → bitwise identical to threaded.
    std::vector<double> ke(n * n);
    hymv::aligned_vector<double> ue(n), ve(n);
    for (const std::int64_t e : order) {
      process(e, ke, ue.data(), ve.data());
    }
    return;
  }

  std::vector<double> ke(n * n);
  hymv::aligned_vector<double> ue(n), ve(n);
  for (const std::int64_t e : *elements_) {
    process(e, ke, ue.data(), ve.data());
  }
}

void MatrixFreeRegionBackend::apply_multi(std::span<const double> u_da,
                                          std::span<double> v_da, int k) {
  const auto n = static_cast<std::size_t>(op_->num_dofs());
  const auto nper = static_cast<std::size_t>(op_->num_nodes());
  const auto ku = static_cast<std::size_t>(k);

  const auto process = [&](std::int64_t e, std::vector<double>& ke,
                           double* ue, double* ve) {
    const auto e2l = maps_->e2l(e);
    for (std::size_t a = 0; a < n; ++a) {  // gather the ndofs × k panel
      const double* src =
          u_da.data() + static_cast<std::size_t>(e2l[a]) * ku;
      double* dst = ue + a * ku;
      for (std::size_t j = 0; j < ku; ++j) {
        dst[j] = src[j];
      }
    }
    // One recomputation serves all k lanes — the panel amortization.
    op_->element_matrix(
        std::span<const mesh::Point>(elem_coords_.data() + e * nper, nper),
        ke);
    emv_multi(ke.data(), n, n, ku, ue, ve);
    for (std::size_t a = 0; a < n; ++a) {
      double* dst = v_da.data() + static_cast<std::size_t>(e2l[a]) * ku;
      const double* src = ve + a * ku;
      for (std::size_t j = 0; j < ku; ++j) {
        dst[j] += src[j];
      }
    }
  };

  if (schedule_ == ThreadSchedule::kColored) {
    const std::span<const std::int64_t> order = sched_->order();
#ifdef _OPENMP
    if (threaded_) {
#pragma omp parallel
      {
        std::vector<double> ke(n * n);
        hymv::aligned_vector<double> ue(n * ku), ve(n * ku);
        for (int c = 0; c < sched_->num_colors(); ++c) {
          const std::span<const ElementSchedule::Block> blocks =
              sched_->blocks(c);
#pragma omp for schedule(dynamic, 1)
          for (std::int64_t b = 0;
               b < static_cast<std::int64_t>(blocks.size()); ++b) {
            const ElementSchedule::Block& blk =
                blocks[static_cast<std::size_t>(b)];
            for (std::int64_t i = blk.begin; i < blk.end; ++i) {
              process(order[static_cast<std::size_t>(i)], ke, ue.data(),
                      ve.data());
            }
          }
        }
      }
      return;
    }
#endif
    std::vector<double> ke(n * n);
    hymv::aligned_vector<double> ue(n * ku), ve(n * ku);
    for (const std::int64_t e : order) {
      process(e, ke, ue.data(), ve.data());
    }
    return;
  }

  std::vector<double> ke(n * n);
  hymv::aligned_vector<double> ue(n * ku), ve(n * ku);
  for (const std::int64_t e : *elements_) {
    process(e, ke, ue.data(), ve.data());
  }
}

void MatrixFreeRegionBackend::add_diagonal(std::span<double> v_da) {
  const auto n = static_cast<std::size_t>(op_->num_dofs());
  const auto nper = static_cast<std::size_t>(op_->num_nodes());
  std::vector<double> ke(n * n);
  for (const std::int64_t e : *elements_) {
    op_->element_matrix(
        std::span<const mesh::Point>(elem_coords_.data() + e * nper, nper),
        ke);
    const auto e2l = maps_->e2l(e);
    for (std::size_t a = 0; a < n; ++a) {
      v_da[static_cast<std::size_t>(e2l[a])] += ke[a * n + a];
    }
  }
}

void MatrixFreeRegionBackend::update_elements(
    std::span<const std::int64_t> dirty) {
  (void)dirty;  // recomputed from coordinates on every apply
}

std::int64_t MatrixFreeRegionBackend::apply_flops() const {
  const auto n = static_cast<std::int64_t>(op_->num_dofs());
  return static_cast<std::int64_t>(elements_->size()) *
         (op_->matrix_flops() + 2 * n * n);
}

std::int64_t MatrixFreeRegionBackend::apply_bytes() const {
  // Per-element recomputation traffic + the EMV pass over the fresh K_e and
  // the element vectors (MatrixFreeOperator::apply_bytes per-element terms).
  const auto n = static_cast<std::int64_t>(op_->num_dofs());
  const auto nper = static_cast<std::int64_t>(op_->num_nodes());
  return static_cast<std::int64_t>(elements_->size()) *
         (op_->matrix_traffic_bytes() + 24 * n * n + nper * 24 + 40 * n);
}

std::int64_t MatrixFreeRegionBackend::apply_flops_multi(int k) const {
  const auto n = static_cast<std::int64_t>(op_->num_dofs());
  return static_cast<std::int64_t>(elements_->size()) *
         (op_->matrix_flops() + k * 2 * n * n);
}

std::int64_t MatrixFreeRegionBackend::apply_bytes_multi(int k) const {
  const auto n = static_cast<std::int64_t>(op_->num_dofs());
  const auto nper = static_cast<std::int64_t>(op_->num_nodes());
  return static_cast<std::int64_t>(elements_->size()) *
         (op_->matrix_traffic_bytes() + 24 * n * n + nper * 24 + k * 40 * n);
}

}  // namespace hymv::core
