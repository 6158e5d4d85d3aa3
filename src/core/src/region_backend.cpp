#include "hymv/core/region_backend.hpp"

#include <algorithm>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "hymv/common/aligned.hpp"
#include "hymv/common/error.hpp"
#include "hymv/core/dense_kernels.hpp"
#include "hymv/obs/trace.hpp"

namespace hymv::core {

ElementBlockBackend::ElementBlockBackend(const ElementSchedule& sched,
                                         bool use_openmp, int rank_tag)
    : sched_(&sched), use_openmp_(use_openmp), rank_tag_(rank_tag) {}

bool ElementBlockBackend::threaded() const {
#ifdef _OPENMP
  return use_openmp_ && omp_get_max_threads() > 1;
#else
  return false;
#endif
}

ElementBlockBackend::BlockBody ElementBlockBackend::body(
    int lanes, std::span<const double> u_da, std::span<double> v_da) const {
  return [this, lanes, u_da, v_da](std::int64_t begin, std::int64_t end,
                                   double* ws) {
    run_range(begin, end, lanes, u_da, v_da, ws);
  };
}

void ElementBlockBackend::apply(std::span<const double> u_da,
                                std::span<double> v_da) {
  for_each_block(workspace_size(0), body(0, u_da, v_da));
}

void ElementBlockBackend::apply_multi(std::span<const double> u_da,
                                      std::span<double> v_da, int k) {
  for_each_block(workspace_size(k), body(k, u_da, v_da));
}

void ElementBlockBackend::for_each_block(std::size_t workspace,
                                         const BlockBody& body) const {
  const ElementSchedule& sched = *sched_;
#ifdef _OPENMP
  if (threaded()) {
#pragma omp parallel
    {
      // Tag workers with the owning rank so their spans group under the
      // rank's "process" row; the span itself is free when the tracer is
      // off.
      hymv::obs::set_current_rank(rank_tag_);
      HYMV_TRACE_SCOPE("emv_worker", "apply");
      hymv::aligned_vector<double> ws(workspace);
      for (int c = 0; c < sched.num_colors(); ++c) {
        const std::span<const ElementSchedule::Block> blocks =
            sched.blocks(c);
        // No two blocks of one color share a node, so blocks may be
        // handed out in any order; the implicit barrier fences colors.
#pragma omp for schedule(dynamic, 1)
        for (std::int64_t b = 0; b < static_cast<std::int64_t>(blocks.size());
             ++b) {
          const ElementSchedule::Block& blk =
              blocks[static_cast<std::size_t>(b)];
          body(blk.begin, blk.end, ws.data());
        }
      }
    }
    return;
  }
#endif
  // Serial execution of the same color-major, block-by-block traversal:
  // each DoF still receives its contributions in color order and the
  // per-block batching decisions are identical, so this is bitwise
  // identical to the threaded path above for any thread count.
  hymv::aligned_vector<double> ws(workspace);
  for (int c = 0; c < sched.num_colors(); ++c) {
    for (const ElementSchedule::Block& blk : sched.blocks(c)) {
      body(blk.begin, blk.end, ws.data());
    }
  }
}

void ElementBlockBackend::run_blocks(int color,
                                     std::span<const std::int32_t> ready,
                                     int lanes, std::span<const double> u_da,
                                     std::span<double> v_da) const {
  const std::span<const ElementSchedule::Block> blocks = sched_->blocks(color);
  const BlockBody run = body(lanes, u_da, v_da);
  const std::size_t workspace = workspace_size(lanes);
#ifdef _OPENMP
  if (threaded()) {
    // One ready batch is a set of same-color blocks, so it runs under the
    // usual colored team; the orchestration (message drain + unlock
    // bookkeeping) stays on the calling thread between batches.
#pragma omp parallel
    {
      hymv::obs::set_current_rank(rank_tag_);
      HYMV_TRACE_SCOPE("emv_worker", "apply");
      hymv::aligned_vector<double> ws(workspace);
#pragma omp for schedule(dynamic, 1)
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(ready.size());
           ++i) {
        const ElementSchedule::Block& blk = blocks[static_cast<std::size_t>(
            ready[static_cast<std::size_t>(i)])];
        run(blk.begin, blk.end, ws.data());
      }
    }
    return;
  }
#endif
  hymv::aligned_vector<double> ws(workspace);
  for (const std::int32_t b : ready) {
    const ElementSchedule::Block& blk = blocks[static_cast<std::size_t>(b)];
    run(blk.begin, blk.end, ws.data());
  }
}

StoredRegionBackend::StoredRegionBackend(const DofMaps& maps,
                                         const ElementMatrixStore& store,
                                         const ElementSchedule& sched,
                                         bool use_openmp, int rank_tag)
    : ElementBlockBackend(sched, use_openmp, rank_tag),
      sweep_(maps, store),
      store_(&store) {}

std::size_t StoredRegionBackend::workspace_size(int lanes) const {
  return 2 * sweep_.workspace_size(
                 static_cast<std::size_t>(std::max(lanes, 1)));
}

void StoredRegionBackend::run_range(std::int64_t begin, std::int64_t end,
                                    int lanes, std::span<const double> u_da,
                                    std::span<double> v_da,
                                    double* ws) const {
  const std::span<const std::int64_t> order = schedule().order();
  double* ve = ws + workspace_size(lanes) / 2;
  if (lanes == 0) {
    sweep_.range(order, begin, end, u_da, v_da, ws, ve);
  } else {
    sweep_.range_multi(order, begin, end, static_cast<std::size_t>(lanes),
                       u_da, v_da, ws, ve);
  }
}

void StoredRegionBackend::add_diagonal(std::span<double> v_da) {
  const std::span<const std::int64_t> order = schedule().order();
  for_each_block(0, [&](std::int64_t begin, std::int64_t end, double*) {
    sweep_.diagonal_range(order, begin, end, v_da);
  });
}

void StoredRegionBackend::update_elements(
    std::span<const std::int64_t> dirty) {
  (void)dirty;  // the sweep reads the shared store live
}

std::int64_t StoredRegionBackend::apply_flops() const {
  const auto n = static_cast<std::int64_t>(store_->ndofs());
  return schedule().num_elements() * 2 * n * n;
}

std::int64_t StoredRegionBackend::apply_bytes() const {
  // Layout-true matrix streaming + u_e gather / v_e scatter, the per-element
  // terms of HymvOperator::apply_bytes restricted to this region.
  const auto n = static_cast<std::int64_t>(store_->ndofs());
  return schedule().num_elements() *
         (store_->emv_traffic_bytes_per_elem() + 40 * n);
}

std::int64_t StoredRegionBackend::apply_flops_multi(int k) const {
  return apply_flops() * k;
}

std::int64_t StoredRegionBackend::apply_bytes_multi(int k) const {
  const auto n = static_cast<std::int64_t>(store_->ndofs());
  return schedule().num_elements() *
         (store_->emv_panel_traffic_bytes_per_elem() + k * 40 * n);
}

MatrixFreeRegionBackend::MatrixFreeRegionBackend(
    const DofMaps& maps, const fem::ElementOperator& op,
    std::span<const mesh::Point> elem_coords,
    const std::vector<std::int64_t>& elements, const ElementSchedule& sched,
    bool use_openmp, int rank_tag)
    : ElementBlockBackend(sched, use_openmp, rank_tag),
      maps_(&maps),
      op_(&op),
      elem_coords_(elem_coords),
      elements_(&elements) {
  HYMV_CHECK_MSG(op.ndof_per_node() == maps.ndof_per_node(),
                 "MatrixFreeRegionBackend: operator/maps DoF mismatch");
}

void MatrixFreeRegionBackend::set_element_op(const fem::ElementOperator& op) {
  HYMV_CHECK_MSG(op.num_dofs() == op_->num_dofs() &&
                     op.num_nodes() == op_->num_nodes(),
                 "MatrixFreeRegionBackend: operator size mismatch");
  op_ = &op;
}

std::size_t MatrixFreeRegionBackend::workspace_size(int lanes) const {
  const auto n = static_cast<std::size_t>(op_->num_dofs());
  const std::size_t panel =
      hymv::round_up_to(n * static_cast<std::size_t>(std::max(lanes, 1)), 8);
  return 2 * panel + n * n;
}

void MatrixFreeRegionBackend::run_range(std::int64_t begin, std::int64_t end,
                                        int lanes,
                                        std::span<const double> u_da,
                                        std::span<double> v_da,
                                        double* ws) const {
  const auto n = static_cast<std::size_t>(op_->num_dofs());
  const auto nper = static_cast<std::size_t>(op_->num_nodes());
  // A single vector moves as a one-lane panel; only the kernel differs.
  const auto k = static_cast<std::size_t>(std::max(lanes, 1));
  const std::size_t panel = hymv::round_up_to(n * k, 8);
  double* ue = ws;
  double* ve = ws + panel;
  const std::span<double> ke(ws + 2 * panel, n * n);
  const std::span<const std::int64_t> order = schedule().order();
  for (std::int64_t i = begin; i < end; ++i) {
    const std::int64_t e = order[static_cast<std::size_t>(i)];
    const auto e2l = maps_->e2l(e);
    for (std::size_t a = 0; a < n; ++a) {  // gather the ndofs × k panel
      const double* src = u_da.data() + static_cast<std::size_t>(e2l[a]) * k;
      for (std::size_t j = 0; j < k; ++j) {
        ue[a * k + j] = src[j];
      }
    }
    // The defining difference from HYMV: K_e is recomputed here, inside the
    // SPMV (Algorithm 4, line 6), once for all k lanes of a panel.
    op_->element_matrix(
        std::span<const mesh::Point>(elem_coords_.data() + e * nper, nper),
        ke);
    if (lanes == 0) {
      emv_simd(ke.data(), n, n, ue, ve);
    } else {
      emv_multi(ke.data(), n, n, k, ue, ve);
    }
    for (std::size_t a = 0; a < n; ++a) {  // scatter-add the v_e panel
      double* dst = v_da.data() + static_cast<std::size_t>(e2l[a]) * k;
      for (std::size_t j = 0; j < k; ++j) {
        dst[j] += ve[a * k + j];
      }
    }
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
