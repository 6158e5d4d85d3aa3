#include "hymv/core/matrix_free_operator.hpp"

#include "hymv/common/error.hpp"
#include "hymv/obs/trace.hpp"

namespace hymv::core {

namespace {

/// The matrix-free backends of the skeleton's two regions.
std::array<MatrixFreeRegionBackend, 2> matrix_free_regions(
    const DofMaps& maps, const fem::ElementOperator& op,
    std::span<const mesh::Point> coords, const ApplySkeleton& skeleton,
    const HymvOptions& options, int rank) {
  const bool threads = threads_element_loops(options);
  return {MatrixFreeRegionBackend(maps, op, coords,
                                  maps.independent_elements(),
                                  skeleton.schedule(0), threads, rank),
          MatrixFreeRegionBackend(maps, op, coords, maps.dependent_elements(),
                                  skeleton.schedule(1), threads, rank)};
}

}  // namespace

MatrixFreeOperator::MatrixFreeOperator(simmpi::Comm& comm,
                                       const mesh::MeshPartition& part,
                                       const fem::ElementOperator& op,
                                       HymvOptions options)
    : op_(&op),
      options_(options),
      maps_(comm, part, op.ndof_per_node()),
      elem_coords_(part.elem_coords),
      skeleton_(maps_, options_, metrics_),
      regions_(matrix_free_regions(maps_, op, elem_coords_, skeleton_,
                                   options_, comm.rank())) {
  HYMV_CHECK_MSG(part.nodes_per_elem == static_cast<int>(op.num_nodes()),
                 "MatrixFreeOperator: element type mismatch");
}

void MatrixFreeOperator::apply(simmpi::Comm& comm, const pla::DistVector& x,
                               pla::DistVector& y) {
  HYMV_TRACE_SCOPE("apply", "matrixfree");
  skeleton_.apply(comm, x, y, regions_[0], regions_[1]);
}

void MatrixFreeOperator::apply_multi(simmpi::Comm& comm,
                                     const pla::DistMultiVector& x,
                                     pla::DistMultiVector& y) {
  HYMV_TRACE_SCOPE("apply_multi", "matrixfree");
  skeleton_.apply_multi(comm, x, y, regions_[0], regions_[1]);
}

std::vector<double> MatrixFreeOperator::diagonal(simmpi::Comm& comm) {
  const auto n = static_cast<std::size_t>(op_->num_dofs());
  const auto nper = static_cast<std::size_t>(op_->num_nodes());
  return skeleton_.diagonal(comm, [&](std::span<double> v) {
    std::vector<double> ke(n * n);
    for (std::int64_t e = 0; e < maps_.num_elements(); ++e) {
      op_->element_matrix(
          std::span<const mesh::Point>(elem_coords_.data() + e * nper, nper),
          ke);
      const auto e2l = maps_.e2l(e);
      for (std::size_t a = 0; a < n; ++a) {
        v[static_cast<std::size_t>(e2l[a])] += ke[a * n + a];
      }
    }
  });
}

std::int64_t MatrixFreeOperator::apply_flops() const {
  const auto n = static_cast<std::int64_t>(op_->num_dofs());
  return maps_.num_elements() * (op_->matrix_flops() + 2 * n * n);
}

std::int64_t MatrixFreeOperator::apply_bytes() const {
  // Cache-level traffic: the per-apply element-matrix recomputation
  // (quadrature-loop loads/stores) dominates; plus the EMV pass over the
  // freshly computed matrix and the element vectors.
  const auto n = static_cast<std::int64_t>(op_->num_dofs());
  const auto nper = static_cast<std::int64_t>(op_->num_nodes());
  const std::int64_t per_elem =
      op_->matrix_traffic_bytes() + 24 * n * n + nper * 24 + 40 * n;
  return maps_.num_elements() * per_elem + maps_.da_size() * 16;
}

std::int64_t MatrixFreeOperator::apply_flops_multi(int nrhs) const {
  // The recomputation flops are paid once per panel; only the EMV scales.
  const auto n = static_cast<std::int64_t>(op_->num_dofs());
  return maps_.num_elements() * (op_->matrix_flops() + nrhs * 2 * n * n);
}

std::int64_t MatrixFreeOperator::apply_bytes_multi(int nrhs) const {
  // Recomputation traffic (quadrature loads + the K_e working-set sweep)
  // charged once per panel; element-vector and DA traffic scale with k.
  const auto n = static_cast<std::int64_t>(op_->num_dofs());
  const auto nper = static_cast<std::int64_t>(op_->num_nodes());
  const std::int64_t per_elem = op_->matrix_traffic_bytes() + 24 * n * n +
                                nper * 24 + nrhs * 40 * n;
  return maps_.num_elements() * per_elem + maps_.da_size() * 16 * nrhs;
}

}  // namespace hymv::core
