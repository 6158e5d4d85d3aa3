#pragma once

/// \file matrix_free_operator.hpp
/// The matrix-free baseline (paper Algorithm 4): identical distributed
/// structure to HYMV (same maps, same LNSM/GNGM exchanges, same
/// independent/dependent overlap) but element matrices are *recomputed*
/// from nodal coordinates on every SPMV instead of loaded from memory.
/// This is the approach whose per-apply cost the paper shows dominating
/// once elemental operators get expensive (Fig. 4/5, Table I).
///
/// The distributed structure is ApplySkeleton's, run over two
/// MatrixFreeRegionBackends; this class keeps only construction, the
/// diagonal and the cost model.

#include <array>
#include <cstdint>
#include <vector>

#include "hymv/core/apply_skeleton.hpp"
#include "hymv/core/maps.hpp"
#include "hymv/core/region_backend.hpp"
#include "hymv/fem/operators.hpp"
#include "hymv/obs/metrics.hpp"
#include "hymv/pla/operator.hpp"

namespace hymv::core {

class MatrixFreeOperator final : public pla::LinearOperator {
 public:
  /// Collective: builds the maps; stores only coordinates (`op` must
  /// outlive the operator — it is invoked on every apply). `options`
  /// supplies overlap, use_openmp, schedule and taskgraph as given; the
  /// element loop threads with the colored conflict-free schedule.
  MatrixFreeOperator(simmpi::Comm& comm, const mesh::MeshPartition& part,
                     const fem::ElementOperator& op, HymvOptions options = {});

  [[nodiscard]] const pla::Layout& layout() const override {
    return maps_.layout();
  }
  void apply(simmpi::Comm& comm, const pla::DistVector& x,
             pla::DistVector& y) override;
  /// Panel apply: K_e is recomputed ONCE per element per panel and applied
  /// to all k lanes — the multi-RHS win is even larger here than for HYMV,
  /// since the recomputation (not a memory stream) is what gets amortized.
  /// Same colored schedule ⇒ serial/threaded bitwise identical per k.
  void apply_multi(simmpi::Comm& comm, const pla::DistMultiVector& x,
                   pla::DistMultiVector& y) override;
  std::vector<double> diagonal(simmpi::Comm& comm) override;

  [[nodiscard]] const DofMaps& maps() const { return maps_; }
  [[nodiscard]] const HymvOptions& options() const { return options_; }

  /// Toggle the task-graph dependent phase (see taskgraph.hpp), gated at
  /// apply time exactly as in HymvOperator.
  void set_taskgraph(bool taskgraph) { options_.taskgraph = taskgraph; }

  /// EMV flops plus the per-apply element-matrix recomputation.
  [[nodiscard]] std::int64_t apply_flops() const override;
  /// Coordinates + element vectors stream; no stored matrix traffic.
  [[nodiscard]] std::int64_t apply_bytes() const override;
  /// One recomputation + k EMVs per element.
  [[nodiscard]] std::int64_t apply_flops_multi(int nrhs) const override;
  /// Recomputation traffic charged once per panel; vectors scale with k.
  [[nodiscard]] std::int64_t apply_bytes_multi(int nrhs) const override;

 private:
  const fem::ElementOperator* op_;
  HymvOptions options_;
  hymv::obs::MetricsRegistry metrics_;  ///< the skeleton's apply.* gauges
  DofMaps maps_;
  std::vector<mesh::Point> elem_coords_;
  ApplySkeleton skeleton_;
  std::array<MatrixFreeRegionBackend, 2> regions_;  ///< independent, dependent
};

}  // namespace hymv::core
