#pragma once

/// \file emv_traversal.hpp
/// The stored-EMV element body of Algorithm 2: gather, EMV and scatter-add
/// over a range of one schedule's element order. Every host consumer of
/// the element-matrix store shares it through the stored region backend,
/// which the apply skeleton runs for HymvOperator, the adaptive composite
/// and the GPU operator's GPU/CPU(O) host region. The sweep operates on raw
/// distributed-array spans and carries no threading, communication or
/// metrics: the colored traversal and the task-graph runner of
/// region_backend.hpp drive it block by block.
///
/// Bitwise contract: the interleaved-batch decision depends only on the
/// range boundaries and the stored element order, never on the executing
/// thread, so serial and threaded traversals of the same schedule produce
/// identical bits — the property the golden-hash tests pin.

#include <cstdint>
#include <span>

#include "hymv/core/element_store.hpp"
#include "hymv/core/maps.hpp"

namespace hymv::core {

/// Layout-true EMV sweep over one element-matrix store: gather u_e through
/// E2L, v_e = K_e u_e, scatter-add v_e (lines 3-6 / 8-11 of Algorithm 2).
/// Holds non-owning pointers; maps and store must outlive the sweep.
class StoredEmvSweep {
 public:
  StoredEmvSweep() = default;
  StoredEmvSweep(const DofMaps& maps, const ElementMatrixStore& store)
      : maps_(&maps), store_(&store) {}

  /// Sweep `store` from now on; it must have the old store's geometry.
  void rebind(const ElementMatrixStore& store) { store_ = &store; }

  /// Per-thread workspace (doubles) one range()/range_multi() call needs:
  /// ndofs × kBatchElems × k, sized for the interleaved batch fast path.
  [[nodiscard]] std::size_t workspace_size(std::size_t k = 1) const {
    return static_cast<std::size_t>(store_->ndofs()) *
           static_cast<std::size_t>(ElementMatrixStore::kBatchElems) * k;
  }

  /// Gather/EMV/scatter for order[begin, end) — one schedule block (or a
  /// whole element list) — through the store layout's one kernel, picked
  /// once per call. kPadded and kFp32 run the register-resident sweep of
  /// dense_kernels.hpp: u_e is broadcast straight from u, a group of v_e
  /// row tiles stays in registers across all columns, and the group is
  /// scatter-added in ascending DoF order; the group size follows the
  /// active ISA level and the SIMD row tiles of one padded column.
  /// kInterleaved and kSymPacked stage u_e/v_e through ue/ve and call the
  /// store's kernel, taking the interleaved batch fast path for aligned
  /// runs of kBatchElems consecutive elements; the batching decision
  /// depends only on the range boundaries, so serial and threaded
  /// traversals of the same schedule stay bitwise identical. ue/ve are
  /// per-thread workspaces of workspace_size(1) doubles; u and v must not
  /// overlap.
  void range(std::span<const std::int64_t> order, std::int64_t begin,
             std::int64_t end, std::span<const double> u, std::span<double> v,
             double* ue, double* ve) const;

  /// Panel twin of range(): panels of k lanes per DoF (u/v are
  /// lane-interleaved width-k DAs), the body picked once per call as in
  /// range(). kPadded and kFp32 run the register-resident panel sweep of
  /// dense_kernels.hpp: each column's k lanes load straight from u, a group
  /// of output rows for one lane block stays in registers across all
  /// columns, and each row is added straight into v; the group size
  /// follows n. kInterleaved and kSymPacked stage the panel through ue/ve
  /// with range()'s batching decisions. Each (row, lane) output is one
  /// ascending-column fma chain either way. ue/ve are per-thread
  /// workspaces of workspace_size(k) doubles.
  void range_multi(std::span<const std::int64_t> order, std::int64_t begin,
                   std::int64_t end, std::size_t k, std::span<const double> u,
                   std::span<double> v, double* ue, double* ve) const;

  /// Scatter-add the stored diagonal entries of order[begin, end) into v.
  void diagonal_range(std::span<const std::int64_t> order, std::int64_t begin,
                      std::int64_t end, std::span<double> v) const;

 private:
  const DofMaps* maps_ = nullptr;
  const ElementMatrixStore* store_ = nullptr;
};

}  // namespace hymv::core
