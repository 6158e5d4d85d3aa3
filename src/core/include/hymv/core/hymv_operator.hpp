#pragma once

/// \file hymv_operator.hpp
/// The HYMV adaptive-matrix SPMV operator — the paper's primary
/// contribution (Algorithm 2).
///
/// Setup computes and stores every local element matrix once (dense,
/// column-major, SIMD-padded). Each apply() then evaluates
///   v = K u = Σ_e  P_eᵀ (K_e (P_e u))
/// as a stream of dense elemental matrix-vector products, overlapping the
/// ghost-node scatter (LNSM) with the independent-element EMV and finishing
/// with the ghost-contribution gather (GNGM). No global matrix ever exists;
/// distributed behaviour matches the matrix-free approach while node-local
/// computation is dense and regular. That distributed apply is
/// ApplySkeleton's (apply_skeleton.hpp), shared with the matrix-free and
/// adaptive operators; this class holds the store (its own, or one it
/// shares with other readers and copies on its first write) and runs the
/// skeleton over two StoredRegionBackends.
///
/// The adaptive property: update_elements() recomputes a subset of stored
/// matrices in place with zero communication — the XFEM-enrichment / AMR
/// fast path (paper §III "No global assembly").

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "hymv/obs/metrics.hpp"
#include "hymv/core/apply_skeleton.hpp"
#include "hymv/core/element_store.hpp"
#include "hymv/core/maps.hpp"
#include "hymv/core/region_backend.hpp"
#include "hymv/core/schedule.hpp"
#include "hymv/fem/operators.hpp"
#include "hymv/pla/operator.hpp"

namespace hymv::core {

/// Decomposition of the setup phase, matching the paper's stacked setup
/// bars (Fig. 5/7): element-matrix computation vs. the local copy into the
/// store vs. map construction.
///
/// This struct is a thin VIEW over the operator's obs::MetricsRegistry
/// ("setup.*" gauges); setup_breakdown() materialises it. The fields carry
/// per-thread CPU seconds (under simmpi all ranks time-share one machine,
/// so wall clock would charge a rank for its neighbors' work) — the
/// registry also records the wall axis under "setup.*_s" next to these
/// "setup.*_cpu_s" values, so setup and apply are comparable on either
/// axis.
struct SetupBreakdown {
  double emat_compute_s = 0.0;
  double local_copy_s = 0.0;
  double maps_s = 0.0;
  double schedule_s = 0.0;  ///< element-graph coloring (thread schedule)
  [[nodiscard]] double total_s() const {
    return emat_compute_s + local_copy_s + maps_s + schedule_s;
  }
};

class HymvOperator final : public pla::LinearOperator {
 public:
  /// Collective setup: builds maps (Algorithm 1), computes and stores all
  /// element matrices via `op`, and constructs the LNSM/GNGM plan.
  HymvOperator(simmpi::Comm& comm, const mesh::MeshPartition& part,
               const fem::ElementOperator& op, HymvOptions options = {});

  /// Restart setup: adopt a precomputed element-matrix store (e.g. loaded
  /// via io::load_store) instead of recomputing — maps are still built.
  /// The store's dimensions must match the partition × ndof_per_node.
  HymvOperator(simmpi::Comm& comm, const mesh::MeshPartition& part,
               int ndof_per_node, ElementMatrixStore store,
               HymvOptions options = {});
  /// Restart setup over a store other readers share (the service's warm
  /// cache): the operator reads it in place and copies it on its first
  /// write (mutable_store, update_elements, scrub_store,
  /// enable_store_checksums), so no write reaches the other readers.
  HymvOperator(simmpi::Comm& comm, const mesh::MeshPartition& part,
               int ndof_per_node,
               std::shared_ptr<const ElementMatrixStore> store,
               HymvOptions options = {});

  [[nodiscard]] const pla::Layout& layout() const override {
    return maps_.layout();
  }
  /// Algorithm 2: overlapped element-by-element SPMV.
  void apply(simmpi::Comm& comm, const pla::DistVector& x,
             pla::DistVector& y) override;
  /// Panel SPMV: Algorithm 2 over a k-lane panel. The element-matrix
  /// stream — the bandwidth bound of apply() — is traversed once per lane
  /// block: each element reads its ndofs×k panel through the same E2L
  /// indices (straight from the DA for the dense layouts, staged for the
  /// others), runs the layout's panel body, and adds into v under the same
  /// colored schedule, so serial and threaded execution stay bitwise
  /// identical for every k. Ghosts move as whole panels: one message per
  /// neighbor per direction.
  void apply_multi(simmpi::Comm& comm, const pla::DistMultiVector& x,
                   pla::DistMultiVector& y) override;
  std::vector<double> diagonal(simmpi::Comm& comm) override;
  /// Assembles only the owned diagonal block (for block-Jacobi) — the one
  /// place HYMV performs (block-local) assembly, as the paper notes in §V-F.
  pla::CsrMatrix owned_block(simmpi::Comm& comm) override;

  /// Recompute the stored matrices of `local_elements` with `op`
  /// (typically the same operator with changed material state). Purely
  /// local: no communication, no global re-setup.
  void update_elements(std::span<const std::int64_t> local_elements,
                       const fem::ElementOperator& op);

  [[nodiscard]] const DofMaps& maps() const { return maps_; }
  /// Mutable maps access (the exchange plan holds in-flight request state),
  /// for callers that reuse the operator's maps for RHS assembly etc.
  [[nodiscard]] DofMaps& mutable_maps() { return maps_; }
  [[nodiscard]] const ElementMatrixStore& store() const { return *store_; }
  /// Hand the store to other readers: from now on it is shared, and this
  /// operator's next write copies it first.
  [[nodiscard]] std::shared_ptr<const ElementMatrixStore> shared_store();
  /// Mutable store access — fault-injection tests flip stored bits through
  /// this; production code should only mutate via update_elements(). A
  /// shared store is copied first.
  [[nodiscard]] ElementMatrixStore& mutable_store() { return writable_store(); }

  /// Arm per-element store checksums so silent corruption of the stored
  /// matrices becomes detectable (verify_store) and repairable
  /// (scrub_store). Call after construction, before faults can land.
  void enable_store_checksums() { writable_store().enable_checksums(); }
  /// Element ids whose stored matrices fail their checksum.
  [[nodiscard]] std::vector<std::int64_t> verify_store() const {
    return store_->verify();
  }
  /// Repair every corrupted stored matrix by re-running the matrix-free
  /// element assembly on the kept element geometry — the graceful
  /// degradation the paper's matrix-free fallback enables. Returns the
  /// number of element blocks recomputed.
  std::int64_t scrub_store(const fem::ElementOperator& op);

  /// The operator's unified metrics registry: "setup.*" / "apply.*" phase
  /// gauges on both time axes plus the "apply.applies" counter. The driver
  /// merges this into the rank's Comm::metrics() so one document covers the
  /// whole rank.
  [[nodiscard]] hymv::obs::MetricsRegistry& metrics() {
    return metrics_.registry;
  }
  [[nodiscard]] const hymv::obs::MetricsRegistry& metrics() const {
    return metrics_.registry;
  }
  /// Setup phase timings, materialised from the registry (CPU axis — see
  /// the SetupBreakdown doc).
  [[nodiscard]] SetupBreakdown setup_breakdown() const;
  /// Per-apply phase timings accumulated since construction or the last
  /// reset_apply_breakdown(), materialised from the registry (wall axis).
  [[nodiscard]] ApplyBreakdown apply_breakdown() const;
  /// Zero the "apply.*" metrics (both axes); "setup.*" is untouched.
  void reset_apply_breakdown();
  [[nodiscard]] const HymvOptions& options() const { return options_; }
  void set_overlap(bool overlap) { options_.overlap = overlap; }
  /// Toggle the task-graph dependent phase (still gated by the
  /// overlap/schedule/exchange requirements of HymvOptions::taskgraph).
  void set_taskgraph(bool taskgraph) { options_.taskgraph = taskgraph; }
  /// The schedules of the independent/dependent element sets.
  [[nodiscard]] const ElementSchedule& independent_schedule() const {
    return skeleton_.schedule(0);
  }
  [[nodiscard]] const ElementSchedule& dependent_schedule() const {
    return skeleton_.schedule(1);
  }

  /// 2·ndofs² flops per element EMV.
  [[nodiscard]] std::int64_t apply_flops() const override;
  /// Streamed bytes per apply: stored matrices + element vectors + DA
  /// gather/scatter traffic (analytic, for the roofline placement).
  [[nodiscard]] std::int64_t apply_bytes() const override;
  /// k × apply_flops(): every lane performs the full EMV flop count.
  [[nodiscard]] std::int64_t apply_flops_multi(int nrhs) const override;
  /// k-true traffic of one panel apply: the matrix-side stream is charged
  /// once (it does not grow with k), only the element-vector and DA panel
  /// traffic scale with k — so AI grows ~k. Reduces exactly to
  /// apply_bytes() at nrhs == 1.
  [[nodiscard]] std::int64_t apply_bytes_multi(int nrhs) const override;

 private:
  /// The adaptive composite runs its chosen backends through this
  /// operator's skeleton, and its stored candidates are regions_. The GPU
  /// operator runs its device regions through the skeleton, and its
  /// GPU/CPU(O) host region is regions_[1].
  friend class AdaptiveOperator;
  friend class HymvGpuOperator;

  /// Restart setup over `writable` (a store only this operator reads) or,
  /// when it is null, over the shared `store`.
  HymvOperator(simmpi::Comm& comm, const mesh::MeshPartition& part,
               int ndof_per_node, std::shared_ptr<ElementMatrixStore> writable,
               std::shared_ptr<const ElementMatrixStore> store,
               HymvOptions options);

  /// True when update_elements should run an OpenMP team (kColored,
  /// use_openmp, and more than one thread available).
  [[nodiscard]] bool threading_active() const;

  /// The store for a write: a shared store is first copied, and the
  /// regions rebound to the copy.
  ElementMatrixStore& writable_store();

  /// The owned registry plus cached handles to its setup metrics, so the
  /// timing sites never do a name lookup. Pointers target nodes owned by
  /// `registry` (stable for its lifetime). Every phase records both axes:
  /// `*_s` wall seconds and `*_cpu_s` per-thread CPU seconds. The skeleton
  /// registers the "apply.*" metrics and "setup.schedule_*" here.
  struct OperatorMetrics {
    hymv::obs::MetricsRegistry registry;
    hymv::obs::Gauge* setup_emat_compute_s;
    hymv::obs::Gauge* setup_emat_compute_cpu_s;
    hymv::obs::Gauge* setup_local_copy_s;
    hymv::obs::Gauge* setup_local_copy_cpu_s;
    hymv::obs::Gauge* setup_maps_s;
    hymv::obs::Gauge* setup_maps_cpu_s;
    hymv::obs::Gauge* setup_schedule_s;
    hymv::obs::Gauge* setup_schedule_cpu_s;
    OperatorMetrics();
  };

  /// Builds the maps while recording their construction time in `metrics`.
  static DofMaps build_maps_timed(simmpi::Comm& comm,
                                  const mesh::MeshPartition& part,
                                  int ndof_per_node,
                                  OperatorMetrics& metrics);

  HymvOptions options_;
  OperatorMetrics metrics_;  ///< declared before maps_ so timing can target it
  DofMaps maps_;
  /// The store while only this operator reads it, null once shared.
  /// Declared before store_, which the constructors initialize from it.
  std::shared_ptr<ElementMatrixStore> writable_;
  std::shared_ptr<const ElementMatrixStore> store_;  ///< what the apply reads
  std::vector<mesh::Point> elem_coords_;  ///< kept for update_elements
  ApplySkeleton skeleton_;
  std::array<StoredRegionBackend, 2> regions_;  ///< independent, dependent
};

}  // namespace hymv::core
