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
/// computation is dense and regular.
///
/// The adaptive property: update_elements() recomputes a subset of stored
/// matrices in place with zero communication — the XFEM-enrichment / AMR
/// fast path (paper §III "No global assembly").

#include <cstdint>
#include <memory>
#include <vector>

#include "hymv/common/timer.hpp"
#include "hymv/obs/metrics.hpp"
#include "hymv/core/element_store.hpp"
#include "hymv/core/emv_traversal.hpp"
#include "hymv/core/maps.hpp"
#include "hymv/core/schedule.hpp"
#include "hymv/core/taskgraph.hpp"
#include "hymv/fem/operators.hpp"
#include "hymv/pla/operator.hpp"

namespace hymv::core {

/// Tunables for the CPU SPMV path.
struct HymvOptions {
  bool overlap = true;   ///< overlap LNSM with independent-element EMV
  bool use_openmp = true;  ///< thread the element loop when OpenMP is active
  /// Threaded scatter-add strategy. The HYMV_THREAD_SCHEDULE environment
  /// variable ("serial" | "buffer" | "colored"), when set, overrides this
  /// at operator construction (the global ablation switch).
  ThreadSchedule schedule = ThreadSchedule::kColored;
  /// Element-matrix storage layout (see element_store.hpp). The
  /// HYMV_STORE_LAYOUT environment variable
  /// ("padded" | "interleaved" | "sympacked" | "fp32"), when set, overrides
  /// this at operator construction. The restart constructor adopts the
  /// loaded store's layout instead (convert via io::load_store).
  StoreLayout layout = StoreLayout::kPadded;
  /// Default panel width the driver feeds apply_multi (the benchmark /
  /// solver knob; apply_multi itself always honors the panel it is given).
  /// The HYMV_NRHS environment variable, when set, overrides this at
  /// operator construction (validated: integers in [1, 64]).
  int nrhs = 1;
  /// Dependency-driven dependent-phase traversal (see taskgraph.hpp):
  /// per-neighbor ghost completion unlocks only the element blocks that
  /// neighbor gates instead of barriering on forward_end. Bitwise identical
  /// to the two-phase apply (the coloring invariant makes within-color
  /// block order immaterial). Requires overlap, the colored schedule, and
  /// an unprotected exchange — apply falls back to two-phase whenever any
  /// of those is missing. The HYMV_APPLY_TASKGRAPH environment variable
  /// (0/1), when set, overrides this at operator construction.
  bool taskgraph = false;
};

/// Resolve the HYMV_NRHS environment override through the validated
/// env_int path (trailing garbage / out-of-range text already rejected
/// there), then range-check to [1, 64]: warns to stderr and returns
/// `fallback` on a value outside the panel widths the kernels support.
[[nodiscard]] int nrhs_from_env(int fallback);

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

/// Wall-clock decomposition of apply(), accumulated across calls until
/// reset. The gather/EMV/scatter element work is one fused phase (emv_s):
/// splitting it per element would perturb exactly the loop being measured.
/// reduce_s isolates the legacy kBufferReduce overhead (per-thread buffer
/// zeroing + the O(nthreads × da_size) collapse) that the colored schedule
/// eliminates — it is identically zero under kColored/kSerial.
///
/// This struct is a thin VIEW over the operator's obs::MetricsRegistry
/// ("apply.*_s" wall gauges + the "apply.applies" counter);
/// apply_breakdown() materialises it. The registry additionally carries the
/// per-thread CPU axis as "apply.*_cpu_s".
struct ApplyBreakdown {
  double lnsm_s = 0.0;    ///< forward ghost exchange + ghost load
  double emv_s = 0.0;     ///< gather u_e, EMV, scatter-add v_e
  double reduce_s = 0.0;  ///< kBufferReduce buffer zero + collapse
  double gngm_s = 0.0;    ///< reverse exchange reduce-to-owned
  int applies = 0;        ///< apply() calls accumulated
  [[nodiscard]] double total_s() const {
    return lnsm_s + emv_s + reduce_s + gngm_s;
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

  [[nodiscard]] const pla::Layout& layout() const override {
    return maps_.layout();
  }
  /// Algorithm 2: overlapped element-by-element SPMV.
  void apply(simmpi::Comm& comm, const pla::DistVector& x,
             pla::DistVector& y) override;
  /// Panel SPMV: Algorithm 2 over a k-lane panel. The element-matrix
  /// stream — the bandwidth bound of apply() — is traversed ONCE for all k
  /// lanes: each element gathers an ndofs×k panel through the same E2L
  /// indices, runs the layout's panel EMV kernel, and scatter-adds under
  /// the same colored schedule, so serial and threaded execution stay
  /// bitwise identical for every k. Ghosts move as whole panels: one
  /// message per neighbor per direction. kBufferReduce has no multi
  /// variant — the panel path falls back to the serial traversal for it
  /// (the colored schedule is the supported threaded mode).
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
  [[nodiscard]] const ElementMatrixStore& store() const { return store_; }
  /// Mutable store access — fault-injection tests flip stored bits through
  /// this; production code should only mutate via update_elements().
  [[nodiscard]] ElementMatrixStore& mutable_store() { return store_; }

  /// Arm per-element store checksums so silent corruption of the stored
  /// matrices becomes detectable (verify_store) and repairable
  /// (scrub_store). Call after construction, before faults can land.
  void enable_store_checksums() { store_.enable_checksums(); }
  /// Element ids whose stored matrices fail their checksum.
  [[nodiscard]] std::vector<std::int64_t> verify_store() const {
    return store_.verify();
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
  /// Toggle the task-graph dependent phase (still gated by
  /// taskgraph_active()'s overlap/schedule/exchange requirements).
  void set_taskgraph(bool taskgraph) { options_.taskgraph = taskgraph; }
  /// The colored schedules of the independent/dependent element sets.
  [[nodiscard]] const ElementSchedule& independent_schedule() const {
    return indep_sched_;
  }
  [[nodiscard]] const ElementSchedule& dependent_schedule() const {
    return dep_sched_;
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
  /// EMV over one element set: gather u_e, v_e = K_e u_e, scatter-add v_e
  /// (lines 3-6 / 8-11 of Algorithm 2). Under kColored, threads scatter
  /// directly into the shared v-DA color by color (race-free, bitwise
  /// reproducible for any thread count); kBufferReduce keeps the legacy
  /// per-thread buffers + reduction; kSerial is the plain loop.
  /// `elements` is the set in original order, `sched` its colored schedule.
  void emv_loop(const ElementSchedule& sched,
                std::span<const std::int64_t> elements);

  /// Gather/EMV/scatter for order[begin, end) — one schedule block (or the
  /// whole list under kSerial). Takes the interleaved batch fast path for
  /// aligned runs of kBatchElems consecutive elements; the batching
  /// decision depends only on the block boundaries, so serial and threaded
  /// traversals of the same schedule stay bitwise identical. ue/ve are
  /// per-thread workspaces of ndofs × kBatchElems doubles.
  void emv_range(std::span<const std::int64_t> order, std::int64_t begin,
                 std::int64_t end, double* ue, double* ve);

  /// Panel twins of emv_loop/emv_range: identical traversal and batching
  /// decisions (block-boundary-only), panels of k lanes per DoF. ue/ve are
  /// per-thread workspaces of ndofs × kBatchElems × k doubles.
  void emv_loop_multi(const ElementSchedule& sched,
                      std::span<const std::int64_t> elements, int k);
  void emv_range_multi(std::span<const std::int64_t> order,
                       std::int64_t begin, std::int64_t end, std::size_t k,
                       double* ue, double* ve);

  /// (Re)allocate the width-k panel DAs + ghost panel scratch; no-op when
  /// already sized for k.
  void ensure_multi_buffers(int k);

  /// Scatter-add the stored diagonal entries of one element set into v_da_,
  /// colored-threaded under the same rules as emv_loop.
  void diagonal_loop(const ElementSchedule& sched,
                     std::span<const std::int64_t> elements);

  /// Build the per-subset colored schedules, recording the time in setup_.
  void build_schedules();

  /// True when the loop should run an OpenMP team (kColored/kBufferReduce,
  /// use_openmp, and more than one thread available).
  [[nodiscard]] bool threading_active() const;

  /// True when the dependent phase should run the task-graph traversal:
  /// options say so AND overlap is on AND the schedule is kColored (the
  /// only mode whose invariant makes within-color reordering bit-exact)
  /// AND the exchange supports per-neighbor completion.
  [[nodiscard]] bool taskgraph_active() const;

  /// Dependent-phase task-graph traversal (scalar / k-panel): drives
  /// dep_graph_.run with emv_range(_multi) block execution and per-peer
  /// ghost loads into u_da_ / u_mda_. Called between emv_loop(independent)
  /// and forward_end; records emv/wait metrics.
  void emv_dep_taskgraph(simmpi::Comm& comm);
  void emv_dep_taskgraph_multi(simmpi::Comm& comm, int k);

  /// GNGM reduction: copy v-DA owned slots into `owned_out` and add the
  /// ghost contributions received from neighbors.
  void reduce_v_to_owned(simmpi::Comm& comm, std::span<double> owned_out);

  /// The owned registry plus cached handles to its phase metrics, so the
  /// hot timing sites never do a name lookup. Pointers target nodes owned
  /// by `registry` (stable for its lifetime). Every phase records both
  /// axes: `*_s` wall seconds and `*_cpu_s` per-thread CPU seconds.
  struct OperatorMetrics {
    hymv::obs::MetricsRegistry registry;
    hymv::obs::Gauge* lnsm_s;
    hymv::obs::Gauge* lnsm_cpu_s;
    hymv::obs::Gauge* emv_s;
    hymv::obs::Gauge* emv_cpu_s;
    hymv::obs::Gauge* reduce_s;
    hymv::obs::Gauge* reduce_cpu_s;
    hymv::obs::Gauge* gngm_s;
    hymv::obs::Gauge* gngm_cpu_s;
    hymv::obs::Gauge* taskgraph_wait_s;     ///< blocked-on-neighbor wall time
    hymv::obs::Counter* taskgraph_unlocks;  ///< per-neighbor completions
    hymv::obs::Counter* applies;
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
  int comm_rank_ = -1;       ///< rank tag for worker-thread trace spans
  DofMaps maps_;
  ElementMatrixStore store_;
  StoredEmvSweep sweep_;  ///< shared Algorithm-2 traversal over maps_+store_
  std::vector<mesh::Point> elem_coords_;  ///< kept for update_elements
  DistributedArray u_da_;
  DistributedArray v_da_;
  std::vector<double> ghost_buf_;
  /// Width-k panel DAs + ghost panel scratch, lazily created by the first
  /// apply_multi of each width (most apps use one k for a whole solve).
  std::unique_ptr<DistributedArray> u_mda_;
  std::unique_ptr<DistributedArray> v_mda_;
  std::vector<double> ghost_panel_buf_;
  int multi_width_ = 0;
  ElementSchedule indep_sched_;  ///< colored schedule, independent set
  ElementSchedule dep_sched_;    ///< colored schedule, dependent set
  ApplyTaskGraph dep_graph_;     ///< peer-gating structure of dep_sched_
  std::vector<hymv::aligned_vector<double>> thread_bufs_;  ///< kBufferReduce
};

/// Reduce a contribution-holding distributed array (owned + ghost slots) to
/// its owners: owned_out = v.owned + incoming ghost contributions. Shared
/// by HYMV, the matrix-free operator, and the RHS assembler.
void reduce_da_to_owned(simmpi::Comm& comm, DofMaps& maps,
                        const DistributedArray& v,
                        std::span<double> ghost_scratch,
                        std::span<double> owned_out);

}  // namespace hymv::core
