#pragma once

/// \file apply_skeleton.hpp
/// The distributed element apply, written once for every element operator.
///
/// HYMV (Algorithm 2) and the matrix-free baseline (Algorithm 4) share their
/// whole distributed structure: the same maps, the same LNSM/GNGM exchanges
/// and the same independent/dependent overlap. They differ only in how one
/// element product is formed. ApplySkeleton owns that structure — DA
/// staging, the LNSM exchange (overlap off, on, or the task-graph dependent
/// phase), the completion of asynchronous regions, the GNGM reduce and the
/// `apply.*` phase gauges — and runs two RegionBackends over it, one per
/// element region. HymvOperator runs it over its two stored backends,
/// MatrixFreeOperator over two matrix-free ones, AdaptiveOperator over the
/// pair it chose and HymvGpuOperator over the device regions of its
/// overlap mode (the GPU path of Algorithm 3 is this same apply with the
/// element products batched onto a device).
///
/// The skeleton also owns the two region schedules and the task graph of the
/// dependent one. `apply` and `apply_multi` run the same exchange calls (a
/// single vector moves as a width-1 panel) but keep their own kernels: a
/// one-lane panel is not the single-vector apply, because kSymPacked's
/// single-vector kernel associates differently from its panel kernel.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "hymv/core/maps.hpp"
#include "hymv/core/region_backend.hpp"
#include "hymv/core/schedule.hpp"
#include "hymv/core/taskgraph.hpp"
#include "hymv/obs/metrics.hpp"
#include "hymv/pla/dist_multi_vector.hpp"
#include "hymv/pla/dist_vector.hpp"

namespace hymv::core {

/// Tunables of the element apply, which the operators run as given.
/// HymvOperator reads every field; MatrixFreeOperator reads overlap,
/// use_openmp, schedule and taskgraph. Edge code resolves the environment
/// knobs onto them with driver::hymv_options_from_env.
struct HymvOptions {
  bool overlap = true;   ///< overlap LNSM with independent-element EMV
  bool use_openmp = true;  ///< thread the element loop when OpenMP is active
  /// Threaded scatter-add strategy (HYMV_THREAD_SCHEDULE at the edge).
  ThreadSchedule schedule = ThreadSchedule::kColored;
  /// Element-matrix storage layout (see element_store.hpp;
  /// HYMV_STORE_LAYOUT at the edge). The restart constructors adopt the
  /// given store's layout instead (convert via io::load_store).
  StoreLayout layout = StoreLayout::kPadded;
  /// Dependency-driven dependent-phase traversal (see taskgraph.hpp):
  /// per-neighbor ghost completion unlocks only the element blocks that
  /// neighbor gates instead of barriering on forward_end. Bitwise identical
  /// to the two-phase apply (the coloring invariant makes within-color
  /// block order immaterial). Requires overlap, the colored schedule, an
  /// unprotected exchange and a dependent region that runs element blocks
  /// — apply falls back to two-phase whenever any of those is missing
  /// (HYMV_APPLY_TASKGRAPH at the edge).
  bool taskgraph = false;
};

/// True when `options` let the element loops run an OpenMP team: use_openmp
/// under the colored schedule (kSerial never threads).
[[nodiscard]] inline bool threads_element_loops(const HymvOptions& options) {
  return options.use_openmp && options.schedule == ThreadSchedule::kColored;
}

/// Wall-clock decomposition of apply(), accumulated across calls until
/// reset. The gather/EMV/scatter element work is one fused phase (emv_s):
/// splitting it per element would perturb exactly the loop being measured.
///
/// This struct is a thin VIEW over the operator's obs::MetricsRegistry
/// ("apply.*_s" wall gauges + the "apply.applies" counter);
/// apply_breakdown() materialises it. The registry additionally carries the
/// per-thread CPU axis as "apply.*_cpu_s".
struct ApplyBreakdown {
  double lnsm_s = 0.0;  ///< forward ghost exchange + ghost load
  double emv_s = 0.0;   ///< gather u_e, EMV, scatter-add v_e
  double gngm_s = 0.0;  ///< reverse exchange reduce-to-owned
  int applies = 0;      ///< apply() calls accumulated
  [[nodiscard]] double total_s() const { return lnsm_s + emv_s + gngm_s; }
};

class ApplySkeleton {
 public:
  /// Builds the independent and dependent schedules of `maps` for
  /// `options.schedule` and the dependent task graph, recording the time
  /// under "setup.schedule_*" in `registry`, which also receives the
  /// "apply.*" gauges. `maps`, `options` and `registry` must outlive the
  /// skeleton; overlap and taskgraph are read per apply.
  ApplySkeleton(DofMaps& maps, const HymvOptions& options,
                hymv::obs::MetricsRegistry& registry);
  /// Region backends hold the addresses of the schedules.
  ApplySkeleton(const ApplySkeleton&) = delete;
  ApplySkeleton& operator=(const ApplySkeleton&) = delete;

  /// Schedule of region 0 (independent elements) or 1 (dependent).
  [[nodiscard]] const ElementSchedule& schedule(int region) const {
    return schedules_[static_cast<std::size_t>(region)];
  }

  /// y = Σ over both regions, through the single-vector kernels.
  void apply(simmpi::Comm& comm, const pla::DistVector& x, pla::DistVector& y,
             RegionBackend& independent, RegionBackend& dependent);
  /// The panel twin: ghosts move as whole panels, one message per neighbor
  /// per direction, as a single vector's do.
  void apply_multi(simmpi::Comm& comm, const pla::DistMultiVector& x,
                   pla::DistMultiVector& y, RegionBackend& independent,
                   RegionBackend& dependent);
  /// Zero the v DA, let `scatter` add element diagonal entries into it,
  /// and reduce the result to the owned DoFs.
  std::vector<double> diagonal(
      simmpi::Comm& comm,
      const std::function<void(std::span<double>)>& scatter);

  /// Per-apply phase timings since construction or the last reset.
  [[nodiscard]] ApplyBreakdown breakdown() const;
  /// Zero the "apply.*" metrics (both axes).
  void reset_breakdown();

 private:
  /// Ghost-padded u/v arrays of one lane width, plus the reverse-exchange
  /// scratch.
  struct Staging {
    Staging(const DofMaps& maps, int width);
    DistributedArray u;
    DistributedArray v;
    std::vector<double> ghosts;
  };

  /// lanes == 0 is the single-vector apply; a panel of k lanes passes k.
  void run(simmpi::Comm& comm, std::span<const double> x, std::span<double> y,
           int lanes, RegionBackend& independent, RegionBackend& dependent);
  /// Staging for `lanes`: width 1 for a single vector or a one-lane panel,
  /// a width-k pair (re)made on the first panel of each width otherwise.
  Staging& staging(int lanes);
  /// Dependent-phase task-graph traversal: per-peer ghost loads and ready
  /// batches of `dependent`'s blocks, between the independent region and
  /// forward_end.
  void run_taskgraph(simmpi::Comm& comm, ElementBlockBackend& dependent,
                     Staging& s, int lanes);

  struct Gauges {
    explicit Gauges(hymv::obs::MetricsRegistry& registry);
    hymv::obs::Gauge* lnsm_s;
    hymv::obs::Gauge* lnsm_cpu_s;
    hymv::obs::Gauge* emv_s;
    hymv::obs::Gauge* emv_cpu_s;
    hymv::obs::Gauge* gngm_s;
    hymv::obs::Gauge* gngm_cpu_s;
    hymv::obs::Gauge* taskgraph_wait_s;     ///< blocked-on-neighbor wall time
    hymv::obs::Counter* taskgraph_unlocks;  ///< per-neighbor completions
    hymv::obs::Counter* applies;
  };

  DofMaps* maps_;
  const HymvOptions* options_;
  Gauges gauges_;
  ElementSchedule schedules_[2];  ///< independent, dependent
  ApplyTaskGraph dep_graph_;      ///< peer-gating structure of schedules_[1]
  Staging single_;
  std::unique_ptr<Staging> panel_;  ///< width-k staging, k > 1
};

/// Reduce a contribution-holding distributed array (owned + ghost slots) to
/// its owners: owned_out = v.owned + incoming ghost contributions, v.width()
/// values per DoF (`ghost_scratch` holds as many per ghost). The GNGM step
/// of the skeleton's apply and diagonal, and of the RHS assembler.
void reduce_da_to_owned(simmpi::Comm& comm, DofMaps& maps,
                        const DistributedArray& v,
                        std::span<double> ghost_scratch,
                        std::span<double> owned_out);

}  // namespace hymv::core
