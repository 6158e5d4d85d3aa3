#pragma once

/// \file adaptive_operator.hpp
/// Per-region adaptive backend selection: the composite operator that picks
/// — independently for the independent and dependent element regions — one
/// of three SPMV backends:
///
///   * stored      — the stored-EMV traversal (paper Algorithm 2), shared
///                   code with HymvOperator via StoredEmvSweep;
///   * matrixfree  — recompute K_e per apply (paper Algorithm 4);
///   * sell        — locally assemble the region into SELL-C-σ and run the
///                   chunked SpMV (see sell_backend.hpp).
///
/// Selection combines the layout-true apply_bytes()/apply_flops() roofline
/// model (AdaptiveOptions::cpu) with short measured probe applies on
/// deterministic synthetic input; AdaptiveOptions::force pins every region,
/// and a decision file (AdaptiveOptions::replay_path) records choices for
/// deterministic replay — probes are timing-dependent, so replay is what
/// makes an adaptive run reproducible. Decisions are published to the
/// adaptive.* metrics namespace and traced.
///
/// The distributed structure (DA staging, LNSM/GNGM overlap or the
/// task-graph dependent phase, reduction) is the embedded HymvOperator's
/// ApplySkeleton, run over the chosen pair of backends, so with both
/// regions forced to "stored" the composite is bitwise identical to
/// HymvOperator for every layout, thread count, and panel width — the
/// golden-hash equivalence the adaptive tests pin. The task graph runs
/// whenever the dependent region runs element blocks (stored or
/// matrixfree); a SELL dependent region keeps the two-phase path. Applies
/// report into the embedded operator's registry. update_elements() stays
/// adaptive: the store updates in place and only dirty regions re-assemble
/// (values-only) their SELL matrices.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hymv/core/hymv_operator.hpp"
#include "hymv/core/region_backend.hpp"
#include "hymv/core/sell_backend.hpp"
#include "hymv/perfmodel/perfmodel.hpp"

namespace hymv::core {

/// Candidate backends, in decision-file / metrics encoding order.
enum class RegionBackendKind { kStored = 0, kMatrixFree = 1, kSell = 2 };
[[nodiscard]] const char* to_string(RegionBackendKind kind);

/// Tunables of the adaptive composite, which it runs as given. Edge code
/// resolves the HYMV_SELL_* and HYMV_ADAPTIVE_* knobs onto them with
/// driver::adaptive_options_from_env, the stored-path knobs onto `hymv`
/// with driver::hymv_options_from_env, and the host roofline onto `cpu`
/// with perf::CpuSpec::from_env.
struct AdaptiveOptions {
  /// Stored-path tunables of the embedded HymvOperator.
  HymvOptions hymv;
  int sell_c = 8;        ///< SELL chunk height C
  int sell_sigma = 128;  ///< SELL sorting window σ
  /// Measured probe applies per candidate per region (min is scored);
  /// 0 = model-only selection.
  int probes = 3;
  /// Force every region to one backend ("stored" | "matrixfree" | "sell");
  /// empty = autotune.
  std::string force;
  /// Decision file: when it exists, decisions are replayed from it
  /// (deterministic); when set but missing, tuned decisions are recorded
  /// to it.
  std::string replay_path;
  /// The host roofline every candidate's modeled time is scored against.
  perf::CpuSpec cpu;
};

/// One region's autotuning outcome (kept for tests / reports).
struct RegionDecision {
  std::string region;  ///< "independent" | "dependent"
  RegionBackendKind choice = RegionBackendKind::kStored;
  std::array<double, 3> model_s{};  ///< modeled apply time per candidate
  std::array<double, 3> probe_s{};  ///< min measured probe per candidate (0 = unprobed)
  bool forced = false;
  bool replayed = false;
};

class AdaptiveOperator final : public pla::LinearOperator {
 public:
  /// Collective setup: builds the embedded stored operator (maps, store,
  /// schedules), assembles the SELL candidates, autotunes (or replays) one
  /// backend per region. `op` must outlive the operator (the matrix-free
  /// candidate recomputes through it).
  AdaptiveOperator(simmpi::Comm& comm, const mesh::MeshPartition& part,
                   const fem::ElementOperator& op,
                   AdaptiveOptions options = {});

  [[nodiscard]] const pla::Layout& layout() const override {
    return hymv_->layout();
  }
  void apply(simmpi::Comm& comm, const pla::DistVector& x,
             pla::DistVector& y) override;
  void apply_multi(simmpi::Comm& comm, const pla::DistMultiVector& x,
                   pla::DistMultiVector& y) override;
  std::vector<double> diagonal(simmpi::Comm& comm) override;
  pla::CsrMatrix owned_block(simmpi::Comm& comm) override;

  /// Adaptive update: recompute the stored matrices of `local_elements`
  /// with `op` (in place, no communication), then re-assemble — values
  /// only — the SELL matrix of each region that received dirty elements.
  /// `op` must outlive the operator.
  void update_elements(std::span<const std::int64_t> local_elements,
                       const fem::ElementOperator& op);

  [[nodiscard]] const std::array<RegionDecision, 2>& decisions() const {
    return decisions_;
  }
  /// The embedded stored operator (maps, store, setup and apply metrics).
  [[nodiscard]] const HymvOperator& stored_operator() const { return *hymv_; }
  [[nodiscard]] HymvOperator& stored_operator() { return *hymv_; }
  [[nodiscard]] const DofMaps& maps() const { return hymv_->maps(); }
  [[nodiscard]] const AdaptiveOptions& options() const { return options_; }

  /// adaptive.* decision metrics (model/probe seconds, choices, assembly
  /// time). The embedded operator's setup./apply. registry is separate —
  /// the driver merges both.
  [[nodiscard]] hymv::obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const hymv::obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

  [[nodiscard]] std::int64_t apply_flops() const override;
  [[nodiscard]] std::int64_t apply_bytes() const override;
  [[nodiscard]] std::int64_t apply_flops_multi(int nrhs) const override;
  [[nodiscard]] std::int64_t apply_bytes_multi(int nrhs) const override;

 private:
  [[nodiscard]] bool threading_active() const;
  [[nodiscard]] RegionBackend* backend(int region, RegionBackendKind kind);
  [[nodiscard]] const RegionBackend* backend(int region,
                                             RegionBackendKind kind) const;
  [[nodiscard]] RegionBackend* chosen(int region) {
    return backend(region, decisions_[static_cast<std::size_t>(region)].choice);
  }
  /// Score candidates for `region` (model + probes) and pick, honoring
  /// force/replay; fills decisions_[region].
  void tune_region(int region, const std::vector<std::int64_t>& elements);
  void publish_metrics();

  AdaptiveOptions options_;
  int comm_rank_ = -1;
  /// Maps, store, skeleton and the stored candidates of both regions.
  std::unique_ptr<HymvOperator> hymv_;
  const fem::ElementOperator* op_;
  std::vector<mesh::Point> elem_coords_;
  /// The other candidates per region (0 = independent, 1 = dependent); all
  /// three are kept alive so probing, replay, and late backend switches
  /// need no rebuild.
  std::array<std::unique_ptr<MatrixFreeRegionBackend>, 2> matrixfree_;
  std::array<std::unique_ptr<SellRegionBackend>, 2> sell_;
  std::array<RegionDecision, 2> decisions_;
  std::vector<std::uint8_t> region_of_;  ///< element → region index
  hymv::obs::MetricsRegistry metrics_;
};

}  // namespace hymv::core
