#pragma once

/// \file region_backend.hpp
/// Per-region SPMV backends behind the adaptive composite operator.
///
/// A *region* is one of the operator's element subsets (the
/// independent/dependent split of the overlap scheme, each with its own
/// colored ElementSchedule). A RegionBackend evaluates that region's
/// contribution v_da += Σ_e P_eᵀ K_e P_e u_da directly on distributed-array
/// storage, so every backend — stored-EMV, matrix-free recompute, or the
/// locally assembled SELL-C-σ path — plugs into the same ghost-exchange
/// skeleton unchanged. The AdaptiveOperator picks one backend per region
/// (perfmodel score + measured probes) and composes them into a full
/// LinearOperator.
///
/// Contract: apply/apply_multi ACCUMULATE into v_da (the composite zeroes
/// it once per apply); per-lane/DoF determinism is each backend's own
/// promise (the stored and matrix-free backends are bitwise identical
/// serial vs threaded via the colored schedule; the SELL backend is bitwise
/// stable across C/σ/threads but rounds element contributions in assembled
/// order, not traversal order).

#include <cstdint>
#include <span>
#include <vector>

#include "hymv/core/element_store.hpp"
#include "hymv/core/emv_traversal.hpp"
#include "hymv/core/maps.hpp"
#include "hymv/core/schedule.hpp"
#include "hymv/fem/operators.hpp"

namespace hymv::core {

class RegionBackend {
 public:
  virtual ~RegionBackend() = default;

  /// Stable identifier ("stored" | "matrixfree" | "sell") — the token the
  /// decision-replay file and the adaptive.* metrics use.
  [[nodiscard]] virtual const char* name() const = 0;

  /// v_da += K_region u_da over full DA spans (da_size each).
  virtual void apply(std::span<const double> u_da,
                     std::span<double> v_da) = 0;
  /// Panel twin over lane-interleaved width-k DAs (da_size·k each).
  virtual void apply_multi(std::span<const double> u_da,
                           std::span<double> v_da, int k) = 0;

  /// Scatter-add this region's diagonal contribution into v_da.
  virtual void add_diagonal(std::span<double> v_da) = 0;

  /// React to recomputed element matrices. `dirty` holds the updated
  /// element ids that belong to THIS region (the composite partitions the
  /// caller's list); backends reading the shared store live need no work,
  /// assembled backends refresh their values.
  virtual void update_elements(std::span<const std::int64_t> dirty) = 0;

  /// Region-kernel cost models for the autotuner score: flops/bytes of one
  /// apply over this region only. The shared DA staging/ghost traffic is
  /// charged once by the composite, not per region.
  [[nodiscard]] virtual std::int64_t apply_flops() const = 0;
  [[nodiscard]] virtual std::int64_t apply_bytes() const = 0;
  [[nodiscard]] virtual std::int64_t apply_flops_multi(int k) const = 0;
  [[nodiscard]] virtual std::int64_t apply_bytes_multi(int k) const = 0;
};

/// The stored-EMV traversal (paper Algorithm 2) re-homed behind the region
/// interface: shares the operator's ElementMatrixStore and colored schedule
/// through a StoredEmvSweep, so its apply is the SAME code path — and
/// therefore bitwise identical to — HymvOperator's element loop over the
/// same schedule. All four StoreLayouts come along for free.
class StoredRegionBackend final : public RegionBackend {
 public:
  /// All referents must outlive the backend. `sched` must be the colored
  /// schedule of `elements`. `threaded` mirrors the owning operator's
  /// threading_active(); `rank_tag` labels worker trace spans.
  StoredRegionBackend(const DofMaps& maps, const ElementMatrixStore& store,
                      const std::vector<std::int64_t>& elements,
                      const ElementSchedule& sched, ThreadSchedule schedule,
                      bool threaded, int rank_tag);

  [[nodiscard]] const char* name() const override { return "stored"; }
  void apply(std::span<const double> u_da, std::span<double> v_da) override;
  void apply_multi(std::span<const double> u_da, std::span<double> v_da,
                   int k) override;
  void add_diagonal(std::span<double> v_da) override;
  /// The sweep reads the shared store live — nothing to refresh.
  void update_elements(std::span<const std::int64_t> dirty) override;

  [[nodiscard]] std::int64_t apply_flops() const override;
  [[nodiscard]] std::int64_t apply_bytes() const override;
  [[nodiscard]] std::int64_t apply_flops_multi(int k) const override;
  [[nodiscard]] std::int64_t apply_bytes_multi(int k) const override;

 private:
  StoredEmvSweep sweep_;
  const ElementMatrixStore* store_;
  const std::vector<std::int64_t>* elements_;
  const ElementSchedule* sched_;
  ThreadSchedule schedule_;
  bool threaded_;
  int rank_tag_;
};

/// The matrix-free path (paper Algorithm 4) behind the region interface:
/// K_e is recomputed from nodal coordinates inside every apply — no stored
/// matrix traffic, maximal flops. Same colored schedule ⇒ serial/threaded
/// bitwise identical, and identical to MatrixFreeOperator's loop over the
/// same schedule.
class MatrixFreeRegionBackend final : public RegionBackend {
 public:
  /// `op` and `elem_coords` (full per-element coordinate array, num_nodes
  /// points per element) must outlive the backend.
  MatrixFreeRegionBackend(const DofMaps& maps, const fem::ElementOperator& op,
                          std::span<const mesh::Point> elem_coords,
                          const std::vector<std::int64_t>& elements,
                          const ElementSchedule& sched,
                          ThreadSchedule schedule, bool threaded);

  [[nodiscard]] const char* name() const override { return "matrixfree"; }
  void apply(std::span<const double> u_da, std::span<double> v_da) override;
  void apply_multi(std::span<const double> u_da, std::span<double> v_da,
                   int k) override;
  void add_diagonal(std::span<double> v_da) override;
  /// Recomputes from coordinates every apply — nothing cached to refresh.
  /// (The composite re-targets set_element_op when the updating operator
  /// object differs.)
  void update_elements(std::span<const std::int64_t> dirty) override;

  /// Swap the element operator future applies recompute with (material
  /// updates hand a new operator to update_elements). Must match
  /// num_dofs/num_nodes; must outlive the backend.
  void set_element_op(const fem::ElementOperator& op);

  [[nodiscard]] std::int64_t apply_flops() const override;
  [[nodiscard]] std::int64_t apply_bytes() const override;
  [[nodiscard]] std::int64_t apply_flops_multi(int k) const override;
  [[nodiscard]] std::int64_t apply_bytes_multi(int k) const override;

 private:
  const DofMaps* maps_;
  const fem::ElementOperator* op_;
  std::span<const mesh::Point> elem_coords_;
  const std::vector<std::int64_t>* elements_;
  const ElementSchedule* sched_;
  ThreadSchedule schedule_;
  bool threaded_;
};

}  // namespace hymv::core
