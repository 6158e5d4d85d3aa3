#pragma once

/// \file region_backend.hpp
/// Per-region SPMV backends: what ApplySkeleton runs over each element region.
///
/// A *region* is one of the operator's element subsets (the
/// independent/dependent split of the overlap scheme, each with its own
/// ElementSchedule). A RegionBackend evaluates that region's contribution
/// v_da += Σ_e P_eᵀ K_e P_e u_da directly on distributed-array storage, so
/// every backend — stored-EMV, matrix-free recompute, the locally
/// assembled SELL-C-σ path, or a simulated device — plugs into the same
/// skeleton unchanged. HymvOperator runs two stored backends,
/// MatrixFreeOperator two matrix-free ones, AdaptiveOperator picks one
/// backend per region (perfmodel score + measured probes), and
/// HymvGpuOperator runs device regions.
///
/// The stored and matrix-free backends are ElementBlockBackends: one
/// per-block element body (StoredEmvSweep::range{,_multi} or the
/// matrix-free recompute) driven by the colored block traversal and by the
/// task-graph block runner, each written once here. The SELL backend
/// assembles its region and the device backend batches it asynchronously,
/// so the skeleton runs both two-phase.
///
/// Contract: apply ACCUMULATES into v_da (the skeleton zeroes it once per
/// apply), by complete() at the latest; per-lane/DoF determinism is each
/// backend's own promise (the element-block backends are bitwise identical
/// serial vs threaded via the colored schedule; the SELL backend is
/// bitwise stable across C/σ/threads but rounds element contributions in
/// assembled order, not traversal order; the device accumulates serially
/// in device order).

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "hymv/core/element_store.hpp"
#include "hymv/core/emv_traversal.hpp"
#include "hymv/core/maps.hpp"
#include "hymv/core/schedule.hpp"
#include "hymv/fem/operators.hpp"
#include "hymv/gpusim/gpusim.hpp"

namespace hymv::core {

class ElementBlockBackend;

class RegionBackend {
 public:
  virtual ~RegionBackend() = default;

  /// Stable identifier ("stored" | "matrixfree" | "sell" | "device") — the
  /// token the decision-replay file and the adaptive.* metrics use.
  [[nodiscard]] virtual const char* name() const = 0;

  /// v_da += K_region u_da over full DA spans: a single vector of da_size
  /// (lanes == 0) or a lane-interleaved k-lane panel of da_size·k
  /// (lanes == k).
  virtual void apply(std::span<const double> u_da, std::span<double> v_da,
                     int lanes) = 0;
  /// Land in v_da what the last apply of `lanes` left in flight. The
  /// skeleton calls it on both regions after both ran, before GNGM; only
  /// an asynchronous backend has work.
  virtual void complete(std::span<double> /*v_da*/, int /*lanes*/) {}

  /// Scatter-add this region's diagonal contribution into v_da.
  virtual void add_diagonal(std::span<double> v_da) = 0;

  /// React to recomputed element matrices. `dirty` holds the updated
  /// element ids that belong to THIS region (the composite partitions the
  /// caller's list); backends reading the shared store live need no work,
  /// assembled backends refresh their values.
  virtual void update_elements(std::span<const std::int64_t> dirty) = 0;

  /// This backend as an element-block traversal, or nullptr when it does
  /// not run schedule blocks (SELL). The task-graph dependent phase needs
  /// one.
  [[nodiscard]] virtual ElementBlockBackend* element_blocks() {
    return nullptr;
  }

  /// Region-kernel cost models for the autotuner score: flops/bytes of one
  /// apply over this region only. The shared DA staging/ghost traffic is
  /// charged once by the composite, not per region.
  [[nodiscard]] virtual std::int64_t apply_flops() const = 0;
  [[nodiscard]] virtual std::int64_t apply_bytes() const = 0;
  [[nodiscard]] virtual std::int64_t apply_flops_multi(int k) const = 0;
  [[nodiscard]] virtual std::int64_t apply_bytes_multi(int k) const = 0;
};

/// A region evaluated block by block of its ElementSchedule through one
/// per-block element body, picked by `lanes` as in RegionBackend::apply.
class ElementBlockBackend : public RegionBackend {
 public:
  /// The colored traversal of every block of schedule().
  void apply(std::span<const double> u_da, std::span<double> v_da,
             int lanes) final;
  [[nodiscard]] ElementBlockBackend* element_blocks() final { return this; }
  [[nodiscard]] const ElementSchedule& schedule() const { return *sched_; }

  /// The task-graph block runner: run blocks `ready` of `color`. They are
  /// conflict-free, so they run on any threads in any order.
  void run_blocks(int color, std::span<const std::int32_t> ready, int lanes,
                  std::span<const double> u_da,
                  std::span<double> v_da) const;

 protected:
  /// `sched` must outlive the backend. With `use_openmp`, traversals run
  /// an OpenMP team whenever more than one thread is available; kSerial's
  /// one-block schedule passes false. `rank_tag` labels worker trace spans.
  ElementBlockBackend(const ElementSchedule& sched, bool use_openmp,
                      int rank_tag);

  /// One block's work: order()[begin, end) of schedule() with a per-thread
  /// workspace.
  using BlockBody = std::function<void(std::int64_t, std::int64_t, double*)>;

  /// Color-major traversal of every block of schedule(), `workspace`
  /// doubles per thread: an OpenMP team (blocks of one color are
  /// conflict-free; colors fenced by the implicit barrier), or the serial
  /// execution of the same order — bitwise identical either way, for any
  /// thread count.
  void for_each_block(std::size_t workspace, const BlockBody& body) const;

  /// Per-thread workspace (doubles) of the element body at `lanes`.
  [[nodiscard]] virtual std::size_t workspace_size(int lanes) const = 0;
  /// The element body: gather u_e, v_e = K_e u_e, scatter-add v_e for
  /// schedule().order()[begin, end).
  virtual void run_range(std::int64_t begin, std::int64_t end, int lanes,
                         std::span<const double> u_da, std::span<double> v_da,
                         double* ws) const = 0;

 private:
  /// The element body of `lanes` as a BlockBody.
  [[nodiscard]] BlockBody body(int lanes, std::span<const double> u_da,
                               std::span<double> v_da) const;
  /// True when the traversal should open an OpenMP team.
  [[nodiscard]] bool threaded() const;

  const ElementSchedule* sched_;
  bool use_openmp_;
  int rank_tag_;
};

/// The stored-EMV traversal (paper Algorithm 2) behind the region
/// interface: shares the operator's ElementMatrixStore through a
/// StoredEmvSweep. All four StoreLayouts come along for free.
class StoredRegionBackend final : public ElementBlockBackend {
 public:
  /// All referents must outlive the backend; `sched` is the region's
  /// schedule (see ElementBlockBackend for `use_openmp` and `rank_tag`).
  StoredRegionBackend(const DofMaps& maps, const ElementMatrixStore& store,
                      const ElementSchedule& sched, bool use_openmp,
                      int rank_tag);

  [[nodiscard]] const char* name() const override { return "stored"; }
  /// Stored diagonal entries, scattered under the colored traversal.
  void add_diagonal(std::span<double> v_da) override;
  /// The sweep reads the shared store live — nothing to refresh.
  void update_elements(std::span<const std::int64_t> dirty) override;
  /// Read `store` from now on (same geometry): the owning operator's
  /// private copy once a write to a shared store made one.
  void rebind(const ElementMatrixStore& store);

  [[nodiscard]] std::int64_t apply_flops() const override;
  [[nodiscard]] std::int64_t apply_bytes() const override;
  [[nodiscard]] std::int64_t apply_flops_multi(int k) const override;
  [[nodiscard]] std::int64_t apply_bytes_multi(int k) const override;

 protected:
  /// ue and ve of StoredEmvSweep::workspace_size, back to back.
  [[nodiscard]] std::size_t workspace_size(int lanes) const override;
  void run_range(std::int64_t begin, std::int64_t end, int lanes,
                 std::span<const double> u_da, std::span<double> v_da,
                 double* ws) const override;

 private:
  StoredEmvSweep sweep_;
  const ElementMatrixStore* store_;
};

/// The matrix-free path (paper Algorithm 4) behind the region interface:
/// K_e is recomputed from nodal coordinates inside every apply — no stored
/// matrix traffic, maximal flops. A panel recomputes K_e once for all of
/// its lanes.
class MatrixFreeRegionBackend final : public ElementBlockBackend {
 public:
  /// `op` and `elem_coords` (full per-element coordinate array, num_nodes
  /// points per element) must outlive the backend, as must `elements` (the
  /// region in subset order, which the diagonal follows) and `sched`.
  MatrixFreeRegionBackend(const DofMaps& maps, const fem::ElementOperator& op,
                          std::span<const mesh::Point> elem_coords,
                          const std::vector<std::int64_t>& elements,
                          const ElementSchedule& sched, bool use_openmp,
                          int rank_tag);

  [[nodiscard]] const char* name() const override { return "matrixfree"; }
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

 protected:
  /// u_e and v_e panels (each padded to a whole SIMD row) and K_e.
  [[nodiscard]] std::size_t workspace_size(int lanes) const override;
  void run_range(std::int64_t begin, std::int64_t end, int lanes,
                 std::span<const double> u_da, std::span<double> v_da,
                 double* ws) const override;

 private:
  const DofMaps* maps_;
  const fem::ElementOperator* op_;
  std::span<const mesh::Point> elem_coords_;
  const std::vector<std::int64_t>* elements_;
};

/// Every local element matrix resident on a simulated device (paper
/// Algorithm 3, §IV-F), in device order: the independent elements, then
/// the dependent ones, so each region is one run of slots. The matrices
/// move host → device once: a kInterleaved host store keeps its
/// entry-interleaved batches (their natural device form), every other
/// layout unpacks into padded column-major slots. `lanes` is 0 for the
/// single-vector apply and k for a k-lane panel, whose n × k slot panels
/// feed the multi-RHS kernels (each matrix read once for all lanes).
class DeviceElementStore {
 public:
  /// Creates streams on `device` up to `num_streams` and uploads `store`.
  /// A run is split into at most count / min_chunk_elements chunks, so
  /// small runs do not drown in per-command latency. All referents must
  /// outlive the store.
  DeviceElementStore(gpu::Device& device, const DofMaps& maps,
                     const ElementMatrixStore& store, int num_streams,
                     std::int64_t min_chunk_elements);
  DeviceElementStore(const DeviceElementStore&) = delete;
  DeviceElementStore& operator=(const DeviceElementStore&) = delete;

  [[nodiscard]] std::int64_t num_elements() const {
    return static_cast<std::int64_t>(order_.size());
  }
  /// Slots [0, num_independent()) hold the independent elements.
  [[nodiscard]] std::int64_t num_independent() const {
    return num_independent_;
  }
  [[nodiscard]] std::int64_t ndofs() const { return store_->ndofs(); }
  /// Virtual seconds the setup upload took.
  [[nodiscard]] double upload_virtual_s() const { return upload_virtual_s_; }

  /// Pack the element vectors of slots [first, first + count) from u_da
  /// and enqueue H2D → batched EMV → D2H for them in chunks spread over
  /// the streams (Fig. 3). Returns at once (virtual async).
  void enqueue(std::int64_t first, std::int64_t count, int lanes,
               std::span<const double> u_da);
  /// Wait for the device and scatter-add the slots' results into v_da,
  /// serially in slot order (shared nodes would race under threads).
  void accumulate(std::int64_t first, std::int64_t count, int lanes,
                  std::span<double> v_da);
  /// Scatter-add the slots' diagonal entries, read from the host store.
  void add_diagonal(std::int64_t first, std::int64_t count,
                    std::span<double> v_da) const;

 private:
  /// Host and device element-vector buffers of one width, by slot.
  struct Staging {
    int width = 0;
    gpu::DeviceBuffer d_ue;
    gpu::DeviceBuffer d_ve;
    hymv::aligned_vector<double> h_ue;
    hymv::aligned_vector<double> h_ve;
  };
  /// Width-1 buffers for a single vector or a one-lane panel, width-k ones
  /// (re)made on the first panel of each width otherwise.
  Staging& staging(int lanes);

  gpu::Device* device_;
  const DofMaps* maps_;
  const ElementMatrixStore* store_;
  int num_streams_;
  std::int64_t min_chunk_elements_;
  std::vector<std::int64_t> order_;
  std::int64_t num_independent_;
  bool interleaved_;  ///< entry-interleaved device batches
  std::size_t ld_;    ///< leading dim of one padded device slot
  gpu::DeviceBuffer d_ke_;
  double upload_virtual_s_ = 0.0;
  Staging single_;
  Staging panel_;
};

/// The device behind the region interface: slots [first, first + count)
/// of a DeviceElementStore, which must outlive the backend. apply enqueues
/// them; complete accumulates their results.
class DeviceRegionBackend final : public RegionBackend {
 public:
  DeviceRegionBackend(DeviceElementStore& store, std::int64_t first,
                      std::int64_t count);

  [[nodiscard]] const char* name() const override { return "device"; }
  void apply(std::span<const double> u_da, std::span<double> /*v_da*/,
             int lanes) override {
    store_->enqueue(first_, count_, lanes, u_da);
  }
  void complete(std::span<double> v_da, int lanes) override {
    store_->accumulate(first_, count_, lanes, v_da);
  }
  void add_diagonal(std::span<double> v_da) override {
    store_->add_diagonal(first_, count_, v_da);
  }
  /// The device copy is uploaded once: `dirty` must be empty.
  void update_elements(std::span<const std::int64_t> dirty) override;

  /// 2·ndofs² flops per element, as on the host; bytes are the element
  /// vectors' PCIe round trip (the matrices stay resident).
  [[nodiscard]] std::int64_t apply_flops() const override {
    return count_ * 2 * store_->ndofs() * store_->ndofs();
  }
  [[nodiscard]] std::int64_t apply_bytes() const override {
    return count_ * 16 * store_->ndofs();
  }
  [[nodiscard]] std::int64_t apply_flops_multi(int k) const override {
    return apply_flops() * k;
  }
  [[nodiscard]] std::int64_t apply_bytes_multi(int k) const override {
    return apply_bytes() * k;
  }

 private:
  DeviceElementStore* store_;
  std::int64_t first_;
  std::int64_t count_;
};

}  // namespace hymv::core
