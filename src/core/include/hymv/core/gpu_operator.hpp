#pragma once

/// \file gpu_operator.hpp
/// GPU-accelerated SPMV operators on the simulated device:
///
///   * HymvGpuOperator — the paper's Algorithm 3: element matrices resident
///     on the device (uploaded once at setup), per-apply element vectors
///     chunked across Ns streams so H2D transfers, batched EMV kernels and
///     D2H transfers pipeline (Fig. 3). Three distribution schemes from
///     §V-D: blocking (GPU), GPU/CPU(O) — host computes dependent elements
///     while the device processes independent chunks — and GPU/GPU(O) —
///     device computes both, overlapped with communication.
///   * GpuCsrOperator — the PETSc-GPU (cuSPARSE) baseline: the assembled
///     local CSR uploaded once, SpMV on the device.
///
/// Timing semantics (see gpusim.hpp): kernels execute eagerly on the host
/// for bit-exact results while a virtual device clock models the real
/// pipeline. Each apply records a GpuApplyTimings with the measured host
/// wall time (minus the eager execution of simulated work) plus the
/// virtual device makespan, honoring the overlap structure of the chosen
/// scheme.

#include <memory>

#include "hymv/core/hymv_operator.hpp"
#include "hymv/gpusim/gpusim.hpp"
#include "hymv/pla/dist_csr.hpp"

namespace hymv::core {

/// Overlap schemes of §V-D.
enum class GpuOverlapMode : int {
  kNone,    ///< blocking MPI, then all elements on the device (Alg. 3)
  kGpuCpu,  ///< device: independent chunks; host: dependent elements
  kGpuGpu,  ///< device: independent chunks overlapped with comm, then
            ///< dependent chunks on the device
};

struct HymvGpuOptions {
  int num_streams = 8;  ///< Ns chunks/streams (paper finds 8 best, §V-D)
  GpuOverlapMode mode = GpuOverlapMode::kNone;
  HymvOptions host;     ///< options of the host operator (store, EMV)
  /// Adaptive chunking floor: a batch is split into at most
  /// count / min_chunk_elements chunks so tiny batches don't drown in
  /// per-command launch/transfer latency.
  std::int64_t min_chunk_elements = 64;
};

/// Accumulated modeled timing of GPU applies.
struct GpuApplyTimings {
  double host_s = 0.0;            ///< measured host work (pack/unpack/comm)
  double device_virtual_s = 0.0;  ///< virtual device makespan
  double total_modeled_s = 0.0;   ///< overlap-aware modeled total
  int applies = 0;
  void reset() { *this = GpuApplyTimings{}; }
};

class HymvGpuOperator final : public pla::LinearOperator {
 public:
  /// Collective. Performs the full HYMV host setup, then uploads every
  /// element matrix to the device once (the extra GPU setup cost visible in
  /// Fig. 8's setup bars).
  HymvGpuOperator(simmpi::Comm& comm, const mesh::MeshPartition& part,
                  const fem::ElementOperator& op, gpu::Device& device,
                  HymvGpuOptions options = {});

  [[nodiscard]] const pla::Layout& layout() const override {
    return host_op_.layout();
  }
  void apply(simmpi::Comm& comm, const pla::DistVector& x,
             pla::DistVector& y) override;
  /// Panel SPMV on the device: per-apply element *panels* (n × k per
  /// element, lane-interleaved) chunk across the streams and feed the
  /// batched multi-RHS kernels — the resident element matrices are read
  /// once per panel, so the modeled kernel time per lane drops as k grows.
  /// Same three overlap modes as apply().
  void apply_multi(simmpi::Comm& comm, const pla::DistMultiVector& x,
                   pla::DistMultiVector& y) override;
  std::vector<double> diagonal(simmpi::Comm& comm) override {
    return host_op_.diagonal(comm);
  }
  pla::CsrMatrix owned_block(simmpi::Comm& comm) override {
    return host_op_.owned_block(comm);
  }
  [[nodiscard]] std::int64_t apply_flops() const override {
    return host_op_.apply_flops();
  }
  [[nodiscard]] std::int64_t apply_bytes() const override {
    return host_op_.apply_bytes();
  }
  [[nodiscard]] std::int64_t apply_flops_multi(int nrhs) const override {
    return host_op_.apply_flops_multi(nrhs);
  }
  [[nodiscard]] std::int64_t apply_bytes_multi(int nrhs) const override {
    return host_op_.apply_bytes_multi(nrhs);
  }

  /// Host-side HYMV operator (shared maps/store).
  [[nodiscard]] const HymvOperator& host_op() const { return host_op_; }
  /// Virtual seconds spent uploading the element matrices at setup.
  [[nodiscard]] double setup_upload_virtual_s() const {
    return setup_upload_virtual_s_;
  }
  [[nodiscard]] const GpuApplyTimings& timings() const { return timings_; }
  void reset_timings() { timings_.reset(); }
  [[nodiscard]] const HymvGpuOptions& options() const { return options_; }
  void set_mode(GpuOverlapMode mode) { options_.mode = mode; }

 private:
  /// Enqueue chunked H2D → batched EMV → D2H for elements
  /// [first, first + count) of the reordered element list, spread over the
  /// device streams. Returns immediately (virtual async).
  void enqueue_range(std::int64_t first, std::int64_t count);
  /// Pack element input vectors for list range [first, first+count) from
  /// the u distributed array.
  void pack_ue(std::int64_t first, std::int64_t count);
  /// Accumulate element result vectors for the range into the v array.
  void accumulate_ve(std::int64_t first, std::int64_t count);

  /// Panel twins: element panels of n × k lane-interleaved doubles per
  /// slot, fed to the batched multi-RHS device kernels.
  void enqueue_range_multi(std::int64_t first, std::int64_t count, int k);
  void pack_ue_multi(std::int64_t first, std::int64_t count, int k);
  void accumulate_ve_multi(std::int64_t first, std::int64_t count, int k);
  /// (Re)size the width-k panel DAs + host/device panel buffers; no-op
  /// when already sized for k.
  void ensure_multi_buffers(int k);

  HymvGpuOptions options_;
  HymvOperator host_op_;
  gpu::Device* device_;
  /// Element ids in device order: independent first, then dependent.
  std::vector<std::int64_t> elem_order_;
  std::int64_t num_independent_ = 0;
  /// Device-resident matrix format: entry-interleaved batches when the
  /// host store is kInterleaved (its natural device form), padded
  /// column-major slots otherwise (any host layout unpacks into it).
  bool interleaved_device_ = false;
  std::size_t dev_ld_ = 0;      ///< leading dim of one padded device slot
  std::size_t dev_stride_ = 0;  ///< doubles per device slot
  gpu::DeviceBuffer d_ke_;
  gpu::DeviceBuffer d_ue_;
  gpu::DeviceBuffer d_ve_;
  hymv::aligned_vector<double> h_ue_;  ///< pinned-memory stand-in
  hymv::aligned_vector<double> h_ve_;
  DistributedArray u_da_;
  DistributedArray v_da_;
  std::vector<double> ghost_buf_;
  /// Width-k panel state, lazily created on the first apply_multi of each
  /// width (device panel buffers are reallocated when k changes).
  std::unique_ptr<DistributedArray> u_mda_;
  std::unique_ptr<DistributedArray> v_mda_;
  std::vector<double> ghost_panel_buf_;
  gpu::DeviceBuffer d_ue_m_;
  gpu::DeviceBuffer d_ve_m_;
  hymv::aligned_vector<double> h_ue_m_;
  hymv::aligned_vector<double> h_ve_m_;
  int multi_width_ = 0;
  double setup_upload_virtual_s_ = 0.0;
  double staging_s_ = 0.0;  ///< per-apply pack/accumulate CPU time
  GpuApplyTimings timings_;
};

/// PETSc-GPU baseline: assembled distributed CSR with the local SpMV
/// executed on the device. The local matrix [diag | offdiag] is uploaded
/// once; each apply ships x (owned + ghosts) to the device and the result
/// back.
class GpuCsrOperator final : public pla::LinearOperator {
 public:
  /// Collective. `matrix` must already be assembled and outlive this
  /// operator.
  GpuCsrOperator(simmpi::Comm& comm, pla::DistCsrMatrix& matrix,
                 gpu::Device& device);

  [[nodiscard]] const pla::Layout& layout() const override {
    return matrix_->layout();
  }
  void apply(simmpi::Comm& comm, const pla::DistVector& x,
             pla::DistVector& y) override;
  std::vector<double> diagonal(simmpi::Comm& comm) override {
    return matrix_->diagonal(comm);
  }
  pla::CsrMatrix owned_block(simmpi::Comm& comm) override {
    return matrix_->owned_block(comm);
  }
  [[nodiscard]] std::int64_t apply_flops() const override {
    return matrix_->apply_flops();
  }
  [[nodiscard]] std::int64_t apply_bytes() const override {
    return matrix_->apply_bytes();
  }

  [[nodiscard]] double setup_upload_virtual_s() const {
    return setup_upload_virtual_s_;
  }
  [[nodiscard]] const GpuApplyTimings& timings() const { return timings_; }
  void reset_timings() { timings_.reset(); }

 private:
  pla::DistCsrMatrix* matrix_;
  gpu::Device* device_;
  gpu::CsrHandle d_matrix_;
  gpu::DeviceBuffer d_x_;
  gpu::DeviceBuffer d_y_;
  hymv::aligned_vector<double> h_x_;  ///< [owned | ghost] staging
  double setup_upload_virtual_s_ = 0.0;
  GpuApplyTimings timings_;
};

}  // namespace hymv::core
