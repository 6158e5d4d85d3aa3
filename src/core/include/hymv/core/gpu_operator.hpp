#pragma once

/// \file gpu_operator.hpp
/// GPU-accelerated SPMV operators on the simulated device:
///
///   * HymvGpuOperator — the paper's Algorithm 3: element matrices resident
///     on the device (uploaded once at setup), per-apply element vectors
///     chunked across Ns streams so H2D transfers, batched EMV kernels and
///     D2H transfers pipeline (Fig. 3). It has no distributed apply of its
///     own: it runs its host operator's ApplySkeleton over
///     DeviceRegionBackends (region_backend.hpp), and the three
///     distribution schemes of §V-D are region assignments. Blocking (GPU)
///     puts one device region over every element after the exchange;
///     GPU/CPU(O) runs the independent region on the device while the
///     host's stored backend runs the dependent one; GPU/GPU(O) runs both
///     regions on the device, overlapped with communication. The device
///     lands its results in the skeleton's completion step, before GNGM.
///   * GpuCsrOperator — the PETSc-GPU (cuSPARSE) baseline: the assembled
///     local CSR uploaded once, SpMV on the device.
///
/// Timing semantics (see gpusim.hpp): kernels execute eagerly on the host
/// for bit-exact results while a virtual device clock models the real
/// pipeline. Each apply records a GpuApplyTimings with the measured host
/// time (minus the eager execution of simulated work) plus the virtual
/// device makespan, honoring the overlap structure of the chosen scheme.

#include <array>

#include "hymv/core/hymv_operator.hpp"
#include "hymv/core/region_backend.hpp"
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
  /// Options of the host operator (store, schedule, task graph). Its
  /// overlap is ignored: the mode decides it.
  HymvOptions host;
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

  /// Host-side HYMV operator (shared maps/store). Its "apply.*" metrics
  /// carry the phases of this operator's applies.
  [[nodiscard]] const HymvOperator& host_op() const { return host_op_; }
  /// Virtual seconds spent uploading the element matrices at setup.
  [[nodiscard]] double setup_upload_virtual_s() const {
    return device_store_.upload_virtual_s();
  }
  [[nodiscard]] const GpuApplyTimings& timings() const { return timings_; }
  /// Zero the modeled timings and the host operator's apply breakdown.
  void reset_timings() {
    timings_.reset();
    host_op_.reset_apply_breakdown();
  }

 private:
  /// Runs `run` (one skeleton apply) and adds its modeled time to
  /// timings_.
  template <typename Run>
  void timed(const Run& run);

  HymvOperator host_op_;
  gpu::Device* device_;
  DeviceElementStore device_store_;
  std::array<DeviceRegionBackend, 2> device_regions_;  ///< ind., dep.
  /// The dependent region's backend: the host's stored one under
  /// GPU/CPU(O), device_regions_[1] otherwise.
  RegionBackend* dependent_;
  hymv::obs::Gauge* emv_cpu_s_;  ///< the skeleton's element-phase CPU time
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
