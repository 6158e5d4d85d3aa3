#include "hymv/core/gpu_operator.hpp"

#include <algorithm>

#include "hymv/common/error.hpp"
#include "hymv/common/timer.hpp"
#include "hymv/obs/trace.hpp"

namespace hymv::core {

namespace {

/// The host operator's options: the mode decides the skeleton's overlap
/// (kNone is Algorithm 3's blocking exchange), whatever host.overlap says.
HymvOptions host_options(const HymvGpuOptions& options) {
  HymvOptions host = options.host;
  host.overlap = options.mode != GpuOverlapMode::kNone;
  return host;
}

/// The device slots of the independent and dependent regions. kNone's one
/// device batch covers every element in the independent region and leaves
/// the dependent one empty; under kGpuCpu the host runs the dependent
/// region, so its device region stays empty too.
std::array<DeviceRegionBackend, 2> device_regions(DeviceElementStore& store,
                                                  GpuOverlapMode mode) {
  const std::int64_t ne = store.num_elements();
  const std::int64_t split =
      mode == GpuOverlapMode::kNone ? ne : store.num_independent();
  const std::int64_t ndep = mode == GpuOverlapMode::kGpuGpu ? ne - split : 0;
  return {DeviceRegionBackend(store, 0, split),
          DeviceRegionBackend(store, split, ndep)};
}

}  // namespace

HymvGpuOperator::HymvGpuOperator(simmpi::Comm& comm,
                                 const mesh::MeshPartition& part,
                                 const fem::ElementOperator& op,
                                 gpu::Device& device, HymvGpuOptions options)
    : host_op_(comm, part, op, host_options(options)),
      device_(&device),
      device_store_(device, host_op_.maps(), host_op_.store(),
                    options.num_streams, options.min_chunk_elements),
      device_regions_(device_regions(device_store_, options.mode)),
      dependent_(options.mode == GpuOverlapMode::kGpuCpu
                     ? static_cast<RegionBackend*>(&host_op_.regions_[1])
                     : &device_regions_[1]),
      emv_cpu_s_(&host_op_.metrics().gauge("apply.emv_cpu_s")) {}

template <typename Run>
void HymvGpuOperator::timed(const Run& run) {
  // Host work is thread-CPU time, not wall: simmpi ranks time-share one
  // machine, and blocking comm waits are modeled separately by the
  // harness's alpha-beta network model.
  hymv::ThreadCpuTimer host_timer;
  const double host_exec0 = device_->host_exec_seconds();
  const double vt0 = device_->virtual_time();
  const double emv0 = emv_cpu_s_->value();
  run();
  // Replace the eager host execution of simulated device work with the
  // virtual device makespan. The element phase's host share — packing,
  // accumulating and any host region — pipelines with the device
  // (Algorithm 3's staging of chunk k+1 while chunk k computes), so it
  // overlaps the makespan instead of adding to it.
  const double host_exec = device_->host_exec_seconds() - host_exec0;
  const double host_s = host_timer.elapsed_s() - host_exec;
  const double device_s = device_->virtual_time() - vt0;
  const double element_s = emv_cpu_s_->value() - emv0 - host_exec;
  timings_.host_s += host_s;
  timings_.device_virtual_s += device_s;
  timings_.total_modeled_s +=
      host_s - element_s + std::max(device_s, element_s);
  timings_.applies += 1;
}

void HymvGpuOperator::apply(simmpi::Comm& comm, const pla::DistVector& x,
                            pla::DistVector& y) {
  HYMV_TRACE_SCOPE("apply", "hymv_gpu");
  timed([&] {
    host_op_.skeleton_.apply(comm, x, y, device_regions_[0], *dependent_);
  });
}

void HymvGpuOperator::apply_multi(simmpi::Comm& comm,
                                  const pla::DistMultiVector& x,
                                  pla::DistMultiVector& y) {
  HYMV_TRACE_SCOPE("apply_multi", "hymv_gpu");
  timed([&] {
    host_op_.skeleton_.apply_multi(comm, x, y, device_regions_[0],
                                   *dependent_);
  });
}

// ---------------------------------------------------------------------------
// GpuCsrOperator
// ---------------------------------------------------------------------------

GpuCsrOperator::GpuCsrOperator(simmpi::Comm&, pla::DistCsrMatrix& matrix,
                               gpu::Device& device)
    : matrix_(&matrix), device_(&device) {
  HYMV_CHECK_MSG(matrix.assembled(),
                 "GpuCsrOperator: matrix must be assembled first");
  // Combine [diag | offdiag] into one local CSR over owned + ghost columns.
  const pla::CsrMatrix& diag = matrix.diag_block();
  const pla::CsrMatrix& off = matrix.offdiag_block();
  const std::int64_t owned = diag.num_cols();
  std::vector<pla::Triplet> trip;
  trip.reserve(static_cast<std::size_t>(diag.num_nonzeros() +
                                        off.num_nonzeros()));
  for (std::int64_t r = 0; r < diag.num_rows(); ++r) {
    for (std::int64_t k = diag.row_ptr()[static_cast<std::size_t>(r)];
         k < diag.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      trip.push_back(pla::Triplet{
          r, diag.col_idx()[static_cast<std::size_t>(k)],
          diag.values()[static_cast<std::size_t>(k)]});
    }
    for (std::int64_t k = off.row_ptr()[static_cast<std::size_t>(r)];
         k < off.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      trip.push_back(pla::Triplet{
          r, owned + off.col_idx()[static_cast<std::size_t>(k)],
          off.values()[static_cast<std::size_t>(k)]});
    }
  }
  const pla::CsrMatrix combined = pla::CsrMatrix::from_triplets(
      diag.num_rows(), owned + off.num_cols(), std::move(trip));

  const double vt0 = device_->virtual_time();
  d_matrix_ = device_->upload_csr(0, combined.row_ptr(), combined.col_idx(),
                                  combined.values(), combined.num_cols());
  device_->synchronize();
  setup_upload_virtual_s_ = device_->virtual_time() - vt0;

  d_x_ = device_->alloc(static_cast<std::size_t>(combined.num_cols()) * 8);
  d_y_ = device_->alloc(static_cast<std::size_t>(combined.num_rows()) * 8);
  h_x_.assign(static_cast<std::size_t>(combined.num_cols()), 0.0);
}

void GpuCsrOperator::apply(simmpi::Comm& comm, const pla::DistVector& x,
                           pla::DistVector& y) {
  hymv::ThreadCpuTimer wall;  // host work only; comm modeled by the harness
  const double host_exec0 = device_->host_exec_seconds();
  const double vt0 = device_->virtual_time();

  pla::GhostExchange& exchange = matrix_->exchange();
  exchange.forward_begin(comm, x.values());
  const auto owned = static_cast<std::size_t>(x.owned_size());
  std::copy(x.values().begin(), x.values().end(), h_x_.begin());
  exchange.forward_end(comm);
  const auto ghosts = exchange.ghost_values();
  std::copy(ghosts.begin(), ghosts.end(),
            h_x_.begin() + static_cast<std::ptrdiff_t>(owned));

  device_->memcpy_h2d(0, d_x_, h_x_.data(), h_x_.size() * 8);
  device_->csr_spmv(0, d_matrix_, d_x_, d_y_);
  device_->memcpy_d2h(0, y.values().data(), d_y_, owned * 8);
  device_->synchronize();

  const double wall_s = wall.elapsed_s();
  const double host_exec_delta = device_->host_exec_seconds() - host_exec0;
  const double device_delta = device_->virtual_time() - vt0;
  timings_.host_s += wall_s - host_exec_delta;
  timings_.device_virtual_s += device_delta;
  timings_.total_modeled_s += (wall_s - host_exec_delta) + device_delta;
  timings_.applies += 1;
}

}  // namespace hymv::core
