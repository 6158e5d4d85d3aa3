#include "hymv/core/gpu_operator.hpp"

#include <algorithm>

#include "hymv/common/aligned.hpp"
#include "hymv/common/error.hpp"
#include "hymv/common/timer.hpp"
#include "hymv/core/emv_traversal.hpp"

namespace hymv::core {

namespace {

/// Elements per transfer/kernel chunk during the bulk setup upload: sized
/// so each H2D is a few MB (amortizes PCIe latency without starving the
/// pipeline).
constexpr std::int64_t kUploadChunkBytes = 8 << 20;

}  // namespace

HymvGpuOperator::HymvGpuOperator(simmpi::Comm& comm,
                                 const mesh::MeshPartition& part,
                                 const fem::ElementOperator& op,
                                 gpu::Device& device, HymvGpuOptions options)
    : options_(options),
      host_op_(comm, part, op, options.host),
      device_(&device),
      u_da_(host_op_.maps()),
      v_da_(host_op_.maps()),
      ghost_buf_(static_cast<std::size_t>(host_op_.maps().n_pre() +
                                          host_op_.maps().n_post()),
                 0.0) {
  HYMV_CHECK_MSG(options_.num_streams >= 1,
                 "HymvGpuOperator: need at least one stream");
  while (device_->num_streams() < options_.num_streams) {
    device_->create_stream();
  }

  const DofMaps& maps = host_op_.maps();
  elem_order_.reserve(static_cast<std::size_t>(maps.num_elements()));
  elem_order_.insert(elem_order_.end(), maps.independent_elements().begin(),
                     maps.independent_elements().end());
  num_independent_ =
      static_cast<std::int64_t>(maps.independent_elements().size());
  elem_order_.insert(elem_order_.end(), maps.dependent_elements().begin(),
                     maps.dependent_elements().end());

  // Device residency: the element matrices move host → device exactly once
  // (paper §IV-F), in device (reordered) element order so per-apply chunks
  // are contiguous ranges. Host layouts are re-encoded slot by slot via
  // store.get(): a kInterleaved host store uploads into entry-interleaved
  // device batches (its natural device form), every other layout unpacks
  // into padded column-major device slots.
  const ElementMatrixStore& store = host_op_.store();
  const auto n = static_cast<std::size_t>(store.ndofs());
  const auto ne = static_cast<std::int64_t>(elem_order_.size());
  constexpr auto kB = static_cast<std::size_t>(ElementMatrixStore::kBatchElems);
  interleaved_device_ = store.layout() == StoreLayout::kInterleaved;
  dev_ld_ = interleaved_device_ ? n : hymv::round_up_to(n, 8);
  dev_stride_ = interleaved_device_ ? n * n : dev_ld_ * n;
  const std::size_t total_slots =
      interleaved_device_ ? hymv::round_up_to(static_cast<std::size_t>(ne), kB)
                          : static_cast<std::size_t>(ne);
  const double vt0 = device_->virtual_time();
  d_ke_ = device_->alloc(total_slots * dev_stride_ * 8);
  std::int64_t elems_per_chunk = std::max<std::int64_t>(
      1, kUploadChunkBytes / static_cast<std::int64_t>(dev_stride_ * 8));
  if (interleaved_device_) {
    // Each H2D must cover whole interleaved batches so chunk byte ranges
    // tile the device buffer without splitting a batch.
    elems_per_chunk = static_cast<std::int64_t>(
        hymv::round_up_to(static_cast<std::size_t>(elems_per_chunk), kB));
  }
  // Zero-initialized so padded rows (and the final batch's unused lanes)
  // upload as zeros.
  hymv::aligned_vector<double> staging(
      static_cast<std::size_t>(elems_per_chunk) * dev_stride_, 0.0);
  std::vector<double> dense(n * n);
  for (std::int64_t first = 0; first < ne; first += elems_per_chunk) {
    const std::int64_t count = std::min(elems_per_chunk, ne - first);
    const std::size_t padded_count =
        interleaved_device_
            ? hymv::round_up_to(static_cast<std::size_t>(count), kB)
            : static_cast<std::size_t>(count);
    if (padded_count != static_cast<std::size_t>(count)) {
      std::fill(staging.begin(), staging.end(), 0.0);  // tail-lane zeros
    }
    for (std::int64_t i = 0; i < count; ++i) {
      store.get(elem_order_[static_cast<std::size_t>(first + i)], dense);
      if (interleaved_device_) {
        const auto s = static_cast<std::size_t>(i);
        double* dst = staging.data() + s / kB * dev_stride_ * kB + s % kB;
        for (std::size_t k = 0; k < n * n; ++k) {
          dst[k * kB] = dense[k];
        }
      } else {
        double* dst = staging.data() + static_cast<std::size_t>(i) * dev_stride_;
        for (std::size_t c = 0; c < n; ++c) {
          for (std::size_t r = 0; r < n; ++r) {
            dst[c * dev_ld_ + r] = dense[c * n + r];
          }
        }
      }
    }
    device_->memcpy_h2d(
        static_cast<int>((first / elems_per_chunk) %
                         options_.num_streams),
        d_ke_, staging.data(), padded_count * dev_stride_ * 8,
        static_cast<std::size_t>(first) * dev_stride_ * 8);
  }
  device_->synchronize();
  setup_upload_virtual_s_ = device_->virtual_time() - vt0;

  d_ue_ = device_->alloc(static_cast<std::size_t>(ne) * n * 8);
  d_ve_ = device_->alloc(static_cast<std::size_t>(ne) * n * 8);
  h_ue_.assign(static_cast<std::size_t>(ne) * n, 0.0);
  h_ve_.assign(static_cast<std::size_t>(ne) * n, 0.0);
}

void HymvGpuOperator::pack_ue(std::int64_t first, std::int64_t count) {
  hymv::ThreadCpuTimer staging_timer;
  const DofMaps& maps = host_op_.maps();
  const auto n = static_cast<std::size_t>(maps.ndofs_per_elem());
  const std::span<const double> u = u_da_.all();
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (std::int64_t i = first; i < first + count; ++i) {
    const auto e2l = maps.e2l(elem_order_[static_cast<std::size_t>(i)]);
    double* dst = h_ue_.data() + static_cast<std::size_t>(i) * n;
    for (std::size_t a = 0; a < n; ++a) {
      dst[a] = u[static_cast<std::size_t>(e2l[a])];
    }
  }
  staging_s_ += staging_timer.elapsed_s();
}

void HymvGpuOperator::accumulate_ve(std::int64_t first, std::int64_t count) {
  // Serial accumulation (shared nodes → races under naive threading); the
  // paper's OpenMP version uses coloring, which the thread-count-1
  // environment cannot exercise, so we keep the simple correct form.
  hymv::ThreadCpuTimer staging_timer;
  const DofMaps& maps = host_op_.maps();
  const auto n = static_cast<std::size_t>(maps.ndofs_per_elem());
  const std::span<double> v = v_da_.all();
  for (std::int64_t i = first; i < first + count; ++i) {
    const auto e2l = maps.e2l(elem_order_[static_cast<std::size_t>(i)]);
    const double* src = h_ve_.data() + static_cast<std::size_t>(i) * n;
    for (std::size_t a = 0; a < n; ++a) {
      v[static_cast<std::size_t>(e2l[a])] += src[a];
    }
  }
  staging_s_ += staging_timer.elapsed_s();
}

void HymvGpuOperator::enqueue_range(std::int64_t first, std::int64_t count) {
  if (count <= 0) {
    return;
  }
  const ElementMatrixStore& store = host_op_.store();
  const auto n = static_cast<std::size_t>(store.ndofs());
  // Adaptive chunking: never split below min_chunk_elements per chunk, so
  // small batches use few commands (latency) while large ones use all
  // streams (overlap).
  const auto ns = static_cast<int>(std::clamp<std::int64_t>(
      count / std::max<std::int64_t>(1, options_.min_chunk_elements), 1,
      options_.num_streams));
  const std::int64_t per_chunk = (count + ns - 1) / ns;
  for (int s = 0; s < ns; ++s) {
    const std::int64_t c_first = first + static_cast<std::int64_t>(s) * per_chunk;
    const std::int64_t c_count =
        std::min<std::int64_t>(per_chunk, first + count - c_first);
    if (c_count <= 0) {
      break;
    }
    const std::size_t vec_bytes = static_cast<std::size_t>(c_count) * n * 8;
    const std::size_t vec_offset = static_cast<std::size_t>(c_first) * n * 8;
    device_->memcpy_h2d(s, d_ue_,
                        h_ue_.data() + static_cast<std::size_t>(c_first) * n,
                        vec_bytes, vec_offset);
    if (interleaved_device_) {
      device_->batched_emv_interleaved(s, d_ke_, n,
                                       static_cast<std::size_t>(c_count),
                                       d_ue_, d_ve_,
                                       static_cast<std::size_t>(c_first));
    } else {
      device_->batched_emv(s, d_ke_, dev_ld_, n,
                           static_cast<std::size_t>(c_count), d_ue_, d_ve_,
                           static_cast<std::size_t>(c_first));
    }
    device_->memcpy_d2h(s, h_ve_.data() + static_cast<std::size_t>(c_first) * n,
                        d_ve_, vec_bytes, vec_offset);
  }
}

void HymvGpuOperator::apply(simmpi::Comm& comm, const pla::DistVector& x,
                            pla::DistVector& y) {
  const DofMaps& maps = host_op_.maps();
  HYMV_CHECK_MSG(x.owned_size() == maps.n_owned() &&
                     y.owned_size() == maps.n_owned(),
                 "HymvGpuOperator::apply: size mismatch");
  DofMaps& mut_maps = host_op_.mutable_maps();

  // Host work is measured in thread-CPU time (not wall): simmpi ranks
  // time-share one machine, and blocking comm waits are modeled separately
  // by the harness's alpha-beta network model.
  hymv::ThreadCpuTimer wall;
  const double host_exec0 = device_->host_exec_seconds();
  const double vt0 = device_->virtual_time();
  double host_dep_s = 0.0;
  staging_s_ = 0.0;

  std::copy(x.values().begin(), x.values().end(), u_da_.owned().begin());
  v_da_.fill(0.0);
  const std::int64_t ne = static_cast<std::int64_t>(elem_order_.size());
  const std::int64_t ndep = ne - num_independent_;

  switch (options_.mode) {
    case GpuOverlapMode::kNone: {
      // Algorithm 3: blocking communication, then every element batched on
      // the device.
      mut_maps.exchange().forward_begin(comm, x.values());
      mut_maps.exchange().forward_end(comm);
      u_da_.load_ghosts(mut_maps.exchange().ghost_values());
      pack_ue(0, ne);
      enqueue_range(0, ne);
      device_->synchronize();
      accumulate_ve(0, ne);
      break;
    }
    case GpuOverlapMode::kGpuGpu: {
      mut_maps.exchange().forward_begin(comm, x.values());
      pack_ue(0, num_independent_);
      enqueue_range(0, num_independent_);  // overlaps the LNSM exchange
      mut_maps.exchange().forward_end(comm);
      u_da_.load_ghosts(mut_maps.exchange().ghost_values());
      pack_ue(num_independent_, ndep);
      enqueue_range(num_independent_, ndep);
      device_->synchronize();
      accumulate_ve(0, ne);
      break;
    }
    case GpuOverlapMode::kGpuCpu: {
      mut_maps.exchange().forward_begin(comm, x.values());
      pack_ue(0, num_independent_);
      enqueue_range(0, num_independent_);
      mut_maps.exchange().forward_end(comm);
      u_da_.load_ghosts(mut_maps.exchange().ghost_values());
      // Host computes dependent elements while the device drains.
      {
        hymv::ThreadCpuTimer dep_timer;
        const StoredEmvSweep sweep(maps, host_op_.store());
        hymv::aligned_vector<double> ue(sweep.workspace_size()),
            ve(sweep.workspace_size());
        sweep.range(maps.dependent_elements(), 0, ndep, u_da_.all(),
                    v_da_.all(), ue.data(), ve.data());
        host_dep_s = dep_timer.elapsed_s();
      }
      device_->synchronize();
      accumulate_ve(0, num_independent_);
      break;
    }
  }

  reduce_da_to_owned(comm, mut_maps, v_da_, ghost_buf_, y.values());

  // Modeled timing: replace the eager host execution of simulated device
  // work with the virtual device makespan, honoring overlap (DESIGN.md).
  // Overlap-aware modeled time. Per-chunk staging (pack u_e / accumulate
  // v_e) pipelines with the device: chunk k+1 is packed while chunk k
  // transfers and computes (Algorithm 3's OpenMP-parallel staging), so the
  // host staging and the device makespan overlap rather than add.
  const double wall_s = wall.elapsed_s();
  const double host_exec_delta = device_->host_exec_seconds() - host_exec0;
  const double device_delta = device_->virtual_time() - vt0;
  const double other_host =
      wall_s - host_exec_delta - staging_s_ - host_dep_s;
  const double modeled =
      other_host + std::max(device_delta, staging_s_ + host_dep_s);
  timings_.host_s += wall_s - host_exec_delta;
  timings_.device_virtual_s += device_delta;
  timings_.total_modeled_s += modeled;
  timings_.applies += 1;
}

void HymvGpuOperator::ensure_multi_buffers(int k) {
  if (multi_width_ == k) {
    return;
  }
  const DofMaps& maps = host_op_.maps();
  const auto n = static_cast<std::size_t>(maps.ndofs_per_elem());
  const auto ne = elem_order_.size();
  u_mda_ = std::make_unique<DistributedArray>(maps, k);
  v_mda_ = std::make_unique<DistributedArray>(maps, k);
  ghost_panel_buf_.assign(
      static_cast<std::size_t>((maps.n_pre() + maps.n_post()) * k), 0.0);
  const std::size_t panel_doubles = ne * n * static_cast<std::size_t>(k);
  d_ue_m_ = device_->alloc(panel_doubles * 8);
  d_ve_m_ = device_->alloc(panel_doubles * 8);
  h_ue_m_.assign(panel_doubles, 0.0);
  h_ve_m_.assign(panel_doubles, 0.0);
  multi_width_ = k;
}

void HymvGpuOperator::pack_ue_multi(std::int64_t first, std::int64_t count,
                                    int k) {
  hymv::ThreadCpuTimer staging_timer;
  const DofMaps& maps = host_op_.maps();
  const auto n = static_cast<std::size_t>(maps.ndofs_per_elem());
  const auto ku = static_cast<std::size_t>(k);
  const std::span<const double> u = u_mda_->all();
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (std::int64_t i = first; i < first + count; ++i) {
    const auto e2l = maps.e2l(elem_order_[static_cast<std::size_t>(i)]);
    double* dst = h_ue_m_.data() + static_cast<std::size_t>(i) * n * ku;
    for (std::size_t a = 0; a < n; ++a) {
      const double* src = u.data() + static_cast<std::size_t>(e2l[a]) * ku;
      for (std::size_t j = 0; j < ku; ++j) {
        dst[a * ku + j] = src[j];
      }
    }
  }
  staging_s_ += staging_timer.elapsed_s();
}

void HymvGpuOperator::accumulate_ve_multi(std::int64_t first,
                                          std::int64_t count, int k) {
  // Serial accumulation, as in accumulate_ve (shared nodes → races).
  hymv::ThreadCpuTimer staging_timer;
  const DofMaps& maps = host_op_.maps();
  const auto n = static_cast<std::size_t>(maps.ndofs_per_elem());
  const auto ku = static_cast<std::size_t>(k);
  const std::span<double> v = v_mda_->all();
  for (std::int64_t i = first; i < first + count; ++i) {
    const auto e2l = maps.e2l(elem_order_[static_cast<std::size_t>(i)]);
    const double* src = h_ve_m_.data() + static_cast<std::size_t>(i) * n * ku;
    for (std::size_t a = 0; a < n; ++a) {
      double* dst = v.data() + static_cast<std::size_t>(e2l[a]) * ku;
      for (std::size_t j = 0; j < ku; ++j) {
        dst[j] += src[a * ku + j];
      }
    }
  }
  staging_s_ += staging_timer.elapsed_s();
}

void HymvGpuOperator::enqueue_range_multi(std::int64_t first,
                                          std::int64_t count, int k) {
  if (count <= 0) {
    return;
  }
  const ElementMatrixStore& store = host_op_.store();
  const auto n = static_cast<std::size_t>(store.ndofs());
  const auto ku = static_cast<std::size_t>(k);
  const auto ns = static_cast<int>(std::clamp<std::int64_t>(
      count / std::max<std::int64_t>(1, options_.min_chunk_elements), 1,
      options_.num_streams));
  const std::int64_t per_chunk = (count + ns - 1) / ns;
  for (int s = 0; s < ns; ++s) {
    const std::int64_t c_first =
        first + static_cast<std::int64_t>(s) * per_chunk;
    const std::int64_t c_count =
        std::min<std::int64_t>(per_chunk, first + count - c_first);
    if (c_count <= 0) {
      break;
    }
    const std::size_t vec_bytes =
        static_cast<std::size_t>(c_count) * n * ku * 8;
    const std::size_t vec_offset =
        static_cast<std::size_t>(c_first) * n * ku * 8;
    device_->memcpy_h2d(
        s, d_ue_m_,
        h_ue_m_.data() + static_cast<std::size_t>(c_first) * n * ku,
        vec_bytes, vec_offset);
    if (interleaved_device_) {
      device_->batched_emv_interleaved_multi(
          s, d_ke_, n, ku, static_cast<std::size_t>(c_count), d_ue_m_,
          d_ve_m_, static_cast<std::size_t>(c_first));
    } else {
      device_->batched_emv_multi(s, d_ke_, dev_ld_, n, ku,
                                 static_cast<std::size_t>(c_count), d_ue_m_,
                                 d_ve_m_, static_cast<std::size_t>(c_first));
    }
    device_->memcpy_d2h(
        s, h_ve_m_.data() + static_cast<std::size_t>(c_first) * n * ku,
        d_ve_m_, vec_bytes, vec_offset);
  }
}

void HymvGpuOperator::apply_multi(simmpi::Comm& comm,
                                  const pla::DistMultiVector& x,
                                  pla::DistMultiVector& y) {
  const int k = x.width();
  const DofMaps& maps = host_op_.maps();
  HYMV_CHECK_MSG(k >= 1 && y.width() == k,
                 "HymvGpuOperator::apply_multi: panel width mismatch");
  HYMV_CHECK_MSG(x.owned_size() == maps.n_owned() &&
                     y.owned_size() == maps.n_owned(),
                 "HymvGpuOperator::apply_multi: size mismatch");
  ensure_multi_buffers(k);
  DofMaps& mut_maps = host_op_.mutable_maps();

  hymv::ThreadCpuTimer wall;
  const double host_exec0 = device_->host_exec_seconds();
  const double vt0 = device_->virtual_time();
  double host_dep_s = 0.0;
  staging_s_ = 0.0;

  std::copy(x.values().begin(), x.values().end(), u_mda_->owned().begin());
  v_mda_->fill(0.0);
  const std::int64_t ne = static_cast<std::int64_t>(elem_order_.size());
  const std::int64_t ndep = ne - num_independent_;

  switch (options_.mode) {
    case GpuOverlapMode::kNone: {
      mut_maps.exchange().forward_begin_multi(comm, x.values(), k);
      mut_maps.exchange().forward_end_multi(comm);
      u_mda_->load_ghosts(mut_maps.exchange().ghost_panel());
      pack_ue_multi(0, ne, k);
      enqueue_range_multi(0, ne, k);
      device_->synchronize();
      accumulate_ve_multi(0, ne, k);
      break;
    }
    case GpuOverlapMode::kGpuGpu: {
      mut_maps.exchange().forward_begin_multi(comm, x.values(), k);
      pack_ue_multi(0, num_independent_, k);
      enqueue_range_multi(0, num_independent_, k);  // overlaps the LNSM
      mut_maps.exchange().forward_end_multi(comm);
      u_mda_->load_ghosts(mut_maps.exchange().ghost_panel());
      pack_ue_multi(num_independent_, ndep, k);
      enqueue_range_multi(num_independent_, ndep, k);
      device_->synchronize();
      accumulate_ve_multi(0, ne, k);
      break;
    }
    case GpuOverlapMode::kGpuCpu: {
      mut_maps.exchange().forward_begin_multi(comm, x.values(), k);
      pack_ue_multi(0, num_independent_, k);
      enqueue_range_multi(0, num_independent_, k);
      mut_maps.exchange().forward_end_multi(comm);
      u_mda_->load_ghosts(mut_maps.exchange().ghost_panel());
      // Host computes dependent-element panels while the device drains.
      {
        hymv::ThreadCpuTimer dep_timer;
        const StoredEmvSweep sweep(maps, host_op_.store());
        const auto ku = static_cast<std::size_t>(k);
        hymv::aligned_vector<double> ue(sweep.workspace_size(ku)),
            ve(sweep.workspace_size(ku));
        sweep.range_multi(maps.dependent_elements(), 0, ndep, ku,
                          u_mda_->all(), v_mda_->all(), ue.data(), ve.data());
        host_dep_s = dep_timer.elapsed_s();
      }
      device_->synchronize();
      accumulate_ve_multi(0, num_independent_, k);
      break;
    }
  }

  // GNGM over whole panels.
  v_mda_->store_ghosts(ghost_panel_buf_);
  mut_maps.exchange().reverse_begin_multi(comm, ghost_panel_buf_, k);
  std::copy(v_mda_->owned().begin(), v_mda_->owned().end(),
            y.values().begin());
  mut_maps.exchange().reverse_end_multi(comm, y.values());

  // Same overlap-aware modeled-time substitution as apply().
  const double wall_s = wall.elapsed_s();
  const double host_exec_delta = device_->host_exec_seconds() - host_exec0;
  const double device_delta = device_->virtual_time() - vt0;
  const double other_host =
      wall_s - host_exec_delta - staging_s_ - host_dep_s;
  const double modeled =
      other_host + std::max(device_delta, staging_s_ + host_dep_s);
  timings_.host_s += wall_s - host_exec_delta;
  timings_.device_virtual_s += device_delta;
  timings_.total_modeled_s += modeled;
  timings_.applies += 1;
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
