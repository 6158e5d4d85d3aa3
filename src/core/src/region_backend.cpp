#include "hymv/core/region_backend.hpp"

#include <algorithm>
#include <type_traits>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "hymv/common/aligned.hpp"
#include "hymv/common/error.hpp"
#include "hymv/core/dense_kernels.hpp"
#include "hymv/obs/trace.hpp"

namespace hymv::core {

namespace {

/// Bytes per H2D of the setup upload: a few MB amortizes PCIe latency
/// without starving the pipeline.
constexpr std::int64_t kUploadChunkBytes = 8 << 20;

/// Runs `body(width)` with a compile-time width of 1 for single-lane
/// staging, so its lane loops compile to plain copies, and with `width`
/// itself otherwise.
template <typename Body>
void with_lane_width(std::size_t width, const Body& body) {
  if (width == 1) {
    body(std::integral_constant<std::size_t, 1>{});
  } else {
    body(width);
  }
}

}  // namespace

ElementBlockBackend::ElementBlockBackend(const ElementSchedule& sched,
                                         bool use_openmp, int rank_tag)
    : sched_(&sched), use_openmp_(use_openmp), rank_tag_(rank_tag) {}

bool ElementBlockBackend::threaded() const {
#ifdef _OPENMP
  return use_openmp_ && omp_get_max_threads() > 1;
#else
  return false;
#endif
}

ElementBlockBackend::BlockBody ElementBlockBackend::body(
    int lanes, std::span<const double> u_da, std::span<double> v_da) const {
  return [this, lanes, u_da, v_da](std::int64_t begin, std::int64_t end,
                                   double* ws) {
    run_range(begin, end, lanes, u_da, v_da, ws);
  };
}

void ElementBlockBackend::apply(std::span<const double> u_da,
                                std::span<double> v_da, int lanes) {
  for_each_block(workspace_size(lanes), body(lanes, u_da, v_da));
}

void ElementBlockBackend::for_each_block(std::size_t workspace,
                                         const BlockBody& body) const {
  const ElementSchedule& sched = *sched_;
#ifdef _OPENMP
  if (threaded()) {
#pragma omp parallel
    {
      // Tag workers with the owning rank so their spans group under the
      // rank's "process" row; the span itself is free when the tracer is
      // off.
      hymv::obs::set_current_rank(rank_tag_);
      HYMV_TRACE_SCOPE("emv_worker", "apply");
      hymv::aligned_vector<double> ws(workspace);
      for (int c = 0; c < sched.num_colors(); ++c) {
        const std::span<const ElementSchedule::Block> blocks =
            sched.blocks(c);
        // No two blocks of one color share a node, so blocks may be
        // handed out in any order; the implicit barrier fences colors.
#pragma omp for schedule(dynamic, 1)
        for (std::int64_t b = 0; b < static_cast<std::int64_t>(blocks.size());
             ++b) {
          const ElementSchedule::Block& blk =
              blocks[static_cast<std::size_t>(b)];
          body(blk.begin, blk.end, ws.data());
        }
      }
    }
    return;
  }
#endif
  // Serial execution of the same color-major, block-by-block traversal:
  // each DoF still receives its contributions in color order and the
  // per-block batching decisions are identical, so this is bitwise
  // identical to the threaded path above for any thread count.
  hymv::aligned_vector<double> ws(workspace);
  for (int c = 0; c < sched.num_colors(); ++c) {
    for (const ElementSchedule::Block& blk : sched.blocks(c)) {
      body(blk.begin, blk.end, ws.data());
    }
  }
}

void ElementBlockBackend::run_blocks(int color,
                                     std::span<const std::int32_t> ready,
                                     int lanes, std::span<const double> u_da,
                                     std::span<double> v_da) const {
  const std::span<const ElementSchedule::Block> blocks = sched_->blocks(color);
  const BlockBody run = body(lanes, u_da, v_da);
  const std::size_t workspace = workspace_size(lanes);
#ifdef _OPENMP
  if (threaded()) {
    // One ready batch is a set of same-color blocks, so it runs under the
    // usual colored team; the orchestration (message drain + unlock
    // bookkeeping) stays on the calling thread between batches.
#pragma omp parallel
    {
      hymv::obs::set_current_rank(rank_tag_);
      HYMV_TRACE_SCOPE("emv_worker", "apply");
      hymv::aligned_vector<double> ws(workspace);
#pragma omp for schedule(dynamic, 1)
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(ready.size());
           ++i) {
        const ElementSchedule::Block& blk = blocks[static_cast<std::size_t>(
            ready[static_cast<std::size_t>(i)])];
        run(blk.begin, blk.end, ws.data());
      }
    }
    return;
  }
#endif
  hymv::aligned_vector<double> ws(workspace);
  for (const std::int32_t b : ready) {
    const ElementSchedule::Block& blk = blocks[static_cast<std::size_t>(b)];
    run(blk.begin, blk.end, ws.data());
  }
}

StoredRegionBackend::StoredRegionBackend(const DofMaps& maps,
                                         const ElementMatrixStore& store,
                                         const ElementSchedule& sched,
                                         bool use_openmp, int rank_tag)
    : ElementBlockBackend(sched, use_openmp, rank_tag),
      sweep_(maps, store),
      store_(&store) {}

std::size_t StoredRegionBackend::workspace_size(int lanes) const {
  return 2 * sweep_.workspace_size(
                 static_cast<std::size_t>(std::max(lanes, 1)));
}

void StoredRegionBackend::run_range(std::int64_t begin, std::int64_t end,
                                    int lanes, std::span<const double> u_da,
                                    std::span<double> v_da,
                                    double* ws) const {
  const std::span<const std::int64_t> order = schedule().order();
  double* ve = ws + workspace_size(lanes) / 2;
  if (lanes == 0) {
    sweep_.range(order, begin, end, u_da, v_da, ws, ve);
  } else {
    sweep_.range_multi(order, begin, end, static_cast<std::size_t>(lanes),
                       u_da, v_da, ws, ve);
  }
}

void StoredRegionBackend::add_diagonal(std::span<double> v_da) {
  const std::span<const std::int64_t> order = schedule().order();
  for_each_block(0, [&](std::int64_t begin, std::int64_t end, double*) {
    sweep_.diagonal_range(order, begin, end, v_da);
  });
}

void StoredRegionBackend::update_elements(
    std::span<const std::int64_t> dirty) {
  (void)dirty;  // the sweep reads the shared store live
}

void StoredRegionBackend::rebind(const ElementMatrixStore& store) {
  sweep_.rebind(store);
  store_ = &store;
}

std::int64_t StoredRegionBackend::apply_flops() const {
  const auto n = static_cast<std::int64_t>(store_->ndofs());
  return schedule().num_elements() * 2 * n * n;
}

std::int64_t StoredRegionBackend::apply_bytes() const {
  // Layout-true matrix streaming + u_e gather / v_e scatter, the per-element
  // terms of HymvOperator::apply_bytes restricted to this region.
  const auto n = static_cast<std::int64_t>(store_->ndofs());
  return schedule().num_elements() *
         (store_->emv_traffic_bytes_per_elem() + 40 * n);
}

std::int64_t StoredRegionBackend::apply_flops_multi(int k) const {
  return apply_flops() * k;
}

std::int64_t StoredRegionBackend::apply_bytes_multi(int k) const {
  const auto n = static_cast<std::int64_t>(store_->ndofs());
  return schedule().num_elements() *
         (store_->emv_panel_traffic_bytes_per_elem() + k * 40 * n);
}

MatrixFreeRegionBackend::MatrixFreeRegionBackend(
    const DofMaps& maps, const fem::ElementOperator& op,
    std::span<const mesh::Point> elem_coords,
    const std::vector<std::int64_t>& elements, const ElementSchedule& sched,
    bool use_openmp, int rank_tag)
    : ElementBlockBackend(sched, use_openmp, rank_tag),
      maps_(&maps),
      op_(&op),
      elem_coords_(elem_coords),
      elements_(&elements) {
  HYMV_CHECK_MSG(op.ndof_per_node() == maps.ndof_per_node(),
                 "MatrixFreeRegionBackend: operator/maps DoF mismatch");
}

void MatrixFreeRegionBackend::set_element_op(const fem::ElementOperator& op) {
  HYMV_CHECK_MSG(op.num_dofs() == op_->num_dofs() &&
                     op.num_nodes() == op_->num_nodes(),
                 "MatrixFreeRegionBackend: operator size mismatch");
  op_ = &op;
}

std::size_t MatrixFreeRegionBackend::workspace_size(int /*lanes*/) const {
  const auto n = static_cast<std::size_t>(op_->num_dofs());
  return 2 * hymv::round_up_to(n, 8) + n * n;
}

void MatrixFreeRegionBackend::run_range(std::int64_t begin, std::int64_t end,
                                        int lanes,
                                        std::span<const double> u_da,
                                        std::span<double> v_da,
                                        double* ws) const {
  const auto n = static_cast<std::size_t>(op_->num_dofs());
  const auto nper = static_cast<std::size_t>(op_->num_nodes());
  const std::size_t padded = hymv::round_up_to(n, 8);
  double* ue = ws;
  double* ve = ws + padded;
  const std::span<double> ke(ws + 2 * padded, n * n);
  const std::span<const std::int64_t> order = schedule().order();
  // A panel runs the stored panel sweep over the one fresh K_e (ld = n),
  // straight on the DA; a single vector stages u_e and v_e.
  const auto k = static_cast<std::size_t>(lanes);
  const auto panel = panel_sweep_body<double>(n);
  const std::int64_t first = 0;
  for (std::int64_t i = begin; i < end; ++i) {
    const std::int64_t e = order[static_cast<std::size_t>(i)];
    const auto e2l = maps_->e2l(e);
    // The defining difference from HYMV: K_e is recomputed here, inside the
    // SPMV (Algorithm 4, line 6), once for all k lanes of a panel.
    op_->element_matrix(
        std::span<const mesh::Point>(elem_coords_.data() + e * nper, nper),
        ke);
    if (lanes > 0) {
      panel({ke.data(), 0, n, n, k, e2l.data(), &first, 0, 1, u_da.data(),
             v_da.data()});
      continue;
    }
    for (std::size_t a = 0; a < n; ++a) {  // extract u_e
      ue[a] = u_da[static_cast<std::size_t>(e2l[a])];
    }
    emv_simd(ke.data(), n, n, ue, ve);
    for (std::size_t a = 0; a < n; ++a) {  // accumulate v_e
      v_da[static_cast<std::size_t>(e2l[a])] += ve[a];
    }
  }
}

void MatrixFreeRegionBackend::add_diagonal(std::span<double> v_da) {
  const auto n = static_cast<std::size_t>(op_->num_dofs());
  const auto nper = static_cast<std::size_t>(op_->num_nodes());
  std::vector<double> ke(n * n);
  for (const std::int64_t e : *elements_) {
    op_->element_matrix(
        std::span<const mesh::Point>(elem_coords_.data() + e * nper, nper),
        ke);
    const auto e2l = maps_->e2l(e);
    for (std::size_t a = 0; a < n; ++a) {
      v_da[static_cast<std::size_t>(e2l[a])] += ke[a * n + a];
    }
  }
}

void MatrixFreeRegionBackend::update_elements(
    std::span<const std::int64_t> dirty) {
  (void)dirty;  // recomputed from coordinates on every apply
}

std::int64_t MatrixFreeRegionBackend::apply_flops() const {
  const auto n = static_cast<std::int64_t>(op_->num_dofs());
  return static_cast<std::int64_t>(elements_->size()) *
         (op_->matrix_flops() + 2 * n * n);
}

std::int64_t MatrixFreeRegionBackend::apply_bytes() const {
  // Per-element recomputation traffic + the EMV pass over the fresh K_e and
  // the element vectors (MatrixFreeOperator::apply_bytes per-element terms).
  const auto n = static_cast<std::int64_t>(op_->num_dofs());
  const auto nper = static_cast<std::int64_t>(op_->num_nodes());
  return static_cast<std::int64_t>(elements_->size()) *
         (op_->matrix_traffic_bytes() + 24 * n * n + nper * 24 + 40 * n);
}

std::int64_t MatrixFreeRegionBackend::apply_flops_multi(int k) const {
  const auto n = static_cast<std::int64_t>(op_->num_dofs());
  return static_cast<std::int64_t>(elements_->size()) *
         (op_->matrix_flops() + k * 2 * n * n);
}

std::int64_t MatrixFreeRegionBackend::apply_bytes_multi(int k) const {
  const auto n = static_cast<std::int64_t>(op_->num_dofs());
  const auto nper = static_cast<std::int64_t>(op_->num_nodes());
  return static_cast<std::int64_t>(elements_->size()) *
         (op_->matrix_traffic_bytes() + 24 * n * n + nper * 24 + k * 40 * n);
}

DeviceElementStore::DeviceElementStore(gpu::Device& device,
                                       const DofMaps& maps,
                                       const ElementMatrixStore& store,
                                       int num_streams,
                                       std::int64_t min_chunk_elements)
    : device_(&device),
      maps_(&maps),
      store_(&store),
      num_streams_(num_streams),
      min_chunk_elements_(std::max<std::int64_t>(1, min_chunk_elements)),
      order_(maps.independent_elements()),
      num_independent_(static_cast<std::int64_t>(order_.size())),
      interleaved_(store.layout() == StoreLayout::kInterleaved),
      ld_(interleaved_ ? static_cast<std::size_t>(store.ndofs())
                       : hymv::round_up_to(
                             static_cast<std::size_t>(store.ndofs()), 8)) {
  HYMV_CHECK_MSG(num_streams >= 1,
                 "DeviceElementStore: need at least one stream");
  while (device_->num_streams() < num_streams) {
    device_->create_stream();
  }
  order_.insert(order_.end(), maps.dependent_elements().begin(),
                maps.dependent_elements().end());

  // Each H2D ships one chunk's image in the device format, a few MB of
  // whole interleaved batches, into its slot range of the device buffer.
  const auto n = static_cast<std::size_t>(store.ndofs());
  const std::size_t slot_bytes = ld_ * n * 8;
  const std::int64_t batch = interleaved_ ? ElementMatrixStore::kBatchElems : 1;
  const auto whole_batches = [batch](std::int64_t count) {
    return (count + batch - 1) / batch * batch;
  };
  const std::int64_t per_chunk = whole_batches(std::max<std::int64_t>(
      1, kUploadChunkBytes / static_cast<std::int64_t>(slot_bytes)));
  const std::int64_t ne = num_elements();
  const double vt0 = device_->virtual_time();
  d_ke_ = device_->alloc(static_cast<std::size_t>(whole_batches(ne)) *
                         slot_bytes);
  std::vector<double> dense(n * n);
  for (std::int64_t first = 0; first < ne; first += per_chunk) {
    const std::int64_t count = std::min(per_chunk, ne - first);
    ElementMatrixStore image(
        count, store.ndofs(),
        interleaved_ ? StoreLayout::kInterleaved : StoreLayout::kPadded);
    for (std::int64_t i = 0; i < count; ++i) {
      store.get(order_[static_cast<std::size_t>(first + i)], dense);
      image.set(i, dense);
    }
    const std::span<const std::byte> bytes = image.raw_bytes();
    device_->memcpy_h2d(static_cast<int>(first / per_chunk % num_streams),
                        d_ke_, bytes.data(), bytes.size(),
                        static_cast<std::size_t>(first) * slot_bytes);
  }
  device_->synchronize();
  upload_virtual_s_ = device_->virtual_time() - vt0;
  staging(0);  // the single-vector buffers exist from the start
}

DeviceElementStore::Staging& DeviceElementStore::staging(int lanes) {
  Staging& s = lanes <= 1 ? single_ : panel_;
  const int width = std::max(lanes, 1);
  if (s.width != width) {
    const std::size_t doubles = order_.size() *
                                static_cast<std::size_t>(store_->ndofs()) *
                                static_cast<std::size_t>(width);
    s.width = width;
    s.d_ue = device_->alloc(doubles * 8);
    s.d_ve = device_->alloc(doubles * 8);
    s.h_ue.assign(doubles, 0.0);
    s.h_ve.assign(doubles, 0.0);
  }
  return s;
}

void DeviceElementStore::enqueue(std::int64_t first, std::int64_t count,
                                 int lanes, std::span<const double> u_da) {
  if (count <= 0) {
    return;
  }
  Staging& s = staging(lanes);
  const auto n = static_cast<std::size_t>(store_->ndofs());
  const auto k = static_cast<std::size_t>(s.width);
  with_lane_width(k, [&](auto width) {
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (std::int64_t i = first; i < first + count; ++i) {
      const auto e2l = maps_->e2l(order_[static_cast<std::size_t>(i)]);
      double* dst = s.h_ue.data() + static_cast<std::size_t>(i) * n * width;
      for (std::size_t a = 0; a < n; ++a) {
        const double* src =
            u_da.data() + static_cast<std::size_t>(e2l[a]) * width;
        for (std::size_t j = 0; j < width; ++j) {
          dst[a * width + j] = src[j];
        }
      }
    }
  });

  // Never split below min_chunk_elements per chunk: small runs use few
  // commands (latency), large ones every stream (overlap).
  const auto ns = static_cast<int>(std::clamp<std::int64_t>(
      count / min_chunk_elements_, 1, num_streams_));
  const std::int64_t per_chunk = (count + ns - 1) / ns;
  for (int stream = 0; stream < ns; ++stream) {
    const std::int64_t c_first = first + stream * per_chunk;
    const std::int64_t c_count = std::min(per_chunk, first + count - c_first);
    if (c_count <= 0) {
      break;
    }
    const auto slot = static_cast<std::size_t>(c_first);
    const auto slots = static_cast<std::size_t>(c_count);
    const std::size_t offset = slot * n * k;
    device_->memcpy_h2d(stream, s.d_ue, s.h_ue.data() + offset,
                        slots * n * k * 8, offset * 8);
    if (lanes == 0 && interleaved_) {
      device_->batched_emv_interleaved(stream, d_ke_, n, slots, s.d_ue,
                                       s.d_ve, slot);
    } else if (lanes == 0) {
      device_->batched_emv(stream, d_ke_, ld_, n, slots, s.d_ue, s.d_ve,
                           slot);
    } else if (interleaved_) {
      device_->batched_emv_interleaved_multi(stream, d_ke_, n, k, slots,
                                             s.d_ue, s.d_ve, slot);
    } else {
      device_->batched_emv_multi(stream, d_ke_, ld_, n, k, slots, s.d_ue,
                                 s.d_ve, slot);
    }
    device_->memcpy_d2h(stream, s.h_ve.data() + offset, s.d_ve,
                        slots * n * k * 8, offset * 8);
  }
}

void DeviceElementStore::accumulate(std::int64_t first, std::int64_t count,
                                    int lanes, std::span<double> v_da) {
  device_->synchronize();
  if (count <= 0) {
    return;
  }
  HYMV_TRACE_SCOPE("device_accumulate", "apply");
  const Staging& s = staging(lanes);
  const auto n = static_cast<std::size_t>(store_->ndofs());
  with_lane_width(static_cast<std::size_t>(s.width), [&](auto width) {
    for (std::int64_t i = first; i < first + count; ++i) {
      const auto e2l = maps_->e2l(order_[static_cast<std::size_t>(i)]);
      const double* src =
          s.h_ve.data() + static_cast<std::size_t>(i) * n * width;
      for (std::size_t a = 0; a < n; ++a) {
        double* dst = v_da.data() + static_cast<std::size_t>(e2l[a]) * width;
        for (std::size_t j = 0; j < width; ++j) {
          dst[j] += src[a * width + j];
        }
      }
    }
  });
}

void DeviceElementStore::add_diagonal(std::int64_t first, std::int64_t count,
                                      std::span<double> v_da) const {
  StoredEmvSweep(*maps_, *store_)
      .diagonal_range(order_, first, first + count, v_da);
}

DeviceRegionBackend::DeviceRegionBackend(DeviceElementStore& store,
                                         std::int64_t first,
                                         std::int64_t count)
    : store_(&store), first_(first), count_(count) {
  HYMV_CHECK_MSG(first >= 0 && count >= 0 &&
                     first + count <= store.num_elements(),
                 "DeviceRegionBackend: slots out of range");
}

void DeviceRegionBackend::update_elements(
    std::span<const std::int64_t> dirty) {
  HYMV_CHECK_MSG(dirty.empty(),
                 "DeviceRegionBackend: the device copy of the element "
                 "matrices cannot be updated");
}

}  // namespace hymv::core
