#include "hymv/core/emv_traversal.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include "hymv/common/aligned.hpp"
#include "hymv/core/dense_kernels.hpp"
#include "hymv/obs/trace.hpp"

namespace hymv::core {

void StoredEmvSweep::range(std::span<const std::int64_t> order,
                           std::int64_t begin, std::int64_t end,
                           std::span<const double> u, std::span<double> v,
                           double* ue, double* ve) const {
  const auto n = static_cast<std::size_t>(store_->ndofs());
  const auto ld = static_cast<std::size_t>(store_->leading_dim());
  const auto stride = static_cast<std::size_t>(store_->stride());
  switch (store_->layout()) {
    case StoreLayout::kPadded:
      dense_sweep_body<double>(ld)({store_->data(0), stride, ld, n,
                                    maps_->e2l_data(), order.data(), begin,
                                    end, u.data(), v.data()});
      return;
    case StoreLayout::kFp32:
      dense_sweep_body<float>(ld)({store_->data32(0), stride, ld, n,
                                   maps_->e2l_data(), order.data(), begin, end,
                                   u.data(), v.data()});
      return;
    case StoreLayout::kInterleaved:
    case StoreLayout::kSymPacked:
      break;
  }

  constexpr std::int64_t kB = ElementMatrixStore::kBatchElems;

  std::int64_t i = begin;
  while (i < end) {
    const std::int64_t e = order[static_cast<std::size_t>(i)];
    if (i + kB <= end && store_->full_batch_at(e)) {
      // Interleaved fast path if the next kB entries are exactly the
      // aligned batch e..e+kB-1 (schedule blocks list ascending ids, so
      // this holds for most of the interior).
      bool run = true;
      for (std::int64_t l = 1; l < kB; ++l) {
        run = run && order[static_cast<std::size_t>(i + l)] == e + l;
      }
      if (run) {
        for (std::int64_t l = 0; l < kB; ++l) {
          const auto e2l = maps_->e2l(e + l);
          for (std::size_t a = 0; a < n; ++a) {  // lane-interleaved u_e
            ue[a * static_cast<std::size_t>(kB) +
               static_cast<std::size_t>(l)] =
                u[static_cast<std::size_t>(e2l[a])];
          }
        }
        store_->emv_batch(e, ue, ve);
        // Lane-ascending scatter: contributions land in the same order the
        // element-at-a-time path produces them.
        for (std::int64_t l = 0; l < kB; ++l) {
          const auto e2l = maps_->e2l(e + l);
          for (std::size_t a = 0; a < n; ++a) {
            v[static_cast<std::size_t>(e2l[a])] +=
                ve[a * static_cast<std::size_t>(kB) +
                   static_cast<std::size_t>(l)];
          }
        }
        i += kB;
        continue;
      }
    }
    const auto e2l = maps_->e2l(e);
    for (std::size_t a = 0; a < n; ++a) {
      ue[a] = u[static_cast<std::size_t>(e2l[a])];  // extract u_e
    }
    store_->emv(e, ue, ve);
    for (std::size_t a = 0; a < n; ++a) {
      v[static_cast<std::size_t>(e2l[a])] += ve[a];  // accumulate v_e
    }
    ++i;
  }
}

void StoredEmvSweep::range_multi(std::span<const std::int64_t> order,
                                 std::int64_t begin, std::int64_t end,
                                 std::size_t k, std::span<const double> u,
                                 std::span<double> v, double* ue,
                                 double* ve) const {
  constexpr std::int64_t kB = ElementMatrixStore::kBatchElems;
  const auto kBu = static_cast<std::size_t>(kB);
  const auto n = static_cast<std::size_t>(store_->ndofs());

  std::int64_t i = begin;
  while (i < end) {
    const std::int64_t e = order[static_cast<std::size_t>(i)];
    if (i + kB <= end && store_->full_batch_at(e)) {
      // Same batch condition as range() — driven only by the block
      // boundaries and the stored element order, never by the executing
      // thread, which is what keeps serial and threaded traversals
      // bitwise identical at every k.
      bool run = true;
      for (std::int64_t l = 1; l < kB; ++l) {
        run = run && order[static_cast<std::size_t>(i + l)] == e + l;
      }
      if (run) {
        for (std::int64_t l = 0; l < kB; ++l) {
          const auto e2l = maps_->e2l(e + l);
          for (std::size_t a = 0; a < n; ++a) {
            const double* src =
                u.data() + static_cast<std::size_t>(e2l[a]) * k;
            double* dst = ue + (a * kBu + static_cast<std::size_t>(l)) * k;
            for (std::size_t j = 0; j < k; ++j) {
              dst[j] = src[j];
            }
          }
        }
        store_->emv_batch_multi(e, k, ue, ve);
        for (std::int64_t l = 0; l < kB; ++l) {
          const auto e2l = maps_->e2l(e + l);
          for (std::size_t a = 0; a < n; ++a) {
            double* dst = v.data() + static_cast<std::size_t>(e2l[a]) * k;
            const double* src =
                ve + (a * kBu + static_cast<std::size_t>(l)) * k;
            for (std::size_t j = 0; j < k; ++j) {
              dst[j] += src[j];
            }
          }
        }
        i += kB;
        continue;
      }
    }
    const auto e2l = maps_->e2l(e);
    for (std::size_t a = 0; a < n; ++a) {  // gather the ndofs × k panel
      const double* src = u.data() + static_cast<std::size_t>(e2l[a]) * k;
      double* dst = ue + a * k;
      for (std::size_t j = 0; j < k; ++j) {
        dst[j] = src[j];
      }
    }
    store_->emv_multi(e, k, ue, ve);
    for (std::size_t a = 0; a < n; ++a) {  // scatter-add the v_e panel
      double* dst = v.data() + static_cast<std::size_t>(e2l[a]) * k;
      const double* src = ve + a * k;
      for (std::size_t j = 0; j < k; ++j) {
        dst[j] += src[j];
      }
    }
    ++i;
  }
}

void StoredEmvSweep::colored_loop(const ElementSchedule& sched, bool threaded,
                                  int rank_tag, std::span<const double> u,
                                  std::span<double> v) const {
  const std::size_t ws = workspace_size(1);
  const std::span<const std::int64_t> order = sched.order();
#ifdef _OPENMP
  if (threaded) {
#pragma omp parallel
    {
      // Tag workers with the owning rank so their spans group under the
      // rank's "process" row; the span itself is free when the tracer is
      // off.
      hymv::obs::set_current_rank(rank_tag);
      HYMV_TRACE_SCOPE("emv_worker", "apply");
      hymv::aligned_vector<double> ue(ws), ve(ws);
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
          range(order, blk.begin, blk.end, u, v, ue.data(), ve.data());
        }
      }
    }
    return;
  }
#else
  (void)threaded;
  (void)rank_tag;
#endif
  // Serial execution of the same color-major, block-by-block traversal:
  // each DoF still receives its contributions in color order and the
  // per-block batching decisions are identical, so this is bitwise
  // identical to the threaded path above for any thread count.
  hymv::aligned_vector<double> ue(ws), ve(ws);
  for (int c = 0; c < sched.num_colors(); ++c) {
    for (const ElementSchedule::Block& blk : sched.blocks(c)) {
      range(order, blk.begin, blk.end, u, v, ue.data(), ve.data());
    }
  }
}

void StoredEmvSweep::colored_loop_multi(const ElementSchedule& sched,
                                        bool threaded, int rank_tag,
                                        std::size_t k,
                                        std::span<const double> u,
                                        std::span<double> v) const {
  const std::size_t ws = workspace_size(k);
  const std::span<const std::int64_t> order = sched.order();
#ifdef _OPENMP
  if (threaded) {
#pragma omp parallel
    {
      hymv::obs::set_current_rank(rank_tag);
      HYMV_TRACE_SCOPE("emv_worker", "apply");
      hymv::aligned_vector<double> ue(ws), ve(ws);
      for (int c = 0; c < sched.num_colors(); ++c) {
        const std::span<const ElementSchedule::Block> blocks =
            sched.blocks(c);
#pragma omp for schedule(dynamic, 1)
        for (std::int64_t b = 0; b < static_cast<std::int64_t>(blocks.size());
             ++b) {
          const ElementSchedule::Block& blk =
              blocks[static_cast<std::size_t>(b)];
          range_multi(order, blk.begin, blk.end, k, u, v, ue.data(),
                      ve.data());
        }
      }
    }
    return;
  }
#else
  (void)threaded;
  (void)rank_tag;
#endif
  // Serial color-major traversal — bitwise identical to the threaded path
  // above, exactly as in colored_loop.
  hymv::aligned_vector<double> ue(ws), ve(ws);
  for (int c = 0; c < sched.num_colors(); ++c) {
    for (const ElementSchedule::Block& blk : sched.blocks(c)) {
      range_multi(order, blk.begin, blk.end, k, u, v, ue.data(), ve.data());
    }
  }
}

void StoredEmvSweep::serial_loop(std::span<const std::int64_t> elements,
                                 std::span<const double> u,
                                 std::span<double> v) const {
  hymv::aligned_vector<double> ue(workspace_size(1)), ve(workspace_size(1));
  range(elements, 0, static_cast<std::int64_t>(elements.size()), u, v,
        ue.data(), ve.data());
}

void StoredEmvSweep::serial_loop_multi(std::span<const std::int64_t> elements,
                                       std::size_t k,
                                       std::span<const double> u,
                                       std::span<double> v) const {
  hymv::aligned_vector<double> ue(workspace_size(k)), ve(workspace_size(k));
  range_multi(elements, 0, static_cast<std::int64_t>(elements.size()), k, u,
              v, ue.data(), ve.data());
}

void StoredEmvSweep::diagonal_colored(const ElementSchedule& sched,
                                      bool threaded,
                                      std::span<double> v) const {
  const auto n = static_cast<std::size_t>(store_->ndofs());
  const auto scatter_diag = [&](std::int64_t e) {
    const auto e2l = maps_->e2l(e);
    for (std::size_t a = 0; a < n; ++a) {
      v[static_cast<std::size_t>(e2l[a])] +=
          store_->at(e, static_cast<int>(a), static_cast<int>(a));
    }
  };
#ifdef _OPENMP
  if (threaded) {
    const std::span<const std::int64_t> order = sched.order();
#pragma omp parallel
    for (int c = 0; c < sched.num_colors(); ++c) {
      const std::span<const ElementSchedule::Block> blocks = sched.blocks(c);
      // Blocks, not elements, are the conflict-free unit of one color.
#pragma omp for schedule(static)
      for (std::int64_t b = 0; b < static_cast<std::int64_t>(blocks.size());
           ++b) {
        const ElementSchedule::Block& blk =
            blocks[static_cast<std::size_t>(b)];
        for (std::int64_t i = blk.begin; i < blk.end; ++i) {
          scatter_diag(order[static_cast<std::size_t>(i)]);
        }
      }
    }
    return;
  }
#else
  (void)threaded;
#endif
  for (const std::int64_t e : sched.order()) {
    scatter_diag(e);
  }
}

void StoredEmvSweep::diagonal_serial(std::span<const std::int64_t> elements,
                                     std::span<double> v) const {
  const auto n = static_cast<std::size_t>(store_->ndofs());
  for (const std::int64_t e : elements) {
    const auto e2l = maps_->e2l(e);
    for (std::size_t a = 0; a < n; ++a) {
      v[static_cast<std::size_t>(e2l[a])] +=
          store_->at(e, static_cast<int>(a), static_cast<int>(a));
    }
  }
}

}  // namespace hymv::core
