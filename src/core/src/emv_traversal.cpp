#include "hymv/core/emv_traversal.hpp"

#include "hymv/core/dense_kernels.hpp"

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
  const auto n = static_cast<std::size_t>(store_->ndofs());
  const auto ld = static_cast<std::size_t>(store_->leading_dim());
  const auto stride = static_cast<std::size_t>(store_->stride());
  switch (store_->layout()) {
    case StoreLayout::kPadded:
      panel_sweep_body<double>(n)({store_->data(0), stride, ld, n, k,
                                   maps_->e2l_data(), order.data(), begin, end,
                                   u.data(), v.data()});
      return;
    case StoreLayout::kFp32:
      panel_sweep_body<float>(n)({store_->data32(0), stride, ld, n, k,
                                  maps_->e2l_data(), order.data(), begin, end,
                                  u.data(), v.data()});
      return;
    case StoreLayout::kInterleaved:
    case StoreLayout::kSymPacked:
      break;
  }

  constexpr std::int64_t kB = ElementMatrixStore::kBatchElems;
  const auto kBu = static_cast<std::size_t>(kB);

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

void StoredEmvSweep::diagonal_range(std::span<const std::int64_t> order,
                                    std::int64_t begin, std::int64_t end,
                                    std::span<double> v) const {
  const auto n = static_cast<std::size_t>(store_->ndofs());
  for (std::int64_t i = begin; i < end; ++i) {
    const std::int64_t e = order[static_cast<std::size_t>(i)];
    const auto e2l = maps_->e2l(e);
    for (std::size_t a = 0; a < n; ++a) {
      v[static_cast<std::size_t>(e2l[a])] +=
          store_->at(e, static_cast<int>(a), static_cast<int>(a));
    }
  }
}

}  // namespace hymv::core
