#include "hymv/core/sell_backend.hpp"

#include <algorithm>

#include "hymv/common/error.hpp"
#include "hymv/common/timer.hpp"

namespace hymv::core {

namespace {

/// Index of global value `x` in the sorted unique vector `v`.
std::int64_t index_of(const std::vector<std::int64_t>& v, std::int64_t x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  HYMV_CHECK(it != v.end() && *it == x);
  return it - v.begin();
}

/// CSR value-slot of entry (row, col); -1 when the pattern lacks it.
std::int64_t slot_of(const pla::CsrMatrix& m, std::int64_t row,
                     std::int64_t col) {
  const std::vector<std::int64_t>& rp = m.row_ptr();
  const std::vector<std::int64_t>& ci = m.col_idx();
  const auto lo = ci.begin() + rp[static_cast<std::size_t>(row)];
  const auto hi = ci.begin() + rp[static_cast<std::size_t>(row) + 1];
  const auto it = std::lower_bound(lo, hi, col);
  if (it == hi || *it != col) {
    return -1;
  }
  return it - ci.begin();
}

}  // namespace

SellRegionBackend::SellRegionBackend(const DofMaps& maps,
                                     const ElementMatrixStore& store,
                                     const std::vector<std::int64_t>& elements,
                                     int c, int sigma, bool threaded)
    : store_(&store), elements_(&elements) {
  Timer timer;
  const auto n = static_cast<std::size_t>(store.ndofs());

  // Touched DA rows, compacted: the SELL matrix covers only rows this
  // region writes, so disjoint regions never alias.
  row_map_.reserve(elements.size() * n);
  for (const std::int64_t e : elements) {
    const auto e2l = maps.e2l(e);
    row_map_.insert(row_map_.end(), e2l.begin(), e2l.end());
  }
  std::sort(row_map_.begin(), row_map_.end());
  row_map_.erase(std::unique(row_map_.begin(), row_map_.end()),
                 row_map_.end());

  // Sparsity pattern (zero-valued triplets; duplicates merge). Columns
  // index the FULL distributed array, so u_da is consumed directly and the
  // ghost exchange stays untouched.
  std::vector<pla::Triplet> pattern;
  pattern.reserve(elements.size() * n * n);
  for (const std::int64_t e : elements) {
    const auto e2l = maps.e2l(e);
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t a = 0; a < n; ++a) {
        pattern.push_back(pla::Triplet{index_of(row_map_, e2l[a]),
                                       e2l[b], 0.0});
      }
    }
  }
  csr_ = pla::CsrMatrix::from_triplets(
      static_cast<std::int64_t>(row_map_.size()), maps.da_size(),
      std::move(pattern));

  // Per-element slot maps so every refresh scatters without searching.
  elem_slots_.resize(elements.size() * n * n);
  for (std::size_t i = 0; i < elements.size(); ++i) {
    const auto e2l = maps.e2l(elements[i]);
    std::int64_t* slots = elem_slots_.data() + i * n * n;
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t a = 0; a < n; ++a) {
        slots[a * n + b] = slot_of(csr_, index_of(row_map_, e2l[a]), e2l[b]);
      }
    }
  }
  diag_slot_.resize(row_map_.size());
  for (std::size_t r = 0; r < row_map_.size(); ++r) {
    diag_slot_[r] =
        slot_of(csr_, static_cast<std::int64_t>(r), row_map_[r]);
  }

  scatter_values();
  sell_ = pla::SellMatrix(csr_, c, sigma, threaded);
  assembly_s_ = timer.elapsed_s();
}

void SellRegionBackend::scatter_values() {
  const auto n = static_cast<std::size_t>(store_->ndofs());
  std::vector<double>& vals = csr_.values();
  std::fill(vals.begin(), vals.end(), 0.0);
  // Fixed region-element order → reproducible rounding; a fresh build and
  // an incremental refresh produce identical bits.
  for (std::size_t i = 0; i < elements_->size(); ++i) {
    const std::int64_t e = (*elements_)[i];
    const std::int64_t* slots = elem_slots_.data() + i * n * n;
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t a = 0; a < n; ++a) {
        vals[static_cast<std::size_t>(slots[a * n + b])] +=
            store_->at(e, static_cast<int>(a), static_cast<int>(b));
      }
    }
  }
}

void SellRegionBackend::apply(std::span<const double> u_da,
                              std::span<double> v_da, int lanes) {
  if (lanes == 0) {
    sell_.spmv_scatter_add(u_da, v_da, row_map_);
  } else {
    sell_.spmv_scatter_add_multi(u_da, v_da, row_map_, lanes);
  }
}

void SellRegionBackend::add_diagonal(std::span<double> v_da) {
  const std::vector<double>& vals = csr_.values();
  for (std::size_t r = 0; r < row_map_.size(); ++r) {
    if (diag_slot_[r] >= 0) {
      v_da[static_cast<std::size_t>(row_map_[r])] +=
          vals[static_cast<std::size_t>(diag_slot_[r])];
    }
  }
}

void SellRegionBackend::update_elements(std::span<const std::int64_t> dirty) {
  if (dirty.empty()) {
    return;
  }
  // Values-only incremental re-assembly: the pattern/σ-sort/chunking are
  // functions of connectivity alone and stay valid.
  Timer timer;
  scatter_values();
  sell_.refill_values(csr_);
  assembly_s_ = timer.elapsed_s();
}

std::int64_t SellRegionBackend::apply_flops() const {
  return 2 * sell_.num_nonzeros();
}

std::int64_t SellRegionBackend::apply_bytes() const {
  return sell_.apply_traffic_bytes();
}

std::int64_t SellRegionBackend::apply_flops_multi(int k) const {
  return apply_flops() * k;
}

std::int64_t SellRegionBackend::apply_bytes_multi(int k) const {
  // The slot stream (values + columns) is charged once per panel; the x/y
  // vector traffic scales with the lane count.
  return sell_.stored_slots() * 16 +
         (sell_.num_cols() * 8 + sell_.num_rows() * 24) * k;
}

}  // namespace hymv::core
