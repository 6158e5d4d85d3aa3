#include "hymv/core/element_store.hpp"

#include <cmath>
#include <vector>

#include "hymv/common/error.hpp"
#include "hymv/common/hash.hpp"
#include "hymv/common/numa.hpp"
#include "hymv/core/dense_kernels.hpp"

namespace hymv::core {

const char* to_string(StoreLayout layout) {
  switch (layout) {
    case StoreLayout::kPadded:
      return "padded";
    case StoreLayout::kInterleaved:
      return "interleaved";
    case StoreLayout::kSymPacked:
      return "sympacked";
    case StoreLayout::kFp32:
      return "fp32";
  }
  return "?";
}

ElementMatrixStore::ElementMatrixStore(std::int64_t num_elements, int ndofs,
                                       StoreLayout layout)
    : layout_(layout), num_elements_(num_elements), ndofs_(ndofs) {
  HYMV_CHECK_MSG(num_elements >= 0 && ndofs > 0,
                 "ElementMatrixStore: invalid dimensions");
  const auto n = static_cast<std::size_t>(ndofs);
  switch (layout_) {
    case StoreLayout::kPadded:
    case StoreLayout::kFp32:
      ld_ = static_cast<int>(hymv::round_up_to(n, 8));
      stride_ = static_cast<std::int64_t>(ld_) * ndofs_;
      break;
    case StoreLayout::kInterleaved:
      ld_ = ndofs_;
      stride_ = static_cast<std::int64_t>(n * n);
      break;
    case StoreLayout::kSymPacked:
      ld_ = ndofs_;
      // Rounded up so every element's packed block starts 64-byte aligned.
      stride_ =
          static_cast<std::int64_t>(hymv::round_up_to(sym_packed_size(n), 8));
      break;
  }
  // First-touch placement: the no-init resize leaves the pages unmapped and
  // the parallel zero fill faults each one on the thread that owns the same
  // static slice in the element sweeps (DESIGN.md §5i). The assembly fill
  // that follows only rewrites already-placed pages.
  if (layout_ == StoreLayout::kFp32) {
    data32_.resize(static_cast<std::size_t>(num_elements_ * stride_));
    numa::first_touch_fill(data32_.data(), data32_.size(), 0.0f);
  } else if (layout_ == StoreLayout::kInterleaved) {
    // Whole batches, the final one zero-padded in its unused lanes.
    const std::int64_t batches =
        (num_elements_ + kBatchElems - 1) / kBatchElems;
    data_.resize(static_cast<std::size_t>(batches * stride_ * kBatchElems));
    numa::first_touch_fill(data_.data(), data_.size(), 0.0);
  } else {
    data_.resize(static_cast<std::size_t>(num_elements_ * stride_));
    numa::first_touch_fill(data_.data(), data_.size(), 0.0);
  }
}

std::int64_t ElementMatrixStore::emv_traffic_bytes_per_elem() const {
  // Cache-level model: each streamed matrix scalar costs its storage width
  // to load plus a 16 B read-modify-write of the v_e accumulator it feeds
  // (the dense kernels run accumulation over the padded rows, so padding
  // scalars count for kPadded/kFp32 — matching measured traffic).
  const auto n = static_cast<std::int64_t>(ndofs_);
  switch (layout_) {
    case StoreLayout::kPadded:
      return stride_ * 24;
    case StoreLayout::kFp32:
      return stride_ * 20;
    case StoreLayout::kInterleaved:
      return n * n * 24;  // no padding: exactly n² entries streamed
    case StoreLayout::kSymPacked:
      // np packed loads; the accumulation still touches all n² dense
      // contributions (each off-diagonal entry feeds two outputs).
      return static_cast<std::int64_t>(
                 sym_packed_size(static_cast<std::size_t>(n))) *
                 8 +
             n * n * 16;
  }
  return 0;
}

bool ElementMatrixStore::set_impl(std::int64_t e, std::span<const double> ke) {
  if (!write_element(e, ke)) {
    return false;
  }
  if (checksums_enabled_) {
    checksums_[static_cast<std::size_t>(e)] = element_hash(e);
  }
  return true;
}

bool ElementMatrixStore::write_element(std::int64_t e,
                                       std::span<const double> ke) {
  HYMV_CHECK_MSG(e >= 0 && e < num_elements_,
                 "ElementMatrixStore::set: element out of range");
  const auto n = static_cast<std::size_t>(ndofs_);
  HYMV_CHECK_MSG(ke.size() == n * n, "ElementMatrixStore::set: ke size");
  const auto ld = static_cast<std::size_t>(ld_);
  switch (layout_) {
    case StoreLayout::kPadded: {
      double* dst = data_.data() + static_cast<std::size_t>(e * stride_);
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t r = 0; r < n; ++r) {
          dst[c * ld + r] = ke[c * n + r];
        }
        // rows n..ld stay zero (zeroed at construction, never written)
      }
      return true;
    }
    case StoreLayout::kFp32: {
      float* dst = data32_.data() + static_cast<std::size_t>(e * stride_);
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t r = 0; r < n; ++r) {
          dst[c * ld + r] = static_cast<float>(ke[c * n + r]);
        }
      }
      return true;
    }
    case StoreLayout::kInterleaved: {
      double* dst = data_.data() +
                    static_cast<std::size_t>(e / kBatchElems * stride_ *
                                             kBatchElems) +
                    static_cast<std::size_t>(e % kBatchElems);
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t r = 0; r < n; ++r) {
          dst[(c * n + r) * static_cast<std::size_t>(kBatchElems)] =
              ke[c * n + r];
        }
      }
      return true;
    }
    case StoreLayout::kSymPacked: {
      // A packed store cannot represent a general matrix: verify symmetry
      // (relative to the largest entry) before accepting.
      double amax = 0.0;
      double asym = 0.0;
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t r = 0; r <= c; ++r) {
          amax = std::max(amax, std::abs(ke[c * n + r]));
          asym = std::max(asym, std::abs(ke[c * n + r] - ke[r * n + c]));
        }
      }
      if (asym > 1e-12 * amax) {
        return false;
      }
      double* dst = data_.data() + static_cast<std::size_t>(e * stride_);
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t r = 0; r <= c; ++r) {
          dst[sym_packed_index(r, c)] = ke[c * n + r];  // upper verbatim
        }
      }
      return true;
    }
  }
  return false;
}

void ElementMatrixStore::set(std::int64_t e, std::span<const double> ke) {
  if (!set_impl(e, ke)) {
    HYMV_THROW(
        "ElementMatrixStore::set: non-symmetric element matrix cannot be "
        "stored in a sympacked store (use the padded/interleaved/fp32 "
        "layout for unsymmetric operators)");
  }
}

bool ElementMatrixStore::try_set(std::int64_t e, std::span<const double> ke) {
  return set_impl(e, ke);
}

std::uint64_t ElementMatrixStore::element_hash(std::int64_t e) const {
  const auto n = static_cast<std::size_t>(ndofs_);
  std::vector<double> ke(n * n);
  get(e, ke);
  return fnv1a(ke.data(), ke.size() * sizeof(double));
}

void ElementMatrixStore::enable_checksums() {
  checksums_.resize(static_cast<std::size_t>(num_elements_));
  for (std::int64_t e = 0; e < num_elements_; ++e) {
    checksums_[static_cast<std::size_t>(e)] = element_hash(e);
  }
  checksums_enabled_ = true;
}

std::vector<std::int64_t> ElementMatrixStore::verify() const {
  HYMV_CHECK_MSG(checksums_enabled_,
                 "ElementMatrixStore::verify: checksums not enabled");
  std::vector<std::int64_t> corrupted;
  for (std::int64_t e = 0; e < num_elements_; ++e) {
    if (element_hash(e) != checksums_[static_cast<std::size_t>(e)]) {
      corrupted.push_back(e);
    }
  }
  return corrupted;
}

std::int64_t ElementMatrixStore::scrub(
    const std::function<void(std::int64_t, std::span<double>)>& recompute) {
  HYMV_CHECK_MSG(checksums_enabled_,
                 "ElementMatrixStore::scrub: checksums not enabled");
  const auto n = static_cast<std::size_t>(ndofs_);
  std::vector<double> ke(n * n);
  std::int64_t repaired = 0;
  for (const std::int64_t e : verify()) {
    recompute(e, std::span<double>(ke));
    HYMV_CHECK_MSG(set_impl(e, ke),
                   "ElementMatrixStore::scrub: recomputed element is not "
                   "symmetric (sympacked store)");
    ++repaired;
  }
  return repaired;
}

void ElementMatrixStore::get(std::int64_t e, std::span<double> ke) const {
  HYMV_CHECK_MSG(e >= 0 && e < num_elements_,
                 "ElementMatrixStore::get: element out of range");
  const auto n = static_cast<std::size_t>(ndofs_);
  HYMV_CHECK_MSG(ke.size() == n * n, "ElementMatrixStore::get: ke size");
  const auto ld = static_cast<std::size_t>(ld_);
  switch (layout_) {
    case StoreLayout::kPadded: {
      const double* src = data_.data() + static_cast<std::size_t>(e * stride_);
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t r = 0; r < n; ++r) {
          ke[c * n + r] = src[c * ld + r];
        }
      }
      return;
    }
    case StoreLayout::kFp32: {
      const float* src =
          data32_.data() + static_cast<std::size_t>(e * stride_);
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t r = 0; r < n; ++r) {
          ke[c * n + r] = static_cast<double>(src[c * ld + r]);
        }
      }
      return;
    }
    case StoreLayout::kInterleaved: {
      const double* src = data_.data() +
                          static_cast<std::size_t>(e / kBatchElems * stride_ *
                                                   kBatchElems) +
                          static_cast<std::size_t>(e % kBatchElems);
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t r = 0; r < n; ++r) {
          ke[c * n + r] =
              src[(c * n + r) * static_cast<std::size_t>(kBatchElems)];
        }
      }
      return;
    }
    case StoreLayout::kSymPacked: {
      const double* src = data_.data() + static_cast<std::size_t>(e * stride_);
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t r = 0; r < n; ++r) {
          ke[c * n + r] = r <= c ? src[sym_packed_index(r, c)]
                                 : src[sym_packed_index(c, r)];
        }
      }
      return;
    }
  }
}

double ElementMatrixStore::at(std::int64_t e, int row, int col) const {
  const auto n = static_cast<std::size_t>(ndofs_);
  const auto r = static_cast<std::size_t>(row);
  const auto c = static_cast<std::size_t>(col);
  const auto ld = static_cast<std::size_t>(ld_);
  switch (layout_) {
    case StoreLayout::kPadded:
      return data_[static_cast<std::size_t>(e * stride_) + c * ld + r];
    case StoreLayout::kFp32:
      return static_cast<double>(
          data32_[static_cast<std::size_t>(e * stride_) + c * ld + r]);
    case StoreLayout::kInterleaved:
      return data_[static_cast<std::size_t>(e / kBatchElems * stride_ *
                                            kBatchElems) +
                   (c * n + r) * static_cast<std::size_t>(kBatchElems) +
                   static_cast<std::size_t>(e % kBatchElems)];
    case StoreLayout::kSymPacked:
      return data_[static_cast<std::size_t>(e * stride_) +
                   (r <= c ? sym_packed_index(r, c) : sym_packed_index(c, r))];
  }
  return 0.0;
}

const double* ElementMatrixStore::data(std::int64_t e) const {
  HYMV_CHECK_MSG(layout_ == StoreLayout::kPadded,
                 "ElementMatrixStore::data: padded fp64 layout only");
  return data_.data() + static_cast<std::size_t>(e * stride_);
}

const float* ElementMatrixStore::data32(std::int64_t e) const {
  HYMV_CHECK_MSG(layout_ == StoreLayout::kFp32,
                 "ElementMatrixStore::data32: fp32 layout only");
  return data32_.data() + static_cast<std::size_t>(e * stride_);
}

void ElementMatrixStore::emv(std::int64_t e, const double* ue,
                             double* ve) const {
  const auto n = static_cast<std::size_t>(ndofs_);
  const auto ld = static_cast<std::size_t>(ld_);
  switch (layout_) {
    case StoreLayout::kPadded:
      emv_dense(data_.data() + static_cast<std::size_t>(e * stride_), ld, n,
                ue, ve);
      return;
    case StoreLayout::kFp32:
      emv_dense(data32_.data() + static_cast<std::size_t>(e * stride_), ld,
                n, ue, ve);
      return;
    case StoreLayout::kInterleaved:
      emv_interleaved_lane(
          data_.data() + static_cast<std::size_t>(e / kBatchElems * stride_ *
                                                  kBatchElems),
          n, static_cast<std::size_t>(e % kBatchElems), ue, ve);
      return;
    case StoreLayout::kSymPacked:
      emv_sym(data_.data() + static_cast<std::size_t>(e * stride_), n, ue,
              ve);
      return;
  }
}

void ElementMatrixStore::emv_batch(std::int64_t first_elem, const double* uei,
                                   double* vei) const {
  HYMV_CHECK_MSG(full_batch_at(first_elem),
                 "ElementMatrixStore::emv_batch: not a full batch start");
  emv_interleaved_batch(
      data_.data() + static_cast<std::size_t>(first_elem / kBatchElems *
                                              stride_ * kBatchElems),
      static_cast<std::size_t>(ndofs_), uei, vei);
}

void ElementMatrixStore::emv_multi(std::int64_t e, std::size_t k,
                                   const double* ue, double* ve) const {
  const auto n = static_cast<std::size_t>(ndofs_);
  if (layout_ == StoreLayout::kInterleaved) {
    emv_interleaved_lane_multi(
        data_.data() +
            static_cast<std::size_t>(e / kBatchElems * stride_ * kBatchElems),
        n, static_cast<std::size_t>(e % kBatchElems), k, ue, ve);
    return;
  }
  HYMV_CHECK_MSG(layout_ == StoreLayout::kSymPacked,
                 "ElementMatrixStore::emv_multi: the dense layouts run the "
                 "panel sweep (dense_kernels.hpp)");
  emv_sym_multi(data_.data() + static_cast<std::size_t>(e * stride_), n, k,
                ue, ve);
}

void ElementMatrixStore::emv_batch_multi(std::int64_t first_elem,
                                         std::size_t k, const double* uei,
                                         double* vei) const {
  HYMV_CHECK_MSG(full_batch_at(first_elem),
                 "ElementMatrixStore::emv_batch_multi: not a full batch start");
  emv_interleaved_batch_multi(
      data_.data() + static_cast<std::size_t>(first_elem / kBatchElems *
                                              stride_ * kBatchElems),
      static_cast<std::size_t>(ndofs_), k, uei, vei);
}

ElementMatrixStore ElementMatrixStore::convert_to(StoreLayout target) const {
  ElementMatrixStore out(num_elements_, ndofs_, target);
  const auto n = static_cast<std::size_t>(ndofs_);
  std::vector<double> ke(n * n);
  for (std::int64_t e = 0; e < num_elements_; ++e) {
    get(e, ke);
    out.set(e, ke);
  }
  return out;
}

std::span<const std::byte> ElementMatrixStore::raw_bytes() const {
  if (layout_ == StoreLayout::kFp32) {
    return std::as_bytes(std::span<const float>(data32_));
  }
  return std::as_bytes(std::span<const double>(data_));
}

std::span<std::byte> ElementMatrixStore::raw_bytes() {
  if (layout_ == StoreLayout::kFp32) {
    return std::as_writable_bytes(std::span<float>(data32_));
  }
  return std::as_writable_bytes(std::span<double>(data_));
}

}  // namespace hymv::core
