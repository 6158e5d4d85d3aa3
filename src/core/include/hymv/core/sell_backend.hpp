#pragma once

/// \file sell_backend.hpp
/// Locally assembled region backend: the region's element matrices are
/// assembled from the shared ElementMatrixStore into a compacted CSR over
/// the touched distributed-array rows (columns index the full DA, so the
/// ghost exchange and DA staging are reused unchanged), then converted to
/// SELL-C-σ for the apply kernels. This is the "assembled" point of the
/// adaptive design space: ~nnz instead of ~Σ ndofs² matrix bytes per apply
/// (shared DoFs stored once), at the price of an assembly step — which
/// update_elements() repeats values-only per dirty region, keeping the
/// operator adaptive.
///
/// Determinism: contributions accumulate in fixed region-element order into
/// precomputed CSR slots, so assembly is bitwise reproducible and a fresh
/// build equals an incremental refresh exactly. The SELL spmv is bitwise
/// stable across C/σ/threads (see pla/sell.hpp); it rounds sums in
/// assembled (column-ascending) order, which differs from the stored-EMV
/// traversal order — equal in exact arithmetic, not bit-for-bit.

#include <cstdint>
#include <span>
#include <vector>

#include "hymv/core/element_store.hpp"
#include "hymv/core/maps.hpp"
#include "hymv/core/region_backend.hpp"
#include "hymv/pla/sell.hpp"

namespace hymv::core {

class SellRegionBackend final : public RegionBackend {
 public:
  /// Assembles the region at construction. `maps`, `store`, and `elements`
  /// must outlive the backend; `c`/`sigma` are the SELL chunk height and
  /// sorting window; `threaded` threads the chunk loop of the kernels.
  SellRegionBackend(const DofMaps& maps, const ElementMatrixStore& store,
                    const std::vector<std::int64_t>& elements, int c,
                    int sigma, bool threaded);

  [[nodiscard]] const char* name() const override { return "sell"; }
  void apply(std::span<const double> u_da, std::span<double> v_da,
             int lanes) override;
  void add_diagonal(std::span<double> v_da) override;
  /// Values-only re-assembly from the (already updated) store: re-scatter
  /// every region element into the kept CSR slots and refill the SELL
  /// values. The pattern, σ-sort, and chunking are untouched, so the
  /// refreshed matrix is bitwise what a fresh build would produce.
  void update_elements(std::span<const std::int64_t> dirty) override;

  [[nodiscard]] std::int64_t apply_flops() const override;
  [[nodiscard]] std::int64_t apply_bytes() const override;
  [[nodiscard]] std::int64_t apply_flops_multi(int k) const override;
  [[nodiscard]] std::int64_t apply_bytes_multi(int k) const override;

  /// Assembly cost of the last (re)build, seconds — the autotuner charges
  /// it when scoring, and adaptive.* metrics publish it.
  [[nodiscard]] double last_assembly_s() const { return assembly_s_; }
  [[nodiscard]] const pla::SellMatrix& matrix() const { return sell_; }
  /// DA row of each compacted matrix row.
  [[nodiscard]] std::span<const std::int64_t> row_map() const {
    return row_map_;
  }

 private:
  /// Zero the CSR values and scatter every region element's stored matrix
  /// into its precomputed slots (fixed element order).
  void scatter_values();

  const ElementMatrixStore* store_;
  const std::vector<std::int64_t>* elements_;
  pla::CsrMatrix csr_;   ///< compacted rows × da_size cols; refreshed values
  pla::SellMatrix sell_;
  std::vector<std::int64_t> row_map_;    ///< compacted row → DA index
  std::vector<std::int64_t> elem_slots_; ///< per element: ndofs² CSR value slots
  std::vector<std::int64_t> diag_slot_;  ///< per row: slot of its DA diagonal, -1 if absent
  double assembly_s_ = 0.0;
};

}  // namespace hymv::core
