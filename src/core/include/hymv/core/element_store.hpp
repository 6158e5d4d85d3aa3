#pragma once

/// \file element_store.hpp
/// Per-partition storage of dense element matrices — the "adaptive matrix"
/// at the heart of HYMV (paper §III) — behind a pluggable *layout* axis.
///
/// The apply phase is bandwidth-bound on the stored matrices (paper §V
/// roofline), so how the bytes are laid out and how wide each scalar is
/// are first-order performance knobs. Four layouts live behind one
/// `ElementMatrixStore` interface (selected via `HymvOptions.layout`):
///
///   * `kPadded` — the classic layout: fp64, per-element column-major with
///     the leading dimension padded to the SIMD width so every column
///     starts on a 64-byte boundary. Bit-identical to the pre-layout-axis
///     store (regression-tested).
///   * `kInterleaved` — SELL-C-σ-style batching: groups of `kBatchElems`
///     consecutive elements are stored entry-interleaved, entry (r,c) of
///     the batch's 8 elements adjacent in memory. One SIMD lane = one
///     element, so the EMV vectorizes *across* elements with unit-stride
///     loads and zero padding waste (a tet4's padded layout wastes 50 % of
///     its bytes; interleaved wastes none).
///   * `kSymPacked` — upper triangle only, packed column-major, for the
///     symmetric operators FEM produces: ~2× fewer streamed bytes per
///     apply. `set()` rejects non-symmetric input instead of silently
///     storing a wrong half.
///   * `kFp32` — fp32 storage with fp64 accumulation in the kernels:
///     halves the streamed bytes at ~1e-7 relative output error (the
///     mixed-precision point in the accuracy/bandwidth tradeoff;
///     quantified in DESIGN.md §5c).
///
/// Individual elements can be recomputed in place (set()/update path),
/// which is the XFEM-enrichment / AMR fast path the paper motivates —
/// every layout supports it.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "hymv/common/aligned.hpp"

namespace hymv::core {

/// Storage layout of the element-matrix store (see file comment).
enum class StoreLayout : int {
  kPadded,       ///< fp64, per-element column-major, SIMD-padded ld
  kInterleaved,  ///< fp64, batches of 8 elements entry-interleaved
  kSymPacked,    ///< fp64, packed upper triangle (symmetric operators)
  kFp32,         ///< fp32 storage, fp64 accumulation, padded geometry
};

/// Human-readable layout name ("padded" / "interleaved" / "sympacked" /
/// "fp32").
[[nodiscard]] const char* to_string(StoreLayout layout);

class ElementMatrixStore {
 public:
  /// Elements per interleaved batch: one AVX-512 register of fp64 lanes.
  static constexpr std::int64_t kBatchElems = 8;

  ElementMatrixStore() = default;

  /// Allocate storage for `num_elements` matrices of size ndofs × ndofs in
  /// the given layout. All entries start zero.
  ElementMatrixStore(std::int64_t num_elements, int ndofs,
                     StoreLayout layout = StoreLayout::kPadded);

  [[nodiscard]] StoreLayout layout() const { return layout_; }
  [[nodiscard]] std::int64_t num_elements() const { return num_elements_; }
  /// Matrix dimension (rows == cols).
  [[nodiscard]] int ndofs() const { return ndofs_; }
  /// Leading dimension of one stored column: padded to a multiple of 8
  /// scalars for kPadded/kFp32; equal to ndofs for the layouts that carry
  /// no padding (kInterleaved/kSymPacked have no dense column storage).
  [[nodiscard]] int leading_dim() const { return ld_; }
  /// Scalars stored per element (layout-true; excludes the tail-batch
  /// padding of kInterleaved).
  [[nodiscard]] std::int64_t stride() const { return stride_; }
  /// Width of one stored scalar in bytes (8, or 4 for kFp32).
  [[nodiscard]] int scalar_bytes() const {
    return layout_ == StoreLayout::kFp32 ? 4 : 8;
  }
  /// Total storage in bytes (the memory-footprint cost the paper
  /// discusses), derived from the actual payload — never assumes fp64.
  [[nodiscard]] std::int64_t bytes() const {
    return static_cast<std::int64_t>(data_.size()) * 8 +
           static_cast<std::int64_t>(data32_.size()) * 4;
  }
  /// Cache-level bytes one element's EMV streams (matrix load at the
  /// stored scalar width + the v_e read-modify-write per touched entry) —
  /// the layout-true matrix term of HymvOperator::apply_bytes().
  [[nodiscard]] std::int64_t emv_traffic_bytes_per_elem() const;

  /// Write element e's matrix from an unpadded column-major ke (ndofs²
  /// entries). Throws for kSymPacked when ke is not symmetric (within
  /// 1e-12 relative) — a packed store cannot represent the general half.
  void set(std::int64_t e, std::span<const double> ke);
  /// set() that reports a symmetry violation by returning false instead of
  /// throwing — for callers inside OpenMP regions, where an exception
  /// escaping the parallel loop would terminate.
  [[nodiscard]] bool try_set(std::int64_t e, std::span<const double> ke);
  /// Read element e back as an unpadded column-major dense matrix (ndofs²
  /// entries) — the layout-independent unpack used for conversion, device
  /// upload, and serialization round-trips.
  void get(std::int64_t e, std::span<double> ke) const;

  /// Entry (row, col) of element e, any layout (kFp32 widens).
  [[nodiscard]] double at(std::int64_t e, int row, int col) const;

  /// Aligned, padded, column-major storage of element e (kPadded only).
  [[nodiscard]] const double* data(std::int64_t e) const;
  /// fp32 padded column-major storage of element e (kFp32 only).
  [[nodiscard]] const float* data32(std::int64_t e) const;

  /// v_e = K_e u_e for one element through the layout's kernel
  /// (kPadded/kFp32 run the apply's register sweep over this one element).
  /// ue/ve hold ndofs doubles; ve is overwritten.
  void emv(std::int64_t e, const double* ue, double* ve) const;
  /// True when elements [e, e + kBatchElems) form one full interleaved
  /// batch, i.e. emv_batch(e, ...) is the fast path for them.
  [[nodiscard]] bool full_batch_at(std::int64_t e) const {
    return layout_ == StoreLayout::kInterleaved && e % kBatchElems == 0 &&
           e + kBatchElems <= num_elements_;
  }
  /// Batched EMV over the full interleaved batch starting at `first_elem`
  /// (which must satisfy full_batch_at). uei/vei are lane-interleaved:
  /// entry c of batch element l at uei[c * kBatchElems + l]. Each lane
  /// computes the single-element emv()'s fused chains, bit for bit.
  /// Callers still make the batch-vs-single decision from data independent
  /// of the executing thread (HymvOperator decides per schedule block).
  void emv_batch(std::int64_t first_elem, const double* uei,
                 double* vei) const;

  /// Panel EMV: V_e = K_e U_e over a k-lane panel for the staged layouts
  /// (kInterleaved, kSymPacked; the dense layouts run the panel sweep of
  /// dense_kernels.hpp straight on the DA). ue/ve are ndofs × k
  /// lane-interleaved (entry a of lane j at [a*k + j]); ve is overwritten.
  /// The element matrix is streamed once for all k lanes — the multi-RHS
  /// arithmetic-intensity win.
  void emv_multi(std::int64_t e, std::size_t k, const double* ue,
                 double* ve) const;
  /// Panel EMV over the full interleaved batch at `first_elem` (which must
  /// satisfy full_batch_at). uei/vei carry the k lanes of batch element l's
  /// entry a at [(a*kBatchElems + l)*k + j]. Same batch-vs-single decision
  /// contract as emv_batch: callers decide per schedule block, never per
  /// thread.
  void emv_batch_multi(std::int64_t first_elem, std::size_t k,
                       const double* uei, double* vei) const;

  /// Bytes one element's *panel* EMV streams for a k-lane panel: the
  /// matrix-side traffic (load + accumulator RMW) is charged ONCE — it is
  /// identical to the single-RHS term — while each extra lane only adds
  /// vector traffic, which HymvOperator accounts separately. Keeping the
  /// matrix term k-independent is exactly what makes apply_bytes_multi's
  /// arithmetic intensity grow ~k.
  [[nodiscard]] std::int64_t emv_panel_traffic_bytes_per_elem() const {
    return emv_traffic_bytes_per_elem();
  }

  /// Re-encode the whole store into `target` layout (element-wise
  /// get()/set(); throws if target is kSymPacked and the contents are not
  /// symmetric). Converting away from kFp32 keeps the rounded values.
  [[nodiscard]] ElementMatrixStore convert_to(StoreLayout target) const;

  /// Whole payload as raw bytes (for serialization). The byte meaning is
  /// layout-dependent; persist layout() + ndofs() + num_elements() with it.
  [[nodiscard]] std::span<const std::byte> raw_bytes() const;
  [[nodiscard]] std::span<std::byte> raw_bytes();

  // --- integrity checksums -----------------------------------------------

  /// Start tracking a per-element FNV-1a checksum over the canonical
  /// get() bytes. The hash is layout-independent (kFp32 hashes the widened
  /// values it actually stores), so it survives convert_to() round-trips of
  /// the logical contents. Every subsequent set()/try_set() refreshes the
  /// touched element's hash; enables verify()/scrub().
  void enable_checksums();
  [[nodiscard]] bool checksums_enabled() const { return checksums_enabled_; }
  /// Element ids whose stored bytes no longer reproduce their recorded
  /// checksum, ascending. Requires enable_checksums().
  [[nodiscard]] std::vector<std::int64_t> verify() const;
  /// Repair every corrupted element: `recompute(e, ke)` must fill the
  /// ndofs² column-major scratch `ke` with element e's true matrix
  /// (typically by re-running the matrix-free element assembly — the
  /// graceful-degradation path), after which the element is re-stored and
  /// its checksum refreshed. Returns the number of elements repaired.
  std::int64_t scrub(
      const std::function<void(std::int64_t, std::span<double>)>& recompute);

 private:
  /// Shared body of set()/try_set(): returns false on a kSymPacked
  /// symmetry violation, true otherwise; refreshes the element checksum.
  bool set_impl(std::int64_t e, std::span<const double> ke);
  /// Layout dispatch of set_impl, without the checksum refresh.
  bool write_element(std::int64_t e, std::span<const double> ke);
  /// FNV-1a over element e's canonical get() bytes.
  [[nodiscard]] std::uint64_t element_hash(std::int64_t e) const;

  StoreLayout layout_ = StoreLayout::kPadded;
  std::int64_t num_elements_ = 0;
  int ndofs_ = 0;
  int ld_ = 0;
  std::int64_t stride_ = 0;
  /// No-init allocator so the constructor can first-touch-place the blocks
  /// with the EMV sweeps' thread distribution (numa.hpp) before assembly.
  hymv::aligned_uninit_vector<double> data_;   ///< fp64 layouts
  hymv::aligned_uninit_vector<float> data32_;  ///< kFp32
  bool checksums_enabled_ = false;
  std::vector<std::uint64_t> checksums_;  ///< per-element, when enabled
};

}  // namespace hymv::core
