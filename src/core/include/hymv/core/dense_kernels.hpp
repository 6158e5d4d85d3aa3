#pragma once

/// \file dense_kernels.hpp
/// Vectorized elemental matrix-vector (EMV) kernels — the paper's §IV-E:
/// the element matrix is stored column-major with a SIMD-padded leading
/// dimension, and v_e = K_e u_e is computed as a sum of column·scalar
/// updates (eq. 4), which streams each column once and vectorizes cleanly.
///
/// Each store layout has one single-vector kernel and one panel kernel;
/// nothing but the active ISA level picks among their variants. The dense
/// layouts (kPadded, kFp32) run two register-resident sweeps straight on
/// the distributed arrays: the single-vector sweep and the panel sweep
/// (which the matrix-free panel runs too, with ld = n). kInterleaved runs
/// the batch kernel (with a one-element lane fallback), kSymPacked a
/// compiler-vectorized column sweep, and both stage their panels through
/// element buffers into a microkernel. The row-dot references the tests and
/// benches compare against live in tests/emv_reference.hpp.
///
/// The explicit kernels do not hard-code one ISA at compile time: each
/// family (the two dense sweeps, the interleaved batch and the staged panel
/// kernels) carries a per-ISA function table {portable-FMA, AVX2, AVX-512}
/// indexed by isa::active_index() (DESIGN.md §5i). Every entry of a table
/// implements the IDENTICAL per-output accumulation chain (ascending c, one
/// fused multiply-add per term), and chains for distinct outputs never mix
/// — so the result is bitwise invariant under the dispatch level, which the
/// `isa`-labeled test suite pins against golden hashes.
///
/// The single-vector sweep requires: ld >= n with ld a multiple of 8, ke
/// 64-byte aligned, columns padded with zeros from n to ld (its SIMD
/// entries read full tiles across the zero padding and scatter only the
/// first n rows). The panel sweep broadcasts one matrix entry at a time and
/// takes any ld >= n.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "hymv/common/isa.hpp"

#if HYMV_ISA_X86
#include <immintrin.h>
#endif

namespace hymv::core {

/// Column-major accumulation (paper eq. 4), compiler-vectorized. The
/// kernel for matrices built on the fly (the matrix-free operators, where
/// ld may equal n); stored matrices run the register sweep below.
inline void emv_simd(const double* ke, std::size_t ld, std::size_t n,
                     const double* u, double* v) {
  for (std::size_t r = 0; r < n; ++r) {
    v[r] = 0.0;
  }
  for (std::size_t c = 0; c < n; ++c) {
    const double uc = u[c];
    const double* col = ke + c * ld;
#pragma omp simd
    for (std::size_t r = 0; r < n; ++r) {
      v[r] += col[r] * uc;
    }
  }
}

// ---------------------------------------------------------------------------
// Register-resident sweep over a dense column-major store (StoreLayout::
// kPadded and kFp32)
//
// Per element, each u_e entry is broadcast straight from the distributed
// array, a group of v_e row tiles stays in registers across all n columns,
// and the group is scatter-added in ascending DoF order. Every output is
// one ascending-column fma chain from +0 at every level and group size, so
// the bits depend on neither (DESIGN.md §5i).
// ---------------------------------------------------------------------------

/// One sweep: v[dofs_e] += K_e u[dofs_e] for each e of order[begin, end),
/// where dofs_e are the n entries at e2l + e * n. Scalar is the stored
/// entry type (double or float); products accumulate in double.
template <class Scalar>
struct DenseSweep {
  const Scalar* store;      ///< element 0's block
  std::size_t stride;       ///< scalars per element
  std::size_t ld;           ///< padded leading dimension, a multiple of 8
  std::size_t n;            ///< element DoFs (rows == columns)
  const std::int64_t* e2l;  ///< element-to-local DoF map, n per element
  const std::int64_t* order;
  std::int64_t begin;
  std::int64_t end;
  const double* u;
  double* v;
};

namespace detail {

template <class Scalar>
using DenseSweepFn = void (*)(const DenseSweep<Scalar>&);

/// Most row tiles one body keeps live: 12 accumulators plus the broadcast
/// and a widening temporary fit AVX2's 16 registers (AVX-512 has 32).
inline constexpr std::size_t kMaxGroupTiles = 12;

/// Tiles per row group for a column of `tiles` tiles: the fewest groups
/// that fit kMaxGroupTiles, split evenly.
constexpr std::size_t group_tiles(std::size_t tiles) {
  const std::size_t groups = (tiles + kMaxGroupTiles - 1) / kMaxGroupTiles;
  return (tiles + groups - 1) / groups;
}

/// Rows of one group start at the first row not yet scattered; the last
/// group slides back to end at `last` (ld for the single-vector sweep, n
/// for the panel sweep), recomputing (never re-scattering) the rows it
/// overlaps, so every group is a full block of rows.
inline std::size_t group_first_row(std::size_t fresh, std::size_t last,
                                   std::size_t rows) {
  return std::min(fresh, last - rows);
}

/// Portable entry: kTiles tiles of 8 rows, std::fma per term.
template <class Scalar, std::size_t kTiles>
void dense_sweep_fma(const DenseSweep<Scalar>& a) {
  constexpr std::size_t kRows = 8 * kTiles;
  for (std::int64_t i = a.begin; i < a.end; ++i) {
    const auto e = static_cast<std::size_t>(a.order[i]);
    const Scalar* ke = a.store + e * a.stride;
    const std::int64_t* dofs = a.e2l + e * a.n;
    for (std::size_t fresh = 0; fresh < a.n; fresh += kRows) {
      const std::size_t r0 = group_first_row(fresh, a.ld, kRows);
      double acc[kRows] = {};
      for (std::size_t c = 0; c < a.n; ++c) {
        const double uc = a.u[dofs[c]];
        const Scalar* col = ke + c * a.ld + r0;
        for (std::size_t j = 0; j < kRows; ++j) {
          acc[j] = std::fma(static_cast<double>(col[j]), uc, acc[j]);
        }
      }
      const std::size_t stop = std::min(a.n, r0 + kRows);
      for (std::size_t r = fresh; r < stop; ++r) {
        a.v[dofs[r]] += acc[r - r0];
      }
    }
  }
}

#if HYMV_ISA_X86

/// Store mask for the final <4-lane row tile (AVX2 has no mask registers;
/// maskstore takes a sign-bit vector). Used by the AVX2 panel kernels.
HYMV_TARGET_AVX2 inline __m256i avx2_tail_mask(std::size_t rem) {
  return _mm256_setr_epi64x(rem > 0 ? -1 : 0, rem > 1 ? -1 : 0,
                            rem > 2 ? -1 : 0, rem > 3 ? -1 : 0);
}

/// One 4-row tile of a column, widened to double (fp32 exactly).
HYMV_TARGET_AVX2 inline __m256d load_tile4(const double* p) {
  return _mm256_load_pd(p);
}
HYMV_TARGET_AVX2 inline __m256d load_tile4(const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

// GCC 12's <avx512fintrin.h> implements _mm512_cvtps_pd by merging into an
// undefined vector, which -Wmaybe-uninitialized flags through the inline —
// a header artifact, not a real read of uninitialized data.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
/// One 8-row tile of a column, widened to double (fp32 exactly).
HYMV_TARGET_AVX512 inline __m512d load_tile8(const double* p) {
  return _mm512_load_pd(p);
}
HYMV_TARGET_AVX512 inline __m512d load_tile8(const float* p) {
  return _mm512_cvtps_pd(_mm256_loadu_ps(p));
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Bytes ahead of each cache line of a column that the SIMD entries
/// prefetch: one 4 KiB page, into the following columns and element
/// blocks. On a 4-vCPU AVX-512 VM it cut the one-thread sweep over hex8
/// and tet4 stores by 10-20 %; hex20 stores, already at ~1.1x a plain
/// read of the same bytes, did not move.
inline constexpr std::size_t kSweepPrefetchBytes = 4096;

/// Prefetch the line kSweepPrefetchBytes past `p`. The address is formed
/// as an integer: it may lie past the end of the store, which a prefetch
/// never faults on but pointer arithmetic may not reach.
inline void prefetch_ahead(const void* p) {
  _mm_prefetch(reinterpret_cast<const char*>(
                   reinterpret_cast<std::uintptr_t>(p) + kSweepPrefetchBytes),
               _MM_HINT_T0);
}

/// prefetch_ahead(p) when tile t of a column (kTileBytes wide) starts a
/// new 64-byte line.
template <std::size_t kTileBytes>
inline void prefetch_tile_ahead(const void* p, std::size_t t) {
  if ((t * kTileBytes) % 64 == 0) {
    prefetch_ahead(p);
  }
}

/// AVX2 entry: kTiles 4-row accumulators live across all columns.
template <class Scalar, std::size_t kTiles>
HYMV_TARGET_AVX2 void dense_sweep_avx2(const DenseSweep<Scalar>& a) {
  constexpr std::size_t kRows = 4 * kTiles;
  for (std::int64_t i = a.begin; i < a.end; ++i) {
    const auto e = static_cast<std::size_t>(a.order[i]);
    const Scalar* ke = a.store + e * a.stride;
    const std::int64_t* dofs = a.e2l + e * a.n;
    for (std::size_t fresh = 0; fresh < a.n; fresh += kRows) {
      const std::size_t r0 = group_first_row(fresh, a.ld, kRows);
      __m256d acc[kTiles];
#pragma GCC unroll 16
      for (std::size_t t = 0; t < kTiles; ++t) {
        acc[t] = _mm256_setzero_pd();
      }
      for (std::size_t c = 0; c < a.n; ++c) {
        const __m256d uc = _mm256_set1_pd(a.u[dofs[c]]);
        const Scalar* col = ke + c * a.ld + r0;
#pragma GCC unroll 16
        for (std::size_t t = 0; t < kTiles; ++t) {
          prefetch_tile_ahead<4 * sizeof(Scalar)>(col + 4 * t, t);
          acc[t] = _mm256_fmadd_pd(load_tile4(col + 4 * t), uc, acc[t]);
        }
      }
      alignas(32) double ve[kRows];
#pragma GCC unroll 16
      for (std::size_t t = 0; t < kTiles; ++t) {
        _mm256_store_pd(ve + 4 * t, acc[t]);
      }
      const std::size_t stop = std::min(a.n, r0 + kRows);
      for (std::size_t r = fresh; r < stop; ++r) {
        a.v[dofs[r]] += ve[r - r0];
      }
    }
  }
}

/// AVX-512 entry: kTiles 8-row accumulators live across all columns.
template <class Scalar, std::size_t kTiles>
HYMV_TARGET_AVX512 void dense_sweep_avx512(const DenseSweep<Scalar>& a) {
  constexpr std::size_t kRows = 8 * kTiles;
  for (std::int64_t i = a.begin; i < a.end; ++i) {
    const auto e = static_cast<std::size_t>(a.order[i]);
    const Scalar* ke = a.store + e * a.stride;
    const std::int64_t* dofs = a.e2l + e * a.n;
    for (std::size_t fresh = 0; fresh < a.n; fresh += kRows) {
      const std::size_t r0 = group_first_row(fresh, a.ld, kRows);
      __m512d acc[kTiles];
#pragma GCC unroll 16
      for (std::size_t t = 0; t < kTiles; ++t) {
        acc[t] = _mm512_setzero_pd();
      }
      for (std::size_t c = 0; c < a.n; ++c) {
        const __m512d uc = _mm512_set1_pd(a.u[dofs[c]]);
        const Scalar* col = ke + c * a.ld + r0;
#pragma GCC unroll 16
        for (std::size_t t = 0; t < kTiles; ++t) {
          prefetch_tile_ahead<8 * sizeof(Scalar)>(col + 8 * t, t);
          acc[t] = _mm512_fmadd_pd(load_tile8(col + 8 * t), uc, acc[t]);
        }
      }
      alignas(64) double ve[kRows];
#pragma GCC unroll 16
      for (std::size_t t = 0; t < kTiles; ++t) {
        _mm512_store_pd(ve + 8 * t, acc[t]);
      }
      const std::size_t stop = std::min(a.n, r0 + kRows);
      for (std::size_t r = fresh; r < stop; ++r) {
        a.v[dofs[r]] += ve[r - r0];
      }
    }
  }
}

/// Rows per tile at each level.
inline constexpr std::size_t kSweepTileRows[hymv::isa::kNumIsaLevels] = {
    8, 4, 8};

/// Per-level rows of entries; entry t - 1 keeps t row tiles live.
template <class Scalar, std::size_t... kT>
constexpr auto dense_sweep_table(std::index_sequence<kT...> /*tiles - 1*/) {
  using Row = std::array<DenseSweepFn<Scalar>, sizeof...(kT)>;
  return std::array<Row, hymv::isa::kNumIsaLevels>{
      Row{&dense_sweep_fma<Scalar, kT + 1>...},
      Row{&dense_sweep_avx2<Scalar, kT + 1>...},
      Row{&dense_sweep_avx512<Scalar, kT + 1>...}};
}

#else  // !HYMV_ISA_X86

inline constexpr std::size_t kSweepTileRows[hymv::isa::kNumIsaLevels] = {
    8, 8, 8};

template <class Scalar, std::size_t... kT>
constexpr auto dense_sweep_table(std::index_sequence<kT...> /*tiles - 1*/) {
  using Row = std::array<DenseSweepFn<Scalar>, sizeof...(kT)>;
  return std::array<Row, hymv::isa::kNumIsaLevels>{
      Row{&dense_sweep_fma<Scalar, kT + 1>...},
      Row{&dense_sweep_fma<Scalar, kT + 1>...},
      Row{&dense_sweep_fma<Scalar, kT + 1>...}};
}

#endif  // HYMV_ISA_X86

template <class Scalar>
inline constexpr auto kDenseSweepTable =
    dense_sweep_table<Scalar>(std::make_index_sequence<kMaxGroupTiles>{});

}  // namespace detail

/// The sweep body for a store of leading dimension `ld` at the active ISA
/// level: the row group that fits the level's registers.
template <class Scalar>
inline detail::DenseSweepFn<Scalar> dense_sweep_body(std::size_t ld) {
  const int level = hymv::isa::active_index();
  const std::size_t tiles =
      ld / detail::kSweepTileRows[static_cast<std::size_t>(level)];
  return detail::kDenseSweepTable<Scalar>[static_cast<std::size_t>(level)]
                                         [detail::group_tiles(tiles) - 1];
}

/// v = K u for one dense column-major matrix through the sweep body, with
/// the identity as its DoF map: the chains an apply computes for it.
template <class Scalar>
void emv_dense(const Scalar* ke, std::size_t ld, std::size_t n,
               const double* u, double* v) {
  std::vector<std::int64_t> dofs(n);
  std::iota(dofs.begin(), dofs.end(), std::int64_t{0});
  const std::int64_t first = 0;
  std::fill_n(v, n, 0.0);
  dense_sweep_body<Scalar>(ld)({ke, 0, ld, n, dofs.data(), &first, 0, 1, u, v});
}

// ---------------------------------------------------------------------------
// Register-resident panel sweep over a dense column-major store
// (StoreLayout::kPadded and kFp32; the matrix-free panel runs it with
// ld = n)
//
// V_e = K_e U_e over a k-lane panel (paper eq. 4, one column·scalar update
// per lane). u and v are lane-interleaved panel DAs, lane j of DoF d at
// [d*k + j], so column c's k lanes load straight from u at dofs[c]*k. Per
// element and lane block (8 lanes at AVX-512, 4 at AVX2, 1 at the portable
// level), a group of output rows stays in registers across all n columns,
// and each row is added straight into v. Every (row, lane) output is one
// ascending-column fma chain from +0, added to v in element order, so the
// bits depend on neither the level nor the group size (DESIGN.md §5i).
// ---------------------------------------------------------------------------

/// One panel sweep: v[dofs_e] += K_e u[dofs_e] on all k lanes for each e
/// of order[begin, end), where dofs_e are the n entries at e2l + e * n.
template <class Scalar>
struct PanelSweep {
  const Scalar* store;      ///< element 0's block
  std::size_t stride;       ///< scalars per element
  std::size_t ld;           ///< leading dimension, >= n
  std::size_t n;            ///< element DoFs (rows == columns)
  std::size_t k;            ///< lanes per DoF in u and v
  const std::int64_t* e2l;  ///< element-to-local DoF map, n per element
  const std::int64_t* order;
  std::int64_t begin;
  std::int64_t end;
  const double* u;
  double* v;
};

namespace detail {

template <class Scalar>
using PanelSweepFn = void (*)(const PanelSweep<Scalar>&);

/// Most output rows one panel body keeps live. On a 4-vCPU AVX-512 VM,
/// groups of up to 24 rows sped up tet4 and hex8 panels but slowed hex20
/// and hex27 by 10-30 %; groups of at most 8 held or improved every shape.
inline constexpr std::size_t kMaxPanelRows = 8;

/// Rows per group for an n-row element: the fewest groups that fit
/// kMaxPanelRows, split evenly (the last group slides back, as in the
/// single-vector sweep, to end at row n).
constexpr std::size_t panel_group_rows(std::size_t n) {
  const std::size_t groups = (n + kMaxPanelRows - 1) / kMaxPanelRows;
  return (n + groups - 1) / groups;
}

/// Portable entry: one lane at a time, kRows scalar chains.
template <class Scalar, std::size_t kRows>
void panel_sweep_fma(const PanelSweep<Scalar>& a) {
  const std::size_t n = a.n;
  const std::size_t ld = a.ld;
  const std::size_t k = a.k;
  for (std::int64_t i = a.begin; i < a.end; ++i) {
    const auto e = static_cast<std::size_t>(a.order[i]);
    const Scalar* ke = a.store + e * a.stride;
    const std::int64_t* dofs = a.e2l + e * n;
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t fresh = 0; fresh < n; fresh += kRows) {
        const std::size_t r0 = group_first_row(fresh, n, kRows);
        double acc[kRows] = {};
        for (std::size_t c = 0; c < n; ++c) {
          const double uc = a.u[static_cast<std::size_t>(dofs[c]) * k + j];
          const Scalar* col = ke + c * ld + r0;
          for (std::size_t r = 0; r < kRows; ++r) {
            acc[r] = std::fma(static_cast<double>(col[r]), uc, acc[r]);
          }
        }
        for (std::size_t r = fresh - r0; r < kRows; ++r) {
          a.v[static_cast<std::size_t>(dofs[r0 + r]) * k + j] += acc[r];
        }
      }
    }
  }
}

#if HYMV_ISA_X86

/// Four lanes at p; the first `rem` of them, zero beyond, when not full.
HYMV_TARGET_AVX2 inline __m256d load_lanes4(const double* p, bool full,
                                            __m256i mask) {
  return full ? _mm256_loadu_pd(p) : _mm256_maskload_pd(p, mask);
}

/// AVX2 entry: kRows 4-lane accumulators live across all columns. The
/// fields are read into locals and the rows scattered by constant index,
/// so the accumulators never leave registers inside the column loop.
template <class Scalar, std::size_t kRows>
HYMV_TARGET_AVX2 void panel_sweep_avx2(const PanelSweep<Scalar>& a) {
  const std::size_t n = a.n;
  const std::size_t ld = a.ld;
  const std::size_t k = a.k;
  const double* u = a.u;
  double* v = a.v;
  for (std::int64_t i = a.begin; i < a.end; ++i) {
    const auto e = static_cast<std::size_t>(a.order[i]);
    const Scalar* ke = a.store + e * a.stride;
    const std::int64_t* dofs = a.e2l + e * n;
    for (std::size_t jb = 0; jb < k; jb += 4) {
      const bool full = k - jb >= 4;
      const __m256i mask = avx2_tail_mask(k - jb);
      for (std::size_t fresh = 0; fresh < n; fresh += kRows) {
        const std::size_t r0 = group_first_row(fresh, n, kRows);
        __m256d acc[kRows];
#pragma GCC unroll 8
        for (std::size_t r = 0; r < kRows; ++r) {
          acc[r] = _mm256_setzero_pd();
        }
        for (std::size_t c = 0; c < n; ++c) {
          const __m256d uc = load_lanes4(
              u + static_cast<std::size_t>(dofs[c]) * k + jb, full, mask);
          const Scalar* col = ke + c * ld + r0;
          prefetch_ahead(col);
#pragma GCC unroll 8
          for (std::size_t r = 0; r < kRows; ++r) {
            acc[r] = _mm256_fmadd_pd(
                _mm256_set1_pd(static_cast<double>(col[r])), uc, acc[r]);
          }
        }
#pragma GCC unroll 8
        for (std::size_t r = 0; r < kRows; ++r) {
          if (r0 + r >= fresh) {
            double* dst = v + static_cast<std::size_t>(dofs[r0 + r]) * k + jb;
            const __m256d sum =
                _mm256_add_pd(load_lanes4(dst, full, mask), acc[r]);
            if (full) {
              _mm256_storeu_pd(dst, sum);
            } else {
              _mm256_maskstore_pd(dst, mask, sum);
            }
          }
        }
      }
    }
  }
}

/// AVX-512 entry: kRows 8-lane accumulators live across all columns, kept
/// in registers as in the AVX2 entry.
template <class Scalar, std::size_t kRows>
HYMV_TARGET_AVX512 void panel_sweep_avx512(const PanelSweep<Scalar>& a) {
  const std::size_t n = a.n;
  const std::size_t ld = a.ld;
  const std::size_t k = a.k;
  const double* u = a.u;
  double* v = a.v;
  for (std::int64_t i = a.begin; i < a.end; ++i) {
    const auto e = static_cast<std::size_t>(a.order[i]);
    const Scalar* ke = a.store + e * a.stride;
    const std::int64_t* dofs = a.e2l + e * n;
    for (std::size_t jb = 0; jb < k; jb += 8) {
      const std::size_t rem = k - jb;
      const __mmask8 m =
          rem >= 8 ? 0xFF : static_cast<__mmask8>((1U << rem) - 1U);
      for (std::size_t fresh = 0; fresh < n; fresh += kRows) {
        const std::size_t r0 = group_first_row(fresh, n, kRows);
        __m512d acc[kRows];
#pragma GCC unroll 8
        for (std::size_t r = 0; r < kRows; ++r) {
          acc[r] = _mm512_setzero_pd();
        }
        for (std::size_t c = 0; c < n; ++c) {
          const __m512d uc = _mm512_maskz_loadu_pd(
              m, u + static_cast<std::size_t>(dofs[c]) * k + jb);
          const Scalar* col = ke + c * ld + r0;
          prefetch_ahead(col);
#pragma GCC unroll 8
          for (std::size_t r = 0; r < kRows; ++r) {
            acc[r] = _mm512_fmadd_pd(
                _mm512_set1_pd(static_cast<double>(col[r])), uc, acc[r]);
          }
        }
#pragma GCC unroll 8
        for (std::size_t r = 0; r < kRows; ++r) {
          if (r0 + r >= fresh) {
            double* dst = v + static_cast<std::size_t>(dofs[r0 + r]) * k + jb;
            _mm512_mask_storeu_pd(
                dst, m, _mm512_add_pd(_mm512_maskz_loadu_pd(m, dst), acc[r]));
          }
        }
      }
    }
  }
}

/// Per-level rows of entries; entry r - 1 keeps r output rows live.
template <class Scalar, std::size_t... kR>
constexpr auto panel_sweep_table(std::index_sequence<kR...> /*rows - 1*/) {
  using Row = std::array<PanelSweepFn<Scalar>, sizeof...(kR)>;
  return std::array<Row, hymv::isa::kNumIsaLevels>{
      Row{&panel_sweep_fma<Scalar, kR + 1>...},
      Row{&panel_sweep_avx2<Scalar, kR + 1>...},
      Row{&panel_sweep_avx512<Scalar, kR + 1>...}};
}

#else  // !HYMV_ISA_X86

template <class Scalar, std::size_t... kR>
constexpr auto panel_sweep_table(std::index_sequence<kR...> /*rows - 1*/) {
  using Row = std::array<PanelSweepFn<Scalar>, sizeof...(kR)>;
  return std::array<Row, hymv::isa::kNumIsaLevels>{
      Row{&panel_sweep_fma<Scalar, kR + 1>...},
      Row{&panel_sweep_fma<Scalar, kR + 1>...},
      Row{&panel_sweep_fma<Scalar, kR + 1>...}};
}

#endif  // HYMV_ISA_X86

template <class Scalar>
inline constexpr auto kPanelSweepTable =
    panel_sweep_table<Scalar>(std::make_index_sequence<kMaxPanelRows>{});

}  // namespace detail

/// The panel sweep body for n-row elements at the active ISA level.
template <class Scalar>
inline detail::PanelSweepFn<Scalar> panel_sweep_body(std::size_t n) {
  return detail::kPanelSweepTable<Scalar>[static_cast<std::size_t>(
      hymv::isa::active_index())][detail::panel_group_rows(n) - 1];
}

// ---------------------------------------------------------------------------
// Interleaved-batch kernels (StoreLayout::kInterleaved)
//
// SELL-C-σ-style: a batch of kIlvLanes consecutive elements is stored
// entry-interleaved — entry (r,c) of the batch's elements is contiguous —
// so the EMV vectorizes *across* elements (one SIMD lane = one element)
// with unit-stride loads and no padding, regardless of n. u/v are
// lane-interleaved to match: entry a of batch element l at [a*kIlvLanes+l].
//
// Every entry accumulates each lane over c ascending in one fused chain —
// the chain of the padded kernels — and so does the single-lane fallback,
// so batching never perturbs a given element's bitwise result.
// ---------------------------------------------------------------------------

/// Elements per interleaved batch (one AVX-512 register of fp64 lanes).
inline constexpr std::size_t kIlvLanes = 8;

namespace detail {

using IlvEmvFn = void (*)(const double*, std::size_t, const double*, double*);

/// Portable batch entry: per-(r, lane) fused chain over c — one scalar lane
/// of the wide variants.
inline void emv_ilv_fma(const double* keb, std::size_t n, const double* ub,
                        double* vb) {
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t l = 0; l < kIlvLanes; ++l) {
      double sum = 0.0;
      for (std::size_t c = 0; c < n; ++c) {
        sum = std::fma(keb[(c * n + r) * kIlvLanes + l],
                       ub[c * kIlvLanes + l], sum);
      }
      vb[r * kIlvLanes + l] = sum;
    }
  }
}

#if HYMV_ISA_X86

HYMV_TARGET_AVX2 inline void emv_ilv_avx2(const double* keb, std::size_t n,
                                          const double* ub, double* vb) {
  for (std::size_t r = 0; r < n; ++r) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (std::size_t c = 0; c < n; ++c) {
      const double* entry = keb + (c * n + r) * kIlvLanes;
      const double* uc = ub + c * kIlvLanes;
      acc0 = _mm256_fmadd_pd(_mm256_load_pd(entry),
                             _mm256_loadu_pd(uc), acc0);
      acc1 = _mm256_fmadd_pd(_mm256_load_pd(entry + 4),
                             _mm256_loadu_pd(uc + 4), acc1);
    }
    _mm256_storeu_pd(vb + r * kIlvLanes, acc0);
    _mm256_storeu_pd(vb + r * kIlvLanes + 4, acc1);
  }
}

HYMV_TARGET_AVX512 inline void emv_ilv_avx512(const double* keb,
                                              std::size_t n, const double* ub,
                                              double* vb) {
  for (std::size_t r = 0; r < n; ++r) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t c = 0; c < n; ++c) {
      const __m512d ke = _mm512_load_pd(keb + (c * n + r) * kIlvLanes);
      const __m512d uc = _mm512_loadu_pd(ub + c * kIlvLanes);
      acc = _mm512_fmadd_pd(ke, uc, acc);
    }
    _mm512_storeu_pd(vb + r * kIlvLanes, acc);
  }
}

inline constexpr IlvEmvFn kIlvEmvTable[hymv::isa::kNumIsaLevels] = {
    &emv_ilv_fma, &emv_ilv_avx2, &emv_ilv_avx512};

#else  // !HYMV_ISA_X86

inline constexpr IlvEmvFn kIlvEmvTable[hymv::isa::kNumIsaLevels] = {
    &emv_ilv_fma, &emv_ilv_fma, &emv_ilv_fma};

#endif  // HYMV_ISA_X86

}  // namespace detail

/// Batch kernel: one full-width register per matrix entry, no masks, no
/// tails — the layout exists so this loop is this simple. keb points at
/// the batch's n·n·kIlvLanes block; ub/vb are lane-interleaved n·kIlvLanes
/// buffers. Runtime-dispatched on the active ISA level.
inline void emv_interleaved_batch(const double* keb, std::size_t n,
                                  const double* ub, double* vb) {
  detail::kIlvEmvTable[hymv::isa::active_index()](keb, n, ub, vb);
}

/// Single-element fallback for elements the batch path cannot take (batch
/// tails and non-contiguous schedule runs): lane l of the batch at keb,
/// strided loads. Each output is the batch kernel's fused chain, so an
/// element's result is identical whether it went through the batch or the
/// lane path.
inline void emv_interleaved_lane(const double* keb, std::size_t n,
                                 std::size_t l, const double* u, double* v) {
  for (std::size_t r = 0; r < n; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      sum = std::fma(keb[(c * n + r) * kIlvLanes + l], u[c], sum);
    }
    v[r] = sum;
  }
}

// ---------------------------------------------------------------------------
// Symmetric-packed kernels (StoreLayout::kSymPacked)
//
// Only the upper triangle is stored, packed column-major: entry (r, c)
// with r <= c lives at kp[c(c+1)/2 + r]. FEM operators produce symmetric
// K_e, so this halves the streamed bytes. The store mirrors the upper
// triangle, so it reproduces the dense result only for K_e that is
// bitwise symmetric. Poisson's K_e is; ElasticityOperator's is not (79 of
// 276 off-diagonal pairs differ in the last bits at hex8, 553 of 1770 at
// hex20), so packed elasticity results differ from kPadded's. Even for a
// bitwise-symmetric K_e, only the panel kernel reproduces the dense bits:
// it runs the dense kernels' ascending fused chain per output. The
// single-vector emv_sym sums each column's mirrored half with an omp simd
// reduction, which associates differently (its bits match kPadded's on the
// tet4 and hex8 Poisson goldens and differ on the 100-DoF block element).
// ---------------------------------------------------------------------------

/// Packed length of one n×n upper triangle.
constexpr std::size_t sym_packed_size(std::size_t n) {
  return n * (n + 1) / 2;
}

/// Index of entry (r, c), r <= c, in the packed upper triangle.
constexpr std::size_t sym_packed_index(std::size_t r, std::size_t c) {
  return c * (c + 1) / 2 + r;
}

/// Column-sweep packed kernel: each stored column c updates the r < c
/// outputs (upper entry, unit stride — vectorizes) and accumulates the
/// mirrored contributions into v[c]. The packed triangle's ragged columns
/// defeat the aligned full-register tiling of the dense sweep, and this
/// compiler-vectorized sweep is within noise of hand intrinsics at these
/// column lengths, so it is the one single-vector kernel of the layout.
inline void emv_sym(const double* kp, std::size_t n, const double* u,
                    double* v) {
  for (std::size_t r = 0; r < n; ++r) {
    v[r] = 0.0;
  }
  for (std::size_t c = 0; c < n; ++c) {
    const double* col = kp + sym_packed_index(0, c);
    const double uc = u[c];
    double sum = 0.0;
#pragma omp simd reduction(+ : sum)
    for (std::size_t r = 0; r < c; ++r) {
      v[r] += col[r] * uc;
      sum += col[r] * u[r];
    }
    v[c] += sum;
    v[c] += col[c] * uc;
  }
}

// ---------------------------------------------------------------------------
// Staged panel kernels (StoreLayout::kSymPacked and kInterleaved)
//
// V = K_e U over a k-lane panel staged through element buffers: U and V are
// n×k lane-interleaved (entry a of lane j at [a*k + j]), gathered from and
// scatter-added to the panel DA by the traversal. The matrix is streamed
// once per panel, so arithmetic intensity grows ~k while matrix traffic
// stays flat. Each layout's kernel is a per-ISA table of microkernels with
// masked lane tails. Each kInterleaved output is one ascending-c fused
// chain at every level, the dense chain, so its panel lanes reproduce the
// single-vector apply; the dense layouts run the panel sweep above.
// ---------------------------------------------------------------------------

namespace detail {

/// Software-prefetch distance (columns ahead) for the staged panel
/// microkernels: far enough to cover an L2 miss at typical n (30-90
/// doubles per column), near enough not to thrash the L1 at small n.
inline constexpr std::size_t kPanelPrefetchCols = 4;

using SymMultiEmvFn = void (*)(const double*, std::size_t, std::size_t,
                               const double*, double*);

/// Portable symmetric panel entry: a column sweep with explicitly fused
/// updates — every v[i] chain receives its terms in ascending-u order.
inline void emv_sym_multi_fma(const double* kp, std::size_t n, std::size_t k,
                              const double* u, double* v) {
  for (std::size_t i = 0; i < n * k; ++i) {
    v[i] = 0.0;
  }
  for (std::size_t c = 0; c < n; ++c) {
    const double* col = kp + sym_packed_index(0, c);
    const double* uc = u + c * k;
    double* vc = v + c * k;
    for (std::size_t r = 0; r < c; ++r) {
      const double a = col[r];
      const double* ur = u + r * k;
      double* vr = v + r * k;
      for (std::size_t j = 0; j < k; ++j) {
        vr[j] = std::fma(a, uc[j], vr[j]);
      }
      for (std::size_t j = 0; j < k; ++j) {
        vc[j] = std::fma(a, ur[j], vc[j]);
      }
    }
    const double d = col[c];
    for (std::size_t j = 0; j < k; ++j) {
      vc[j] = std::fma(d, uc[j], vc[j]);
    }
  }
}

#if HYMV_ISA_X86

/// AVX2 symmetric panel microkernel: the v[c] chain stays in a register
/// across the whole stored column (r ascending, then the diagonal — the
/// same term order as the sweep), v[r] updates are masked read-modify-write.
HYMV_TARGET_AVX2 inline void emv_sym_multi_avx2(const double* kp,
                                                std::size_t n, std::size_t k,
                                                const double* u, double* v) {
  constexpr std::size_t kJ = 4;
  for (std::size_t i = 0; i < n * k; ++i) {
    v[i] = 0.0;
  }
  for (std::size_t jb = 0; jb < k; jb += kJ) {
    const std::size_t jrem = k - jb;
    const bool full_j = jrem >= kJ;
    const __m256i jmask = avx2_tail_mask(jrem);
    for (std::size_t c = 0; c < n; ++c) {
      const double* col = kp + sym_packed_index(0, c);
      const __m256d uc =
          full_j ? _mm256_loadu_pd(u + c * k + jb)
                 : _mm256_maskload_pd(u + c * k + jb, jmask);
      __m256d vc = _mm256_setzero_pd();
      for (std::size_t r = 0; r < c; ++r) {
        const __m256d a = _mm256_set1_pd(col[r]);
        __m256d vr = full_j ? _mm256_loadu_pd(v + r * k + jb)
                            : _mm256_maskload_pd(v + r * k + jb, jmask);
        vr = _mm256_fmadd_pd(a, uc, vr);
        if (full_j) {
          _mm256_storeu_pd(v + r * k + jb, vr);
        } else {
          _mm256_maskstore_pd(v + r * k + jb, jmask, vr);
        }
        const __m256d ur =
            full_j ? _mm256_loadu_pd(u + r * k + jb)
                   : _mm256_maskload_pd(u + r * k + jb, jmask);
        vc = _mm256_fmadd_pd(a, ur, vc);
      }
      vc = _mm256_fmadd_pd(_mm256_set1_pd(col[c]), uc, vc);
      if (full_j) {
        _mm256_storeu_pd(v + c * k + jb, vc);
      } else {
        _mm256_maskstore_pd(v + c * k + jb, jmask, vc);
      }
    }
  }
}

HYMV_TARGET_AVX512 inline void emv_sym_multi_avx512(const double* kp,
                                                    std::size_t n,
                                                    std::size_t k,
                                                    const double* u,
                                                    double* v) {
  constexpr std::size_t kJ = 8;
  for (std::size_t i = 0; i < n * k; ++i) {
    v[i] = 0.0;
  }
  for (std::size_t jb = 0; jb < k; jb += kJ) {
    const std::size_t jrem = k - jb;
    const __mmask8 m =
        jrem >= kJ ? 0xFF : static_cast<__mmask8>((1u << jrem) - 1u);
    for (std::size_t c = 0; c < n; ++c) {
      const double* col = kp + sym_packed_index(0, c);
      const __m512d uc = _mm512_maskz_loadu_pd(m, u + c * k + jb);
      __m512d vc = _mm512_setzero_pd();
      for (std::size_t r = 0; r < c; ++r) {
        const __m512d a = _mm512_set1_pd(col[r]);
        __m512d vr = _mm512_maskz_loadu_pd(m, v + r * k + jb);
        vr = _mm512_fmadd_pd(a, uc, vr);
        _mm512_mask_storeu_pd(v + r * k + jb, m, vr);
        const __m512d ur = _mm512_maskz_loadu_pd(m, u + r * k + jb);
        vc = _mm512_fmadd_pd(a, ur, vc);
      }
      vc = _mm512_fmadd_pd(_mm512_set1_pd(col[c]), uc, vc);
      _mm512_mask_storeu_pd(v + c * k + jb, m, vc);
    }
  }
}

inline constexpr SymMultiEmvFn kSymMultiEmvTable[hymv::isa::kNumIsaLevels] = {
    &emv_sym_multi_fma, &emv_sym_multi_avx2, &emv_sym_multi_avx512};

#else  // !HYMV_ISA_X86

inline constexpr SymMultiEmvFn kSymMultiEmvTable[hymv::isa::kNumIsaLevels] = {
    &emv_sym_multi_fma, &emv_sym_multi_fma, &emv_sym_multi_fma};

#endif  // HYMV_ISA_X86

}  // namespace detail

/// Symmetric-packed panel kernel: each stored upper entry (r, c) feeds both
/// v[r] += K·u[c] and the mirrored v[c] += K·u[r] across all lanes before
/// moving on — the triangle is streamed once per panel.
inline void emv_sym_multi(const double* kp, std::size_t n, std::size_t k,
                          const double* u, double* v) {
  detail::kSymMultiEmvTable[hymv::isa::active_index()](kp, n, k, u, v);
}

namespace detail {

using IlvMultiEmvFn = void (*)(const double*, std::size_t, std::size_t,
                               const double*, double*);

/// Portable interleaved panel entry: per-((r, l), j) fused chain over c.
inline void emv_ilv_multi_fma(const double* keb, std::size_t n, std::size_t k,
                              const double* ub, double* vb) {
  for (std::size_t i = 0; i < n * kIlvLanes * k; ++i) {
    vb[i] = 0.0;
  }
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = 0; r < n; ++r) {
      const double* entry = keb + (c * n + r) * kIlvLanes;
      for (std::size_t l = 0; l < kIlvLanes; ++l) {
        const double a = entry[l];
        const double* uc = ub + (c * kIlvLanes + l) * k;
        double* out = vb + (r * kIlvLanes + l) * k;
        for (std::size_t j = 0; j < k; ++j) {
          out[j] = std::fma(a, uc[j], out[j]);
        }
      }
    }
  }
}

#if HYMV_ISA_X86

/// AVX2 interleaved panel microkernel: vectorizes the k lanes of one
/// (entry, batch-lane) update, prefetching the next stored entries (they
/// are contiguous in chunk-major order).
HYMV_TARGET_AVX2 inline void emv_ilv_multi_avx2(const double* keb,
                                                std::size_t n, std::size_t k,
                                                const double* ub, double* vb) {
  constexpr std::size_t kJ = 4;
  for (std::size_t i = 0; i < n * kIlvLanes * k; ++i) {
    vb[i] = 0.0;
  }
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = 0; r < n; ++r) {
      const double* entry = keb + (c * n + r) * kIlvLanes;
      _mm_prefetch(reinterpret_cast<const char*>(
                       entry + kIlvLanes * kPanelPrefetchCols),
                   _MM_HINT_T0);
      for (std::size_t l = 0; l < kIlvLanes; ++l) {
        const __m256d a = _mm256_set1_pd(entry[l]);
        const double* uc = ub + (c * kIlvLanes + l) * k;
        double* out = vb + (r * kIlvLanes + l) * k;
        for (std::size_t jb = 0; jb < k; jb += kJ) {
          const std::size_t jrem = k - jb;
          if (jrem >= kJ) {
            __m256d o = _mm256_loadu_pd(out + jb);
            o = _mm256_fmadd_pd(a, _mm256_loadu_pd(uc + jb), o);
            _mm256_storeu_pd(out + jb, o);
          } else {
            const __m256i jmask = avx2_tail_mask(jrem);
            __m256d o = _mm256_maskload_pd(out + jb, jmask);
            o = _mm256_fmadd_pd(a, _mm256_maskload_pd(uc + jb, jmask), o);
            _mm256_maskstore_pd(out + jb, jmask, o);
          }
        }
      }
    }
  }
}

HYMV_TARGET_AVX512 inline void emv_ilv_multi_avx512(const double* keb,
                                                    std::size_t n,
                                                    std::size_t k,
                                                    const double* ub,
                                                    double* vb) {
  constexpr std::size_t kJ = 8;
  for (std::size_t i = 0; i < n * kIlvLanes * k; ++i) {
    vb[i] = 0.0;
  }
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = 0; r < n; ++r) {
      const double* entry = keb + (c * n + r) * kIlvLanes;
      _mm_prefetch(reinterpret_cast<const char*>(
                       entry + kIlvLanes * kPanelPrefetchCols),
                   _MM_HINT_T0);
      for (std::size_t l = 0; l < kIlvLanes; ++l) {
        const __m512d a = _mm512_set1_pd(entry[l]);
        const double* uc = ub + (c * kIlvLanes + l) * k;
        double* out = vb + (r * kIlvLanes + l) * k;
        for (std::size_t jb = 0; jb < k; jb += kJ) {
          const std::size_t jrem = k - jb;
          const __mmask8 m =
              jrem >= kJ ? 0xFF : static_cast<__mmask8>((1u << jrem) - 1u);
          __m512d o = _mm512_maskz_loadu_pd(m, out + jb);
          o = _mm512_fmadd_pd(a, _mm512_maskz_loadu_pd(m, uc + jb), o);
          _mm512_mask_storeu_pd(out + jb, m, o);
        }
      }
    }
  }
}

inline constexpr IlvMultiEmvFn kIlvMultiEmvTable[hymv::isa::kNumIsaLevels] = {
    &emv_ilv_multi_fma, &emv_ilv_multi_avx2, &emv_ilv_multi_avx512};

#else  // !HYMV_ISA_X86

inline constexpr IlvMultiEmvFn kIlvMultiEmvTable[hymv::isa::kNumIsaLevels] = {
    &emv_ilv_multi_fma, &emv_ilv_multi_fma, &emv_ilv_multi_fma};

#endif  // HYMV_ISA_X86

}  // namespace detail

/// Interleaved-batch panel kernel: the batch panel carries the k lanes of
/// batch element l's entry a at ub[(a*kIlvLanes + l)*k + j] — i.e. the DA's
/// lane-interleaved runs, gathered per batch element. Each stored matrix
/// entry (kIlvLanes elements' worth) is loaded once and applied to all k
/// lanes of all batch elements.
inline void emv_interleaved_batch_multi(const double* keb, std::size_t n,
                                        std::size_t k, const double* ub,
                                        double* vb) {
  detail::kIlvMultiEmvTable[hymv::isa::active_index()](keb, n, k, ub, vb);
}

/// Single-element panel fallback for batch tails / non-contiguous runs:
/// lane l of the interleaved batch at keb, applied to an n×k panel, with
/// the batch kernel's fused chain per output.
inline void emv_interleaved_lane_multi(const double* keb, std::size_t n,
                                       std::size_t l, std::size_t k,
                                       const double* u, double* v) {
  for (std::size_t i = 0; i < n * k; ++i) {
    v[i] = 0.0;
  }
  for (std::size_t c = 0; c < n; ++c) {
    const double* uc = u + c * k;
    for (std::size_t r = 0; r < n; ++r) {
      const double a = keb[(c * n + r) * kIlvLanes + l];
      double* out = v + r * k;
#pragma omp simd
      for (std::size_t j = 0; j < k; ++j) {
        out[j] = std::fma(a, uc[j], out[j]);
      }
    }
  }
}

}  // namespace hymv::core
