// Runtime ISA dispatch + NUMA layer coverage (isa.hpp, numa.hpp,
// DESIGN.md §5i). The load-bearing contract: switching the dispatch level
// (scalar / AVX2 / AVX-512) must never move a single bit — every per-ISA
// table entry implements the same per-output accumulation chain. The
// dispatch-equivalence tests pin the operator's existing golden hashes at
// EVERY forced level, across store layouts, thread counts, and panel
// widths, and the SELL/CSR kernels are cross-checked the same way. These
// tests carry the ctest label `isa` (`ctest -L isa`; CI also runs them
// under HYMV_ISA=scalar and HYMV_ISA=avx2).

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "hymv/common/aligned.hpp"
#include "hymv/common/isa.hpp"
#include "hymv/common/numa.hpp"
#include "hymv/common/rng.hpp"
#include "hymv/core/hymv_operator.hpp"
#include "hymv/fem/operators.hpp"
#include "hymv/mesh/partition.hpp"
#include "hymv/mesh/structured.hpp"
#include "hymv/perfmodel/perfmodel.hpp"
#include "hymv/pla/csr.hpp"
#include "hymv/pla/dist_multi_vector.hpp"
#include "hymv/pla/sell.hpp"

namespace {

using namespace hymv;
using core::HymvOperator;
using core::HymvOptions;
using core::StoreLayout;
using simmpi::Comm;

// Compile-time regression (aligned.hpp): the allocators are stateless, so
// equality must be total and != must exist (C++20 rewrites aside, the
// explicit operator keeps pre-20 library code working).
static_assert(AlignedAllocator<double>{} == AlignedAllocator<double>{});
static_assert(!(AlignedAllocator<double>{} != AlignedAllocator<double>{}));
static_assert(AlignedAllocator<double>{} == AlignedAllocator<float>{});
static_assert(AlignedNoInitAllocator<double>{} ==
              AlignedNoInitAllocator<double>{});
static_assert(!(AlignedNoInitAllocator<double>{} !=
                AlignedNoInitAllocator<double>{}));

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

std::uint64_t fnv1a(const double* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    unsigned char b[8];
    std::memcpy(b, &p[i], 8);
    for (int k = 0; k < 8; ++k) {
      h ^= b[k];
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// Levels actually runnable on this host: force() clamps to detected(), so
/// asking for more than the CPU has would silently retest a lower level.
std::vector<isa::IsaLevel> runnable_levels() {
  std::vector<isa::IsaLevel> levels{isa::IsaLevel::kScalar};
  if (isa::detected() >= isa::IsaLevel::kAvx2) {
    levels.push_back(isa::IsaLevel::kAvx2);
  }
  if (isa::detected() >= isa::IsaLevel::kAvx512) {
    levels.push_back(isa::IsaLevel::kAvx512);
  }
  return levels;
}

/// RAII: restore the env-resolved dispatch level no matter how a test exits.
struct IsaLevelGuard {
  ~IsaLevelGuard() { isa::reset(); }
};

// ---------------------------------------------------------------------------
// isa.hpp unit behaviour: detection, override parsing, forcing
// ---------------------------------------------------------------------------

TEST(IsaTest, DetectionIsStableAndOrdered) {
  const isa::IsaLevel d = isa::detected();
  EXPECT_GE(static_cast<int>(d), 0);
  EXPECT_LT(static_cast<int>(d), isa::kNumIsaLevels);
  EXPECT_EQ(isa::detected(), d);  // cached, never flips
#if !HYMV_ISA_X86
  EXPECT_EQ(d, isa::IsaLevel::kScalar);
#endif
}

TEST(IsaTest, ToStringRoundTrip) {
  EXPECT_EQ(isa::to_string(isa::IsaLevel::kScalar), "scalar");
  EXPECT_EQ(isa::to_string(isa::IsaLevel::kAvx2), "avx2");
  EXPECT_EQ(isa::to_string(isa::IsaLevel::kAvx512), "avx512");
}

TEST(IsaTest, ForceClampsToDetected) {
  IsaLevelGuard guard;
  EXPECT_EQ(isa::force(isa::IsaLevel::kScalar), isa::IsaLevel::kScalar);
  EXPECT_EQ(isa::active(), isa::IsaLevel::kScalar);
  EXPECT_EQ(isa::active_index(), 0);
  // Asking for the maximum clamps to what the CPU has.
  EXPECT_EQ(isa::force(isa::IsaLevel::kAvx512), isa::detected());
}

TEST(IsaTest, EnvOverrideParsesAndClamps) {
  IsaLevelGuard guard;
  ::setenv("HYMV_ISA", "scalar", 1);
  isa::reset();
  EXPECT_EQ(isa::active(), isa::IsaLevel::kScalar);
  ::setenv("HYMV_ISA", "AVX2", 1);  // case-insensitive
  isa::reset();
  EXPECT_EQ(isa::active(),
            std::min(isa::IsaLevel::kAvx2, isa::detected()));
  ::setenv("HYMV_ISA", "not-an-isa", 1);  // warns, ignored
  isa::reset();
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(isa::active(), isa::detected());
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "hymv: ignoring HYMV_ISA='not-an-isa' (expected "
            "scalar|avx2|avx512); using fallback\n");
  ::unsetenv("HYMV_ISA");
  isa::reset();
  EXPECT_EQ(isa::active(), isa::detected());
}

// ---------------------------------------------------------------------------
// numa.hpp unit behaviour: first-touch fill, pinning, triad report
// ---------------------------------------------------------------------------

TEST(NumaTest, FirstTouchFillWritesEveryElement) {
  for (const std::size_t n : {std::size_t{7}, std::size_t{100000}}) {
    aligned_uninit_vector<double> v;
    v.resize(n);
    numa::first_touch_fill(v.data(), n, 1.25);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(v[i], 1.25) << "i=" << i << " n=" << n;
    }
  }
  // int64 / float overloads share the same engine.
  aligned_uninit_vector<std::int64_t> c;
  c.resize(5000);
  numa::first_touch_fill(c.data(), c.size(), std::int64_t{-3});
  EXPECT_EQ(c.front(), -3);
  EXPECT_EQ(c.back(), -3);
  aligned_uninit_vector<float> f;
  f.resize(5000);
  numa::first_touch_fill(f.data(), f.size(), 0.5f);
  EXPECT_EQ(f.front(), 0.5f);
  EXPECT_EQ(f.back(), 0.5f);
}

TEST(NumaTest, FirstTouchToggleAndNullAreSafe) {
  const bool prev = numa::first_touch_enabled();
  numa::set_first_touch(false);
  EXPECT_FALSE(numa::first_touch_enabled());
  std::vector<double> v(4096, -1.0);
  numa::first_touch_fill(v.data(), v.size(), 2.0);  // serial path
  EXPECT_EQ(v.front(), 2.0);
  EXPECT_EQ(v.back(), 2.0);
  numa::set_first_touch(true);
  EXPECT_TRUE(numa::first_touch_enabled());
  numa::first_touch_fill(static_cast<double*>(nullptr), 0, 0.0);  // no-op
  numa::set_first_touch(prev);
}

TEST(NumaTest, PinningIsOptInAndReportIsConsistent) {
  // HYMV_PIN_THREADS unset → never pins (the call_once also latches this
  // process's answer, which is exactly the production default).
  ::unsetenv("HYMV_PIN_THREADS");
  EXPECT_EQ(numa::pin_threads_from_env(), 0);
  EXPECT_FALSE(numa::threads_pinned());
  const numa::Report r = numa::report();
  EXPECT_EQ(r.pinned, numa::threads_pinned());
  EXPECT_EQ(r.pinned_threads, 0);
  EXPECT_GE(r.triad_bytes_per_s, 0.0);  // report never triggers the probe
}

TEST(NumaTest, AlignedUninitVectorIsAligned) {
  aligned_uninit_vector<double> v;
  v.resize(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
}

TEST(NumaTest, MeasuredTriadFeedsCpuSpec) {
  // Explicit env override always wins over the measured triad.
  ::setenv("HYMV_CPU_MEM_GBPS", "123.5", 1);
  const perf::CpuSpec forced = perf::CpuSpec::from_env();
  EXPECT_NEAR(forced.mem_bytes_per_s, 123.5e9, 1e3);
  ::unsetenv("HYMV_CPU_MEM_GBPS");
  // Without the override the spec adopts the probe's answer (cached; this
  // may be the first call, which pays the ~10 ms measurement once).
  const double triad = numa::measured_triad_bytes_per_s();
  const perf::CpuSpec measured = perf::CpuSpec::from_env();
  if (triad > 0.0) {
    EXPECT_EQ(measured.mem_bytes_per_s, triad);
    EXPECT_EQ(numa::report().triad_bytes_per_s, triad);
  }
  // A ceiling at or below zero warns in the one env format and keeps what
  // the spec reads unset.
  ::setenv("HYMV_CPU_PEAK_GFLOPS", "-1", 1);
  ::setenv("HYMV_CPU_MEM_GBPS", "0", 1);
  ::testing::internal::CaptureStderr();
  const perf::CpuSpec rejected = perf::CpuSpec::from_env();
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "hymv: ignoring HYMV_CPU_PEAK_GFLOPS='-1' (expected a number > "
            "0); using fallback\n"
            "hymv: ignoring HYMV_CPU_MEM_GBPS='0' (expected a number > 0); "
            "using fallback\n");
  EXPECT_EQ(rejected.peak_flops_per_s, measured.peak_flops_per_s);
  EXPECT_EQ(rejected.mem_bytes_per_s, measured.mem_bytes_per_s);
  ::unsetenv("HYMV_CPU_PEAK_GFLOPS");
  ::unsetenv("HYMV_CPU_MEM_GBPS");
}

// ---------------------------------------------------------------------------
// SELL / CSR dispatch equivalence: every level, every kernel, bitwise
// ---------------------------------------------------------------------------

/// Random square CSR with ragged rows (1..13 nnz) — lengths hit every mask
/// tail of the 4/8-lane block kernels.
pla::CsrMatrix ragged_csr(std::int64_t n, std::uint64_t seed) {
  hymv::Xoshiro256 rng(seed);
  std::vector<pla::Triplet> tr;
  for (std::int64_t r = 0; r < n; ++r) {
    const std::int64_t len = 1 + (r * 7919) % std::min<std::int64_t>(13, n);
    for (std::int64_t j = 0; j < len; ++j) {
      tr.push_back({r, (r * 31 + j * 97) % n, rng.uniform(-1.0, 1.0)});
    }
  }
  return pla::CsrMatrix::from_triplets(n, n, tr);
}

TEST(IsaDispatchTest, CsrAndSellBitwiseInvariantAcrossLevels) {
  IsaLevelGuard guard;
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{37},
                               std::int64_t{250}, std::int64_t{3000}}) {
    const pla::CsrMatrix csr = ragged_csr(n, 42);
    hymv::Xoshiro256 rng(7);
    std::vector<double> x(static_cast<std::size_t>(n));
    for (double& v : x) {
      v = rng.uniform(-1.0, 1.0);
    }
    std::vector<double> x8(static_cast<std::size_t>(n) * 8);
    for (double& v : x8) {
      v = rng.uniform(-1.0, 1.0);
    }
    std::vector<std::int64_t> rmap(static_cast<std::size_t>(n));
    for (std::int64_t r = 0; r < n; ++r) {
      rmap[static_cast<std::size_t>(r)] = n - 1 - r;  // permutation
    }
    std::vector<std::uint64_t> ref;
    for (const isa::IsaLevel level : runnable_levels()) {
      isa::force(level);
      std::vector<std::uint64_t> h;
      std::vector<double> y(static_cast<std::size_t>(n), 0.5);
      csr.spmv(x, y);
      h.push_back(fnv1a(y.data(), y.size()));
      csr.spmv_add(x, y);
      h.push_back(fnv1a(y.data(), y.size()));
      std::vector<double> y8(static_cast<std::size_t>(n) * 8, 0.25);
      csr.spmv_multi(x8, y8, 8);
      h.push_back(fnv1a(y8.data(), y8.size()));
      csr.spmv_add_multi(x8, y8, 8);
      h.push_back(fnv1a(y8.data(), y8.size()));
      for (const int c : {4, 8, 32}) {
        pla::SellMatrix sell(csr, c, c * 4, true);
        std::vector<double> ys(static_cast<std::size_t>(n), 0.5);
        sell.spmv(x, ys);
        sell.spmv_add(x, ys);
        sell.spmv_scatter_add(x, ys, rmap);
        h.push_back(fnv1a(ys.data(), ys.size()));
        std::vector<double> ys8(static_cast<std::size_t>(n) * 8, 0.25);
        sell.spmv_add_multi(x8, ys8, 8);
        sell.spmv_scatter_add_multi(x8, ys8, rmap, 8);
        h.push_back(fnv1a(ys8.data(), ys8.size()));
      }
      if (ref.empty()) {
        ref = h;
      } else {
        for (std::size_t i = 0; i < h.size(); ++i) {
          EXPECT_EQ(h[i], ref[i])
              << "n=" << n << " level=" << isa::to_string(level)
              << " slot=" << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Operator dispatch equivalence: golden bits pinned at EVERY forced level
// ---------------------------------------------------------------------------

/// Default-operator golden bits (test_layout.cpp's values, captured from
/// the pre-layout-axis implementation): they must now also hold at every
/// FORCED dispatch level — scalar, AVX2, and AVX-512 produce the same bits.
TEST(IsaDispatchTest, GoldenPoissonBitsHoldAtEveryLevel) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "golden bits are defined for uninstrumented builds";
#endif
  IsaLevelGuard guard;
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 4, .ny = 3, .nz = 5}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 1, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 1);
  for (const isa::IsaLevel level : runnable_levels()) {
    isa::force(level);
    for (const int threads : {1, 4}) {
      set_threads(threads);
      simmpi::run(1, [&](Comm& comm) {
        fem::PoissonOperator op(mesh::ElementType::kHex8);
        HymvOperator hop(comm, dist.parts[0], op);
        pla::DistVector x(hop.layout()), y(hop.layout());
        for (std::int64_t i = 0; i < x.owned_size(); ++i) {
          const std::int64_t g = hop.layout().begin + i;
          x[i] = static_cast<double>(g * 13 % 64 - 32) * 0.03125 +
                 static_cast<double>(i % 5) * 0.25;
        }
        hop.apply(comm, x, y);
        ASSERT_EQ(y.owned_size(), 120);
        EXPECT_EQ(y[0], -0.057942708333333315)
            << "level=" << isa::to_string(level) << " threads=" << threads;
        EXPECT_EQ(fnv1a(y.values().data(),
                        static_cast<std::size_t>(y.owned_size())),
                  0xf0783812668c8ab6ULL)
            << "level=" << isa::to_string(level) << " threads=" << threads;
      });
    }
    set_threads(1);
  }
}

/// Every store layout × panel width × serial/threaded: forced levels must
/// agree among themselves (relative equivalence — every layout's
/// single-vector table entries AND the panel microkernels are exercised).
TEST(IsaDispatchTest, OperatorBitwiseInvariantAcrossLevels) {
  IsaLevelGuard guard;
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 3, .ny = 3, .nz = 4}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 1, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 1);
  constexpr StoreLayout kLayouts[] = {
      StoreLayout::kPadded, StoreLayout::kInterleaved, StoreLayout::kSymPacked,
      StoreLayout::kFp32};
  for (const StoreLayout layout : kLayouts) {
    for (const bool threaded : {false, true}) {
      for (const int k : {1, 8}) {
        set_threads(threaded ? 4 : 1);
        std::uint64_t ref = 0;
        bool have_ref = false;
        for (const isa::IsaLevel level : runnable_levels()) {
          isa::force(level);
          std::uint64_t h = 0;
          simmpi::run(1, [&](Comm& comm) {
            fem::ElasticityOperator op(mesh::ElementType::kHex8, 700.0, 0.3);
            HymvOperator hop(comm, dist.parts[0], op,
                             HymvOptions{.use_openmp = threaded,
                                         .layout = layout});
            if (k == 1) {
              pla::DistVector x(hop.layout()), y(hop.layout());
              for (std::int64_t i = 0; i < x.owned_size(); ++i) {
                x[i] = static_cast<double>((i * 13) % 64 - 32) * 0.03125;
              }
              hop.apply(comm, x, y);
              h = fnv1a(y.values().data(),
                        static_cast<std::size_t>(y.owned_size()));
            } else {
              pla::DistMultiVector x(hop.layout(), k), y(hop.layout(), k);
              for (std::int64_t i = 0; i < x.owned_size(); ++i) {
                for (int l = 0; l < k; ++l) {
                  x.at(i, l) =
                      static_cast<double>((i * 13 + l * 7) % 64 - 32) *
                      0.03125;
                }
              }
              hop.apply_multi(comm, x, y);
              h = fnv1a(y.values().data(), y.values().size());
            }
          });
          if (!have_ref) {
            ref = h;
            have_ref = true;
          } else {
            EXPECT_EQ(h, ref)
                << "layout=" << static_cast<int>(layout)
                << " threaded=" << threaded << " k=" << k
                << " level=" << isa::to_string(level);
          }
        }
        set_threads(1);
      }
    }
  }
}

/// First-touch on/off must also leave the bits alone (placement is a pure
/// page-locality effect; the arithmetic never changes).
TEST(IsaDispatchTest, FirstTouchDoesNotChangeBits) {
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 3, .ny = 3, .nz = 3}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 1, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 1);
  const bool prev = numa::first_touch_enabled();
  std::uint64_t ref = 0;
  bool have_ref = false;
  for (const bool ft : {true, false}) {
    numa::set_first_touch(ft);
    std::uint64_t h = 0;
    simmpi::run(1, [&](Comm& comm) {
      fem::PoissonOperator op(mesh::ElementType::kHex8);
      HymvOperator hop(comm, dist.parts[0], op);
      pla::DistVector x(hop.layout()), y(hop.layout());
      for (std::int64_t i = 0; i < x.owned_size(); ++i) {
        x[i] = static_cast<double>((i * 29) % 64 - 32) * 0.03125;
      }
      hop.apply(comm, x, y);
      h = fnv1a(y.values().data(), static_cast<std::size_t>(y.owned_size()));
    });
    if (!have_ref) {
      ref = h;
      have_ref = true;
    } else {
      EXPECT_EQ(h, ref) << "first_touch=" << ft;
    }
  }
  numa::set_first_touch(prev);
}

}  // namespace
