// Per-region adaptive backend selection (DESIGN.md §5h): the SELL-C-σ
// matrix (bitwise equal to CSR for every C/σ/thread count), the locally
// assembled region backend against the stored-EMV reference, the
// AdaptiveOperator's forced-stored bitwise equivalence to HymvOperator
// (golden panel hashes included), autotuned/forced-sell/forced-matrixfree
// equivalence to tolerance, decision recording + deterministic replay,
// adaptive update_elements re-assembly, the validated HYMV_SELL_C /
// HYMV_SELL_SIGMA / HYMV_ADAPTIVE_* / HYMV_BACKEND env knobs, and the
// driver's kAdaptive path. These tests carry the ctest label `adaptive`.

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "hymv/common/rng.hpp"
#include "hymv/core/adaptive_operator.hpp"
#include "hymv/core/hymv_operator.hpp"
#include "hymv/core/region_backend.hpp"
#include "hymv/core/sell_backend.hpp"
#include "hymv/driver/driver.hpp"
#include "hymv/driver/env_options.hpp"
#include "hymv/fem/operators.hpp"
#include "hymv/mesh/partition.hpp"
#include "hymv/mesh/structured.hpp"
#include "hymv/mesh/tet.hpp"
#include "hymv/pla/csr.hpp"
#include "hymv/pla/dist_multi_vector.hpp"
#include "hymv/pla/dist_vector.hpp"
#include "hymv/pla/sell.hpp"

namespace {

using namespace hymv;
using namespace hymv::pla;
using namespace hymv::core;
using simmpi::Comm;

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Lane-distinct deterministic fill, exactly representable (no libm).
void fill_panel(const Layout& layout, DistMultiVector& x) {
  for (std::int64_t i = 0; i < x.owned_size(); ++i) {
    const std::int64_t g = layout.begin + i;
    for (int j = 0; j < x.width(); ++j) {
      x.at(i, j) = static_cast<double>(g * 13 % 64 - 32) * 0.03125 +
                   static_cast<double>(i % 5) * 0.25 +
                   static_cast<double>(j) * 0.125;
    }
  }
}

std::uint64_t fnv1a(const double* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    unsigned char b[8];
    std::memcpy(b, &p[i], 8);
    for (int c = 0; c < 8; ++c) {
      h ^= b[c];
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// Random sparse CSR with ~`per_row` entries per row (plus the diagonal).
CsrMatrix random_csr(std::int64_t nrows, std::int64_t ncols, int per_row,
                     std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Triplet> t;
  for (std::int64_t r = 0; r < nrows; ++r) {
    t.push_back({r, r % ncols, rng.uniform(-2.0, 2.0)});
    for (int j = 0; j < per_row; ++j) {
      const auto c = static_cast<std::int64_t>(
          rng.uniform(0.0, static_cast<double>(ncols) - 0.001));
      t.push_back({r, c, rng.uniform(-1.0, 1.0)});
    }
  }
  return CsrMatrix::from_triplets(nrows, ncols, std::move(t));
}

// ---------------------------------------------------------------------------
// SELL-C-σ: bitwise equal to CSR for every C, σ, and thread count
// ---------------------------------------------------------------------------

TEST(SellMatrixTest, SpmvBitwiseInvariantAcrossCSigmaThreadsAndMatchesCsr) {
  const std::int64_t n = 97;
  const CsrMatrix csr = random_csr(n, n, 7, 42);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.0625 * static_cast<double>(static_cast<std::int64_t>(i) % 31 - 15);
  }
  std::vector<double> want(static_cast<std::size_t>(n));
  csr.spmv(x, want);

  // The C=1/σ=1/serial result is the baseline: every other C, σ, and
  // thread count must reproduce it bit for bit (the row loop is bounded by
  // the true row length and accumulates in ascending column order, so the
  // result is a pure function of the pattern). Agreement with CSR itself is
  // to the last ulp only — the compiler may contract the two kernels' FMAs
  // differently.
  std::vector<double> baseline(static_cast<std::size_t>(n));
  SellMatrix(csr, 1, 1, false).spmv(x, baseline);
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_NEAR(baseline[i], want[i], 1e-13 * (1.0 + std::abs(want[i])));
  }

  for (const int c : {1, 4, 8, 32}) {
    for (const int sigma : {1, 8, 128, 1024}) {
      for (const int threads : {1, 4}) {
        set_threads(threads);
        const SellMatrix sell(csr, c, sigma, threads > 1);
        EXPECT_EQ(sell.num_nonzeros(), csr.num_nonzeros());
        EXPECT_GE(sell.stored_slots(), sell.num_nonzeros());
        std::vector<double> y(static_cast<std::size_t>(n), -7.0);
        sell.spmv(x, y);
        EXPECT_EQ(std::memcmp(y.data(), baseline.data(), y.size() * 8), 0)
            << "C=" << c << " sigma=" << sigma << " threads=" << threads;

        // spmv_add accumulates on top of existing contents: y + baseline,
        // computed in the same order everywhere, stays bitwise invariant.
        std::vector<double> acc(static_cast<std::size_t>(n), 1.5);
        std::vector<double> acc_want(static_cast<std::size_t>(n));
        for (std::size_t i = 0; i < acc_want.size(); ++i) {
          acc_want[i] = 1.5 + baseline[i];
        }
        sell.spmv_add(x, acc);
        EXPECT_EQ(std::memcmp(acc.data(), acc_want.data(), acc.size() * 8), 0)
            << "C=" << c << " sigma=" << sigma << " threads=" << threads;
      }
    }
  }
  set_threads(1);
}

TEST(SellMatrixTest, ScatterAddLandsRowsThroughTheMap) {
  const std::int64_t n = 23;
  const CsrMatrix csr = random_csr(n, n, 4, 7);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.25 * static_cast<double>(static_cast<std::int64_t>(i) % 9 - 4);
  }
  std::vector<double> dense(static_cast<std::size_t>(n));
  csr.spmv(x, dense);

  // Rows land at 2r+1 in a twice-larger target, everything else untouched.
  const SellMatrix sell(csr, 4, 16, false);
  std::vector<std::int64_t> row_map(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < n; ++r) {
    row_map[static_cast<std::size_t>(r)] = 2 * r + 1;
  }
  std::vector<double> y(static_cast<std::size_t>(2 * n + 1), 3.0);
  sell.spmv_scatter_add(x, y, row_map);
  for (std::int64_t r = 0; r < n; ++r) {
    EXPECT_EQ(y[static_cast<std::size_t>(2 * r)], 3.0);
    EXPECT_EQ(y[static_cast<std::size_t>(2 * r + 1)],
              3.0 + dense[static_cast<std::size_t>(r)]);
  }
}

TEST(SellMatrixTest, PanelMatchesPerLane) {
  const std::int64_t n = 61;
  const CsrMatrix csr = random_csr(n, n, 5, 11);
  const int k = 3;
  std::vector<double> x(static_cast<std::size_t>(n * k));
  for (std::int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) {
      x[static_cast<std::size_t>(i * k + j)] =
          0.125 * static_cast<double>(i % 17 - 8) +
          0.5 * static_cast<double>(j);
    }
  }
  for (const int threads : {1, 4}) {
    set_threads(threads);
    const SellMatrix sell(csr, 8, 32, threads > 1);
    std::vector<double> y(static_cast<std::size_t>(n * k), 0.5);
    sell.spmv_add_multi(x, y, k);
    // Per lane against the scalar kernel (tolerance: the panel kernel may
    // contract to FMAs differently than the scalar loop).
    std::vector<double> xl(static_cast<std::size_t>(n));
    std::vector<double> yl(static_cast<std::size_t>(n));
    for (int j = 0; j < k; ++j) {
      for (std::int64_t i = 0; i < n; ++i) {
        xl[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i * k + j)];
        yl[static_cast<std::size_t>(i)] = 0.5;
      }
      sell.spmv_add(xl, yl);
      for (std::int64_t i = 0; i < n; ++i) {
        EXPECT_NEAR(y[static_cast<std::size_t>(i * k + j)],
                    yl[static_cast<std::size_t>(i)],
                    1e-13 * (1.0 + std::abs(yl[static_cast<std::size_t>(i)])))
            << "lane " << j << " row " << i << " threads " << threads;
      }
    }
  }
  set_threads(1);
}

TEST(SellMatrixTest, RefillValuesMatchesFreshConversion) {
  const std::int64_t n = 41;
  CsrMatrix csr = random_csr(n, n, 6, 5);
  SellMatrix sell(csr, 8, 64, false);
  // New values, same pattern.
  for (double& v : csr.values()) {
    v = 2.0 * v + 0.25;
  }
  sell.refill_values(csr);
  const SellMatrix fresh(csr, 8, 64, false);
  std::vector<double> x(static_cast<std::size_t>(n), 1.0);
  std::vector<double> y1(static_cast<std::size_t>(n));
  std::vector<double> y2(static_cast<std::size_t>(n));
  sell.spmv(x, y1);
  fresh.spmv(x, y2);
  EXPECT_EQ(std::memcmp(y1.data(), y2.data(), y1.size() * 8), 0);
}

// ---------------------------------------------------------------------------
// Region assembly: SELL backend against the stored-EMV reference
// ---------------------------------------------------------------------------

/// Random-jitter tet meshes across seeds: the assembled region must
/// reproduce the element-by-element stored reference on every DoF.
TEST(SellRegionTest, AssemblyMatchesStoredReferenceOnRandomMeshes) {
  for (const std::uint64_t seed : {11ULL, 77ULL, 123ULL}) {
    const mesh::Mesh m = mesh::build_unstructured_tet(
        {.box = {.nx = 5, .ny = 4, .nz = 4}, .jitter = 0.25, .seed = seed},
        mesh::ElementType::kTet4);
    const auto ids = mesh::partition_elements(m, 2, mesh::Partitioner::kSlab);
    const auto dist = mesh::distribute_mesh(m, ids, 2);
    simmpi::run(2, [&](Comm& comm) {
      const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
      const fem::PoissonOperator op(mesh::ElementType::kTet4);
      HymvOperator hop(comm, part, op, {.use_openmp = false});
      const DofMaps& maps = hop.maps();

      for (const bool dependent : {false, true}) {
        const auto& elems = dependent ? maps.dependent_elements()
                                      : maps.independent_elements();
        const auto& sched = dependent ? hop.dependent_schedule()
                                      : hop.independent_schedule();
        StoredRegionBackend stored(maps, hop.store(), sched,
                                   /*use_openmp=*/false, comm.rank());
        SellRegionBackend sell(maps, hop.store(), elems, 8, 64, false);

        DistributedArray u(maps);
        for (std::size_t i = 0; i < u.all().size(); ++i) {
          u.all()[i] = 0.125 * static_cast<double>(
                                   static_cast<std::int64_t>(i) * 7 % 23 - 11);
        }
        DistributedArray v_ref(maps), v_sell(maps);
        stored.apply(u.all(), v_ref.all(), 0);
        sell.apply(u.all(), v_sell.all(), 0);
        for (std::size_t i = 0; i < v_ref.all().size(); ++i) {
          ASSERT_NEAR(v_sell.all()[i], v_ref.all()[i],
                      1e-12 * (1.0 + std::abs(v_ref.all()[i])))
              << "seed=" << seed << " dependent=" << dependent << " i=" << i;
        }

        // Diagonal contribution agrees too.
        DistributedArray d_ref(maps), d_sell(maps);
        stored.add_diagonal(d_ref.all());
        sell.add_diagonal(d_sell.all());
        for (std::size_t i = 0; i < d_ref.all().size(); ++i) {
          ASSERT_NEAR(d_sell.all()[i], d_ref.all()[i],
                      1e-12 * (1.0 + std::abs(d_ref.all()[i])));
        }

        // Cost models are sane: assembled SpMV moves fewer bytes than the
        // dense element stream whenever the region is non-trivial.
        if (!elems.empty()) {
          EXPECT_GT(sell.apply_flops(), 0);
          EXPECT_GT(sell.apply_bytes(), 0);
          EXPECT_LT(sell.apply_flops(), stored.apply_flops());
        }
      }
    });
  }
}

// ---------------------------------------------------------------------------
// AdaptiveOperator: forced-stored is bitwise HymvOperator
// ---------------------------------------------------------------------------

class AdaptiveBitwiseTest
    : public ::testing::TestWithParam<std::tuple<StoreLayout, bool, int>> {};

TEST_P(AdaptiveBitwiseTest, ForcedStoredBitwiseEqualsHymv) {
  const auto [layout, threaded, k] = GetParam();
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 4, .ny = 3, .nz = 5}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 2, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 2);
  set_threads(threaded ? 4 : 1);
  simmpi::run(2, [&, layout = layout, threaded = threaded, k = k](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::PoissonOperator op(mesh::ElementType::kHex8);
    const HymvOptions hopts{.use_openmp = threaded, .layout = layout};
    HymvOperator hop(comm, part, op, hopts);
    AdaptiveOperator aop(comm, part, op,
                         {.hymv = hopts, .force = "stored"});
    ASSERT_TRUE(aop.decisions()[0].forced);
    ASSERT_EQ(aop.decisions()[0].choice, RegionBackendKind::kStored);
    ASSERT_EQ(aop.decisions()[1].choice, RegionBackendKind::kStored);

    DistMultiVector x(hop.layout(), k), y_hymv(hop.layout(), k),
        y_adaptive(hop.layout(), k);
    fill_panel(hop.layout(), x);
    hop.apply_multi(comm, x, y_hymv);
    aop.apply_multi(comm, x, y_adaptive);
    EXPECT_EQ(std::memcmp(y_adaptive.values().data(), y_hymv.values().data(),
                          y_hymv.values().size() * 8),
              0)
        << to_string(layout) << " threaded=" << threaded << " k=" << k;

    if (k == 1) {
      DistVector xs(hop.layout()), ys_hymv(hop.layout()),
          ys_adaptive(hop.layout());
      x.get_lane(0, xs);
      hop.apply(comm, xs, ys_hymv);
      aop.apply(comm, xs, ys_adaptive);
      EXPECT_EQ(std::memcmp(ys_adaptive.values().data(),
                            ys_hymv.values().data(),
                            ys_hymv.values().size() * 8),
                0);
      // Diagonal and the cost models follow the stored path exactly.
      const auto d_hymv = hop.diagonal(comm);
      const auto d_adaptive = aop.diagonal(comm);
      ASSERT_EQ(std::memcmp(d_adaptive.data(), d_hymv.data(),
                            d_hymv.size() * 8),
                0);
      EXPECT_EQ(aop.apply_flops(), hop.apply_flops());
    }
  });
  set_threads(1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdaptiveBitwiseTest,
    ::testing::Combine(::testing::Values(StoreLayout::kPadded,
                                         StoreLayout::kInterleaved,
                                         StoreLayout::kSymPacked,
                                         StoreLayout::kFp32),
                       ::testing::Values(false, true),
                       ::testing::Values(1, 8)));

/// The pinned golden panel bits of the stored path (test_multirhs) must be
/// reproduced by the forced-stored adaptive composite — decision replay
/// pinned to "stored" leaves not a single bit of slack.
void golden_adaptive_case(int k, std::uint64_t want) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "golden bits are defined for uninstrumented builds";
#endif
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 4, .ny = 3, .nz = 5}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 1, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 1);
  for (const int threads : {1, 4}) {
    set_threads(threads);
    simmpi::run(1, [&](Comm& comm) {
      const fem::PoissonOperator op(mesh::ElementType::kHex8);
      AdaptiveOperator aop(comm, dist.parts[0], op, {.force = "stored"});
      DistMultiVector x(aop.layout(), k), y(aop.layout(), k);
      fill_panel(aop.layout(), x);
      aop.apply_multi(comm, x, y);
      EXPECT_EQ(fnv1a(y.values().data(), y.values().size()), want)
          << "k=" << k << " threads=" << threads << " actual=0x" << std::hex
          << fnv1a(y.values().data(), y.values().size());
    });
  }
  set_threads(1);
}

TEST(GoldenAdaptiveTest, ForcedStoredK1MatchesStoredGolden) {
  golden_adaptive_case(1, 0xf0783812668c8ab6ULL);
}
TEST(GoldenAdaptiveTest, ForcedStoredK8MatchesStoredGolden) {
  golden_adaptive_case(8, 0x7be6ef760df59a7dULL);
}

// ---------------------------------------------------------------------------
// All backends and the autotuner agree with the reference to roundoff
// ---------------------------------------------------------------------------

TEST(AdaptiveOperatorTest, EveryForcedBackendAndAutotuneMatchReference) {
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 4, .ny = 4, .nz = 6}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 2, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 2);
  simmpi::run(2, [&](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::ElasticityOperator op(mesh::ElementType::kHex8, 150.0, 0.3);
    HymvOperator hop(comm, part, op, {.use_openmp = false});
    DistVector x(hop.layout()), y_ref(hop.layout()), y(hop.layout());
    for (std::int64_t i = 0; i < x.owned_size(); ++i) {
      x[i] = 0.0625 * static_cast<double>((hop.layout().begin + i) % 19 - 9);
    }
    hop.apply(comm, x, y_ref);

    for (const std::string force : {"stored", "matrixfree", "sell", ""}) {
      AdaptiveOperator aop(
          comm, part, op,
          {.hymv = {.use_openmp = false}, .probes = 2, .force = force});
      aop.apply(comm, x, y);
      for (std::int64_t i = 0; i < y.owned_size(); ++i) {
        ASSERT_NEAR(y[i], y_ref[i], 1e-11 * (1.0 + std::abs(y_ref[i])))
            << "force='" << force << "' i=" << i;
      }
      // Decisions carry the full model evidence for every non-empty region
      // (a rank that owns its whole interface has no dependent elements —
      // its dependent-region models are legitimately zero).
      const std::size_t region_sizes[2] = {
          aop.maps().independent_elements().size(),
          aop.maps().dependent_elements().size()};
      for (int r = 0; r < 2; ++r) {
        const RegionDecision& d = aop.decisions()[static_cast<std::size_t>(r)];
        if (region_sizes[r] > 0) {
          for (const double s : d.model_s) {
            EXPECT_GT(s, 0.0) << d.region;
          }
        }
        if (force.empty()) {
          EXPECT_FALSE(d.forced);
        }
      }
      // The adaptive.* metrics namespace is populated.
      EXPECT_TRUE(aop.metrics().has("adaptive.independent.choice"));
      EXPECT_TRUE(aop.metrics().has("adaptive.sell.assembly_s"));
    }
  });
}

// ---------------------------------------------------------------------------
// Decision recording + deterministic replay
// ---------------------------------------------------------------------------

TEST(AdaptiveReplayTest, RecordsDecisionsToFile) {
  const std::string path = ::testing::TempDir() + "hymv_decisions_record.txt";
  std::remove(path.c_str());
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 3, .ny = 3, .nz = 4}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 2, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 2);
  simmpi::run(2, [&](Comm& comm) {
    const fem::PoissonOperator op(mesh::ElementType::kHex8);
    AdaptiveOperator aop(comm, dist.parts[static_cast<std::size_t>(comm.rank())],
                         op, {.probes = 1, .replay_path = path});
    EXPECT_FALSE(aop.decisions()[0].replayed);
  });
  // One header + one line per rank per region.
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("# hymv adaptive decisions", 0), 0u);
  int entries = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      ++entries;
    }
  }
  EXPECT_EQ(entries, 4);  // 2 ranks × 2 regions
  std::remove(path.c_str());
}

TEST(AdaptiveReplayTest, ReplaysPinnedDecisionsDeterministically) {
  // A hand-written decision file (as a recorded tuning run would leave
  // behind in a previous process) pins region choices without probing.
  const std::string path = ::testing::TempDir() + "hymv_decisions_replay.txt";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "# hymv adaptive decisions v1: rank region backend\n";
    out << "0 independent sell\n";
    out << "0 dependent matrixfree\n";
  }
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 3, .ny = 3, .nz = 4}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 1, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 1);
  for (int pass = 0; pass < 2; ++pass) {
    simmpi::run(1, [&](Comm& comm) {
      const fem::PoissonOperator op(mesh::ElementType::kHex8);
      AdaptiveOperator aop(comm, dist.parts[0], op,
                           {.replay_path = path});
      EXPECT_TRUE(aop.decisions()[0].replayed);
      EXPECT_EQ(aop.decisions()[0].choice, RegionBackendKind::kSell);
      EXPECT_TRUE(aop.decisions()[1].replayed);
      EXPECT_EQ(aop.decisions()[1].choice, RegionBackendKind::kMatrixFree);
      EXPECT_EQ(aop.metrics().counter_value("adaptive.decisions_replayed"), 2);

      // Replayed runs still compute the right answer.
      HymvOperator hop(comm, dist.parts[0], op, {.use_openmp = false});
      DistVector x(hop.layout()), y_ref(hop.layout()), y(hop.layout());
      for (std::int64_t i = 0; i < x.owned_size(); ++i) {
        x[i] = 0.25 * static_cast<double>(i % 13 - 6);
      }
      hop.apply(comm, x, y_ref);
      aop.apply(comm, x, y);
      for (std::int64_t i = 0; i < y.owned_size(); ++i) {
        ASSERT_NEAR(y[i], y_ref[i], 1e-11 * (1.0 + std::abs(y_ref[i])));
      }
    });
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Adaptive update_elements: dirty regions re-assemble incrementally
// ---------------------------------------------------------------------------

TEST(AdaptiveUpdateTest, DirtyRegionsReassembleAndMatchReference) {
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 4, .ny = 3, .nz = 4}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 2, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 2);
  simmpi::run(2, [&](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::ElasticityOperator soft(mesh::ElementType::kHex8, 100.0, 0.3);
    const fem::ElasticityOperator stiff(mesh::ElementType::kHex8, 250.0, 0.3);

    HymvOperator hop(comm, part, soft, {.use_openmp = false});
    AdaptiveOperator aop(comm, part, soft,
                         {.hymv = {.use_openmp = false}, .force = "sell"});

    // Stiffen every third local element — both regions receive dirt.
    std::vector<std::int64_t> dirty;
    for (std::int64_t e = 0; e < hop.maps().num_elements(); e += 3) {
      dirty.push_back(e);
    }
    hop.update_elements(dirty, stiff);
    aop.update_elements(dirty, stiff);
    EXPECT_EQ(aop.metrics().counter_value("adaptive.updates"), 1);

    DistVector x(hop.layout()), y_ref(hop.layout()), y(hop.layout());
    for (std::int64_t i = 0; i < x.owned_size(); ++i) {
      x[i] = 0.125 * static_cast<double>((hop.layout().begin + i) % 11 - 5);
    }
    hop.apply(comm, x, y_ref);
    aop.apply(comm, x, y);
    for (std::int64_t i = 0; i < y.owned_size(); ++i) {
      ASSERT_NEAR(y[i], y_ref[i], 1e-11 * (1.0 + std::abs(y_ref[i])));
    }
  });
}

// ---------------------------------------------------------------------------
// Validated environment knobs
// ---------------------------------------------------------------------------

TEST(AdaptiveEnvTest, SellAndProbeKnobsRejectGarbageAndOutOfRange) {
  for (const char* name : {"HYMV_SELL_C", "HYMV_SELL_SIGMA",
                           "HYMV_ADAPTIVE_PROBES", "HYMV_ADAPTIVE_FORCE",
                           "HYMV_ADAPTIVE_REPLAY"}) {
    ASSERT_EQ(unsetenv(name), 0);
  }
  const AdaptiveOptions defaults = driver::adaptive_options_from_env({});
  EXPECT_EQ(defaults.sell_c, 8);
  EXPECT_EQ(defaults.sell_sigma, 128);
  EXPECT_EQ(defaults.probes, 3);
  EXPECT_TRUE(defaults.force.empty());
  EXPECT_TRUE(defaults.replay_path.empty());

  ASSERT_EQ(setenv("HYMV_SELL_C", "16", 1), 0);
  ASSERT_EQ(setenv("HYMV_SELL_SIGMA", "1024", 1), 0);
  ASSERT_EQ(setenv("HYMV_ADAPTIVE_PROBES", "0", 1), 0);
  ASSERT_EQ(setenv("HYMV_ADAPTIVE_FORCE", "sell", 1), 0);
  ASSERT_EQ(setenv("HYMV_ADAPTIVE_REPLAY", "/tmp/d.txt", 1), 0);
  const AdaptiveOptions valid = driver::adaptive_options_from_env({});
  EXPECT_EQ(valid.sell_c, 16);
  EXPECT_EQ(valid.sell_sigma, 1024);
  EXPECT_EQ(valid.probes, 0);
  EXPECT_EQ(valid.force, "sell");
  EXPECT_EQ(valid.replay_path, "/tmp/d.txt");

  // Out of range → fallback (with a stderr warning).
  ASSERT_EQ(setenv("HYMV_SELL_C", "0", 1), 0);
  ASSERT_EQ(setenv("HYMV_SELL_SIGMA", "-5", 1), 0);
  ASSERT_EQ(setenv("HYMV_ADAPTIVE_PROBES", "1001", 1), 0);
  ASSERT_EQ(setenv("HYMV_ADAPTIVE_FORCE", "bogus", 1), 0);
  AdaptiveOptions out_of_range = driver::adaptive_options_from_env({});
  EXPECT_EQ(out_of_range.sell_c, 8);
  EXPECT_EQ(out_of_range.sell_sigma, 128);
  EXPECT_EQ(out_of_range.probes, 3);
  EXPECT_TRUE(out_of_range.force.empty());

  ASSERT_EQ(setenv("HYMV_SELL_C", "257", 1), 0);
  EXPECT_EQ(driver::adaptive_options_from_env({}).sell_c, 8);

  // Trailing garbage is rejected like an out-of-range value → fallback.
  ASSERT_EQ(setenv("HYMV_SELL_C", "8abc", 1), 0);
  ASSERT_EQ(setenv("HYMV_SELL_SIGMA", "twelve", 1), 0);
  ASSERT_EQ(setenv("HYMV_ADAPTIVE_PROBES", "3.5", 1), 0);
  const AdaptiveOptions garbage = driver::adaptive_options_from_env({});
  EXPECT_EQ(garbage.sell_c, 8);
  EXPECT_EQ(garbage.sell_sigma, 128);
  EXPECT_EQ(garbage.probes, 3);

  for (const char* name : {"HYMV_SELL_C", "HYMV_SELL_SIGMA",
                           "HYMV_ADAPTIVE_PROBES", "HYMV_ADAPTIVE_FORCE",
                           "HYMV_ADAPTIVE_REPLAY"}) {
    ASSERT_EQ(unsetenv(name), 0);
  }
}

TEST(AdaptiveEnvTest, BackendFromEnvValidates) {
  using driver::Backend;
  ASSERT_EQ(unsetenv("HYMV_BACKEND"), 0);
  EXPECT_EQ(driver::backend_from_env(Backend::kHymv), Backend::kHymv);

  ASSERT_EQ(setenv("HYMV_BACKEND", "adaptive", 1), 0);
  EXPECT_EQ(driver::backend_from_env(Backend::kHymv), Backend::kAdaptive);
  ASSERT_EQ(setenv("HYMV_BACKEND", "matrix-free", 1), 0);
  EXPECT_EQ(driver::backend_from_env(Backend::kHymv), Backend::kMatrixFree);
  ASSERT_EQ(setenv("HYMV_BACKEND", "assembled-gpu", 1), 0);
  EXPECT_EQ(driver::backend_from_env(Backend::kHymv), Backend::kAssembledGpu);

  // Garbage → fallback (with a stderr warning).
  ASSERT_EQ(setenv("HYMV_BACKEND", "petsc", 1), 0);
  EXPECT_EQ(driver::backend_from_env(Backend::kAdaptive), Backend::kAdaptive);
  ASSERT_EQ(setenv("HYMV_BACKEND", "", 1), 0);
  EXPECT_EQ(driver::backend_from_env(Backend::kHymv), Backend::kHymv);

  ASSERT_EQ(unsetenv("HYMV_BACKEND"), 0);
}

TEST(AdaptiveEnvTest, OperatorModelsWithItsOptionsNotTheEnvironment) {
  // The roofline the autotuner scores against is AdaptiveOptions::cpu:
  // HYMV_CPU_MEM_GBPS moves the modeled times only through the options the
  // edge resolves (CpuSpec::from_env; measure_spmv for kAdaptive).
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 4, .ny = 3, .nz = 5}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 2, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 2);
  const auto model_gauges = [&](const AdaptiveOptions& options) {
    std::vector<double> gauges;
    simmpi::run(2, [&](Comm& comm) {
      const fem::PoissonOperator op(mesh::ElementType::kHex8);
      AdaptiveOperator aop(
          comm, dist.parts[static_cast<std::size_t>(comm.rank())], op,
          options);
      if (comm.rank() != 0) {
        return;
      }
      for (const char* region : {"independent", "dependent"}) {
        for (const char* kind : {"stored", "matrixfree", "sell"}) {
          gauges.push_back(aop.metrics().gauge_value(
              std::string("adaptive.") + region + ".model_" + kind + "_s"));
        }
      }
    });
    return gauges;
  };
  ASSERT_EQ(unsetenv("HYMV_CPU_MEM_GBPS"), 0);
  const std::vector<double> unset = model_gauges({});
  ASSERT_EQ(setenv("HYMV_CPU_MEM_GBPS", "1", 1), 0);
  EXPECT_EQ(model_gauges({}), unset);

  // The edge resolves the variable into the options the operator runs.
  const perf::CpuSpec slow = perf::CpuSpec::from_env();
  EXPECT_EQ(slow.mem_bytes_per_s, 1e9);
  const std::vector<double> modeled = model_gauges({.cpu = slow});
  ASSERT_EQ(modeled.size(), unset.size());
  EXPECT_GT(modeled[0], unset[0]);

  // measure_spmv resolves it for kAdaptive.
  driver::ProblemSpec spec;
  spec.box = {.nx = 4, .ny = 4, .nz = 4};
  const driver::ProblemSetup setup = driver::ProblemSetup::build(spec, 1);
  const auto measured_model_s = [&] {
    double model_s = 0.0;
    simmpi::run(1, [&](Comm& comm) {
      driver::RankContext ctx(comm, setup);
      (void)driver::measure_spmv(comm, ctx, driver::Backend::kAdaptive, 1,
                                 {.repeats = 1});
      model_s = comm.metrics().gauge_value(
          "adaptive.independent.model_stored_s");
    });
    return model_s;
  };
  const double at_1_gbps = measured_model_s();
  ASSERT_EQ(setenv("HYMV_CPU_MEM_GBPS", "1000", 1), 0);
  EXPECT_GT(at_1_gbps, measured_model_s());
  ASSERT_EQ(unsetenv("HYMV_CPU_MEM_GBPS"), 0);
}

// ---------------------------------------------------------------------------
// Driver integration: Backend::kAdaptive through the shared harness
// ---------------------------------------------------------------------------

TEST(DriverAdaptiveTest, MeasureSpmvRunsAndPublishesDecisions) {
  driver::ProblemSpec spec;
  spec.box = {.nx = 6, .ny = 6, .nz = 6};
  const driver::ProblemSetup setup = driver::ProblemSetup::build(spec, 2);
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    const driver::SpmvReport report = driver::measure_spmv(
        comm, ctx, driver::Backend::kAdaptive, 2, {.repeats = 1});
    EXPECT_GT(report.flops, 0);
    EXPECT_GT(report.bytes, 0);
    EXPECT_GT(report.spmv_wall_s, 0.0);
    // Both adaptive registries were merged into the rank's metrics.
    EXPECT_TRUE(comm.metrics().has("adaptive.independent.choice"));
    EXPECT_TRUE(comm.metrics().has("adaptive.sell.c"));
  });
}

TEST(DriverAdaptiveTest, SolveConvergesLikeTheDefaultBackend) {
  driver::ProblemSpec spec;
  spec.box = {.nx = 6, .ny = 6, .nz = 6};
  const driver::ProblemSetup setup = driver::ProblemSetup::build(spec, 2);
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    const driver::SolveReport ref = driver::solve_problem(
        comm, ctx, {.backend = driver::Backend::kHymv, .rtol = 1e-8});
    const driver::SolveReport adaptive = driver::solve_problem(
        comm, ctx, {.backend = driver::Backend::kAdaptive, .rtol = 1e-8});
    EXPECT_TRUE(adaptive.cg.converged);
    EXPECT_NEAR(adaptive.err_inf, ref.err_inf,
                1e-8 * (1.0 + std::abs(ref.err_inf)));
  });
}

}  // namespace
