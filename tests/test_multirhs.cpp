// Multi-RHS panel path (DESIGN.md §5d): DistMultiVector lane algebra, the
// width-k panel ghost exchange (one message per neighbor regardless of k),
// apply_multi across every element-matrix StoreLayout and backend
// (HymvOperator, MatrixFreeOperator, HymvGpuOperator, and the lane-loop
// default of plain LinearOperators), the serial-vs-threaded bitwise
// guarantee the colored schedule extends to panels, the k-true
// flops/bytes models, golden panel-apply bits, the HYMV_NRHS env knob,
// the fused axpy_dot/xpay vector ops, the Dirichlet wrapper's panel
// forwarding, and cg_solve_multi against independent single-lane solves.
// These tests carry the ctest label `multirhs`.

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "hymv/core/gpu_operator.hpp"
#include "hymv/core/hymv_operator.hpp"
#include "hymv/core/matrix_free_operator.hpp"
#include "hymv/driver/env_options.hpp"
#include "hymv/fem/operators.hpp"
#include "hymv/mesh/partition.hpp"
#include "hymv/mesh/structured.hpp"
#include "hymv/pla/cg.hpp"
#include "hymv/pla/constraints.hpp"
#include "hymv/pla/dist_csr.hpp"
#include "hymv/pla/dist_multi_vector.hpp"
#include "hymv/pla/dist_vector.hpp"
#include "hymv/pla/ghost_exchange.hpp"
#include "hymv/pla/preconditioner.hpp"

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

// ---------------------------------------------------------------------------
// DistMultiVector lane algebra
// ---------------------------------------------------------------------------

TEST(DistMultiVectorTest, LaneRoundTripAndReductions) {
  simmpi::run(2, [](Comm& comm) {
    const Layout layout = Layout::from_owned_count(comm, 5);
    const int k = 3;
    DistMultiVector x(layout, k), y(layout, k);
    fill_panel(layout, x);
    fill_panel(layout, y);
    for (std::int64_t i = 0; i < y.owned_size(); ++i) {
      for (int j = 0; j < k; ++j) {
        y.at(i, j) += 1.0;
      }
    }

    // set_lane/get_lane round-trips bitwise and matches at().
    DistVector lane(layout);
    x.get_lane(1, lane);
    for (std::int64_t i = 0; i < lane.owned_size(); ++i) {
      EXPECT_EQ(lane[i], x.at(i, 1));
    }
    DistMultiVector z(layout, k);
    for (int j = 0; j < k; ++j) {
      x.get_lane(j, lane);
      z.set_lane(j, lane);
    }
    ASSERT_EQ(std::memcmp(z.values().data(), x.values().data(),
                          z.values().size() * sizeof(double)),
              0);

    // Lane reductions agree with the single-vector versions.
    std::vector<double> d(k), n2(k);
    dot_lanes(comm, x, y, d);
    norm2_lanes(comm, x, n2);
    DistVector xl(layout), yl(layout);
    for (int j = 0; j < k; ++j) {
      x.get_lane(j, xl);
      y.get_lane(j, yl);
      EXPECT_NEAR(d[static_cast<std::size_t>(j)], dot(comm, xl, yl),
                  1e-12 * (1.0 + std::abs(d[static_cast<std::size_t>(j)])));
      EXPECT_NEAR(n2[static_cast<std::size_t>(j)], norm2(comm, xl),
                  1e-12 * (1.0 + n2[static_cast<std::size_t>(j)]));
    }
  });
}

TEST(DistMultiVectorTest, ActiveMaskFreezesLanesBitwise) {
  simmpi::run(1, [](Comm& comm) {
    const Layout layout = Layout::from_owned_count(comm, 16);
    const int k = 4;
    DistMultiVector x(layout, k), y(layout, k);
    fill_panel(layout, x);
    fill_panel(layout, y);
    const DistMultiVector y0 = y;
    const std::vector<double> a{2.0, -1.5, 0.5, 3.0};
    const std::vector<unsigned char> active{1, 0, 1, 0};

    axpy_lanes(a, x, y, active);
    xpby_lanes(x, a, y, active);
    DistVector xl(layout), want(layout);
    for (int j = 0; j < k; ++j) {
      if (active[static_cast<std::size_t>(j)] == 0) {
        // Frozen lanes: bitwise untouched.
        for (std::int64_t i = 0; i < y.owned_size(); ++i) {
          EXPECT_EQ(y.at(i, j), y0.at(i, j)) << "lane " << j;
        }
        continue;
      }
      x.get_lane(j, xl);
      y0.get_lane(j, want);
      axpy(a[static_cast<std::size_t>(j)], xl, want);
      xpby(xl, a[static_cast<std::size_t>(j)], want);
      for (std::int64_t i = 0; i < y.owned_size(); ++i) {
        EXPECT_EQ(y.at(i, j), want[i]) << "lane " << j;
      }
    }
  });
}

/// Preconditioner::apply_multi on lanes {1, 0, 1, 0}: each active lane of z
/// carries apply()'s bits for that lane of r, and each inactive lane of z
/// is bitwise what it was before.
void expect_panel_preconditioner_matches_apply(Comm& comm, Preconditioner& m,
                                               const Layout& layout) {
  const int k = 4;
  DistMultiVector r(layout, k), z(layout, k);
  fill_panel(layout, r);
  z.set_all(-7.25);
  const DistMultiVector z0 = z;
  const std::vector<unsigned char> active{1, 0, 1, 0};
  m.apply_multi(comm, r, z, active);
  DistVector rl(layout), want(layout);
  for (int j = 0; j < k; ++j) {
    if (active[static_cast<std::size_t>(j)] == 0) {
      for (std::int64_t i = 0; i < z.owned_size(); ++i) {
        const double before = z0.at(i, j);
        EXPECT_EQ(std::memcmp(&z.at(i, j), &before, sizeof(double)), 0)
            << "lane " << j;
      }
      continue;
    }
    r.get_lane(j, rl);
    m.apply(comm, rl, want);
    for (std::int64_t i = 0; i < z.owned_size(); ++i) {
      EXPECT_EQ(std::memcmp(&z.at(i, j), &want[i], sizeof(double)), 0)
          << "lane " << j;
    }
  }
}

TEST(PanelPreconditionerTest, JacobiIsOnePassAndFreezesInactiveLanes) {
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 3, .ny = 3, .nz = 4}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 2, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 2);
  simmpi::run(2, [&](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::ElasticityOperator op(mesh::ElementType::kHex8, 150.0, 0.3);
    HymvOperator hop(comm, part, op, {.use_openmp = false});
    JacobiPreconditioner jacobi(comm, hop);
    expect_panel_preconditioner_matches_apply(comm, jacobi, hop.layout());
  });
}

TEST(PanelPreconditionerTest, DefaultLaneLoopFreezesInactiveLanes) {
  simmpi::run(1, [](Comm& comm) {
    const Layout layout = Layout::from_owned_count(comm, 16);
    IdentityPreconditioner identity;  // runs the default lane loop
    expect_panel_preconditioner_matches_apply(comm, identity, layout);
  });
}

// ---------------------------------------------------------------------------
// Fused vector ops (used by cg_solve / bicgstab)
// ---------------------------------------------------------------------------

TEST(FusedOpsTest, AxpyDotMatchesUnfusedToRoundoff) {
  simmpi::run(2, [](Comm& comm) {
    const Layout layout = Layout::from_owned_count(comm, 37);
    DistVector x(layout), y(layout), y2(layout);
    for (std::int64_t i = 0; i < x.owned_size(); ++i) {
      const auto g = static_cast<double>(layout.begin + i);
      x[i] = std::sin(0.3 * g);
      y[i] = std::cos(0.2 * g);
      y2[i] = y[i];
    }
    const double fused = axpy_dot(comm, -0.75, x, y);
    axpy(-0.75, x, y2);
    const double unfused = dot(comm, y2, y2);
    // The fused sweep may contract mul+add into FMAs the two-pass version
    // doesn't — equal to roundoff, not bitwise.
    EXPECT_NEAR(fused, unfused, 1e-12 * (1.0 + unfused));
    for (std::int64_t i = 0; i < y.owned_size(); ++i) {
      EXPECT_NEAR(y[i], y2[i], 1e-14 * (1.0 + std::abs(y2[i])));
    }
  });
}

TEST(FusedOpsTest, XpayMatchesCopyPlusAxpy) {
  simmpi::run(1, [](Comm& comm) {
    const Layout layout = Layout::from_owned_count(comm, 29);
    DistVector x(layout), y(layout), out(layout), want(layout);
    for (std::int64_t i = 0; i < x.owned_size(); ++i) {
      x[i] = 0.25 * static_cast<double>(i % 11) - 1.0;
      y[i] = 0.5 * static_cast<double>(i % 7) - 1.5;
    }
    xpay(x, -0.625, y, out);
    copy(x, want);
    axpy(-0.625, y, want);
    for (std::int64_t i = 0; i < out.owned_size(); ++i) {
      EXPECT_NEAR(out[i], want[i], 1e-14 * (1.0 + std::abs(want[i])));
    }
  });
}

// ---------------------------------------------------------------------------
// HYMV_NRHS env knob
// ---------------------------------------------------------------------------

TEST(NrhsEnvTest, ValidatesRangeAndGarbage) {
  using driver::nrhs_from_env;
  ASSERT_EQ(unsetenv("HYMV_NRHS"), 0);
  EXPECT_EQ(nrhs_from_env(1), 1);
  EXPECT_EQ(nrhs_from_env(4), 4);

  ASSERT_EQ(setenv("HYMV_NRHS", "8", 1), 0);
  EXPECT_EQ(nrhs_from_env(1), 8);
  ASSERT_EQ(setenv("HYMV_NRHS", "64", 1), 0);
  EXPECT_EQ(nrhs_from_env(1), 64);

  // Out of range → fallback (with a stderr warning).
  ASSERT_EQ(setenv("HYMV_NRHS", "0", 1), 0);
  EXPECT_EQ(nrhs_from_env(3), 3);
  ASSERT_EQ(setenv("HYMV_NRHS", "65", 1), 0);
  EXPECT_EQ(nrhs_from_env(3), 3);
  ASSERT_EQ(setenv("HYMV_NRHS", "-2", 1), 0);
  EXPECT_EQ(nrhs_from_env(3), 3);
  // Trailing garbage is rejected inside env_int → fallback.
  ASSERT_EQ(setenv("HYMV_NRHS", "8abc", 1), 0);
  EXPECT_EQ(nrhs_from_env(3), 3);

  ASSERT_EQ(unsetenv("HYMV_NRHS"), 0);
}

TEST(NrhsEnvTest, OverridesHymvOptionsAtConstruction) {
  // HYMV_NRHS is measure_spmv's panel width: the edge honors it, and an
  // operator built under it reports the options it was given.
  driver::ProblemSpec spec;
  spec.box = {.nx = 2, .ny = 2, .nz = 2};
  const auto setup = driver::ProblemSetup::build(spec, 1);
  ASSERT_EQ(setenv("HYMV_NRHS", "6", 1), 0);
  simmpi::run(1, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    const HymvOptions given{.schedule = ThreadSchedule::kSerial,
                            .taskgraph = true};
    const HymvOperator hop(comm, ctx.part(), ctx.element_op(), given);
    EXPECT_EQ(hop.options().schedule, ThreadSchedule::kSerial);
    EXPECT_TRUE(hop.options().taskgraph);
    const driver::SpmvReport report = driver::measure_spmv(
        comm, ctx, driver::Backend::kHymv, 1, {.nrhs = 2, .repeats = 1});
    EXPECT_EQ(report.nrhs, 6);
  });
  ASSERT_EQ(unsetenv("HYMV_NRHS"), 0);
}

// ---------------------------------------------------------------------------
// Panel ghost exchange
// ---------------------------------------------------------------------------

TEST(PanelGhostExchangeTest, ForwardMatchesPerLaneWithOneMessagePerPeer) {
  simmpi::run(3, [](Comm& comm) {
    const Layout layout = Layout::from_owned_count(comm, 4);
    std::vector<std::int64_t> ghosts;
    if (layout.begin > 0) ghosts.push_back(layout.begin - 1);
    if (layout.end_excl < layout.global_size) ghosts.push_back(layout.end_excl);
    GhostExchange ex(comm, layout, ghosts);

    const int k = 3;
    std::vector<double> owned(static_cast<std::size_t>(4 * k));
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < k; ++j) {
        owned[static_cast<std::size_t>(i * k + j)] =
            static_cast<double>(layout.begin + i) * 10.0 +
            static_cast<double>(j);
      }
    }
    const auto c0 = comm.counters();
    ex.forward_begin(comm, owned, k);
    ex.forward_end(comm);
    const auto msgs_panel = comm.counters().messages_sent - c0.messages_sent;
    const auto panel = ex.ghost_values();
    for (std::size_t g = 0; g < ghosts.size(); ++g) {
      for (int j = 0; j < k; ++j) {
        EXPECT_DOUBLE_EQ(panel[g * k + static_cast<std::size_t>(j)],
                         static_cast<double>(ghosts[g]) * 10.0 +
                             static_cast<double>(j));
      }
    }

    // The panel exchange costs exactly as many messages as a width-1
    // exchange: one per neighbor, carrying k values per DoF.
    std::vector<double> lane(4);
    for (int i = 0; i < 4; ++i) {
      lane[static_cast<std::size_t>(i)] = owned[static_cast<std::size_t>(
          i * k)];
    }
    const auto c1 = comm.counters();
    ex.forward_begin(comm, lane);
    ex.forward_end(comm);
    const auto msgs_single = comm.counters().messages_sent - c1.messages_sent;
    EXPECT_EQ(msgs_panel, msgs_single);
  });
}

TEST(PanelGhostExchangeTest, ReverseAccumulatesEveryLane) {
  simmpi::run(4, [](Comm& comm) {
    const Layout layout = Layout::from_owned_count(comm, 3);
    std::vector<std::int64_t> ghosts;
    if (layout.begin > 0) ghosts.push_back(layout.begin - 1);
    if (layout.end_excl < layout.global_size) ghosts.push_back(layout.end_excl);
    GhostExchange ex(comm, layout, ghosts);

    const int k = 2;
    std::vector<double> contrib(ghosts.size() * static_cast<std::size_t>(k));
    for (std::size_t g = 0; g < ghosts.size(); ++g) {
      contrib[g * 2] = 1.0;
      contrib[g * 2 + 1] = 0.5;
    }
    std::vector<double> owned(static_cast<std::size_t>(3 * k), 100.0);
    ex.reverse_begin(comm, contrib, k);
    ex.reverse_end(comm, owned);
    const bool has_lower = comm.rank() > 0;
    const bool has_upper = comm.rank() < comm.size() - 1;
    EXPECT_DOUBLE_EQ(owned[0], has_lower ? 101.0 : 100.0);
    EXPECT_DOUBLE_EQ(owned[1], has_lower ? 100.5 : 100.0);
    EXPECT_DOUBLE_EQ(owned[4], has_upper ? 101.0 : 100.0);
    EXPECT_DOUBLE_EQ(owned[5], has_upper ? 100.5 : 100.0);
    EXPECT_DOUBLE_EQ(owned[2], 100.0);
    EXPECT_DOUBLE_EQ(owned[3], 100.0);
  });
}

// ---------------------------------------------------------------------------
// apply_multi correctness: every layout × k, against the per-lane apply
// ---------------------------------------------------------------------------

class ApplyMultiLayoutTest
    : public ::testing::TestWithParam<std::tuple<StoreLayout, int>> {};

TEST_P(ApplyMultiLayoutTest, MatchesPerLaneApply) {
  const auto [layout, k] = GetParam();
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 4, .ny = 3, .nz = 5}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 2, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 2);
  simmpi::run(2, [&, layout = layout, k = k](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::PoissonOperator op(mesh::ElementType::kHex8);
    HymvOperator hop(comm, part, op, {.use_openmp = false, .layout = layout});
    DistMultiVector x(hop.layout(), k), y(hop.layout(), k);
    fill_panel(hop.layout(), x);
    hop.apply_multi(comm, x, y);

    const double tol = layout == StoreLayout::kFp32 ? 5e-6 : 1e-11;
    DistVector xl(hop.layout()), yl(hop.layout());
    for (int j = 0; j < k; ++j) {
      x.get_lane(j, xl);
      hop.apply(comm, xl, yl);
      for (std::int64_t i = 0; i < yl.owned_size(); ++i) {
        ASSERT_NEAR(y.at(i, j), yl[i], tol * (1.0 + std::abs(yl[i])))
            << to_string(layout) << " k=" << k << " lane=" << j;
      }
    }
    // Repeated panel applies reuse the buffers cleanly.
    DistMultiVector y2(hop.layout(), k);
    hop.apply_multi(comm, x, y2);
    EXPECT_EQ(std::memcmp(y2.values().data(), y.values().data(),
                          y.values().size() * sizeof(double)),
              0);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ApplyMultiLayoutTest,
    ::testing::Combine(::testing::Values(StoreLayout::kPadded,
                                         StoreLayout::kInterleaved,
                                         StoreLayout::kSymPacked,
                                         StoreLayout::kFp32),
                       ::testing::Values(1, 2, 8)));

// Widths that end in a lane tail at every SIMD lane block (3, and
// 13 = 8 + 5), in a suite of their own so the names above stay put.
INSTANTIATE_TEST_SUITE_P(
    LaneTail, ApplyMultiLayoutTest,
    ::testing::Combine(::testing::Values(StoreLayout::kPadded,
                                         StoreLayout::kInterleaved,
                                         StoreLayout::kSymPacked,
                                         StoreLayout::kFp32),
                       ::testing::Values(3, 13)));

// ---------------------------------------------------------------------------
// ConstrainedOperator forwards panels: every layout × k, against its own
// per-lane apply
// ---------------------------------------------------------------------------

/// Every fourth owned DoF is a Dirichlet row.
DirichletConstraints every_fourth_dof(const Layout& layout) {
  DirichletConstraints c;
  for (std::int64_t i = 0; i < layout.owned(); i += 4) {
    c.add(i, 0.0);
  }
  c.finalize();
  return c;
}

class ConstrainedApplyMultiTest
    : public ::testing::TestWithParam<std::tuple<StoreLayout, int>> {};

TEST_P(ConstrainedApplyMultiTest, MatchesPerLaneConstrainedApply) {
  const auto [layout, k] = GetParam();
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 4, .ny = 3, .nz = 5}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 2, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 2);
  simmpi::run(2, [&, layout = layout, k = k](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::PoissonOperator op(mesh::ElementType::kHex8);
    HymvOperator hop(comm, part, op, {.use_openmp = false, .layout = layout});
    const DirichletConstraints constraints = every_fourth_dof(hop.layout());
    ASSERT_GT(constraints.size(), 0);
    ConstrainedOperator ac(hop, constraints);
    DistMultiVector x(ac.layout(), k), y(ac.layout(), k);
    fill_panel(ac.layout(), x);
    ac.apply_multi(comm, x, y);

    // kPadded's panel kernel keeps the single-vector accumulation order, so
    // its lanes are the per-lane apply bit for bit; the other layouts get
    // the ApplyMultiLayoutTest tolerances.
    const bool bitwise = layout == StoreLayout::kPadded;
    const double tol = layout == StoreLayout::kFp32 ? 5e-6 : 1e-11;
    DistVector xl(ac.layout()), yl(ac.layout());
    for (int j = 0; j < k; ++j) {
      x.get_lane(j, xl);
      ac.apply(comm, xl, yl);
      for (std::int64_t i = 0; i < yl.owned_size(); ++i) {
        if (bitwise) {
          ASSERT_EQ(y.at(i, j), yl[i]) << "k=" << k << " lane=" << j;
        } else {
          ASSERT_NEAR(y.at(i, j), yl[i], tol * (1.0 + std::abs(yl[i])))
              << to_string(layout) << " k=" << k << " lane=" << j;
        }
      }
      // Dirichlet rows pass x through exactly, in every layout.
      for (const std::int64_t d : constraints.dofs()) {
        ASSERT_EQ(y.at(d, j), x.at(d, j)) << "lane " << j;
      }
    }
    // A second panel apply reuses the wrapper's scratch panel cleanly.
    DistMultiVector y2(ac.layout(), k);
    ac.apply_multi(comm, x, y2);
    EXPECT_EQ(std::memcmp(y2.values().data(), y.values().data(),
                          y.values().size() * sizeof(double)),
              0);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConstrainedApplyMultiTest,
    ::testing::Combine(::testing::Values(StoreLayout::kPadded,
                                         StoreLayout::kInterleaved,
                                         StoreLayout::kSymPacked,
                                         StoreLayout::kFp32),
                       ::testing::Values(1, 2, 8)));

/// Counts the calls a solver makes into the operator it wraps.
class CountingOperator final : public LinearOperator {
 public:
  explicit CountingOperator(LinearOperator& inner) : inner_(&inner) {}
  [[nodiscard]] const Layout& layout() const override {
    return inner_->layout();
  }
  void apply(Comm& comm, const DistVector& x, DistVector& y) override {
    ++applies;
    inner_->apply(comm, x, y);
  }
  void apply_multi(Comm& comm, const DistMultiVector& x,
                   DistMultiVector& y) override {
    ++panel_applies;
    inner_->apply_multi(comm, x, y);
  }
  std::vector<double> diagonal(Comm& comm) override {
    return inner_->diagonal(comm);
  }

  std::int64_t applies = 0;
  std::int64_t panel_applies = 0;

 private:
  LinearOperator* inner_;
};

TEST(ConstrainedPanelSolveTest, CgSolveMultiMakesOnePanelApplyPerIteration) {
  simmpi::run(2, [](Comm& comm) {
    const std::int64_t local = 16;
    const Layout layout = Layout::from_owned_count(comm, local);
    const std::int64_t n = layout.global_size;
    DistCsrMatrix a(layout);
    for (std::int64_t g = layout.begin; g < layout.end_excl; ++g) {
      a.add_value(g, g, 2.5);
      if (g > 0) a.add_value(g, g - 1, -1.0);
      if (g < n - 1) a.add_value(g, g + 1, -1.0);
    }
    a.assemble(comm);
    CountingOperator counting(a);
    DirichletConstraints constraints;  // one Dirichlet row per rank
    constraints.add(0, 0.0);
    constraints.finalize();
    ConstrainedOperator ac(counting, constraints);
    JacobiPreconditioner jac(comm, ac);

    const int k = 8;
    DistMultiVector b(layout, k), x(layout, k);
    for (std::int64_t i = 0; i < local; ++i) {
      const auto g = static_cast<double>(layout.begin + i + 1);
      for (int j = 0; j < k; ++j) {
        b.at(i, j) = constraints.is_constrained(i)
                         ? 0.0
                         : std::sin(g * (1.0 + 0.37 * j)) + 0.1 * j;
      }
    }
    const std::vector<CgResult> results = cg_solve_multi(
        comm, ac, jac, b, x,
        {.rtol = 1e-10, .max_iters = 200, .true_residual_every = 4});

    std::int64_t iterations = 0;
    for (const CgResult& r : results) {
      EXPECT_TRUE(r.converged);
      iterations = std::max(iterations, r.iterations);
    }
    const std::int64_t replacements = results.front().residual_replacements;
    ASSERT_GT(replacements, 0);
    EXPECT_EQ(counting.applies, 0);
    // The initial residual, one per iteration, one per replacement.
    EXPECT_EQ(counting.panel_applies, 1 + iterations + replacements);
  });
}

// ---------------------------------------------------------------------------
// serial vs threaded apply_multi: BITWISE for every layout and width
// ---------------------------------------------------------------------------

class PanelDeterminismTest
    : public ::testing::TestWithParam<std::tuple<StoreLayout, int>> {};

TEST_P(PanelDeterminismTest, ThreadedBitwiseEqualsSerial) {
  const auto [layout, k] = GetParam();
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 4, .ny = 3, .nz = 5}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 1, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 1);
  simmpi::run(1, [&, layout = layout, k = k](Comm& comm) {
    const fem::ElasticityOperator op(mesh::ElementType::kHex8, 150.0, 0.3);
    HymvOperator serial(comm, dist.parts[0], op,
                        {.use_openmp = false, .layout = layout});
    DistMultiVector x(serial.layout(), k), y_serial(serial.layout(), k);
    fill_panel(serial.layout(), x);
    serial.apply_multi(comm, x, y_serial);

    for (const int threads : {2, 4, 7}) {
      set_threads(threads);
      HymvOperator threaded(comm, dist.parts[0], op,
                            {.use_openmp = true, .layout = layout});
      DistMultiVector y(threaded.layout(), k);
      threaded.apply_multi(comm, x, y);
      EXPECT_EQ(std::memcmp(y.values().data(), y_serial.values().data(),
                            y.values().size() * sizeof(double)),
                0)
          << to_string(layout) << " k=" << k << " threads=" << threads;
    }
    set_threads(1);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PanelDeterminismTest,
    ::testing::Combine(::testing::Values(StoreLayout::kPadded,
                                         StoreLayout::kInterleaved,
                                         StoreLayout::kSymPacked,
                                         StoreLayout::kFp32),
                       ::testing::Values(1, 2, 8)));

INSTANTIATE_TEST_SUITE_P(
    LaneTail, PanelDeterminismTest,
    ::testing::Combine(::testing::Values(StoreLayout::kPadded,
                                         StoreLayout::kInterleaved,
                                         StoreLayout::kSymPacked,
                                         StoreLayout::kFp32),
                       ::testing::Values(3, 13)));

TEST(PanelDeterminismTest, MatrixFreeThreadedBitwiseEqualsSerial) {
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 4, .ny = 3, .nz = 4}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 1, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 1);
  simmpi::run(1, [&](Comm& comm) {
    const fem::PoissonOperator op(mesh::ElementType::kHex8);
    const int k = 4;
    MatrixFreeOperator serial(comm, dist.parts[0], op, {.use_openmp = false});
    DistMultiVector x(serial.layout(), k), y_serial(serial.layout(), k);
    fill_panel(serial.layout(), x);
    serial.apply_multi(comm, x, y_serial);
    set_threads(4);
    MatrixFreeOperator threaded(comm, dist.parts[0], op, {.use_openmp = true});
    DistMultiVector y(threaded.layout(), k);
    threaded.apply_multi(comm, x, y);
    EXPECT_EQ(std::memcmp(y.values().data(), y_serial.values().data(),
                          y.values().size() * sizeof(double)),
              0);
    set_threads(1);
  });
}

// ---------------------------------------------------------------------------
// MatrixFree / GPU / lane-loop default backends
// ---------------------------------------------------------------------------

TEST(ApplyMultiBackendTest, MatrixFreeMatchesPerLaneApply) {
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 3, .ny = 3, .nz = 4}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 2, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 2);
  simmpi::run(2, [&](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::ElasticityOperator op(mesh::ElementType::kHex8, 200.0, 0.3);
    MatrixFreeOperator mf(comm, part, op, {.use_openmp = false});
    const int k = 3;
    DistMultiVector x(mf.layout(), k), y(mf.layout(), k);
    fill_panel(mf.layout(), x);
    mf.apply_multi(comm, x, y);
    DistVector xl(mf.layout()), yl(mf.layout());
    for (int j = 0; j < k; ++j) {
      x.get_lane(j, xl);
      mf.apply(comm, xl, yl);
      for (std::int64_t i = 0; i < yl.owned_size(); ++i) {
        ASSERT_NEAR(y.at(i, j), yl[i], 1e-11 * (1.0 + std::abs(yl[i])))
            << "lane " << j;
      }
    }
  });
}

TEST(ApplyMultiBackendTest, GpuMatchesHostEveryOverlapMode) {
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 3, .ny = 3, .nz = 4}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 2, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 2);
  simmpi::run(2, [&](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::PoissonOperator op(mesh::ElementType::kHex8);
    HymvOperator cpu(comm, part, op, {.use_openmp = false});
    const int k = 4;
    DistMultiVector x(cpu.layout(), k), y_cpu(cpu.layout(), k);
    fill_panel(cpu.layout(), x);
    cpu.apply_multi(comm, x, y_cpu);

    // Padded and interleaved device-resident forms, all overlap modes.
    for (const StoreLayout layout :
         {StoreLayout::kPadded, StoreLayout::kInterleaved}) {
      for (const GpuOverlapMode mode :
           {GpuOverlapMode::kNone, GpuOverlapMode::kGpuCpu,
            GpuOverlapMode::kGpuGpu}) {
        gpu::Device device;
        HymvGpuOperator gpu_op(
            comm, part, op, device,
            {.num_streams = 4,
             .mode = mode,
             .host = {.use_openmp = false, .layout = layout}});
        DistMultiVector y(gpu_op.layout(), k);
        for (int pass = 0; pass < 2; ++pass) {
          gpu_op.apply_multi(comm, x, y);
          for (std::int64_t i = 0; i < y.owned_size(); ++i) {
            for (int j = 0; j < k; ++j) {
              ASSERT_NEAR(y.at(i, j), y_cpu.at(i, j),
                          1e-11 * (1.0 + std::abs(y_cpu.at(i, j))))
                  << to_string(layout) << " mode=" << static_cast<int>(mode)
                  << " pass=" << pass;
            }
          }
        }
        EXPECT_GT(gpu_op.timings().applies, 0);
      }
    }
  });
}

TEST(ApplyMultiBackendTest, LaneLoopDefaultIsBitwisePerLane) {
  // DistCsrMatrix has no apply_multi override: the LinearOperator default
  // lane-loops through apply(), so each lane is bitwise the single apply.
  simmpi::run(2, [](Comm& comm) {
    const Layout layout = Layout::from_owned_count(comm, 6);
    const std::int64_t n = layout.global_size;
    DistCsrMatrix a(layout);
    for (std::int64_t g = layout.begin; g < layout.end_excl; ++g) {
      a.add_value(g, g, 2.5);
      if (g > 0) a.add_value(g, g - 1, -1.0);
      if (g < n - 1) a.add_value(g, g + 1, -1.0);
    }
    a.assemble(comm);
    const int k = 3;
    DistMultiVector x(layout, k), y(layout, k);
    fill_panel(layout, x);
    a.apply_multi(comm, x, y);
    DistVector xl(layout), yl(layout);
    for (int j = 0; j < k; ++j) {
      x.get_lane(j, xl);
      a.apply(comm, xl, yl);
      for (std::int64_t i = 0; i < yl.owned_size(); ++i) {
        EXPECT_EQ(y.at(i, j), yl[i]) << "lane " << j;
      }
    }
  });
}

// ---------------------------------------------------------------------------
// k-true analytic flops/bytes
// ---------------------------------------------------------------------------

TEST(PanelModelTest, WidthOneReducesToSingleVectorModel) {
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 4, .ny = 4, .nz = 4}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 1, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 1);
  simmpi::run(1, [&](Comm& comm) {
    const fem::PoissonOperator op(mesh::ElementType::kHex8);
    for (const StoreLayout layout :
         {StoreLayout::kPadded, StoreLayout::kInterleaved,
          StoreLayout::kSymPacked, StoreLayout::kFp32}) {
      HymvOperator hop(comm, dist.parts[0], op, {.layout = layout});
      EXPECT_EQ(hop.apply_flops_multi(1), hop.apply_flops());
      EXPECT_EQ(hop.apply_bytes_multi(1), hop.apply_bytes());
    }
    MatrixFreeOperator mf(comm, dist.parts[0], op);
    EXPECT_EQ(mf.apply_flops_multi(1), mf.apply_flops());
    EXPECT_EQ(mf.apply_bytes_multi(1), mf.apply_bytes());
  });
}

TEST(PanelModelTest, ConstrainedWrapperReportsInnerPanelModel) {
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 4, .ny = 4, .nz = 4}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 1, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 1);
  simmpi::run(1, [&](Comm& comm) {
    const fem::PoissonOperator op(mesh::ElementType::kHex8);
    HymvOperator hop(comm, dist.parts[0], op);
    const DirichletConstraints constraints = every_fourth_dof(hop.layout());
    const ConstrainedOperator ac(hop, constraints);
    for (const int k : {1, 8}) {
      EXPECT_EQ(ac.apply_flops_multi(k), hop.apply_flops_multi(k)) << k;
      EXPECT_EQ(ac.apply_bytes_multi(k), hop.apply_bytes_multi(k)) << k;
    }
  });
}

TEST(PanelModelTest, ArithmeticIntensityAtLeastDoublesByK8) {
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 6, .ny = 6, .nz = 8}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 1, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 1);
  simmpi::run(1, [&](Comm& comm) {
    const fem::PoissonOperator op(mesh::ElementType::kHex8);
    HymvOperator hop(comm, dist.parts[0], op);
    const auto ai = [&](int k) {
      return static_cast<double>(hop.apply_flops_multi(k)) /
             static_cast<double>(hop.apply_bytes_multi(k));
    };
    EXPECT_GE(ai(8), 2.0 * ai(1));  // the store streams once per panel
    EXPECT_GT(ai(2), ai(1));
    EXPECT_GT(ai(8), ai(2));
    // Flops are exactly linear in k.
    EXPECT_EQ(hop.apply_flops_multi(8), 8 * hop.apply_flops());
  });
}

// ---------------------------------------------------------------------------
// golden panel apply: the panel kernels must not move a bit across PRs
// ---------------------------------------------------------------------------

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

/// Default-options (kPadded, colored) panel apply on a fixed
/// problem; the full owned panel is hashed. Values captured from this
/// implementation; thread-count invariance means one hash per k.
void golden_panel_case(int k, std::uint64_t want) {
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
      HymvOperator hop(comm, dist.parts[0], op);
      DistMultiVector x(hop.layout(), k), y(hop.layout(), k);
      fill_panel(hop.layout(), x);
      hop.apply_multi(comm, x, y);
      EXPECT_EQ(fnv1a(y.values().data(), y.values().size()), want)
          << "k=" << k << " threads=" << threads << " actual=0x" << std::hex
          << fnv1a(y.values().data(), y.values().size());
    });
  }
  set_threads(1);
}

TEST(GoldenPanelTest, K1ApplyBitwiseUnchanged) {
  golden_panel_case(1, 0xf0783812668c8ab6ULL);
}
TEST(GoldenPanelTest, K2ApplyBitwiseUnchanged) {
  golden_panel_case(2, 0x157e445c4a25fe2aULL);
}
TEST(GoldenPanelTest, K8ApplyBitwiseUnchanged) {
  golden_panel_case(8, 0x7be6ef760df59a7dULL);
}

// ---------------------------------------------------------------------------
// cg_solve_multi vs independent per-lane solves
// ---------------------------------------------------------------------------

TEST(CgSolveMultiTest, MatchesIndependentSolvesPerLane) {
  simmpi::run(2, [](Comm& comm) {
    const std::int64_t local = 12;
    const Layout layout = Layout::from_owned_count(comm, local);
    const std::int64_t n = layout.global_size;
    DistCsrMatrix a(layout);
    for (std::int64_t g = layout.begin; g < layout.end_excl; ++g) {
      a.add_value(g, g, 2.5);
      if (g > 0) a.add_value(g, g - 1, -1.0);
      if (g < n - 1) a.add_value(g, g + 1, -1.0);
    }
    a.assemble(comm);
    JacobiPreconditioner jac(comm, a);

    // Lanes of very different difficulty: lane 2's rhs is scaled so the
    // relative targets coincide but trajectories differ, and lane 0 is
    // the zero rhs (instant convergence → deflated on entry).
    const int k = 3;
    DistMultiVector b(layout, k), x(layout, k);
    for (std::int64_t i = 0; i < local; ++i) {
      const auto g = static_cast<double>(layout.begin + i + 1);
      b.at(i, 0) = 0.0;
      b.at(i, 1) = std::sin(g);
      b.at(i, 2) = 40.0 * std::cos(0.7 * g);
    }
    const CgOptions opts{.rtol = 1e-10, .max_iters = 500};
    const std::vector<CgResult> multi = cg_solve_multi(comm, a, jac, b, x, opts);
    ASSERT_EQ(multi.size(), static_cast<std::size_t>(k));

    DistVector bl(layout), xl(layout);
    for (int j = 0; j < k; ++j) {
      b.get_lane(j, bl);
      xl.set_all(0.0);
      const CgResult single = cg_solve(comm, a, jac, bl, xl, opts);
      EXPECT_EQ(multi[static_cast<std::size_t>(j)].converged,
                single.converged)
          << "lane " << j;
      // Deflation freezes a lane the iteration after it converges, so the
      // shared iteration count can exceed a lane's standalone count by at
      // most the bookkeeping of that final frozen pass.
      EXPECT_NEAR(
          static_cast<double>(multi[static_cast<std::size_t>(j)].iterations),
          static_cast<double>(single.iterations), 1.0)
          << "lane " << j;
      for (std::int64_t i = 0; i < local; ++i) {
        EXPECT_NEAR(x.at(i, j), xl[i], 1e-9 * (1.0 + std::abs(xl[i])))
            << "lane " << j;
      }
    }
  });
}

TEST(CgSolveMultiTest, BreakdownLaneReportsAndOthersConverge) {
  simmpi::run(1, [](Comm& comm) {
    const Layout layout = Layout::from_owned_count(comm, 8);
    // Indefinite matrix: diag alternates sign → p·Ap ≤ 0 breakdown for any
    // nonzero rhs; but lane 1's rhs is zero, so it converges instantly.
    DistCsrMatrix a(layout);
    for (std::int64_t g = layout.begin; g < layout.end_excl; ++g) {
      a.add_value(g, g, (g % 2 == 0) ? 1.0 : -1.0);
    }
    a.assemble(comm);
    IdentityPreconditioner ident;
    DistMultiVector b(layout, 2), x(layout, 2);
    for (std::int64_t i = 0; i < 8; ++i) {
      b.at(i, 0) = 1.0;
      b.at(i, 1) = 0.0;
    }
    const auto results =
        cg_solve_multi(comm, a, ident, b, x, {.rtol = 1e-10, .max_iters = 50});
    EXPECT_TRUE(results[0].breakdown);
    EXPECT_FALSE(results[0].converged);
    EXPECT_TRUE(results[1].converged);
    for (std::int64_t i = 0; i < 8; ++i) {
      EXPECT_EQ(x.at(i, 1), 0.0);  // zero rhs lane stays exactly zero
    }
  });
}

}  // namespace
