// Task-graph dependent-phase apply (DESIGN.md §5g) and pipelined CG.
//
// The dependency-driven traversal replaces the two-phase forward_end
// barrier: each completed neighbor recv unlocks exactly the element blocks
// that neighbor gates. Its contract is BITWISE equality with the two-phase
// apply — the coloring invariant (no two same-color blocks share a DoF)
// makes within-color block order immaterial to the FP result — for every
// store layout, panel width, thread count, and arrival order (an
// adversarial delayed-ghost FaultPlan scrambles arrivals below). Pipelined
// CG (Ghysels & Vanroose) is pinned the same way the fused-kernel CG is:
// fixed iteration counts on a fixed problem plus an exact allreduce budget
// (ONE fused reduction per iteration, counted via the cg.allreduces
// counter). These tests carry the `threading` ctest label so a HYMV_TSAN
// build proves the unlock bookkeeping race-free (`ctest -L threading`).

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "hymv/core/adaptive_operator.hpp"
#include "hymv/core/hymv_operator.hpp"
#include "hymv/core/matrix_free_operator.hpp"
#include "hymv/core/taskgraph.hpp"
#include "hymv/driver/driver.hpp"
#include "hymv/driver/env_options.hpp"
#include "hymv/fem/operators.hpp"
#include "hymv/mesh/partition.hpp"
#include "hymv/mesh/structured.hpp"
#include "hymv/mesh/tet.hpp"
#include "hymv/pla/cg.hpp"
#include "hymv/pla/comm_tags.hpp"
#include "hymv/pla/dist_csr.hpp"
#include "hymv/pla/dist_multi_vector.hpp"
#include "hymv/pla/dist_vector.hpp"
#include "hymv/pla/preconditioner.hpp"

namespace {

using namespace hymv;
using core::HymvOperator;
using core::StoreLayout;
using simmpi::Comm;

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Partition a small hex or tet mesh across `ranks` parts.
mesh::DistributedMesh build_dist(int ranks, bool tet) {
  const mesh::Mesh m =
      tet ? mesh::build_unstructured_tet(
                {.box = {.nx = 4, .ny = 3, .nz = 3}, .jitter = 0.2, .seed = 7},
                mesh::ElementType::kTet4)
          : mesh::build_structured_hex({.nx = 5, .ny = 4, .nz = 4},
                                       mesh::ElementType::kHex8);
  const auto ids =
      mesh::partition_elements(m, ranks, mesh::Partitioner::kGreedy);
  return mesh::distribute_mesh(m, ids, ranks);
}

pla::DistVector seeded_input(const pla::Layout& layout) {
  pla::DistVector x(layout);
  for (std::int64_t i = 0; i < x.owned_size(); ++i) {
    x[i] = std::sin(0.7 * static_cast<double>(layout.begin + i));
  }
  return x;
}

void fill_panel(const pla::Layout& layout, pla::DistMultiVector& x) {
  for (int j = 0; j < x.width(); ++j) {
    for (std::int64_t i = 0; i < x.owned_size(); ++i) {
      x.at(i, j) = std::sin(0.7 * static_cast<double>(layout.begin + i) +
                            0.31 * static_cast<double>(j));
    }
  }
}

void expect_bitwise(const pla::DistVector& got, const pla::DistVector& want,
                    const char* what) {
  ASSERT_EQ(got.owned_size(), want.owned_size());
  for (std::int64_t i = 0; i < want.owned_size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " dof " << i;
  }
}

void expect_bitwise_panel(const pla::DistMultiVector& got,
                          const pla::DistMultiVector& want, const char* what) {
  ASSERT_EQ(got.values().size(), want.values().size());
  ASSERT_EQ(std::memcmp(got.values().data(), want.values().data(),
                        want.values().size() * sizeof(double)),
            0)
      << what;
}

std::int64_t unlocks_of(HymvOperator& op) {
  return op.metrics().counter("apply.taskgraph_unlocks").value();
}

/// The traversal loads every recv peer's ghost slice exactly once per
/// apply, so the unlock counter is EXACTLY applies x recv peers on every
/// rank (0 on a rank the partitioner gave no ghosts). The global sum must
/// be positive — some rank exercised the graph — which the caller checks
/// after the collective.
void expect_unlocks(Comm& comm, HymvOperator& op, std::int64_t applies) {
  const std::int64_t peers = op.maps().exchange().num_recv_peers();
  EXPECT_EQ(unlocks_of(op), applies * peers);
  EXPECT_GT(comm.allreduce(static_cast<double>(peers), simmpi::ReduceOp::kSum),
            0.0);
}

// ---------------------------------------------------------------------------
// Bitwise equivalence: task-graph vs two-phase, every layout x k in {1, 8}
// ---------------------------------------------------------------------------

class TaskGraphEquivalenceTest
    : public ::testing::TestWithParam<StoreLayout> {};

TEST_P(TaskGraphEquivalenceTest, BitwiseEqualsTwoPhaseApply) {
  const StoreLayout layout = GetParam();
  const auto dist = build_dist(2, /*tet=*/false);
  simmpi::run(2, [&](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::PoissonOperator op(mesh::ElementType::kHex8);

    // Two-phase reference (serial, overlap on — the default path).
    set_threads(1);
    HymvOperator ref(comm, part, op, {.use_openmp = false, .layout = layout});
    const pla::DistVector x = seeded_input(ref.layout());
    pla::DistVector y_ref(ref.layout());
    ref.apply(comm, x, y_ref);
    pla::DistMultiVector xp(ref.layout(), 8), yp_ref(ref.layout(), 8);
    fill_panel(ref.layout(), xp);
    ref.apply_multi(comm, xp, yp_ref);

    // Serial task-graph traversal.
    HymvOperator tg(comm, part, op,
                    {.use_openmp = false, .layout = layout, .taskgraph = true});
    pla::DistVector y(tg.layout());
    tg.apply(comm, x, y);
    expect_bitwise(y, y_ref, "serial taskgraph k=1");
    pla::DistMultiVector yp(tg.layout(), 8);
    tg.apply_multi(comm, xp, yp);
    expect_bitwise_panel(yp, yp_ref, "serial taskgraph k=8");
    expect_unlocks(comm, tg, 2);  // apply + apply_multi

#ifdef _OPENMP
    for (const int threads : {2, 4}) {
      set_threads(threads);
      HymvOperator tgt(
          comm, part, op,
          {.use_openmp = true, .layout = layout, .taskgraph = true});
      pla::DistVector yt(tgt.layout());
      tgt.apply(comm, x, yt);
      expect_bitwise(yt, y_ref, "threaded taskgraph k=1");
      pla::DistMultiVector ypt(tgt.layout(), 8);
      tgt.apply_multi(comm, xp, ypt);
      expect_bitwise_panel(ypt, yp_ref, "threaded taskgraph k=8");
      expect_unlocks(comm, tgt, 2);
    }
    set_threads(1);
#endif
  });
}

INSTANTIATE_TEST_SUITE_P(Sweep, TaskGraphEquivalenceTest,
                         ::testing::Values(StoreLayout::kPadded,
                                           StoreLayout::kInterleaved,
                                           StoreLayout::kSymPacked,
                                           StoreLayout::kFp32));

// Vector-valued elements on the unstructured tet mesh: 3 dof/node stresses
// the peer -> block gating at non-unit dof width.
TEST(TaskGraphEquivalenceExtraTest, ElasticityTetBitwise) {
  const auto dist = build_dist(2, /*tet=*/true);
  simmpi::run(2, [&](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::ElasticityOperator op(mesh::ElementType::kTet4, 100.0, 0.3);
    set_threads(1);
    HymvOperator ref(comm, part, op, {.use_openmp = false});
    const pla::DistVector x = seeded_input(ref.layout());
    pla::DistVector y_ref(ref.layout());
    ref.apply(comm, x, y_ref);

    HymvOperator tg(comm, part, op, {.use_openmp = false, .taskgraph = true});
    pla::DistVector y(tg.layout());
    tg.apply(comm, x, y);
    expect_bitwise(y, y_ref, "tet elasticity taskgraph");
    expect_unlocks(comm, tg, 1);
  });
}

TEST(TaskGraphEquivalenceExtraTest, MatrixFreeBitwise) {
  const auto dist = build_dist(2, /*tet=*/false);
  simmpi::run(2, [&](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::ElasticityOperator op(mesh::ElementType::kHex8, 100.0, 0.3);
    set_threads(1);
    core::MatrixFreeOperator ref(comm, part, op, {.use_openmp = false});
    const pla::DistVector x = seeded_input(ref.layout());
    pla::DistVector y_ref(ref.layout());
    ref.apply(comm, x, y_ref);
    pla::DistMultiVector xp(ref.layout(), 8), yp_ref(ref.layout(), 8);
    fill_panel(ref.layout(), xp);
    ref.apply_multi(comm, xp, yp_ref);

    core::MatrixFreeOperator tg(comm, part, op, {.use_openmp = false});
    tg.set_taskgraph(true);
    pla::DistVector y(tg.layout());
    tg.apply(comm, x, y);
    expect_bitwise(y, y_ref, "matrix-free taskgraph k=1");
    pla::DistMultiVector yp(tg.layout(), 8);
    tg.apply_multi(comm, xp, yp);
    expect_bitwise_panel(yp, yp_ref, "matrix-free taskgraph k=8");

#ifdef _OPENMP
    set_threads(4);
    core::MatrixFreeOperator tgt(comm, part, op);
    tgt.set_taskgraph(true);
    pla::DistVector yt(tgt.layout());
    tgt.apply(comm, x, yt);
    set_threads(1);
    expect_bitwise(yt, y_ref, "matrix-free threaded taskgraph");
#endif
  });
}

// ---------------------------------------------------------------------------
// The adaptive composite runs the same task graph
// ---------------------------------------------------------------------------

/// Forced to a backend whose dependent region runs element blocks, the
/// adaptive composite honours HymvOptions::taskgraph: its applies report
/// per-neighbor unlocks into the embedded operator's registry and return
/// the two-phase bits at 1 and 4 threads, for apply() and panels of 1 and
/// 8 lanes. Forced to SELL, which assembles its region, it keeps the
/// two-phase path and unlocks nothing.
TEST(TaskGraphAdaptiveTest, ForcedBackendsReturnTwoPhaseBits) {
  const auto dist = build_dist(2, /*tet=*/false);
  for (const char* force : {"stored", "matrixfree", "sell"}) {
    for (const int threads : {1, 4}) {
      simmpi::run(2, [&](Comm& comm) {
        set_threads(threads);
        const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
        const fem::PoissonOperator op(mesh::ElementType::kHex8);
        core::AdaptiveOperator ref(comm, part, op, {.force = force});
        core::AdaptiveOperator tg(
            comm, part, op, {.hymv = {.taskgraph = true}, .force = force});
        ASSERT_TRUE(tg.stored_operator().options().taskgraph);

        const pla::DistVector x = seeded_input(ref.layout());
        pla::DistVector y_ref(ref.layout()), y(tg.layout());
        ref.apply(comm, x, y_ref);
        tg.apply(comm, x, y);
        expect_bitwise(y, y_ref, force);
        for (const int k : {1, 8}) {
          pla::DistMultiVector xp(ref.layout(), k), yp_ref(ref.layout(), k),
              yp(tg.layout(), k);
          fill_panel(ref.layout(), xp);
          ref.apply_multi(comm, xp, yp_ref);
          tg.apply_multi(comm, xp, yp);
          expect_bitwise_panel(yp, yp_ref, force);
        }

        HymvOperator& stored = tg.stored_operator();
        if (std::strcmp(force, "sell") == 0) {
          EXPECT_EQ(unlocks_of(stored), 0);
        } else {
          expect_unlocks(comm, stored, 3);  // apply + two panels
        }
        set_threads(1);
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Adversarial arrival order: a delayed ghost message must not change a bit
// ---------------------------------------------------------------------------

// Delay the FIRST forward-exchange payload rank 1 sends (tag 1001) by 30 ms:
// every other neighbor's ghosts land first, the task graph drains them and
// runs their blocks, and rank 1's blocks unlock last — the opposite of the
// in-order arrival the equivalence sweep sees. The result must still be
// bitwise identical to the two-phase apply computed in the same run.
TEST(TaskGraphAdversarialTest, DelayedGhostKeepsApplyBitwise) {
  const auto dist = build_dist(4, /*tet=*/false);
  simmpi::RunOptions options;
  options.faults =
      simmpi::FaultPlan::parse("delay:src=1,tag=1001,ms=30,nth=1");
  simmpi::run(
      4,
      [&](Comm& comm) {
        const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
        const fem::PoissonOperator op(mesh::ElementType::kHex8);
        set_threads(1);
        HymvOperator ref(comm, part, op, {.use_openmp = false});
        const pla::DistVector x = seeded_input(ref.layout());
        pla::DistVector y_ref(ref.layout());
        ref.apply(comm, x, y_ref);

        HymvOperator tg(comm, part, op,
                        {.use_openmp = false, .taskgraph = true});
        pla::DistVector y(tg.layout());
        tg.apply(comm, x, y);
        expect_bitwise(y, y_ref, "delayed-ghost taskgraph");
        expect_unlocks(comm, tg, 1);
      },
      options);
}

// ---------------------------------------------------------------------------
// Env overrides and the tag registry
// ---------------------------------------------------------------------------

TEST(TaskGraphEnvTest, OverrideParsesAndKeepsFallbackOnGarbage) {
  const auto taskgraph_from_env = [](bool fallback) {
    return driver::hymv_options_from_env({.taskgraph = fallback}).taskgraph;
  };
  ::setenv("HYMV_APPLY_TASKGRAPH", "1", 1);
  EXPECT_TRUE(taskgraph_from_env(false));
  ::setenv("HYMV_APPLY_TASKGRAPH", "0", 1);
  EXPECT_FALSE(taskgraph_from_env(true));
  ::setenv("HYMV_APPLY_TASKGRAPH", "2", 1);  // warns, keeps fallback
  EXPECT_TRUE(taskgraph_from_env(true));
  EXPECT_FALSE(taskgraph_from_env(false));
  ::unsetenv("HYMV_APPLY_TASKGRAPH");
  EXPECT_TRUE(taskgraph_from_env(true));
}

TEST(CommTagsTest, RegistryIsConsistent) {
  using namespace hymv::pla::tags;
  // The structural invariants are static_asserts in comm_tags.hpp; this
  // pins the runtime helpers a fault spec or trace consumer relies on.
  EXPECT_EQ(data_stream_index(kForward), 0);
  EXPECT_EQ(data_stream_index(kReverse), 1);
  EXPECT_EQ(ctrl_tag_of(kForward), kForwardCtrl);
  EXPECT_EQ(ctrl_tag_of(kReverse), kReverseCtrl);
}

// ---------------------------------------------------------------------------
// Pipelined CG: pinned iterations, exact allreduce budget, recovery
// ---------------------------------------------------------------------------

/// The CgDetailTest 1D shifted Laplacian (2 ranks x 24 rows): standard CG
/// with the identity preconditioner converges in exactly 31 iterations at
/// rtol 1e-10.
pla::DistCsrMatrix laplacian_1d(Comm& comm, const pla::Layout& layout) {
  const std::int64_t n = layout.global_size;
  pla::DistCsrMatrix a(layout);
  for (std::int64_t g = layout.begin; g < layout.end_excl; ++g) {
    a.add_value(g, g, 2.5);
    if (g > 0) a.add_value(g, g - 1, -1.0);
    if (g < n - 1) a.add_value(g, g + 1, -1.0);
  }
  a.assemble(comm);
  return a;
}

TEST(PipelinedCgTest, SolvesAndPinsIterations) {
  simmpi::run(2, [](Comm& comm) {
    const pla::Layout layout = pla::Layout::from_owned_count(comm, 24);
    pla::DistCsrMatrix a = laplacian_1d(comm, layout);
    pla::DistVector xstar(layout), b(layout);
    for (std::int64_t i = 0; i < layout.owned(); ++i) {
      xstar[i] = std::sin(static_cast<double>(layout.begin + i + 1));
    }
    a.apply(comm, xstar, b);
    pla::IdentityPreconditioner ident;

    pla::DistVector x_std(layout);
    const pla::CgResult std_r = pla::cg_solve(comm, a, ident, b, x_std,
                                              {.rtol = 1e-10, .max_iters = 200});
    EXPECT_TRUE(std_r.converged);
    EXPECT_EQ(std_r.iterations, 31);  // the CgDetailTest pin

    pla::DistVector x_pipe(layout);
    const pla::CgResult pipe_r =
        pla::cg_solve(comm, a, ident, b, x_pipe,
                      {.rtol = 1e-10, .max_iters = 200, .pipelined = true});
    EXPECT_TRUE(pipe_r.converged);
    // Same Krylov space, different rounding: the count may drift from
    // standard CG by a few, but it must not drift silently across PRs.
    EXPECT_EQ(pipe_r.iterations, 31);
    pla::axpy(-1.0, xstar, x_pipe);
    EXPECT_LT(pla::norm_inf(comm, x_pipe), 1e-8);
  });
}

TEST(PipelinedCgTest, ExactlyOneAllreducePerIteration) {
  simmpi::run(2, [](Comm& comm) {
    const pla::Layout layout = pla::Layout::from_owned_count(comm, 24);
    pla::DistCsrMatrix a = laplacian_1d(comm, layout);
    pla::DistVector b(layout), x(layout);
    for (std::int64_t i = 0; i < layout.owned(); ++i) {
      b[i] = std::sin(static_cast<double>(layout.begin + i + 1));
    }
    pla::IdentityPreconditioner ident;
    obs::Counter& c = comm.metrics().counter("cg.allreduces");

    const std::int64_t before = c.value();
    const pla::CgResult r =
        pla::cg_solve(comm, a, ident, b, x,
                      {.rtol = 1e-10, .max_iters = 200, .pipelined = true});
    EXPECT_TRUE(r.converged);
    // Setup costs 3 reductions (bnorm, rnorm via the fused entry, and the
    // first fused triple); after that the loop performs exactly ONE fused
    // allreduce per iteration — the point of pipelining (standard CG: 3).
    EXPECT_EQ(c.value() - before, r.iterations + 3);

    // Standard CG on the same system for contrast: 3 setup reductions
    // (bnorm, rnorm, initial r.z) + 3 per iteration, minus the final r.z
    // the converging iteration never reaches — i.e. 3/iteration vs 1.
    x.set_all(0.0);
    const std::int64_t before_std = c.value();
    const pla::CgResult rs = pla::cg_solve(comm, a, ident, b, x,
                                           {.rtol = 1e-10, .max_iters = 200});
    EXPECT_TRUE(rs.converged);
    EXPECT_EQ(c.value() - before_std, 2 + 3 * rs.iterations);
  });
}

// Regression for the early-converged epilogue bug: a solve whose initial
// guess already satisfies the tolerance used to return before the counter
// publication, so cg.solves / cg.converged undercounted and the registry
// deltas (final_residual etc.) were never read back.
TEST(PipelinedCgTest, EarlyConvergedExitStillPublishesCounters) {
  simmpi::run(2, [](Comm& comm) {
    const pla::Layout layout = pla::Layout::from_owned_count(comm, 16);
    pla::DistCsrMatrix a = laplacian_1d(comm, layout);
    pla::DistVector xstar(layout), b(layout);
    for (std::int64_t i = 0; i < layout.owned(); ++i) {
      xstar[i] = std::cos(static_cast<double>(layout.begin + i));
    }
    a.apply(comm, xstar, b);
    pla::IdentityPreconditioner ident;

    for (const bool pipelined : {false, true}) {
      obs::Counter& solves = comm.metrics().counter("cg.solves");
      obs::Counter& conv = comm.metrics().counter("cg.converged");
      obs::Counter& reds = comm.metrics().counter("cg.allreduces");
      const std::int64_t s0 = solves.value();
      const std::int64_t c0 = conv.value();
      const std::int64_t r0 = reds.value();
      pla::DistVector x = xstar;  // exact start -> converges at iteration 0
      const pla::CgResult r = pla::cg_solve(comm, a, ident, b, x,
                                            {.rtol = 1e-8,
                                             .max_iters = 50,
                                             .pipelined = pipelined});
      EXPECT_TRUE(r.converged) << "pipelined=" << pipelined;
      EXPECT_EQ(r.iterations, 0);
      EXPECT_EQ(solves.value() - s0, 1) << "pipelined=" << pipelined;
      EXPECT_EQ(conv.value() - c0, 1) << "pipelined=" << pipelined;
      EXPECT_EQ(reds.value() - r0, 2);  // bnorm + initial rnorm, nothing else
    }
  });
}

TEST(PipelinedCgTest, CheckpointRollbackRecoversFromInjectedNan) {
  simmpi::run(1, [](Comm& comm) {
    const pla::Layout layout = pla::Layout::from_owned_count(comm, 48);
    pla::DistCsrMatrix a = laplacian_1d(comm, layout);
    pla::DistVector xstar(layout), b(layout);
    for (std::int64_t i = 0; i < layout.owned(); ++i) {
      xstar[i] = std::sin(static_cast<double>(i) * 0.4);
    }
    a.apply(comm, xstar, b);
    pla::IdentityPreconditioner ident;

    bool fired = false;
    pla::CgOptions options;
    options.rtol = 1e-10;
    options.max_iters = 400;
    options.pipelined = true;
    options.checkpoint_every = 4;
    options.true_residual_every = 10;
    options.fault_hook = [&](std::int64_t it, pla::DistVector& /*x*/,
                             pla::DistVector& r) {
      if (it == 6 && !fired) {
        fired = true;
        r[0] = std::numeric_limits<double>::quiet_NaN();
      }
    };
    pla::DistVector x(layout);
    const pla::CgResult r = pla::cg_solve(comm, a, ident, b, x, options);
    EXPECT_TRUE(fired);
    EXPECT_TRUE(r.converged);
    EXPECT_GE(r.rollbacks, 1);
    EXPECT_GE(r.checkpoints_taken, 1);
    EXPECT_GE(r.residual_replacements, 1);
    pla::axpy(-1.0, xstar, x);
    EXPECT_LT(pla::norm_inf(comm, x), 1e-7);
  });
}

TEST(PipelinedCgTest, EnvOverrideSelectsThePipelinedPath) {
  // The driver resolves the knob at solve entry; pla reads no environment.
  // setenv happens OUTSIDE simmpi::run — ranks are threads and the
  // environment is process-global.
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kElasticity;
  spec.box = {.nx = 4, .ny = 4, .nz = 4};
  const driver::SolveOptions options{.rtol = 1e-8};
  const auto setup2 = driver::ProblemSetup::build(spec, 2);
  ::setenv("HYMV_CG_PIPELINED", "1", 1);
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup2);
    obs::Counter& c = comm.metrics().counter("cg.allreduces");
    const std::int64_t before = c.value();
    // options say standard; the env flips the solve to pipelined, which
    // the allreduce budget proves (standard would cost 2 + 3/iter).
    const driver::SolveReport report =
        driver::solve_problem(comm, ctx, options);
    EXPECT_TRUE(report.cg.converged);
    EXPECT_EQ(c.value() - before, report.cg.iterations + 3);

    // A direct pla::cg_solve ignores the environment and stays standard.
    const pla::Layout layout = pla::Layout::from_owned_count(comm, 24);
    pla::DistCsrMatrix a = laplacian_1d(comm, layout);
    pla::DistVector b(layout), x(layout);
    for (std::int64_t i = 0; i < layout.owned(); ++i) {
      b[i] = std::sin(static_cast<double>(layout.begin + i + 1));
    }
    pla::IdentityPreconditioner ident;
    const std::int64_t before_direct = c.value();
    const pla::CgResult r =
        pla::cg_solve(comm, a, ident, b, x, {.rtol = 1e-10, .max_iters = 200});
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(c.value() - before_direct, 2 + 3 * r.iterations);
  });
  ::setenv("HYMV_CG_PIPELINED", "7", 1);  // garbage: warn, keep standard CG
  const auto setup1 = driver::ProblemSetup::build(spec, 1);
  simmpi::run(1, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup1);
    obs::Counter& c = comm.metrics().counter("cg.allreduces");
    const std::int64_t before = c.value();
    const driver::SolveReport report =
        driver::solve_problem(comm, ctx, options);
    EXPECT_TRUE(report.cg.converged);
    EXPECT_EQ(c.value() - before,
              2 + 3 * report.cg.iterations);  // stayed standard
  });
  ::unsetenv("HYMV_CG_PIPELINED");
}

}  // namespace
