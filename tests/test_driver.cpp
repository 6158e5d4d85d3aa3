// Tests for the driver layer: problem setup, rank contexts, backend
// factory, the SPMV measurement harness, and end-to-end solves with every
// backend × preconditioner combination (the paper's §V-B verification as
// an automated test).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "hymv/driver/driver.hpp"

namespace {

using namespace hymv;
using simmpi::Comm;

driver::ProblemSpec small_poisson() {
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kPoisson;
  spec.element = mesh::ElementType::kHex8;
  spec.box = {.nx = 6, .ny = 6, .nz = 6};
  return spec;
}

driver::ProblemSpec small_elasticity(mesh::ElementType element) {
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kElasticity;
  spec.element = element;
  spec.box = {.nx = 4, .ny = 4, .nz = 4, .lx = 1.0, .ly = 1.0, .lz = 1.0,
              .origin = {-0.5, -0.5, 0.0}};
  return spec;
}

TEST(ProblemSetupTest, BuildCountsMatchSpec) {
  const auto setup = driver::ProblemSetup::build(small_poisson(), 3);
  EXPECT_EQ(setup.total_elements, 216);
  EXPECT_EQ(setup.total_nodes, 343);
  EXPECT_EQ(setup.total_dofs(), 343);
  EXPECT_EQ(setup.nranks, 3);
  EXPECT_EQ(setup.dist.parts.size(), 3u);
}

TEST(ProblemSetupTest, ElasticityHasThreeDofs) {
  const auto setup =
      driver::ProblemSetup::build(small_elasticity(mesh::ElementType::kHex8),
                                  2);
  EXPECT_EQ(setup.total_dofs(), 3 * setup.total_nodes);
}

TEST(ProblemSetupTest, UnstructuredRequiresTets) {
  driver::ProblemSpec spec = small_poisson();
  spec.unstructured = true;  // but element is hex8
  EXPECT_THROW(driver::ProblemSetup::build(spec, 2), hymv::Error);
}

TEST(RankContextTest, ConstraintsCoverBoundaryOnly) {
  const auto setup = driver::ProblemSetup::build(small_poisson(), 2);
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    const std::int64_t local_constraints = ctx.constraints().size();
    const std::int64_t total = comm.allreduce<std::int64_t>(
        local_constraints, simmpi::ReduceOp::kSum);
    // 7³ nodes, 5³ interior.
    EXPECT_EQ(total, 343 - 125);
  });
}

TEST(RankContextTest, ExactDofMatchesAnalytic) {
  const auto setup = driver::ProblemSetup::build(small_poisson(), 1);
  simmpi::run(1, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    for (std::int64_t i = 0; i < 20; ++i) {
      const mesh::Point& x =
          ctx.part().owned_coords[static_cast<std::size_t>(i)];
      EXPECT_DOUBLE_EQ(ctx.exact_dof(i),
                       fem::PoissonManufactured::solution(x));
    }
  });
}

TEST(RankContextTest, RhsIsNonTrivial) {
  const auto setup = driver::ProblemSetup::build(small_poisson(), 2);
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    const pla::DistVector rhs = ctx.assemble_rhs(comm);
    EXPECT_GT(pla::norm2(comm, rhs), 0.0);
  });
}

TEST(BackendFactoryTest, GpuBackendsRequireDevice) {
  const auto setup = driver::ProblemSetup::build(small_poisson(), 1);
  simmpi::run(1, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    EXPECT_THROW(
        driver::make_backend(comm, ctx, driver::Backend::kHymvGpu, nullptr),
        hymv::Error);
  });
}

TEST(BackendFactoryTest, AllBackendsProduceSameApply) {
  const auto setup = driver::ProblemSetup::build(
      small_elasticity(mesh::ElementType::kHex8), 2);
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    gpu::Device device;
    std::vector<pla::DistVector> results;
    for (const auto backend :
         {driver::Backend::kAssembled, driver::Backend::kHymv,
          driver::Backend::kMatrixFree, driver::Backend::kHymvGpu,
          driver::Backend::kAssembledGpu}) {
      auto op = driver::make_backend(comm, ctx, backend, &device);
      pla::DistVector x(op->layout()), y(op->layout());
      for (std::int64_t i = 0; i < x.owned_size(); ++i) {
        x[i] = std::sin(static_cast<double>(op->layout().begin + i));
      }
      op->apply(comm, x, y);
      results.push_back(std::move(y));
    }
    for (std::size_t k = 1; k < results.size(); ++k) {
      for (std::int64_t i = 0; i < results[0].owned_size(); ++i) {
        ASSERT_NEAR(results[k][i], results[0][i],
                    1e-10 * (1.0 + std::abs(results[0][i])))
            << "backend " << k << " dof " << i;
      }
    }
  });
}

TEST(BackendFactoryTest, BuildersRunTheirArgumentsNotTheEnvironment) {
  // Every operator and preconditioner knob set to a non-default value:
  // build_backend and make_preconditioner must still run exactly what they
  // are given.
  const std::pair<const char*, const char*> knobs[] = {
      {"HYMV_STORE_LAYOUT", "fp32"},   {"HYMV_THREAD_SCHEDULE", "serial"},
      {"HYMV_APPLY_TASKGRAPH", "1"},   {"HYMV_SELL_C", "16"},
      {"HYMV_ADAPTIVE_PROBES", "0"},   {"HYMV_CHEB_EIG_ITERS", "1"}};
  for (const auto& [name, value] : knobs) {
    ASSERT_EQ(::setenv(name, value, 1), 0);
  }
  const auto setup = driver::ProblemSetup::build(small_poisson(), 2);
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    const core::HymvOptions given{.overlap = false,
                                  .schedule = core::ThreadSchedule::kColored,
                                  .layout = core::StoreLayout::kSymPacked};
    const driver::BuiltBackend hymv =
        driver::build_backend(comm, ctx, driver::Backend::kHymv, nullptr, {},
                              given);
    EXPECT_EQ(hymv.hymv_cpu->store().layout(), core::StoreLayout::kSymPacked);
    EXPECT_EQ(hymv.hymv_cpu->options().schedule,
              core::ThreadSchedule::kColored);
    EXPECT_FALSE(hymv.hymv_cpu->options().taskgraph);

    // The matrix-free backend gets the same options.
    const driver::BuiltBackend mf = driver::build_backend(
        comm, ctx, driver::Backend::kMatrixFree, nullptr, {}, given);
    const auto& mf_options =
        dynamic_cast<const core::MatrixFreeOperator&>(*mf.op).options();
    EXPECT_FALSE(mf_options.overlap);
    EXPECT_EQ(mf_options.schedule, core::ThreadSchedule::kColored);
    EXPECT_FALSE(mf_options.taskgraph);

    // kAdaptive runs its AdaptiveOptions over the HymvOptions.
    const driver::BuiltBackend adaptive = driver::build_backend(
        comm, ctx, driver::Backend::kAdaptive, nullptr, {}, given,
        {.force = "stored"});
    EXPECT_EQ(adaptive.adaptive->options().sell_c, 8);
    EXPECT_EQ(adaptive.adaptive->options().probes, 3);
    EXPECT_EQ(adaptive.adaptive->options().hymv.layout,
              core::StoreLayout::kSymPacked);
    EXPECT_EQ(adaptive.adaptive->stored_operator().store().layout(),
              core::StoreLayout::kSymPacked);

    // make_preconditioner's λ_max estimate follows its options' eig_iters.
    pla::ConstrainedOperator ac(*hymv.op, ctx.constraints());
    const auto lambda_max = [&](const pla::ChebyshevOptions& options) {
      const auto m = driver::make_preconditioner(
          comm, ctx, ac, driver::Precond::kChebyshev, false, options);
      return dynamic_cast<const pla::ChebyshevPreconditioner&>(*m)
          .lambda_max();
    };
    const pla::ChebyshevPreconditioner direct(comm, ac, {});
    EXPECT_EQ(lambda_max({}), direct.lambda_max());
    EXPECT_NE(lambda_max({.eig_iters = 1}), direct.lambda_max());
  });
  for (const auto& [name, value] : knobs) {
    ASSERT_EQ(::unsetenv(name), 0);
  }
}

TEST(MeasureSpmvTest, ReportsPopulated) {
  const auto setup = driver::ProblemSetup::build(small_poisson(), 2);
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    const driver::SpmvReport r =
        driver::measure_spmv(comm, ctx, driver::Backend::kHymv, 3);
    EXPECT_EQ(r.napplies, 3);
    EXPECT_GT(r.spmv_wall_s, 0.0);
    EXPECT_GT(r.setup.emat_compute_s, 0.0);
    EXPECT_GT(r.flops, 0);
    EXPECT_GT(r.bytes, 0);
    // Distributed run must have exchanged ghost data.
    EXPECT_GT(r.comm_bytes, 0);
  });
}

TEST(MeasureSpmvTest, AssembledReportsMigration) {
  const auto setup = driver::ProblemSetup::build(small_poisson(), 2);
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    const driver::SpmvReport r =
        driver::measure_spmv(comm, ctx, driver::Backend::kAssembled, 2);
    EXPECT_GE(r.setup.assembly_s, 0.0);
    EXPECT_GT(r.setup.comm_bytes, 0);  // setup migration happened
  });
}

TEST(MeasureSpmvTest, GpuModeledTimePositive) {
  const auto setup = driver::ProblemSetup::build(small_poisson(), 1);
  simmpi::run(1, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    gpu::Device device;
    driver::MeasureOptions options;
    options.device = &device;
    const driver::SpmvReport r = driver::measure_spmv(
        comm, ctx, driver::Backend::kHymvGpu, 2, options);
    EXPECT_GT(r.spmv_modeled_s, 0.0);
    EXPECT_GT(r.setup.gpu_upload_virtual_s, 0.0);
  });
}

// ---------------------------------------------------------------------------
// end-to-end solves (paper §V-B verification, automated)
// ---------------------------------------------------------------------------

struct SolveCase {
  driver::Backend backend;
  driver::Precond precond;
};

class SolveTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(SolveTest, PoissonManufacturedSolutionRecovered) {
  const SolveCase c = GetParam();
  const auto setup = driver::ProblemSetup::build(small_poisson(), 2);
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    gpu::Device device;
    driver::SolveOptions options;
    options.backend = c.backend;
    options.precond = c.precond;
    options.rtol = 1e-10;
    if (c.backend == driver::Backend::kHymvGpu ||
        c.backend == driver::Backend::kAssembledGpu) {
      options.device = &device;
    }
    const driver::SolveReport report = driver::solve_problem(comm, ctx,
                                                             options);
    EXPECT_TRUE(report.cg.converged);
    // 6³ hex8 mesh: discretization error ~ 1.3e-3; solver error far below.
    EXPECT_LT(report.err_inf, 2.5e-3);
    EXPECT_GT(report.err_inf, 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndPreconds, SolveTest,
    ::testing::Values(
        SolveCase{driver::Backend::kAssembled, driver::Precond::kNone},
        SolveCase{driver::Backend::kAssembled, driver::Precond::kJacobi},
        SolveCase{driver::Backend::kAssembled, driver::Precond::kBlockJacobi},
        SolveCase{driver::Backend::kHymv, driver::Precond::kNone},
        SolveCase{driver::Backend::kHymv, driver::Precond::kJacobi},
        SolveCase{driver::Backend::kHymv, driver::Precond::kBlockJacobi},
        SolveCase{driver::Backend::kMatrixFree, driver::Precond::kJacobi},
        SolveCase{driver::Backend::kHymvGpu, driver::Precond::kJacobi},
        SolveCase{driver::Backend::kHymvGpu, driver::Precond::kBlockJacobi},
        SolveCase{driver::Backend::kAssembledGpu, driver::Precond::kJacobi}));

TEST(SolveTest2, ElasticBarQuadraticElementsNodallyExact) {
  // hex20 reproduces the quadratic Timoshenko field to solver tolerance —
  // the paper's err < 1e-8 claim.
  const auto setup = driver::ProblemSetup::build(
      small_elasticity(mesh::ElementType::kHex20), 2);
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    const driver::SolveReport report = driver::solve_problem(
        comm, ctx,
        {.backend = driver::Backend::kHymv,
         .precond = driver::Precond::kBlockJacobi,
         .rtol = 1e-12,
         .max_iters = 50000});
    EXPECT_TRUE(report.cg.converged);
    EXPECT_LT(report.err_inf, 1e-8);
  });
}

TEST(SolveTest2, IterationCountsMatchAcrossBackends) {
  // The paper's Fig. 11 annotation: all methods take the same number of CG
  // iterations for a given preconditioner (they are the same operator).
  const auto setup = driver::ProblemSetup::build(
      small_elasticity(mesh::ElementType::kHex8), 2);
  std::vector<std::int64_t> iters;
  std::mutex mutex;
  for (const auto backend : {driver::Backend::kAssembled,
                             driver::Backend::kHymv,
                             driver::Backend::kMatrixFree}) {
    simmpi::run(2, [&](Comm& comm) {
      driver::RankContext ctx(comm, setup);
      const driver::SolveReport report = driver::solve_problem(
          comm, ctx,
          {.backend = backend, .precond = driver::Precond::kJacobi,
           .rtol = 1e-6});
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mutex);
        iters.push_back(report.cg.iterations);
      }
    });
  }
  ASSERT_EQ(iters.size(), 3u);
  EXPECT_EQ(iters[0], iters[1]);
  EXPECT_EQ(iters[0], iters[2]);
}

TEST(SolveTest2, BlockJacobiBeatsJacobiIterations) {
  const auto setup = driver::ProblemSetup::build(
      small_elasticity(mesh::ElementType::kHex8), 2);
  std::int64_t it_j = 0, it_bj = 0;
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    const auto rj = driver::solve_problem(
        comm, ctx,
        {.backend = driver::Backend::kHymv,
         .precond = driver::Precond::kJacobi, .rtol = 1e-8});
    const auto rb = driver::solve_problem(
        comm, ctx,
        {.backend = driver::Backend::kHymv,
         .precond = driver::Precond::kBlockJacobi, .rtol = 1e-8});
    if (comm.rank() == 0) {
      it_j = rj.cg.iterations;
      it_bj = rb.cg.iterations;
    }
  });
  EXPECT_LT(it_bj, it_j);
}

TEST(SolveTest2, UnstructuredTet10Poisson) {
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kPoisson;
  spec.element = mesh::ElementType::kTet10;
  spec.unstructured = true;
  spec.box = {.nx = 4, .ny = 4, .nz = 4};
  spec.partitioner = mesh::Partitioner::kGreedy;
  const auto setup = driver::ProblemSetup::build(spec, 3);
  simmpi::run(3, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    const driver::SolveReport report = driver::solve_problem(
        comm, ctx,
        {.backend = driver::Backend::kHymv,
         .precond = driver::Precond::kJacobi, .rtol = 1e-10});
    EXPECT_TRUE(report.cg.converged);
    // Quadratic tets on a coarse (4³ boxes) jittered mesh.
    EXPECT_LT(report.err_inf, 3e-3);
  });
}

}  // namespace
