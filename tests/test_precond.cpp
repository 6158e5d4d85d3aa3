// Tests for the preconditioner suite (paper §V-F extensions): Chebyshev
// polynomial and geometric multigrid preconditioners, the singular-diagonal
// fallback policy of the Jacobi family, the zero-RHS relative-residual
// convention of the Krylov solvers, mixed-precision (fp32) preconditioner
// state, and determinism (serial-vs-threaded bitwise identity, rank-count
// tolerance invariance).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "hymv/driver/driver.hpp"
#include "hymv/driver/env_options.hpp"
#include "hymv/pla/bicgstab.hpp"
#include "hymv/pla/cg.hpp"
#include "hymv/pla/chebyshev.hpp"
#include "hymv/pla/constraints.hpp"
#include "hymv/pla/dist_csr.hpp"
#include "hymv/pla/multigrid.hpp"
#include "hymv/pla/preconditioner.hpp"

namespace {

using namespace hymv;
using simmpi::Comm;

// ---------------------------------------------------------------------------
// zero-RHS convention (regression: used to divide by ‖b‖ = 0)
// ---------------------------------------------------------------------------

pla::DistCsrMatrix laplacian_1d(Comm& comm, const pla::Layout& layout) {
  pla::DistCsrMatrix a(layout);
  const std::int64_t n = layout.global_size;
  for (std::int64_t g = layout.begin; g < layout.end_excl; ++g) {
    a.add_value(g, g, 2.0);
    if (g > 0) a.add_value(g, g - 1, -1.0);
    if (g < n - 1) a.add_value(g, g + 1, -1.0);
  }
  a.assemble(comm);
  return a;
}

TEST(ZeroRhsTest, CgConvergedReportsZeroRelativeResidual) {
  simmpi::run(2, [](Comm& comm) {
    const pla::Layout layout = pla::Layout::from_owned_count(comm, 4);
    pla::DistCsrMatrix a = laplacian_1d(comm, layout);
    pla::IdentityPreconditioner ident;
    pla::DistVector b(layout), x(layout);  // b = 0, x0 = 0 → exact solution
    const pla::CgResult r = pla::cg_solve(comm, a, ident, b, x,
                                          {.rtol = 1e-10});
    EXPECT_TRUE(r.converged);
    // The convention: a converged zero-RHS solve reports 0, not 0/0.
    EXPECT_EQ(r.relative_residual, 0.0);
    EXPECT_EQ(r.final_residual, 0.0);
    for (std::int64_t i = 0; i < layout.owned(); ++i) {
      EXPECT_EQ(x[i], 0.0);
    }
  });
}

TEST(ZeroRhsTest, CgNotConvergedReportsAbsoluteResidual) {
  simmpi::run(2, [](Comm& comm) {
    const pla::Layout layout = pla::Layout::from_owned_count(comm, 4);
    pla::DistCsrMatrix a = laplacian_1d(comm, layout);
    pla::IdentityPreconditioner ident;
    pla::DistVector b(layout), x(layout);
    x.set_all(1.0);  // b = 0 but x0 ≠ 0: r0 = -A·x0 ≠ 0
    const pla::CgResult r = pla::cg_solve(comm, a, ident, b, x,
                                          {.rtol = 1e-10, .max_iters = 0});
    EXPECT_FALSE(r.converged);
    // Not converged: relative_residual degrades to the absolute ‖r‖ so the
    // failure magnitude is visible (not NaN, not inf).
    EXPECT_TRUE(std::isfinite(r.relative_residual));
    EXPECT_GT(r.relative_residual, 0.0);
    EXPECT_DOUBLE_EQ(r.relative_residual, r.final_residual);
  });
}

TEST(ZeroRhsTest, PipelinedCgConvergedReportsZero) {
  simmpi::run(2, [](Comm& comm) {
    const pla::Layout layout = pla::Layout::from_owned_count(comm, 4);
    pla::DistCsrMatrix a = laplacian_1d(comm, layout);
    pla::IdentityPreconditioner ident;
    pla::DistVector b(layout), x(layout);
    const pla::CgResult r = pla::cg_solve(comm, a, ident, b, x,
                                          {.rtol = 1e-10, .pipelined = true});
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.relative_residual, 0.0);
  });
}

TEST(ZeroRhsTest, BicgstabConvergedReportsZero) {
  simmpi::run(2, [](Comm& comm) {
    const pla::Layout layout = pla::Layout::from_owned_count(comm, 4);
    pla::DistCsrMatrix a = laplacian_1d(comm, layout);
    pla::IdentityPreconditioner ident;
    pla::DistVector b(layout), x(layout);
    const pla::CgResult r = pla::bicgstab_solve(comm, a, ident, b, x,
                                                {.rtol = 1e-10});
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.relative_residual, 0.0);
  });
}

// ---------------------------------------------------------------------------
// singular-diagonal policy (regression: used to divide by a zero diagonal)
// ---------------------------------------------------------------------------

/// diag(2, 0, 3, 4) — row 1 is singular.
pla::DistCsrMatrix singular_diag_matrix(Comm& comm,
                                        const pla::Layout& layout) {
  pla::DistCsrMatrix a(layout);
  const double diag[4] = {2.0, 0.0, 3.0, 4.0};
  for (std::int64_t g = layout.begin; g < layout.end_excl; ++g) {
    a.add_value(g, g, diag[g]);
  }
  a.assemble(comm);
  return a;
}

TEST(SingularDiagTest, JacobiFallsBackToIdentityAndCounts) {
  simmpi::run(1, [](Comm& comm) {
    const pla::Layout layout = pla::Layout::from_owned_count(comm, 4);
    pla::DistCsrMatrix a = singular_diag_matrix(comm, layout);
    pla::JacobiPreconditioner m(comm, a);
    EXPECT_EQ(comm.metrics().counter("precond.singular_rows").value(), 1);
    pla::DistVector r(layout), z(layout);
    r.set_all(1.0);
    m.apply(comm, r, z);
    EXPECT_DOUBLE_EQ(z[0], 0.5);
    EXPECT_DOUBLE_EQ(z[1], 1.0);  // identity fallback, not inf
    EXPECT_DOUBLE_EQ(z[2], 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(z[3], 0.25);
  });
}

TEST(SingularDiagTest, JacobiStrictThrows) {
  simmpi::run(1, [](Comm& comm) {
    const pla::Layout layout = pla::Layout::from_owned_count(comm, 4);
    pla::DistCsrMatrix a = singular_diag_matrix(comm, layout);
    EXPECT_THROW(pla::JacobiPreconditioner(comm, a, /*strict=*/true),
                 hymv::Error);
  });
}

TEST(SingularDiagTest, NodeBlockJacobiFallsBackPerBlock) {
  simmpi::run(1, [](Comm& comm) {
    const pla::Layout layout = pla::Layout::from_owned_count(comm, 4);
    // ndof = 2: node 0 block diag(2, 2); node 1 block all zero.
    pla::DistCsrMatrix a(layout);
    a.add_value(0, 0, 2.0);
    a.add_value(1, 1, 2.0);
    a.add_value(2, 2, 0.0);
    a.add_value(3, 3, 0.0);
    a.assemble(comm);
    pla::NodeBlockJacobiPreconditioner m(comm, a, /*ndof=*/2);
    // The whole singular block counts: both of node 1's rows.
    EXPECT_EQ(comm.metrics().counter("precond.singular_rows").value(), 2);
    pla::DistVector r(layout), z(layout);
    r.set_all(1.0);
    m.apply(comm, r, z);
    EXPECT_DOUBLE_EQ(z[0], 0.5);
    EXPECT_DOUBLE_EQ(z[1], 0.5);
    EXPECT_DOUBLE_EQ(z[2], 1.0);  // identity fallback on the zero block
    EXPECT_DOUBLE_EQ(z[3], 1.0);
  });
}

TEST(SingularDiagTest, NodeBlockJacobiStrictThrows) {
  simmpi::run(1, [](Comm& comm) {
    const pla::Layout layout = pla::Layout::from_owned_count(comm, 4);
    pla::DistCsrMatrix a(layout);
    for (std::int64_t g = 0; g < 4; ++g) {
      a.add_value(g, g, g < 2 ? 2.0 : 0.0);
    }
    a.assemble(comm);
    EXPECT_THROW(
        pla::NodeBlockJacobiPreconditioner(comm, a, /*ndof=*/2,
                                           /*strict=*/true),
        hymv::Error);
  });
}

// ---------------------------------------------------------------------------
// driver-level solves with the new preconditioners
// ---------------------------------------------------------------------------

driver::ProblemSpec poisson_spec(std::int64_t n) {
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kPoisson;
  spec.element = mesh::ElementType::kHex8;
  spec.box = {.nx = n, .ny = n, .nz = n};
  return spec;
}

driver::ProblemSpec elasticity_spec(mesh::ElementType element,
                                    std::int64_t n) {
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kElasticity;
  spec.element = element;
  spec.box = {.nx = n, .ny = n, .nz = n, .lx = 1.0, .ly = 1.0, .lz = 1.0,
              .origin = {-0.5, -0.5, 0.0}};
  return spec;
}

std::int64_t solve_iters(const driver::ProblemSetup& setup, int nranks,
                         driver::Precond precond, double* err = nullptr,
                         bool fp32 = false) {
  std::int64_t iters = -1;
  std::mutex mutex;
  simmpi::run(nranks, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    const driver::SolveReport report = driver::solve_problem(
        comm, ctx,
        {.backend = driver::Backend::kAssembled, .precond = precond,
         .precond_fp32 = fp32, .rtol = 1e-8});
    EXPECT_TRUE(report.cg.converged)
        << "precond=" << driver::precond_name(precond);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      iters = report.cg.iterations;
      if (err != nullptr) *err = report.err_inf;
    }
  });
  return iters;
}

TEST(ChebyshevSolveTest, ConvergesAndBeatsJacobiIterations) {
  // Iteration comparisons need elasticity: the Poisson manufactured RHS is
  // a discrete eigenvector of the Jacobi-scaled stencil, so Jacobi-CG
  // converges there in one iteration regardless of the preconditioner.
  const auto setup = driver::ProblemSetup::build(
      elasticity_spec(mesh::ElementType::kHex8, 6), 2);
  const std::int64_t it_j = solve_iters(setup, 2, driver::Precond::kJacobi);
  const std::int64_t it_c =
      solve_iters(setup, 2, driver::Precond::kChebyshev);
  EXPECT_GT(it_j, 0);
  EXPECT_GT(it_c, 0);
  // Degree-3 Chebyshev trades operator applies for outer iterations.
  EXPECT_LT(it_c, it_j);
}

TEST(ChebyshevSolveTest, Fp32StateStillConverges) {
  const auto setup = driver::ProblemSetup::build(poisson_spec(6), 2);
  double err = 0.0;
  const std::int64_t it = solve_iters(setup, 2, driver::Precond::kChebyshev,
                                      &err, /*fp32=*/true);
  EXPECT_GT(it, 0);
  EXPECT_LT(err, 2.5e-3);
}

TEST(MultigridSolveTest, PoissonConvergesInFewIterations) {
  // 14³ elements → 15³ = 3375 DoFs: above the 2000-DoF coarsening floor,
  // so the hierarchy has a genuine coarse level. (No Jacobi comparison
  // here — the Poisson manufactured RHS is a discrete eigenvector of the
  // Jacobi-scaled stencil, so Jacobi-CG converges in one iteration.)
  const auto setup = driver::ProblemSetup::build(poisson_spec(14), 2);
  double err_mg = 0.0;
  const std::int64_t it_mg =
      solve_iters(setup, 2, driver::Precond::kMultigrid, &err_mg);
  EXPECT_GT(it_mg, 0);
  EXPECT_LE(it_mg, 10);     // a working V-cycle needs only a handful
  EXPECT_LT(err_mg, 1e-3);  // 14³ hex8 discretization error bound
}

TEST(MultigridSolveTest, QuadraticElasticityConverges) {
  const auto setup =
      driver::ProblemSetup::build(elasticity_spec(mesh::ElementType::kHex20,
                                                  4), 2);
  std::int64_t it_mg = -1;
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    const driver::SolveReport report = driver::solve_problem(
        comm, ctx,
        {.backend = driver::Backend::kHymv,
         .precond = driver::Precond::kMultigrid,
         .rtol = 1e-10, .max_iters = 50000});
    EXPECT_TRUE(report.cg.converged);
    EXPECT_LT(report.err_inf, 1e-6);
    if (comm.rank() == 0) it_mg = report.cg.iterations;
  });
  const std::int64_t it_j = solve_iters(setup, 2, driver::Precond::kJacobi);
  EXPECT_GT(it_mg, 0);
  EXPECT_LT(it_mg, it_j);
}

TEST(MultigridSolveTest, Fp32StateStillConverges) {
  const auto setup = driver::ProblemSetup::build(poisson_spec(14), 2);
  double err = 0.0;
  const std::int64_t it = solve_iters(setup, 2, driver::Precond::kMultigrid,
                                      &err, /*fp32=*/true);
  EXPECT_GT(it, 0);
  EXPECT_LT(err, 1e-3);
}

TEST(MultigridSolveTest, RankCountInvarianceWithinTolerance) {
  // NOT bitwise: distribute_mesh renumbers nodes per rank count, so the
  // global ordering (and CG rounding) differs. The hierarchy itself is
  // rank-replicated, so iteration counts must agree within a small delta
  // and both solves must hit the discretization error.
  std::int64_t iters[2] = {0, 0};
  double errs[2] = {0.0, 0.0};
  int idx = 0;
  for (const int p : {1, 3}) {
    const auto setup = driver::ProblemSetup::build(poisson_spec(14), p);
    iters[idx] = solve_iters(setup, p, driver::Precond::kMultigrid,
                             &errs[idx]);
    ++idx;
  }
  EXPECT_LE(std::abs(iters[0] - iters[1]), 3);
  EXPECT_LT(errs[0], 1e-3);
  EXPECT_LT(errs[1], 1e-3);
}

// ---------------------------------------------------------------------------
// V-cycle convergence factor (the multigrid quality bar)
// ---------------------------------------------------------------------------

TEST(MultigridQualityTest, VCycleConvergenceFactorOnPoisson) {
  const auto setup = driver::ProblemSetup::build(poisson_spec(14), 1);
  simmpi::run(1, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    auto built = driver::build_backend(comm, ctx,
                                       driver::Backend::kAssembled);
    pla::ConstrainedOperator ac(*built.op, ctx.constraints());
    auto m = driver::make_preconditioner(comm, ctx, ac,
                                         driver::Precond::kMultigrid);
    auto* mg = dynamic_cast<pla::GeometricMultigridPreconditioner*>(m.get());
    ASSERT_NE(mg, nullptr);
    EXPECT_GE(mg->num_levels(), 2);
    EXPECT_LE(mg->coarse_dofs(), 2000);

    // Richardson iteration x ← x + M⁻¹(b − Âx): the residual contracts by
    // the V-cycle's convergence factor each step.
    const pla::Layout layout = ac.layout();
    pla::DistVector x(layout), b(layout), r(layout), z(layout), ax(layout);
    for (std::int64_t i = 0; i < layout.owned(); ++i) {
      b[i] = std::sin(0.3 * static_cast<double>(layout.begin + i + 1));
    }
    pla::copy(b, r);
    const double r0 = pla::norm2(comm, r);
    ASSERT_GT(r0, 0.0);
    const int kIters = 8;
    double rk = r0;
    for (int k = 0; k < kIters; ++k) {
      mg->apply(comm, r, z);
      pla::axpy(1.0, z, x);
      ac.apply(comm, x, ax);
      pla::copy(b, r);
      pla::axpy(-1.0, ax, r);
      rk = pla::norm2(comm, r);
    }
    const double factor = std::pow(rk / r0, 1.0 / kIters);
    EXPECT_LT(factor, 0.5) << "V-cycle convergence factor too weak";
  });
}

// ---------------------------------------------------------------------------
// determinism: serial vs threaded apply is bitwise identical
// ---------------------------------------------------------------------------

#ifdef _OPENMP
TEST(DeterminismTest, ChebyshevApplyBitwiseThreadInvariant) {
  // 15³ = 3375 rows — above the kOmpMinRows threshold, so the threaded
  // path actually runs.
  const auto setup = driver::ProblemSetup::build(poisson_spec(14), 1);
  simmpi::run(1, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    auto built = driver::build_backend(comm, ctx,
                                       driver::Backend::kAssembled);
    pla::ConstrainedOperator ac(*built.op, ctx.constraints());
    pla::ChebyshevPreconditioner cheb(comm, ac);
    const pla::Layout layout = ac.layout();
    pla::DistVector r(layout), z1(layout), z4(layout);
    for (std::int64_t i = 0; i < layout.owned(); ++i) {
      r[i] = std::cos(0.1 * static_cast<double>(i));
    }
    const int saved = omp_get_max_threads();
    omp_set_num_threads(1);
    cheb.apply(comm, r, z1);
    omp_set_num_threads(saved > 1 ? saved : 4);
    cheb.apply(comm, r, z4);
    omp_set_num_threads(saved);
    for (std::int64_t i = 0; i < layout.owned(); ++i) {
      EXPECT_EQ(z1[i], z4[i]) << "i=" << i;
    }
  });
}

TEST(DeterminismTest, MultigridApplyBitwiseThreadInvariant) {
  const auto setup = driver::ProblemSetup::build(poisson_spec(14), 1);
  simmpi::run(1, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    auto built = driver::build_backend(comm, ctx,
                                       driver::Backend::kAssembled);
    pla::ConstrainedOperator ac(*built.op, ctx.constraints());
    auto m = driver::make_preconditioner(comm, ctx, ac,
                                         driver::Precond::kMultigrid);
    const pla::Layout layout = ac.layout();
    pla::DistVector r(layout), z1(layout), z4(layout);
    for (std::int64_t i = 0; i < layout.owned(); ++i) {
      r[i] = std::cos(0.1 * static_cast<double>(i));
    }
    const int saved = omp_get_max_threads();
    omp_set_num_threads(1);
    m->apply(comm, r, z1);
    omp_set_num_threads(saved > 1 ? saved : 4);
    m->apply(comm, r, z4);
    omp_set_num_threads(saved);
    for (std::int64_t i = 0; i < layout.owned(); ++i) {
      EXPECT_EQ(z1[i], z4[i]) << "i=" << i;
    }
  });
}
#endif  // _OPENMP

// ---------------------------------------------------------------------------
// env plumbing
// ---------------------------------------------------------------------------

TEST(PrecondEnvTest, NamesRoundTrip) {
  EXPECT_STREQ(driver::precond_name(driver::Precond::kNone), "none");
  EXPECT_STREQ(driver::precond_name(driver::Precond::kJacobi), "jacobi");
  EXPECT_STREQ(driver::precond_name(driver::Precond::kChebyshev),
               "chebyshev");
  EXPECT_STREQ(driver::precond_name(driver::Precond::kMultigrid),
               "multigrid");
}

TEST(PrecondEnvTest, ChebyshevOptionsValidateRanges) {
  // The edge resolver keeps the fallback when the variable is unset.
  pla::ChebyshevOptions fallback;
  fallback.degree = 5;
  EXPECT_EQ(driver::chebyshev_options_from_env(fallback).degree, 5);
  pla::MultigridOptions mfall;
  mfall.sweeps = 2;
  const pla::MultigridOptions mopt = driver::multigrid_options_from_env(mfall);
  EXPECT_EQ(mopt.sweeps, 2);

  // In range it applies the value; out of range it warns and keeps the
  // fallback.
  ASSERT_EQ(setenv("HYMV_CHEB_DEGREE", "64", 1), 0);
  ASSERT_EQ(setenv("HYMV_MG_SWEEPS", "9", 1), 0);
  ASSERT_EQ(setenv("HYMV_MG_SMOOTHER", "jacobi", 1), 0);
  EXPECT_EQ(driver::chebyshev_options_from_env(fallback).degree, 64);
  const pla::MultigridOptions mset = driver::multigrid_options_from_env(mfall);
  EXPECT_EQ(mset.sweeps, 2);
  EXPECT_EQ(mset.smoother, pla::MultigridOptions::Smoother::kJacobi);
  ASSERT_EQ(setenv("HYMV_CHEB_DEGREE", "65", 1), 0);
  EXPECT_EQ(driver::chebyshev_options_from_env(fallback).degree, 5);

  // The ratio must exceed 1; a rejected value prints the one env format
  // with the text as given.
  fallback.eig_ratio = 10.0;
  ASSERT_EQ(setenv("HYMV_CHEB_EIG_RATIO", "4.5", 1), 0);
  EXPECT_EQ(driver::chebyshev_options_from_env(fallback).eig_ratio, 4.5);
  ASSERT_EQ(setenv("HYMV_CHEB_EIG_RATIO", "1.0", 1), 0);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(driver::chebyshev_options_from_env(fallback).eig_ratio, 10.0);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                "hymv: ignoring HYMV_CHEB_EIG_RATIO='1.0' (expected a number "
                "> 1); using fallback\n"),
            std::string::npos);
  for (const char* name : {"HYMV_CHEB_DEGREE", "HYMV_CHEB_EIG_RATIO",
                           "HYMV_MG_SWEEPS", "HYMV_MG_SMOOTHER"}) {
    ASSERT_EQ(unsetenv(name), 0);
  }
}

}  // namespace
