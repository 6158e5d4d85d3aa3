// Unit tests of the benchmark's own C++ pieces: the correctness gates (each
// must fail on a perturbed result the library really produced), the
// tracer's span nesting, and the seeded load generator.
//
//   cmake --build <build-dir> --target perfbench_tests && <build-dir>/perfbench_tests

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "bench.hpp"
#include "hymv/core/assembly.hpp"

namespace {

using namespace hymv;
using perfbench::check_reply;
using perfbench::check_solve;
using perfbench::check_spmv;

driver::ProblemSpec small_spec(driver::Pde pde, mesh::ElementType element) {
  driver::ProblemSpec spec;
  spec.pde = pde;
  spec.element = element;
  spec.box = {.nx = 4, .ny = 4, .nz = 4, .lx = 1.0, .ly = 1.0, .lz = 1.0,
              .origin = {0.0, 0.0, 0.0}};
  return spec;
}

TEST(Gates, SpmvToleranceIsTheKokkosBound) {
  EXPECT_DOUBLE_EQ(perfbench::spmv_tolerance(81, 2.0, 0.5),
                   std::numeric_limits<double>::epsilon() * 81.0);
}

TEST(Gates, SpmvGateFailsOnAPerturbedHymvProduct) {
  const driver::ProblemSpec spec =
      small_spec(driver::Pde::kElasticity, mesh::ElementType::kHex20);
  const driver::ProblemSetup setup = driver::ProblemSetup::build(spec, 1);
  simmpi::run(1, [&](simmpi::Comm& comm) {
    driver::RankContext ctx(comm, setup);
    driver::BuiltBackend built =
        driver::build_backend(comm, ctx, driver::Backend::kHymv);
    const core::AssembledSetup assembled =
        core::build_assembled_matrix(comm, ctx.part(), ctx.element_op());
    const pla::CsrMatrix& a = assembled.matrix->diag_block();
    std::int64_t max_row_len = 0;
    for (std::int64_t r = 0; r < a.num_rows(); ++r) {
      max_row_len = std::max(max_row_len, a.row_ptr()[r + 1] - a.row_ptr()[r]);
    }
    double max_abs_a = 0.0;
    for (const double v : a.values()) {
      max_abs_a = std::max(max_abs_a, std::abs(v));
    }
    pla::DistVector x(built.op->layout());
    pla::DistVector y(built.op->layout());
    perfbench::Load load(7, 1);
    for (std::int64_t i = 0; i < x.owned_size(); ++i) {
      x[i] = load.uniform(-1.0, 1.0);
    }
    built.op->apply(comm, x, y);
    std::vector<double> ref(y.values().size());
    a.spmv(x.values(), ref);
    const double tol = perfbench::spmv_tolerance(max_row_len, max_abs_a, 1.0);
    EXPECT_EQ(check_spmv(y.values(), ref, tol), "");

    y[3] += 100.0 * tol;
    EXPECT_NE(check_spmv(y.values(), ref, tol), "");
    y[3] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_NE(check_spmv(y.values(), ref, tol), "");
    EXPECT_NE(check_spmv(std::span<const double>(ref).first(5), ref, tol), "");
  });
}

TEST(Gates, SolveGateFailsOnAPerturbedSolution) {
  const driver::ProblemSpec spec =
      small_spec(driver::Pde::kElasticity, mesh::ElementType::kHex8);
  const driver::ProblemSetup setup = driver::ProblemSetup::build(spec, 1);
  simmpi::run(1, [&](simmpi::Comm& comm) {
    driver::RankContext ctx(comm, setup);
    driver::BuiltBackend built =
        driver::build_backend(comm, ctx, driver::Backend::kHymv);
    pla::ConstrainedOperator a(*built.op, ctx.constraints());
    pla::DistVector b = ctx.assemble_rhs(comm);
    pla::apply_constraints_to_rhs(comm, *built.op, ctx.constraints(), b);
    pla::JacobiPreconditioner m(comm, a);
    pla::DistVector u(a.layout());
    const double rtol = 1e-3;
    const pla::CgResult cg = pla::cg_solve(comm, a, m, b, u, {.rtol = rtol});
    const auto true_residual = [&] {
      pla::DistVector r(a.layout());
      a.apply(comm, u, r);
      for (std::int64_t i = 0; i < r.owned_size(); ++i) {
        r[i] = b[i] - r[i];
      }
      return pla::norm2(comm, r) / pla::norm2(comm, b);
    };
    EXPECT_EQ(check_solve(cg, true_residual(), rtol), "");

    pla::CgResult unconverged = cg;
    unconverged.converged = false;
    EXPECT_NE(check_solve(unconverged, true_residual(), rtol), "");
    for (std::int64_t i = 0; i < u.owned_size(); ++i) {
      u[i] *= 1.5;
    }
    EXPECT_NE(check_solve(cg, true_residual(), rtol), "");
    EXPECT_NE(check_solve(cg, std::numeric_limits<double>::quiet_NaN(), rtol),
              "");
  });
}

TEST(Gates, ReplyGateFailsOnAPerturbedReply) {
  svc::SolveService service;
  svc::SolveRequest request;
  request.spec = small_spec(driver::Pde::kPoisson, mesh::ElementType::kTet4);
  request.spec.unstructured = true;
  request.deadline_ms = -1.0;
  const svc::SolveResponse reply = service.submit(request).get();
  ASSERT_EQ(reply.outcome, svc::Outcome::kSolved);
  EXPECT_EQ(check_reply(reply, 1.5 * reply.err_inf), "");

  svc::SolveResponse worse = reply;
  worse.err_inf = 2.0 * reply.err_inf + 1e-12;
  EXPECT_NE(check_reply(worse, 1.5 * reply.err_inf), "");
  for (const svc::Outcome outcome :
       {svc::Outcome::kRejected, svc::Outcome::kShed,
        svc::Outcome::kDeadlineMissed, svc::Outcome::kFailed}) {
    svc::SolveResponse failed = reply;
    failed.outcome = outcome;
    EXPECT_NE(check_reply(failed, 1.5 * reply.err_inf), "");
  }
}

TEST(Trace, SpansNestAndCarryTheirPhase) {
  perfbench::Tracer tracer(true, 2);
  perfbench::TraceLane* lane = tracer.lane(1);
  ASSERT_NE(lane, nullptr);
  lane->set_phase(7, -1);
  std::int64_t outer_id = 0;
  {
    perfbench::Span outer(lane, "op");
    outer_id = lane->spans().back().id;
    perfbench::Span inner(lane, "core.apply");
  }
  lane->record("svc.queue", 1.0, 2.0, outer_id, 9);
  const auto& spans = lane->spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, outer_id);
  EXPECT_EQ(spans[0].op, 7);
  EXPECT_EQ(spans[2].op, 9);
  EXPECT_LE(spans[0].start_us, spans[1].start_us);
  EXPECT_LE(spans[1].end_us, spans[0].end_us);
  EXPECT_NE(spans[0].id, tracer.lane(0)->open("other"));

  const std::string path = ::testing::TempDir() + "perfbench_trace.json";
  tracer.lane(0)->close();
  tracer.write_chrome(path, perfbench::Json().str("workload", "test"));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"name\":\"core.apply\""), std::string::npos);
  EXPECT_NE(text.str().find("\"workload\":\"test\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Trace, DisabledTracerHandsOutNullLanes) {
  perfbench::Tracer tracer(false, 3);
  EXPECT_EQ(tracer.lane(0), nullptr);
  perfbench::Span span(tracer.lane(2), "op");  // a no-op, must not crash
}

TEST(Load, SameSeedSameStream) {
  perfbench::Load a(42, 1), b(42, 1), c(42, 2), d(43, 1);
  const std::uint64_t first = a.next();
  EXPECT_EQ(first, b.next());
  EXPECT_NE(first, c.next());
  EXPECT_NE(first, d.next());
  for (int i = 0; i < 1000; ++i) {
    const double u = a.uniform(0.5, 2.0);
    EXPECT_GE(u, 0.5);
    EXPECT_LT(u, 2.0);
    EXPECT_LT(a.below(13), 13u);
  }
}

}  // namespace
