// Quickstart: the minimal end-to-end HYMV workflow.
//
//  1. build a structured mesh and partition it across 4 ranks,
//  2. construct the HYMV operator (element matrices computed & stored once),
//  3. run one distributed SPMV,
//  4. solve the manufactured Poisson problem with CG + Jacobi and check the
//     error against the exact solution.
//
// Run:  ./examples/quickstart

#include <cstdio>

#include "hymv/driver/driver.hpp"
#include "hymv/driver/env_options.hpp"
#include "hymv/simmpi/simmpi.hpp"

int main() {
  using namespace hymv;

  // --- 1. rank-shared setup: mesh + partition + ownership -----------------
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kPoisson;
  spec.element = mesh::ElementType::kHex8;
  spec.box = {.nx = 16, .ny = 16, .nz = 16};  // unit cube, 16³ elements
  spec.partitioner = mesh::Partitioner::kSlab;

  const int nranks = 4;
  const driver::ProblemSetup setup = driver::ProblemSetup::build(spec, nranks);
  std::printf("mesh: %lld elements, %lld nodes, %d ranks\n",
              static_cast<long long>(setup.total_elements),
              static_cast<long long>(setup.total_nodes), nranks);

  // The operator's knobs (HYMV_STORE_LAYOUT, ...) and the backend of the
  // solve (HYMV_BACKEND, e.g. "adaptive"), resolved once for every rank.
  const core::HymvOptions options = driver::hymv_options_from_env();
  const driver::Backend backend =
      driver::backend_from_env(driver::Backend::kHymv);

  // --- 2-4. per-rank work under the message-passing runtime ----------------
  simmpi::run(nranks, [&](simmpi::Comm& comm) {
    driver::RankContext ctx(comm, setup);

    // The HYMV operator: setup = compute + store all element matrices.
    core::HymvOperator k(comm, ctx.part(), ctx.element_op(), options);
    if (comm.rank() == 0) {
      std::printf("HYMV setup: emat %.4fs, copy %.4fs, maps %.4fs; "
                  "store %.2f MB/rank\n",
                  k.setup_breakdown().emat_compute_s,
                  k.setup_breakdown().local_copy_s,
                  k.setup_breakdown().maps_s,
                  static_cast<double>(k.store().bytes()) / 1e6);
    }

    // One SPMV: y = K x.
    pla::DistVector x(k.layout()), y(k.layout());
    x.set_all(1.0);
    k.apply(comm, x, y);
    const double ynorm = pla::norm2(comm, y);
    if (comm.rank() == 0) {
      // K annihilates constants in the interior; the norm comes from the
      // boundary rows only.
      std::printf("||K * 1||_2 = %.6e\n", ynorm);
    }

    // Solve K u = f with CG + Jacobi and verify against the exact solution.
    driver::SolveReport report = driver::solve_problem(
        comm, ctx,
        {.backend = backend,
         .precond = driver::Precond::kJacobi,
         .rtol = 1e-10});
    if (comm.rank() == 0) {
      std::printf("backend: %s\n", driver::backend_name(backend));
      std::printf("CG: %lld iterations, rel. residual %.2e\n",
                  static_cast<long long>(report.cg.iterations),
                  report.cg.relative_residual);
      std::printf("||u - u_exact||_inf = %.3e  (O(h^2) discretization error)\n",
                  report.err_inf);
    }
  });
  return 0;
}
