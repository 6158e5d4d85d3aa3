// Implicit time stepping through HYMV: the transient heat equation
//
//   du/dt = ∇²u + f,   u = 0 on ∂Ω,   u(x, 0) = 0,
//
// discretized with backward Euler:  (M + Δt K) uⁿ⁺¹ = M uⁿ + Δt fⁿ⁺¹.
//
// This is where the adaptive-matrix approach shines brightest: the
// iteration operator (M + Δt K) is computed and stored ONCE, then reused
// for every CG solve of every time step — versus the matrix-free approach
// recomputing element matrices inside every SPMV of every step. With the
// sin-product forcing the solution converges to the steady Poisson
// manufactured solution, which gives an analytic check at t → ∞.
//
// Run:  ./examples/transient_heat [n] [steps]

#include <cstdio>
#include <cstdlib>

#include "hymv/core/assembly.hpp"
#include "hymv/core/hymv_operator.hpp"
#include "hymv/driver/env_options.hpp"
#include "hymv/fem/analytic.hpp"
#include "hymv/fem/mass.hpp"
#include "hymv/mesh/partition.hpp"
#include "hymv/mesh/structured.hpp"
#include "hymv/pla/cg.hpp"
#include "hymv/pla/constraints.hpp"
#include "hymv/simmpi/simmpi.hpp"

int main(int argc, char** argv) {
  using namespace hymv;
  const long n = argc > 1 ? std::strtol(argv[1], nullptr, 10) : 10;
  const int steps = argc > 2 ? static_cast<int>(std::strtol(argv[2], nullptr, 10)) : 30;
  const double dt = 0.05;
  const int nranks = 4;

  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = n, .ny = n, .nz = n}, mesh::ElementType::kHex8);
  const auto ids =
      mesh::partition_elements(m, nranks, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, nranks);

  std::printf("transient heat: %lldx%lldx%lld hex8, dt=%.3g, %d steps, "
              "%d ranks\n",
              (long long)n, (long long)n, (long long)n, dt, steps, nranks);
  std::printf("%-8s %-14s %-14s\n", "step", "||u||_inf", "err vs steady");

  const core::HymvOptions options = driver::hymv_options_from_env();
  simmpi::run(nranks, [&](simmpi::Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];

    // Iteration operator A = M/Δt + K, stored once by HYMV. (Scaling by
    // 1/Δt keeps the RHS as (M uⁿ)/Δt + f.)
    const fem::HelmholtzOperator a_op(
        mesh::ElementType::kHex8, 1.0 / dt,
        [](const mesh::Point& x) { return fem::PoissonManufactured::forcing(x); });
    core::HymvOperator a(comm, part, a_op, options);

    // Mass operator for the history term, also HYMV-backed.
    const fem::MassOperator m_op(mesh::ElementType::kHex8, 1.0, 1);
    core::HymvOperator mass(comm, part, m_op, options);

    // Dirichlet u = 0 on the whole boundary.
    const mesh::Point lo{0, 0, 0}, hi{1, 1, 1};
    const auto constraints = core::make_dirichlet(
        part, 1,
        [&](const mesh::Point& x) { return core::on_box_boundary(x, lo, hi); },
        [](const mesh::Point&) { return std::vector<double>{0.0}; });
    pla::ConstrainedOperator ac(a, constraints);
    pla::JacobiPreconditioner precond(comm, ac);

    // Constant-in-time forcing load vector.
    const pla::DistVector f = core::assemble_rhs(comm, a.mutable_maps(), part, a_op);

    pla::DistVector u(a.layout()), rhs(a.layout()), mu(a.layout());
    std::int64_t total_iters = 0;
    for (int step = 1; step <= steps; ++step) {
      // rhs = (M uⁿ)/Δt + f, then Dirichlet treatment.
      mass.apply(comm, u, mu);
      pla::copy(f, rhs);
      pla::axpy(1.0 / dt, mu, rhs);
      constraints.project(rhs);
      constraints.apply_values(rhs);

      const auto cg = pla::cg_solve(comm, ac, precond, rhs, u,
                                    {.rtol = 1e-10, .max_iters = 5000});
      total_iters += cg.iterations;

      if (step % 10 == 0 || step == 1 || step == steps) {
        const double unorm = pla::norm_inf(comm, u);
        // Error against the steady-state manufactured Poisson solution.
        double local_err = 0.0;
        for (std::int64_t i = 0; i < u.owned_size(); ++i) {
          const mesh::Point& x =
              part.owned_coords[static_cast<std::size_t>(i)];
          local_err = std::max(
              local_err,
              std::abs(u[i] - fem::PoissonManufactured::solution(x)));
        }
        const double err =
            comm.allreduce(local_err, simmpi::ReduceOp::kMax);
        if (comm.rank() == 0) {
          std::printf("%-8d %-14.6e %-14.6e\n", step, unorm, err);
        }
      }
    }
    if (comm.rank() == 0) {
      std::printf("\n%lld CG iterations across %d steps; element matrices "
                  "computed once\n(store: %.2f MB/rank), reused for every "
                  "SPMV of every step.\n",
                  static_cast<long long>(total_iters), steps,
                  static_cast<double>(a.store().bytes()) / 1e6);
    }
  });
  std::printf("\nExpected: u(t) relaxes to the steady manufactured solution "
              "(err -> O(h^2)).\n");
  return 0;
}
