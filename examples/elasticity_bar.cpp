// Correctness verification for the elastic prismatic bar stretched by its
// own weight (paper §V-B, Timoshenko & Goodier 1951), in three
// boundary-condition formulations of increasing fidelity to the paper:
//
//   (a) full-boundary Dirichlet: exact displacements prescribed on the
//       whole surface (the driver's default; the strongest consistency
//       check of operators + solver);
//   (b) hanging bar: exact Dirichlet on the TOP face only, gravity body
//       force, lateral and bottom faces traction-free (natural BCs) —
//       the well-posed version of the paper's "bar hung from its top";
//   (c) uniaxial pull: bottom face held with exact Dirichlet, uniform
//       traction t_z on the top face via the surface-integral machinery,
//       lateral faces traction-free.
//
// The exact fields are quadratic, so quadratic elements (hex20) reproduce
// them to solver tolerance in every formulation — the paper's
// "err < 1e-8 on all meshes". Meshes of 4³, 8³ and 16³ elements are
// partitioned in z into 2, 4 and 8 ranks, as in the paper.
//
// Run:  ./examples/elasticity_bar

#include <cmath>
#include <cstdio>

#include "hymv/core/assembly.hpp"
#include "hymv/core/hymv_operator.hpp"
#include "hymv/driver/driver.hpp"
#include "hymv/driver/env_options.hpp"
#include "hymv/fem/analytic.hpp"
#include "hymv/mesh/surface_mesh.hpp"
#include "hymv/pla/cg.hpp"
#include "hymv/simmpi/simmpi.hpp"

namespace {

using namespace hymv;

constexpr double kYoung = 1000.0;
constexpr double kPoisson = 0.3;
constexpr double kDensity = 1.0;
constexpr double kGravity = 9.8;

mesh::BoxSpec bar_box(long n) {
  return {.nx = n, .ny = n, .nz = n, .lx = 1.0, .ly = 1.0, .lz = 1.0,
          .origin = {-0.5, -0.5, 0.0}};
}

/// (a) Full-boundary Dirichlet via the driver.
double run_full_dirichlet(mesh::ElementType element, long n, int nranks) {
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kElasticity;
  spec.element = element;
  spec.box = bar_box(n);
  spec.partitioner = mesh::Partitioner::kSlab;
  spec.young = kYoung;
  spec.poisson_ratio = kPoisson;
  spec.density = kDensity;
  spec.gravity = kGravity;
  const auto setup = driver::ProblemSetup::build(spec, nranks);
  double err = 0.0;
  simmpi::run(nranks, [&](simmpi::Comm& comm) {
    driver::RankContext ctx(comm, setup);
    const auto report = driver::solve_problem(
        comm, ctx,
        {.backend = driver::Backend::kHymv,
         .precond = driver::Precond::kBlockJacobi,
         .rtol = 1e-12,
         .max_iters = 50000});
    if (comm.rank() == 0) {
      err = report.err_inf;
    }
  });
  return err;
}

/// Shared scaffolding for the hand-rolled variants (b) and (c): build the
/// mesh + partition, solve with the given constraints/loads, and return the
/// max-norm error against the analytic field.
template <typename MakeConstraints, typename MakeRhs>
double run_custom(mesh::ElementType element, long n, int nranks,
                  MakeConstraints&& make_constraints, MakeRhs&& make_rhs) {
  const mesh::Mesh m = mesh::build_structured_hex(bar_box(n), element);
  const auto part_ids =
      mesh::partition_elements(m, nranks, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, part_ids, nranks);

  const fem::ElasticBar bar{.young = kYoung, .poisson = kPoisson,
                            .density = kDensity, .gravity = kGravity,
                            .lz = 1.0};
  const core::HymvOptions options = driver::hymv_options_from_env();
  double err = 0.0;
  simmpi::run(nranks, [&](simmpi::Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::ElasticityOperator op(
        element, kYoung, kPoisson,
        [&bar](const mesh::Point& x) { return bar.body_force(x); });
    core::HymvOperator k(comm, part, op, options);
    const pla::DirichletConstraints constraints =
        make_constraints(part, bar);
    pla::ConstrainedOperator kc(k, constraints);
    pla::DistVector f =
        make_rhs(comm, k, part, op, m, part_ids, dist);
    pla::apply_constraints_to_rhs(comm, k, constraints, f);
    pla::BlockJacobiPreconditioner precond(comm, kc);
    pla::DistVector u(k.layout());
    pla::cg_solve(comm, kc, precond, f, u, {.rtol = 1e-12,
                                            .max_iters = 50000});
    double local = 0.0;
    for (std::int64_t i = 0; i < u.owned_size(); ++i) {
      const mesh::Point& x =
          part.owned_coords[static_cast<std::size_t>(i / 3)];
      local = std::max(
          local, std::abs(u[i] - bar.displacement(x)[static_cast<std::size_t>(
                                     i % 3)]));
    }
    const double global = comm.allreduce(local, simmpi::ReduceOp::kMax);
    if (comm.rank() == 0) {
      err = global;
    }
  });
  return err;
}

/// (b) Hanging bar: exact Dirichlet on the top face, gravity body force,
/// natural (traction-free) lateral and bottom faces.
double run_hanging(mesh::ElementType element, long n, int nranks) {
  return run_custom(
      element, n, nranks,
      [](const mesh::MeshPartition& part, const fem::ElasticBar& bar) {
        return core::make_dirichlet(
            part, 3,
            [](const mesh::Point& x) { return std::abs(x[2] - 1.0) < 1e-9; },
            [&bar](const mesh::Point& x) {
              const auto u = bar.displacement(x);
              return std::vector<double>{u[0], u[1], u[2]};
            });
      },
      [](simmpi::Comm& comm, core::HymvOperator& k,
         const mesh::MeshPartition& part, const fem::ElementOperator& op,
         const mesh::Mesh&, std::span<const int>,
         const mesh::DistributedMesh&) {
        return core::assemble_rhs(comm, k.mutable_maps(), part, op);
      });
}

/// (c) Uniaxial pull: exact Dirichlet on the bottom face, uniform traction
/// t_z = ρ g L_z on the top face (the paper's top-face traction), NO body
/// force — exact solution u = (-ν t/E xz, ... )-style uniaxial field.
double run_traction(mesh::ElementType element, long n, int nranks) {
  // Uniaxial-stress exact field: σ = diag(0, 0, t0) — fully linear, so
  // even hex8 reproduces it exactly.
  const double t0 = kDensity * kGravity * 1.0;

  const mesh::Mesh m = mesh::build_structured_hex(bar_box(n), element);
  const auto part_ids =
      mesh::partition_elements(m, nranks, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, part_ids, nranks);
  const auto top_faces = mesh::filter_faces(
      m, mesh::extract_boundary_faces(m),
      [](const mesh::Point& c) { return std::abs(c[2] - 1.0) < 1e-9; });
  const auto local_faces = core::distribute_faces(top_faces, part_ids, dist);

  const auto exact = [t0](const mesh::Point& x) {
    return std::array<double, 3>{-kPoisson * t0 / kYoung * x[0],
                                 -kPoisson * t0 / kYoung * x[1],
                                 t0 / kYoung * x[2]};
  };

  const core::HymvOptions options = driver::hymv_options_from_env();
  double err = 0.0;
  simmpi::run(nranks, [&](simmpi::Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::ElasticityOperator op(element, kYoung, kPoisson);
    core::HymvOperator k(comm, part, op, options);
    const auto constraints = core::make_dirichlet(
        part, 3, [](const mesh::Point& x) { return std::abs(x[2]) < 1e-9; },
        [&exact](const mesh::Point& x) {
          const auto u = exact(x);
          return std::vector<double>{u[0], u[1], u[2]};
        });
    pla::ConstrainedOperator kc(k, constraints);
    pla::DistVector f(k.layout());
    core::add_traction_to_rhs(
        comm, k.mutable_maps(), part,
        local_faces[static_cast<std::size_t>(comm.rank())],
        [t0](const mesh::Point&) {
          return std::array<double, 3>{0.0, 0.0, t0};
        },
        f);
    pla::apply_constraints_to_rhs(comm, k, constraints, f);
    pla::BlockJacobiPreconditioner precond(comm, kc);
    pla::DistVector u(k.layout());
    pla::cg_solve(comm, kc, precond, f, u,
                  {.rtol = 1e-12, .max_iters = 50000});
    double local = 0.0;
    for (std::int64_t i = 0; i < u.owned_size(); ++i) {
      const mesh::Point& x =
          part.owned_coords[static_cast<std::size_t>(i / 3)];
      local = std::max(local, std::abs(u[i] - exact(x)[static_cast<std::size_t>(
                                                  i % 3)]));
    }
    const double global = comm.allreduce(local, simmpi::ReduceOp::kMax);
    if (comm.rank() == 0) {
      err = global;
    }
  });
  return err;
}

}  // namespace

int main() {
  using hymv::mesh::ElementType;
  std::printf("Elastic bar verification (paper §V-B), three BC "
              "formulations\n");
  std::printf("%-8s %-10s %-6s | %-14s %-14s %-14s\n", "element", "mesh",
              "ranks", "(a) Dirichlet", "(b) hanging", "(c) traction");
  const struct {
    long n;
    int ranks;
  } cases[] = {{4, 2}, {8, 4}, {16, 8}};
  for (const auto element : {ElementType::kHex8, ElementType::kHex20}) {
    for (const auto& c : cases) {
      const double ea = run_full_dirichlet(element, c.n, c.ranks);
      const double eb = run_hanging(element, c.n, c.ranks);
      const double ec = run_traction(element, c.n, c.ranks);
      std::printf("%-8s %ldx%ldx%-4ld %-6d | %-14.3e %-14.3e %-14.3e\n",
                  element == ElementType::kHex8 ? "hex8" : "hex20", c.n, c.n,
                  c.n, c.ranks, ea, eb, ec);
    }
  }
  std::printf(
      "\nExpected: hex20 err < 1e-8 in every formulation (the exact fields\n"
      "are quadratic); hex8 is nodally exact under full Dirichlet and\n"
      "O(h^2)-accurate under the natural-BC formulations.\n");
  return 0;
}
