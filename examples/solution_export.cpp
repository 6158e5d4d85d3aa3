// Production-workflow example: solve, checkpoint, restart, export.
//
//  1. solve the elastic-bar problem with HYMV,
//  2. checkpoint each rank's element-matrix store to disk,
//  3. restart an operator from the checkpoint (zero element-matrix
//     recomputation) and verify it reproduces the same SPMV,
//  4. gather the displacement field and write mesh + solution to a
//     legacy-VTK file for ParaView/VisIt.
//
// Run:  ./examples/solution_export [n] [out.vtk]

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>

#include "hymv/driver/driver.hpp"
#include "hymv/driver/env_options.hpp"
#include "hymv/io/store_io.hpp"
#include "hymv/io/vtk.hpp"
#include "hymv/mesh/structured.hpp"
#include "hymv/simmpi/simmpi.hpp"

int main(int argc, char** argv) {
  using namespace hymv;
  const long n = argc > 1 ? std::strtol(argv[1], nullptr, 10) : 8;
  const std::string out_path = argc > 2 ? argv[2] : "elastic_bar.vtk";
  const int nranks = 4;

  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kElasticity;
  spec.element = mesh::ElementType::kHex8;
  spec.box = {.nx = n, .ny = n, .nz = n, .lx = 1.0, .ly = 1.0, .lz = 1.0,
              .origin = {-0.5, -0.5, 0.0}};
  spec.partitioner = mesh::Partitioner::kSlab;
  const driver::ProblemSetup setup = driver::ProblemSetup::build(spec, nranks);

  // Gathered nodal displacement, indexed by the distribution's global ids.
  std::vector<double> displacement(
      static_cast<std::size_t>(setup.total_dofs()), 0.0);
  std::mutex mutex;
  const core::HymvOptions options = driver::hymv_options_from_env();

  simmpi::run(nranks, [&](simmpi::Comm& comm) {
    driver::RankContext ctx(comm, setup);

    // Solve with HYMV + block Jacobi.
    core::HymvOperator k(comm, ctx.part(), ctx.element_op(), options);
    pla::ConstrainedOperator ak(k, ctx.constraints());
    pla::DistVector b = ctx.assemble_rhs(comm);
    pla::apply_constraints_to_rhs(comm, k, ctx.constraints(), b);
    pla::BlockJacobiPreconditioner m(comm, ak);
    pla::DistVector u(k.layout());
    const auto cg = pla::cg_solve(comm, ak, m, b, u, {.rtol = 1e-10});

    // Checkpoint and restart-verify.
    const std::string ckpt =
        "store_rank" + std::to_string(comm.rank()) + ".bin";
    io::save_store(ckpt, k.store());
    core::HymvOperator restarted(comm, ctx.part(), 3, io::load_store(ckpt),
                                 options);
    pla::DistVector y1(k.layout()), y2(k.layout());
    k.apply(comm, u, y1);
    restarted.apply(comm, u, y2);
    pla::axpy(-1.0, y1, y2);
    const double restart_diff = pla::norm_inf(comm, y2);
    std::filesystem::remove(ckpt);

    {
      std::lock_guard<std::mutex> lock(mutex);
      for (std::int64_t i = 0; i < u.owned_size(); ++i) {
        displacement[static_cast<std::size_t>(k.layout().begin + i)] = u[i];
      }
    }
    const double err = ctx.error_inf(comm, u);
    if (comm.rank() == 0) {
      std::printf("CG converged in %lld iterations; err_inf=%.3e; "
                  "restart SPMV diff=%.3e\n",
                  static_cast<long long>(cg.iterations), err, restart_diff);
    }
  });

  // Rebuild the serial mesh in the distribution's numbering for export.
  mesh::Mesh m = mesh::build_structured_hex(spec.box, spec.element);
  m.renumber_nodes(setup.dist.node_perm);
  io::write_vtk(out_path, m,
                {{.name = "displacement", .components = 3,
                  .values = displacement}},
                "HYMV elastic bar solution");
  std::printf("wrote %s (%lld nodes, %lld cells)\n", out_path.c_str(),
              static_cast<long long>(m.num_nodes()),
              static_cast<long long>(m.num_elements()));
  return 0;
}
