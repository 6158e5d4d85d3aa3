// crack-hex8: writes beside reads, and time to solution — the paper's
// adaptive-matrix property (§III) and its Fig. 11 solve, on the bar of
// examples/xfem_enrichment.cpp. Each op softens a band of a quarter of the
// elements through update_elements, restores the previous band, rebuilds
// Jacobi and re-solves with CG from zero to the paper's rtol.

#include <cmath>
#include <optional>

#include "bench.hpp"

namespace perfbench {

namespace {

using namespace hymv;

constexpr std::int64_t kElems = 16;  ///< hex8 elements per edge: 14,739 DoFs
/// Element layers per band (a quarter of the elements). Bands run across
/// x, so a z-slab partition over several ranks gives each rank half of
/// every band.
constexpr std::int64_t kBandLayers = kElems / 4;
/// Band positions. 13 is prime, so every stride visits all of them once
/// per cycle of 13 ops.
constexpr std::int64_t kPositions = kElems - kBandLayers + 1;
constexpr double kSoftening = 0.01;  ///< stiffness scale of the soft band
constexpr double kRtol = 1e-3;
constexpr std::int64_t kMaxIters = 20000;
constexpr int kWarmupOps = 3;
constexpr std::uint64_t kStreamOps = 3;

driver::ProblemSpec crack_spec() {
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kElasticity;
  spec.element = mesh::ElementType::kHex8;
  spec.box = {.nx = kElems, .ny = kElems, .nz = kElems, .lx = 1.0, .ly = 1.0,
              .lz = 1.0, .origin = {-0.5, -0.5, 0.0}};
  spec.partitioner = mesh::Partitioner::kSlab;
  return spec;
}

/// Local elements of every band position, by element-centroid x layer.
std::vector<std::vector<std::int64_t>> local_bands(
    const mesh::MeshPartition& part, const mesh::BoxSpec& box) {
  std::vector<std::vector<std::int64_t>> bands(kPositions);
  const double h = box.lx / static_cast<double>(box.nx);
  for (std::int64_t e = 0; e < part.num_local_elements(); ++e) {
    double cx = 0.0;
    const auto coords = part.element_coords(e);
    for (const mesh::Point& p : coords) {
      cx += p[0];
    }
    cx /= static_cast<double>(coords.size());
    const auto layer =
        static_cast<std::int64_t>(std::floor((cx - box.origin[0]) / h));
    for (std::int64_t p = std::max<std::int64_t>(0, layer - kBandLayers + 1);
         p <= std::min(layer, kPositions - 1); ++p) {
      bands[static_cast<std::size_t>(p)].push_back(e);
    }
  }
  return bands;
}

}  // namespace

void run_crack(const Args& args, Tracer& tracer, Result& out) {
  const driver::ProblemSpec spec = crack_spec();
  TraceLane* main_lane = tracer.lane(0);
  SetupSamples samples;

  // The band sequence is a pure function of the seed: a start position and
  // a stride, cycling through all positions.
  Load order(args.seed, kStreamOps);
  const std::int64_t first = static_cast<std::int64_t>(order.below(kPositions));
  const std::int64_t stride =
      1 + static_cast<std::int64_t>(order.below(kPositions - 1));
  const auto band_at = [&](std::int64_t step) {
    return static_cast<std::size_t>((first + step * stride) % kPositions);
  };

  for (int repeat = 0; repeat < args.repeats; ++repeat) {
    const bool last = repeat + 1 == args.repeats;
    if (main_lane != nullptr) {
      main_lane->set_phase(-1, repeat);
    }
    const Clock::time_point start = Clock::now();
    std::optional<driver::ProblemSetup> setup;
    {
      Span span(main_lane, "mesh.build");
      setup.emplace(driver::ProblemSetup::build(spec, args.ranks));
    }

    simmpi::run(args.ranks, [&](simmpi::Comm& comm) {
      TraceLane* lane = tracer.lane(1 + comm.rank());
      if (lane != nullptr) {
        lane->set_phase(-1, repeat);
      }
      std::optional<driver::RankContext> ctx;
      {
        Span span(lane, "driver.rank_context");
        ctx.emplace(comm, *setup);
      }
      driver::BuiltBackend built;
      {
        Span span(lane, "driver.build_backend");
        built = driver::build_backend(comm, *ctx, driver::Backend::kHymv);
      }
      core::HymvOperator& hymv = *built.hymv_cpu;
      fem::ElasticityOperator soft(spec.element, spec.young,
                                   spec.poisson_ratio);
      soft.set_stiffness_scale(kSoftening);
      const std::vector<std::vector<std::int64_t>> bands =
          local_bands(ctx->part(), spec.box);

      pla::ConstrainedOperator constrained(hymv, ctx->constraints());
      std::optional<TracedOperator> traced;
      pla::LinearOperator* a = &constrained;
      if (lane != nullptr) {
        a = &traced.emplace(constrained, *lane);
      }
      // The right-hand side is assembled once; each op solves the current
      // operator against it.
      pla::DistVector b = ctx->assemble_rhs(comm);
      pla::apply_constraints_to_rhs(comm, hymv, ctx->constraints(), b);
      const double b_norm = pla::norm2(comm, b);

      std::int64_t step = 0;
      {
        Span span(lane, "core.update_elements");
        hymv.update_elements(bands[band_at(step)], soft);
      }
      pla::DistVector u(a->layout());
      pla::DistVector residual(a->layout());
      pla::CgResult cg;
      std::int64_t iterations = 0;
      std::int64_t updated = 0;
      const auto op = [&](std::int64_t) {
        const std::vector<std::int64_t>& previous = bands[band_at(step)];
        const std::vector<std::int64_t>& next = bands[band_at(++step)];
        {
          Span span(lane, "core.update_elements");
          hymv.update_elements(previous, ctx->element_op());
        }
        {
          Span span(lane, "core.update_elements");
          hymv.update_elements(next, soft);
        }
        updated += static_cast<std::int64_t>(previous.size() + next.size());
        std::optional<pla::JacobiPreconditioner> jacobi;
        {
          Span span(lane, "pla.precond_setup");
          jacobi.emplace(comm, *a);
        }
        std::optional<TracedPreconditioner> traced_m;
        pla::Preconditioner* m = &*jacobi;
        if (lane != nullptr) {
          m = &traced_m.emplace(*jacobi, *lane);
        }
        u.set_all(0.0);
        {
          Span span(lane, "pla.cg");
          cg = pla::cg_solve(comm, *a, *m, b, u,
                             {.rtol = kRtol, .max_iters = kMaxIters});
        }
        iterations += cg.iterations;
      };
      for (int w = 0; w < kWarmupOps; ++w) {
        op(w);
      }
      comm.barrier();
      if (comm.rank() == 0) {
        out.setup_s.push_back(
            std::chrono::duration<double>(Clock::now() - start).count());
      }
      sample_setup(comm, built.setup, hymv, samples);
      if (!last || args.seconds <= 0.0) {
        return;
      }

      const auto check = [&](std::int64_t) {
        constrained.apply(comm, u, residual);
        for (std::int64_t i = 0; i < residual.owned_size(); ++i) {
          residual[i] = b[i] - residual[i];
        }
        return check_solve(cg, pla::norm2(comm, residual) / b_norm, kRtol);
      };
      iterations = 0;
      updated = 0;
      const OpTotals totals =
          run_timed_ops(comm, lane, hymv, args.seconds, kPositions, op, check);
      reduce_op_totals(comm, totals, out);
      report_setup(comm, samples, *a, out);
      const std::int64_t band_elements = comm.allreduce(
          static_cast<std::int64_t>(bands[0].size()), simmpi::ReduceOp::kSum);
      const std::int64_t all_updated =
          comm.allreduce(updated, simmpi::ReduceOp::kSum);
      if (comm.rank() == 0) {
        const double ops = static_cast<double>(totals.op_ms.size());
        out.layers.num("core.updated_elements", all_updated / ops)
            .num("pla.cg_iterations", iterations / ops);
        out.config = base_config(args)
                         .integer("ranks", comm.size())
                         .integer("compute_threads", comm.size() * omp_threads())
                         .str("problem", "hex8 elasticity bar, structured box")
                         .integer("elements_per_edge", kElems)
                         .integer("dofs", setup->total_dofs())
                         .integer("elements", setup->total_elements)
                         .str("partitioner", "slab")
                         .str("backend", "hymv")
                         .str("layout", core::to_string(hymv.store().layout()))
                         .str("schedule", core::to_string(hymv.options().schedule))
                         .integer("taskgraph", hymv.options().taskgraph ? 1 : 0)
                         .str("precond", "jacobi")
                         .num("rtol", kRtol)
                         .integer("band_elements", band_elements)
                         .integer("band_positions", kPositions)
                         .integer("band_first", first)
                         .integer("band_stride", stride)
                         .num("softening", kSoftening);
      }
    });
  }
}

}  // namespace perfbench
