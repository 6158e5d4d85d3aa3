#include "hymv/driver/driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "hymv/common/env.hpp"
#include "hymv/common/error.hpp"
#include "hymv/driver/env_options.hpp"
#include "hymv/common/isa.hpp"
#include "hymv/common/numa.hpp"
#include "hymv/common/timer.hpp"
#include "hymv/obs/metrics.hpp"
#include "hymv/obs/trace.hpp"

namespace hymv::driver {

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kAssembled:
      return "assembled";
    case Backend::kHymv:
      return "hymv";
    case Backend::kMatrixFree:
      return "matrix-free";
    case Backend::kHymvGpu:
      return "hymv-gpu";
    case Backend::kAssembledGpu:
      return "assembled-gpu";
    case Backend::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

const char* precond_name(Precond precond) {
  switch (precond) {
    case Precond::kNone:
      return "none";
    case Precond::kJacobi:
      return "jacobi";
    case Precond::kBlockJacobi:
      return "block-jacobi";
    case Precond::kNodeBlockJacobi:
      return "node-block-jacobi";
    case Precond::kChebyshev:
      return "chebyshev";
    case Precond::kMultigrid:
      return "multigrid";
  }
  return "unknown";
}

ProblemSetup ProblemSetup::build(const ProblemSpec& spec, int nranks) {
  ProblemSetup setup;
  setup.spec = spec;
  setup.nranks = nranks;

  mesh::Mesh m = [&] {
    if (spec.unstructured) {
      HYMV_CHECK_MSG(mesh::is_tet(spec.element),
                     "ProblemSetup: unstructured meshes are tetrahedral");
      return mesh::build_unstructured_tet(
          {.box = spec.box, .jitter = spec.jitter, .seed = spec.seed},
          spec.element);
    }
    HYMV_CHECK_MSG(mesh::is_hex(spec.element),
                   "ProblemSetup: structured meshes are hexahedral");
    return mesh::build_structured_hex(spec.box, spec.element);
  }();
  setup.total_nodes = m.num_nodes();
  setup.total_elements = m.num_elements();

  const auto part_ids =
      mesh::partition_elements(m, nranks, spec.partitioner);
  setup.dist = mesh::distribute_mesh(m, part_ids, nranks);
  return setup;
}

namespace {

/// Publish the hardware-adaptation state — active/detected dispatch level,
/// NUMA placement, measured bandwidth — as idempotent gauges (set, not add:
/// safe to publish from every measurement and solve). The triad gauge only
/// reports a probe another consumer already paid for; it never triggers one.
void publish_hw_metrics(hymv::obs::MetricsRegistry& mets) {
  mets.gauge("isa.level")
      .set(static_cast<double>(static_cast<int>(hymv::isa::active())));
  mets.gauge("isa.detected")
      .set(static_cast<double>(static_cast<int>(hymv::isa::detected())));
  const hymv::numa::Report nr = hymv::numa::report();
  mets.gauge("numa.first_touch").set(nr.first_touch ? 1.0 : 0.0);
  mets.gauge("numa.pinned_threads")
      .set(static_cast<double>(nr.pinned_threads));
  mets.gauge("numa.triad_gbps").set(nr.triad_bytes_per_s / 1e9);
}

/// The element operator (with forcing) for a spec.
std::unique_ptr<fem::ElementOperator> make_element_op(
    const ProblemSpec& spec, const fem::ElasticBar& bar) {
  if (spec.pde == Pde::kPoisson) {
    return std::make_unique<fem::PoissonOperator>(
        spec.element,
        [](const mesh::Point& x) {
          return fem::PoissonManufactured::forcing(x);
        });
  }
  return std::make_unique<fem::ElasticityOperator>(
      spec.element, spec.young, spec.poisson_ratio,
      [bar](const mesh::Point& x) { return bar.body_force(x); });
}

}  // namespace

RankContext::RankContext(simmpi::Comm& comm, const ProblemSetup& setup)
    : setup_(&setup),
      part_(&setup.part(comm.rank())),
      bar_{.young = setup.spec.young,
           .poisson = setup.spec.poisson_ratio,
           .density = setup.spec.density,
           .gravity = setup.spec.gravity,
           .lz = setup.spec.box.lz},
      maps_((op_ = make_element_op(setup.spec, bar_), comm), *part_,
            setup.spec.ndof_per_node()) {
  // Dirichlet boundary: the whole box surface carries the exact solution
  // (zero for the manufactured Poisson problem, the Timoshenko field for
  // the bar) — identical treatment for every backend.
  const mesh::Point lo = setup.spec.box.origin;
  const mesh::Point hi{lo[0] + setup.spec.box.lx, lo[1] + setup.spec.box.ly,
                       lo[2] + setup.spec.box.lz};
  const ProblemSpec& spec = setup.spec;
  const fem::ElasticBar bar = bar_;
  constraints_ = core::make_dirichlet(
      *part_, spec.ndof_per_node(),
      [lo, hi](const mesh::Point& x) {
        return core::on_box_boundary(x, lo, hi);
      },
      [&spec, bar](const mesh::Point& x) -> std::vector<double> {
        if (spec.pde == Pde::kPoisson) {
          return {fem::PoissonManufactured::solution(x)};
        }
        const auto u = bar.displacement(x);
        return {u[0], u[1], u[2]};
      });
}

double RankContext::exact_dof(std::int64_t local_dof) const {
  const int ndof = setup_->spec.ndof_per_node();
  const auto node = static_cast<std::size_t>(local_dof / ndof);
  const auto comp = static_cast<std::size_t>(local_dof % ndof);
  const mesh::Point& x = part_->owned_coords[node];
  if (setup_->spec.pde == Pde::kPoisson) {
    return fem::PoissonManufactured::solution(x);
  }
  return bar_.displacement(x)[comp];
}

std::vector<double> RankContext::exact_owned() const {
  std::vector<double> exact(static_cast<std::size_t>(maps_.layout().owned()));
  for (std::size_t i = 0; i < exact.size(); ++i) {
    exact[i] = exact_dof(static_cast<std::int64_t>(i));
  }
  return exact;
}

pla::DistVector RankContext::assemble_rhs(simmpi::Comm& comm) {
  return core::assemble_rhs(comm, maps_, *part_, *op_);
}

double RankContext::error_inf(simmpi::Comm& comm,
                              const pla::DistVector& u) const {
  double local = 0.0;
  for (std::int64_t i = 0; i < u.owned_size(); ++i) {
    local = std::max(local, std::abs(u[i] - exact_dof(i)));
  }
  return comm.allreduce(local, simmpi::ReduceOp::kMax);
}

double RankContext::error_inf(simmpi::Comm& comm, const pla::DistVector& u,
                              std::span<const double> exact) {
  double local = 0.0;
  for (std::int64_t i = 0; i < u.owned_size(); ++i) {
    local = std::max(local,
                     std::abs(u[i] - exact[static_cast<std::size_t>(i)]));
  }
  return comm.allreduce(local, simmpi::ReduceOp::kMax);
}

BuiltBackend build_backend(simmpi::Comm& comm, const RankContext& ctx,
                           Backend backend, gpu::Device* device,
                           const core::HymvGpuOptions& gpu_options,
                           const core::HymvOptions& hymv_options,
                           const core::AdaptiveOptions& adaptive_options) {
  const mesh::MeshPartition& part = ctx.part();
  const fem::ElementOperator& op = ctx.element_op();
  BuiltBackend built;
  switch (backend) {
    case Backend::kAssembled: {
      auto setup = core::build_assembled_matrix(comm, part, op);
      built.setup.emat_compute_s = setup.emat_compute_s;
      built.setup.assembly_s = setup.assembly_s;
      built.op = std::move(setup.matrix);
      return built;
    }
    case Backend::kHymv: {
      auto hymv = std::make_unique<core::HymvOperator>(comm, part, op,
                                                       hymv_options);
      built.setup.emat_compute_s = hymv->setup_breakdown().emat_compute_s;
      built.setup.local_copy_s = hymv->setup_breakdown().local_copy_s;
      built.setup.maps_s = hymv->setup_breakdown().maps_s;
      built.hymv_cpu = hymv.get();
      built.op = std::move(hymv);
      return built;
    }
    case Backend::kMatrixFree:
      built.op = std::make_unique<core::MatrixFreeOperator>(comm, part, op,
                                                            hymv_options);
      return built;
    case Backend::kHymvGpu: {
      HYMV_CHECK_MSG(device != nullptr, "build_backend: GPU device required");
      auto gpu_op = std::make_unique<core::HymvGpuOperator>(
          comm, part, op, *device, gpu_options);
      built.setup.emat_compute_s =
          gpu_op->host_op().setup_breakdown().emat_compute_s;
      built.setup.local_copy_s =
          gpu_op->host_op().setup_breakdown().local_copy_s;
      built.setup.maps_s = gpu_op->host_op().setup_breakdown().maps_s;
      built.setup.gpu_upload_virtual_s = gpu_op->setup_upload_virtual_s();
      built.hymv_gpu = gpu_op.get();
      built.op = std::move(gpu_op);
      return built;
    }
    case Backend::kAssembledGpu: {
      HYMV_CHECK_MSG(device != nullptr, "build_backend: GPU device required");
      auto setup = core::build_assembled_matrix(comm, part, op);
      built.setup.emat_compute_s = setup.emat_compute_s;
      built.setup.assembly_s = setup.assembly_s;
      // The wrapper needs the assembled matrix alive: bundle them.
      struct Bundle : pla::LinearOperator {
        std::unique_ptr<pla::DistCsrMatrix> matrix;
        std::unique_ptr<core::GpuCsrOperator> gpu;
        const pla::Layout& layout() const override { return gpu->layout(); }
        void apply(simmpi::Comm& c, const pla::DistVector& x,
                   pla::DistVector& y) override {
          gpu->apply(c, x, y);
        }
        std::vector<double> diagonal(simmpi::Comm& c) override {
          return gpu->diagonal(c);
        }
        pla::CsrMatrix owned_block(simmpi::Comm& c) override {
          return gpu->owned_block(c);
        }
        std::int64_t apply_flops() const override {
          return gpu->apply_flops();
        }
        std::int64_t apply_bytes() const override {
          return gpu->apply_bytes();
        }
      };
      auto bundle = std::make_unique<Bundle>();
      bundle->matrix = std::move(setup.matrix);
      bundle->gpu = std::make_unique<core::GpuCsrOperator>(
          comm, *bundle->matrix, *device);
      built.setup.gpu_upload_virtual_s =
          bundle->gpu->setup_upload_virtual_s();
      built.csr_gpu = bundle->gpu.get();
      built.op = std::move(bundle);
      return built;
    }
    case Backend::kAdaptive: {
      core::AdaptiveOptions aopts = adaptive_options;
      aopts.hymv = hymv_options;
      auto adaptive =
          std::make_unique<core::AdaptiveOperator>(comm, part, op, aopts);
      const core::HymvOperator& stored = adaptive->stored_operator();
      built.setup.emat_compute_s = stored.setup_breakdown().emat_compute_s;
      built.setup.local_copy_s = stored.setup_breakdown().local_copy_s;
      built.setup.maps_s = stored.setup_breakdown().maps_s;
      // SELL candidate assembly is the adaptive path's extra setup cost.
      built.setup.assembly_s =
          adaptive->metrics().gauge_value("adaptive.sell.assembly_s");
      built.adaptive = adaptive.get();
      built.op = std::move(adaptive);
      return built;
    }
  }
  HYMV_THROW("build_backend: unknown backend");
}

std::unique_ptr<pla::LinearOperator> make_backend(
    simmpi::Comm& comm, const RankContext& ctx, Backend backend,
    gpu::Device* device, const core::HymvGpuOptions& gpu_options,
    const core::HymvOptions& hymv_options,
    const core::AdaptiveOptions& adaptive_options) {
  return build_backend(comm, ctx, backend, device, gpu_options, hymv_options,
                       adaptive_options)
      .op;
}

std::unique_ptr<pla::Preconditioner> make_preconditioner(
    simmpi::Comm& comm, const RankContext& ctx, pla::LinearOperator& a,
    Precond precond, bool fp32, const pla::ChebyshevOptions& chebyshev,
    const pla::MultigridOptions& multigrid) {
  switch (precond) {
    case Precond::kNone:
      return std::make_unique<pla::IdentityPreconditioner>();
    case Precond::kJacobi:
      return std::make_unique<pla::JacobiPreconditioner>(comm, a);
    case Precond::kBlockJacobi:
      return std::make_unique<pla::BlockJacobiPreconditioner>(comm, a);
    case Precond::kNodeBlockJacobi:
      return std::make_unique<pla::NodeBlockJacobiPreconditioner>(
          comm, a, ctx.setup().spec.ndof_per_node());
    case Precond::kChebyshev: {
      pla::ChebyshevOptions copt = chebyshev;
      copt.fp32 = fp32;
      return std::make_unique<pla::ChebyshevPreconditioner>(comm, a, copt);
    }
    case Precond::kMultigrid: {
      const ProblemSetup& setup = ctx.setup();
      if (setup.spec.unstructured) {
        std::fprintf(stderr,
                     "hymv: multigrid preconditioner needs a structured hex "
                     "mesh; falling back to jacobi\n");
        return std::make_unique<pla::JacobiPreconditioner>(comm, a);
      }
      HYMV_TRACE_SCOPE("precond.mg.glue", "driver");
      const int ndof = setup.spec.ndof_per_node();
      const std::int64_t total_dofs = setup.total_dofs();

      // Lattice view in SOLVER node numbering: the builder's ids pushed
      // through the distribute_mesh renumbering.
      const mesh::StructuredNodeGrid g =
          mesh::structured_hex_node_grid(setup.spec.box, setup.spec.element);
      pla::MgGridSpec grid;
      grid.mx = g.mx;
      grid.my = g.my;
      grid.mz = g.mz;
      grid.ndof = ndof;
      grid.node_at.assign(g.fine_to_node.size(), -1);
      for (std::size_t idx = 0; idx < g.fine_to_node.size(); ++idx) {
        if (g.fine_to_node[idx] >= 0) {
          grid.node_at[idx] = setup.dist.node_perm[static_cast<std::size_t>(
              g.fine_to_node[idx])];
        }
      }

      // Dirichlet mask: RankContext constrains every DoF of every node on
      // the box surface (core::on_box_boundary over the whole boundary) —
      // on the lattice that is exactly the set of extremal lattice points.
      std::vector<std::uint8_t> constrained(
          static_cast<std::size_t>(total_dofs), 0);
      for (std::int64_t k = 0; k < g.mz; ++k) {
        for (std::int64_t j = 0; j < g.my; ++j) {
          for (std::int64_t i = 0; i < g.mx; ++i) {
            if (i != 0 && i != g.mx - 1 && j != 0 && j != g.my - 1 &&
                k != 0 && k != g.mz - 1) {
              continue;
            }
            const std::int64_t node = grid.node_at[grid.index(i, j, k)];
            if (node < 0) {
              continue;
            }
            for (int c = 0; c < ndof; ++c) {
              constrained[static_cast<std::size_t>(node * ndof + c)] = 1;
            }
          }
        }
      }

      pla::CsrMatrix a_fine = core::assemble_global_serial(
          setup.dist.parts, ctx.element_op(), total_dofs, constrained);
      pla::MultigridOptions mopt = multigrid;
      mopt.fp32 = fp32;
      return std::make_unique<pla::GeometricMultigridPreconditioner>(
          comm, std::move(a_fine), grid, constrained, a.layout(), mopt);
    }
  }
  HYMV_THROW("make_preconditioner: unknown preconditioner");
}

SpmvReport measure_spmv(simmpi::Comm& comm, RankContext& ctx, Backend backend,
                        int napplies, const MeasureOptions& options) {
  HYMV_TRACE_SCOPE("spmv.measure", "driver");
  SpmvReport report;
  report.napplies = napplies;

  // Opt-in thread pinning must precede backend construction so the
  // first-touch fills fault pages from their final cores (numa.hpp).
  numa::pin_threads_from_env();

  // The measurement's knobs, resolved once for every operator it builds.
  // Only the adaptive backend models the host, so only it runs the triad
  // probe behind CpuSpec::from_env.
  core::HymvGpuOptions gpu = options.gpu;
  core::AdaptiveOptions adaptive = adaptive_options_from_env();
  if (backend == Backend::kHymvGpu) {
    gpu.host = hymv_options_from_env(gpu.host);
  } else if (backend == Backend::kAdaptive) {
    adaptive.cpu = perf::CpuSpec::from_env();
  }
  const int nrhs = nrhs_from_env(options.nrhs);
  report.nrhs = nrhs;

  const auto counters_setup0 = comm.counters();
  // One construction path for all backends (setup breakdown + typed views).
  BuiltBackend built =
      build_backend(comm, ctx, backend, options.device, gpu,
                    hymv_options_from_env(options.hymv), adaptive);
  report.setup = built.setup;
  std::unique_ptr<pla::LinearOperator>& op = built.op;
  core::HymvOperator* const hymv_cpu = built.hymv_cpu;
  core::HymvGpuOperator* const hymv_gpu = built.hymv_gpu;
  core::GpuCsrOperator* const csr_gpu = built.csr_gpu;
  {
    const auto counters_setup1 = comm.counters();
    report.setup.comm_bytes =
        counters_setup1.bytes_sent - counters_setup0.bytes_sent;
    report.setup.comm_messages =
        counters_setup1.messages_sent - counters_setup0.messages_sent;
  }

  // HYMV_STORE_CHECKSUM=1 arms the element-store checksums so a corruption
  // campaign over the measurement is detected (and repaired) afterwards.
  const bool store_checksums = hymv::env_flag("HYMV_STORE_CHECKSUM", false);
  if (store_checksums && hymv_cpu != nullptr) {
    hymv_cpu->enable_store_checksums();
  }

  // Deterministic input. The k=1 path is byte-identical to the historic
  // single-vector measurement; panels extend the same sin pattern with a
  // per-lane phase so lanes are distinct but reproducible.
  pla::DistVector x(op->layout()), y(op->layout());
  for (std::int64_t i = 0; i < x.owned_size(); ++i) {
    x[i] = std::sin(0.01 * static_cast<double>(op->layout().begin + i));
  }
  pla::DistMultiVector xm(op->layout(), nrhs), ym(op->layout(), nrhs);
  if (nrhs > 1) {
    for (std::int64_t i = 0; i < xm.owned_size(); ++i) {
      for (int j = 0; j < nrhs; ++j) {
        xm.at(i, j) = std::sin(0.01 * static_cast<double>(
                                          op->layout().begin + i) +
                               0.1 * static_cast<double>(j));
      }
    }
  }
  const auto do_apply = [&] {
    if (nrhs > 1) {
      op->apply_multi(comm, xm, ym);
    } else {
      op->apply(comm, x, y);
    }
  };

  // Warm-up apply (touches all maps/buffers, fills caches).
  do_apply();

  // Repeat the timed loop and keep the fastest round: simmpi ranks share
  // the machine, so single rounds carry scheduler noise.
  const int repeats = std::max(1, options.repeats);
  report.spmv_wall_s = std::numeric_limits<double>::infinity();
  report.spmv_cpu_s = std::numeric_limits<double>::infinity();
  double gpu_modeled = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < repeats; ++rep) {
    // Each rep starts from a clean phase breakdown and modeled timing —
    // otherwise the warm-up counts, the phases accumulate across every
    // round while the wall time keeps the minimum, and the reported
    // per-round breakdown is repeats× too large.
    if (hymv_cpu != nullptr) {
      hymv_cpu->reset_apply_breakdown();
    }
    if (hymv_gpu != nullptr) {
      hymv_gpu->reset_timings();
    }
    if (csr_gpu != nullptr) {
      csr_gpu->reset_timings();
    }
    const auto counters0 = comm.counters();
    hymv::Timer wall;
    hymv::ThreadCpuTimer cpu;
    for (int k = 0; k < napplies; ++k) {
      do_apply();
    }
    const double rep_wall = wall.elapsed_s();
    const bool fastest = rep_wall < report.spmv_wall_s;
    report.spmv_wall_s = std::min(report.spmv_wall_s, rep_wall);
    report.spmv_cpu_s = std::min(report.spmv_cpu_s, cpu.elapsed_s());
    if (rep == 0) {
      const auto counters1 = comm.counters();
      report.comm_bytes = counters1.bytes_sent - counters0.bytes_sent;
      report.comm_messages =
          counters1.messages_sent - counters0.messages_sent;
      report.comm_resends =
          counters1.messages_resent - counters0.messages_resent;
    }
    if (hymv_cpu != nullptr && fastest) {
      // Breakdown of the round the wall-time minimum came from.
      report.hymv_apply = hymv_cpu->apply_breakdown();
    }
    if (hymv_gpu != nullptr) {
      gpu_modeled = std::min(gpu_modeled, hymv_gpu->timings().total_modeled_s);
    } else if (csr_gpu != nullptr) {
      gpu_modeled = std::min(gpu_modeled, csr_gpu->timings().total_modeled_s);
    }
  }
  report.flops = (nrhs > 1 ? op->apply_flops_multi(nrhs) : op->apply_flops()) *
                 napplies;
  report.bytes = (nrhs > 1 ? op->apply_bytes_multi(nrhs) : op->apply_bytes()) *
                 napplies;
  report.spmv_modeled_s = (hymv_gpu != nullptr || csr_gpu != nullptr)
                              ? gpu_modeled
                              : report.spmv_wall_s;
  if (store_checksums && hymv_cpu != nullptr) {
    report.scrubbed_blocks = hymv_cpu->scrub_store(ctx.element_op());
  }

  // Publish the measurement into the per-rank registry and fold the
  // operator's own registry (apply.*/setup.*, both time axes) in before the
  // operator dies — each operator instance is merged exactly once.
  obs::MetricsRegistry& mets = comm.metrics();
  publish_hw_metrics(mets);
  mets.counter("spmv.measurements").inc();
  mets.counter("spmv.applies").add(napplies);
  mets.counter("spmv.flops").add(report.flops);
  mets.counter("spmv.moved_bytes").add(report.bytes);
  mets.gauge("spmv.wall_s").add(report.spmv_wall_s);
  mets.gauge("spmv.cpu_s").add(report.spmv_cpu_s);
  mets.gauge("spmv.modeled_s").add(report.spmv_modeled_s);
  if (hymv_cpu != nullptr) {
    mets.merge_from(hymv_cpu->metrics());
  } else if (hymv_gpu != nullptr) {
    mets.merge_from(hymv_gpu->host_op().metrics());
  } else if (built.adaptive != nullptr) {
    // Both registries: adaptive.* decisions plus the embedded stored
    // operator's setup.* phases.
    mets.merge_from(built.adaptive->metrics());
    mets.merge_from(built.adaptive->stored_operator().metrics());
  }
  return report;
}

SolveReport solve_problem(simmpi::Comm& comm, RankContext& ctx,
                          const SolveOptions& options) {
  HYMV_TRACE_SCOPE("solve", "driver");
  SolveReport report;

  const double host_exec0 =
      options.device != nullptr ? options.device->host_exec_seconds() : 0.0;
  const double vt0 =
      options.device != nullptr ? options.device->virtual_time() : 0.0;

  // Opt-in thread pinning must precede backend construction so the
  // first-touch fills fault pages from their final cores (numa.hpp).
  numa::pin_threads_from_env();

  // The operator and preconditioner knobs, resolved once for the solve
  // (the host roofline, and with it the triad probe, for kAdaptive only).
  core::HymvGpuOptions gpu = options.gpu;
  core::AdaptiveOptions adaptive = adaptive_options_from_env();
  if (options.backend == Backend::kHymvGpu) {
    gpu.host = hymv_options_from_env(gpu.host);
  } else if (options.backend == Backend::kAdaptive) {
    adaptive.cpu = perf::CpuSpec::from_env();
  }

  hymv::Timer setup_timer;
  std::unique_ptr<pla::LinearOperator> a =
      make_backend(comm, ctx, options.backend, options.device, gpu,
                   hymv_options_from_env(), adaptive);
  report.setup_s = setup_timer.elapsed_s();

  pla::ConstrainedOperator ac(*a, ctx.constraints());
  pla::DistVector b = ctx.assemble_rhs(comm);
  pla::apply_constraints_to_rhs(comm, *a, ctx.constraints(), b);

  // Preconditioner, with env overrides (unset env leaves the programmatic
  // options untouched, so default behavior is bitwise unchanged).
  const Precond precond = precond_from_env(options.precond);
  const bool precond_fp32 =
      hymv::env_flag("HYMV_PRECOND_FP32", options.precond_fp32);
  hymv::Timer precond_timer;
  std::unique_ptr<pla::Preconditioner> m = make_preconditioner(
      comm, ctx, ac, precond, precond_fp32, chebyshev_options_from_env(),
      multigrid_options_from_env());
  comm.metrics().gauge("precond.setup_s").add(precond_timer.elapsed_s());

  // Resilience policy: env overrides on top of the programmatic options.
  constexpr std::int64_t kCountMax = std::numeric_limits<std::int64_t>::max();
  std::int64_t true_residual_every = hymv::env_int_in_range(
      "HYMV_CG_TRUE_RESIDUAL_EVERY", options.true_residual_every, 0,
      kCountMax);
  if (precond_fp32 && true_residual_every == 0) {
    // Mixed precision: the fp32 preconditioner perturbs the fp64 recurrence
    // every iteration; periodic true-residual replacement keeps the
    // reported convergence honest (iterative refinement of the outer CG).
    true_residual_every = 50;
  }
  const std::int64_t checkpoint_every = hymv::env_int_in_range(
      "HYMV_CG_CHECKPOINT_EVERY", options.checkpoint_every, 0, kCountMax);
  const int max_attempts = static_cast<int>(std::max<std::int64_t>(
      1, hymv::env_int_in_range("HYMV_SOLVE_ATTEMPTS",
                                options.max_solve_attempts, 1,
                                std::numeric_limits<int>::max())));
  const bool store_checksums =
      hymv::env_flag("HYMV_STORE_CHECKSUM", options.store_checksums);

  auto* hymv_op = dynamic_cast<core::HymvOperator*>(a.get());
  if (store_checksums && hymv_op != nullptr) {
    hymv_op->enable_store_checksums();
  }

  const pla::CgOptions cg_options{
      .rtol = options.rtol,
      .max_iters = options.max_iters,
      .pipelined = hymv::env_flag("HYMV_CG_PIPELINED", false),
      .true_residual_every = true_residual_every,
      .checkpoint_every = checkpoint_every,
      .max_rollbacks = options.max_rollbacks,
      .fault_hook = options.cg_fault_hook};

  pla::DistVector u(a->layout());
  const auto counters_solve0 = comm.counters();
  hymv::Timer solve_timer;
  hymv::ThreadCpuTimer cpu_timer;
  // Solve-with-retry: a failed attempt scrubs the element store (the one
  // backend state that can silently corrupt) and re-enters CG from the
  // accumulated iterate. The retry decision reads only the CgResult, which
  // is identical on every rank — the loop is collective.
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    report.attempts = attempt;
    if (options.attempt_hook) {
      options.attempt_hook(*a, attempt);
    }
    report.cg = pla::cg_solve(comm, ac, *m, b, u, cg_options);
    if (report.cg.converged || attempt == max_attempts) {
      break;
    }
    if (store_checksums && hymv_op != nullptr) {
      report.scrubbed_blocks += hymv_op->scrub_store(ctx.element_op());
    }
  }
  report.comm_resends =
      comm.counters().messages_resent - counters_solve0.messages_resent;
  report.solve_wall_s = solve_timer.elapsed_s();
  report.solve_cpu_s = cpu_timer.elapsed_s();

  report.err_inf = ctx.error_inf(comm, u);

  double modeled = report.setup_s + report.solve_wall_s;
  if (options.device != nullptr) {
    const double host_exec_delta =
        options.device->host_exec_seconds() - host_exec0;
    const double device_delta = options.device->virtual_time() - vt0;
    modeled = modeled - host_exec_delta + device_delta;
  }
  report.total_modeled_s = modeled;

  // Same publication contract as measure_spmv: the registry carries the
  // job-cumulative view of every solve; cg.* counters were already bumped
  // inside cg_solve.
  obs::MetricsRegistry& mets = comm.metrics();
  publish_hw_metrics(mets);
  mets.counter("solve.solves").inc();
  mets.counter("solve.attempts").add(report.attempts);
  mets.counter("solve.scrubbed_blocks").add(report.scrubbed_blocks);
  mets.gauge("solve.setup_s").add(report.setup_s);
  mets.gauge("solve.wall_s").add(report.solve_wall_s);
  mets.gauge("solve.cpu_s").add(report.solve_cpu_s);
  mets.gauge("solve.modeled_s").add(report.total_modeled_s);
  mets.gauge("solve.err_inf").set(report.err_inf);
  if (hymv_op != nullptr) {
    mets.merge_from(hymv_op->metrics());
  } else if (auto* gpu_op = dynamic_cast<core::HymvGpuOperator*>(a.get())) {
    mets.merge_from(gpu_op->host_op().metrics());
  } else if (auto* ad = dynamic_cast<core::AdaptiveOperator*>(a.get())) {
    mets.merge_from(ad->metrics());
    mets.merge_from(ad->stored_operator().metrics());
  }
  return report;
}

}  // namespace hymv::driver
