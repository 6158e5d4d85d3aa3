// spmv-hex20: read-only SPMV, the paper's headline quadratic-element regime
// (Fig. 6, Table I). Each op is a fixed batch of apply() calls on one of a
// pool of seeded vectors; its output is checked against the serial
// assembled-CSR product of the same vector.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "hymv/core/assembly.hpp"

namespace perfbench {

namespace {

using namespace hymv;

/// hex20 elements per edge: 14,883 DoFs and a 29 MiB element store. At
/// 16³ (120 MiB) the store competed with other tenants for the shared L3
/// and run-to-run spread reached 28 % (p50).
constexpr std::int64_t kElems = 10;
constexpr int kAppliesPerOp = 10;
constexpr int kPool = 4;             ///< seeded input vectors per run
constexpr int kWarmupOps = 3;
constexpr std::uint64_t kStreamVectors = 1;
constexpr std::uint64_t kStreamOps = 2;
constexpr char kMagic[8] = {'H', 'Y', 'M', 'V', 'R', 'E', 'F', '1'};

driver::ProblemSpec spmv_spec() {
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kElasticity;
  spec.element = mesh::ElementType::kHex20;
  spec.box = {.nx = kElems, .ny = kElems, .nz = kElems, .lx = 1.0, .ly = 1.0,
              .lz = 1.0, .origin = {-0.5, -0.5, 0.0}};
  spec.partitioner = mesh::Partitioner::kSlab;
  return spec;
}

/// Pool vectors and their reference products, in the partitioned global
/// DoF numbering of the workload's rank count.
struct Reference {
  std::int64_t dofs = 0;
  std::int64_t max_row_len = 0;
  double max_abs_a = 0.0;
  std::vector<double> max_abs_x;
  std::vector<std::vector<double>> x;
  std::vector<std::vector<double>> y;
};

using File = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;

File open_file(const std::string& path, const char* mode) {
  File f(std::fopen(path.c_str(), mode), &std::fclose);
  if (f == nullptr) {
    throw std::runtime_error("cannot open the reference file " + path);
  }
  return f;
}

void write_all(std::FILE* f, const void* data, std::size_t bytes) {
  if (std::fwrite(data, 1, bytes, f) != bytes) {
    throw std::runtime_error("short write to the reference file");
  }
}

void read_all(std::FILE* f, void* data, std::size_t bytes) {
  if (std::fread(data, 1, bytes, f) != bytes) {
    throw std::runtime_error("short read from the reference file");
  }
}

Reference read_reference(const std::string& path) {
  const File f = open_file(path, "rb");
  Reference ref;
  char magic[8];
  std::int64_t pool = 0;
  read_all(f.get(), magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof magic) != 0) {
    throw std::runtime_error(path + " is not a perfbench reference file");
  }
  read_all(f.get(), &ref.dofs, sizeof ref.dofs);
  read_all(f.get(), &pool, sizeof pool);
  read_all(f.get(), &ref.max_row_len, sizeof ref.max_row_len);
  read_all(f.get(), &ref.max_abs_a, sizeof ref.max_abs_a);
  if (pool != kPool || ref.dofs <= 0 || ref.dofs > (std::int64_t{1} << 32)) {
    throw std::runtime_error(path + " has an unexpected shape");
  }
  const auto n = static_cast<std::size_t>(ref.dofs);
  ref.max_abs_x.resize(kPool);
  ref.x.assign(kPool, std::vector<double>(n));
  ref.y.assign(kPool, std::vector<double>(n));
  for (int v = 0; v < kPool; ++v) {
    read_all(f.get(), &ref.max_abs_x[v], sizeof(double));
    read_all(f.get(), ref.x[v].data(), n * sizeof(double));
    read_all(f.get(), ref.y[v].data(), n * sizeof(double));
  }
  return ref;
}

}  // namespace

void write_spmv_reference(const Args& args, const std::string& path) {
  const driver::ProblemSpec spec = spmv_spec();
  const driver::ProblemSetup serial = driver::ProblemSetup::build(spec, 1);
  const driver::ProblemSetup parted =
      driver::ProblemSetup::build(spec, args.ranks);
  const int ndof = spec.ndof_per_node();
  const std::int64_t n = serial.total_dofs();

  // Both setups renumber the original nodes; map each partitioned DoF to
  // its serial index through the original node id.
  std::vector<std::int64_t> to_serial(static_cast<std::size_t>(n));
  for (std::int64_t node = 0; node < serial.total_nodes; ++node) {
    const auto o = static_cast<std::size_t>(node);
    for (int c = 0; c < ndof; ++c) {
      to_serial[static_cast<std::size_t>(parted.dist.node_perm[o] * ndof + c)] =
          serial.dist.node_perm[o] * ndof + c;
    }
  }

  Reference ref;
  ref.dofs = n;
  Load load(args.seed, kStreamVectors);
  for (int v = 0; v < kPool; ++v) {
    std::vector<double> x(static_cast<std::size_t>(n));
    double max_abs = 0.0;
    for (double& value : x) {
      value = load.uniform(-1.0, 1.0);
      max_abs = std::max(max_abs, std::abs(value));
    }
    ref.x.push_back(std::move(x));
    ref.max_abs_x.push_back(max_abs);
  }

  simmpi::run(1, [&](simmpi::Comm& comm) {
    driver::RankContext ctx(comm, serial);
    const core::AssembledSetup assembled =
        core::build_assembled_matrix(comm, ctx.part(), ctx.element_op());
    const pla::CsrMatrix& a = assembled.matrix->diag_block();
    if (a.num_rows() != n || a.num_cols() != n) {
      throw std::runtime_error("reference matrix is not the full operator");
    }
    for (std::int64_t row = 0; row < n; ++row) {
      const auto r = static_cast<std::size_t>(row);
      ref.max_row_len =
          std::max(ref.max_row_len, a.row_ptr()[r + 1] - a.row_ptr()[r]);
    }
    for (const double value : a.values()) {
      ref.max_abs_a = std::max(ref.max_abs_a, std::abs(value));
    }
    std::vector<double> xs(static_cast<std::size_t>(n));
    std::vector<double> ys(static_cast<std::size_t>(n));
    for (int v = 0; v < kPool; ++v) {
      for (std::size_t i = 0; i < xs.size(); ++i) {
        xs[static_cast<std::size_t>(to_serial[i])] = ref.x[v][i];
      }
      a.spmv(xs, ys);
      std::vector<double> y(xs.size());
      for (std::size_t i = 0; i < y.size(); ++i) {
        y[i] = ys[static_cast<std::size_t>(to_serial[i])];
      }
      ref.y.push_back(std::move(y));
    }
  });

  File f = open_file(path, "wb");
  const std::int64_t pool = kPool;
  write_all(f.get(), kMagic, sizeof kMagic);
  write_all(f.get(), &ref.dofs, sizeof ref.dofs);
  write_all(f.get(), &pool, sizeof pool);
  write_all(f.get(), &ref.max_row_len, sizeof ref.max_row_len);
  write_all(f.get(), &ref.max_abs_a, sizeof ref.max_abs_a);
  for (int v = 0; v < kPool; ++v) {
    write_all(f.get(), &ref.max_abs_x[v], sizeof(double));
    write_all(f.get(), ref.x[v].data(), ref.x[v].size() * sizeof(double));
    write_all(f.get(), ref.y[v].data(), ref.y[v].size() * sizeof(double));
  }
  // fclose flushes; its result is the last write's.
  if (std::fclose(f.release()) != 0) {
    throw std::runtime_error("cannot write the reference file " + path);
  }
}

void run_spmv(const Args& args, Tracer& tracer, Result& out) {
  const Reference ref = read_reference(args.reference);
  const driver::ProblemSpec spec = spmv_spec();
  TraceLane* main_lane = tracer.lane(0);
  SetupSamples samples;

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
    if (setup->total_dofs() != ref.dofs) {
      throw std::runtime_error("reference file does not match the problem");
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
      std::optional<TracedOperator> traced;
      pla::LinearOperator* a = built.op.get();
      if (lane != nullptr) {
        a = &traced.emplace(*built.op, *lane);
      }

      const pla::Layout& layout = a->layout();
      std::vector<pla::DistVector> xs;
      for (int v = 0; v < kPool; ++v) {
        pla::DistVector x(layout);
        for (std::int64_t i = 0; i < x.owned_size(); ++i) {
          x[i] = ref.x[v][static_cast<std::size_t>(layout.begin + i)];
        }
        xs.push_back(std::move(x));
      }
      pla::DistVector y(layout);
      Load order(args.seed, kStreamOps);
      std::size_t current = 0;
      const auto op = [&](std::int64_t) {
        current = order.below(kPool);
        for (int k = 0; k < kAppliesPerOp; ++k) {
          a->apply(comm, xs[current], y);
        }
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
        const double tol = spmv_tolerance(ref.max_row_len, ref.max_abs_a,
                                          ref.max_abs_x[current]);
        const std::span<const double> expected =
            std::span<const double>(ref.y[current])
                .subspan(static_cast<std::size_t>(layout.begin),
                         static_cast<std::size_t>(layout.owned()));
        return check_spmv(y.values(), expected, tol);
      };
      const OpTotals totals =
          run_timed_ops(comm, lane, hymv, args.seconds, 1, op, check);
      reduce_op_totals(comm, totals, out);
      report_setup(comm, samples, *a, out);
      if (comm.rank() == 0) {
        out.layers.num("core.updated_elements", 0.0)
            .num("pla.cg_iterations", 0.0);
        out.config = base_config(args)
                         .integer("ranks", comm.size())
                         .integer("compute_threads", comm.size() * omp_threads())
                         .str("problem", "hex20 elasticity, structured box")
                         .integer("elements_per_edge", kElems)
                         .integer("dofs", setup->total_dofs())
                         .integer("elements", setup->total_elements)
                         .str("partitioner", "slab")
                         .str("backend", "hymv")
                         .str("layout", core::to_string(hymv.store().layout()))
                         .str("schedule", core::to_string(hymv.options().schedule))
                         .integer("taskgraph", hymv.options().taskgraph ? 1 : 0)
                         .integer("applies_per_op", kAppliesPerOp)
                         .integer("input_vectors", kPool)
                         .num("spmv_tolerance_max",
                              spmv_tolerance(ref.max_row_len, ref.max_abs_a, 1.0));
      }
    });
  }
}

}  // namespace perfbench
