#pragma once

/// \file bench_common.hpp
/// Shared harness for the paper-reproduction benchmarks (one binary per
/// table/figure; see DESIGN.md §4).
///
/// Reporting conventions:
///  * raw wall times are measured on this machine, where all simmpi ranks
///    time-share one core — they show relative method cost at a fixed rank
///    count but NOT scaling;
///  * "modeled" times put each rank's measured thread-CPU work and its real
///    recorded message traffic through the α-β cluster model
///    (hymv::perf), producing the scaling curves the paper's figures show;
///  * GPU numbers use the simulator's virtual clock calibrated to
///    8× this host's measured dense-EMV throughput (the paper's observed
///    GPU/CPU ratio class), as documented in DESIGN.md.
///
/// Problem sizes are the paper's shapes scaled to one machine; set
/// HYMV_BENCH_SCALE=<f> to scale linear mesh resolution by f.

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hymv/common/env.hpp"
#include "hymv/common/timer.hpp"
#include "hymv/driver/driver.hpp"
#include "hymv/perfmodel/perfmodel.hpp"
#include "hymv/simmpi/simmpi.hpp"

namespace bench {

using namespace hymv;

/// Hand-rolled JSON accumulator shared by every bench binary: a flat array
/// of row objects under a "bench" tag. Rows are pre-encoded JSON object
/// bodies (`doc.add("\"ranks\": %d, \"spmv_s\": %.6g", p, s)`), so the
/// schema stays next to the printf that shows the same numbers. The format
/// is what tools/bench_compare.py consumes and EXPERIMENTS.md documents.
struct JsonDoc {
  std::string bench;
  std::vector<std::string> rows;

  explicit JsonDoc(std::string name) : bench(std::move(name)) {}

  void add(const char* fmt, ...) {
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    rows.emplace_back(buf);
  }

  [[nodiscard]] bool write(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n", bench.c_str());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f, "    {%s}%s\n", rows[i].c_str(),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

  /// Write if --json was given; returns false (after a stderr message)
  /// only on an I/O failure, so mains can `return finish(...) ? 0 : 1`.
  [[nodiscard]] bool finish(const char* path) const {
    if (path == nullptr) {
      return true;
    }
    if (!write(path)) {
      std::fprintf(stderr, "bench: cannot write %s\n", path);
      return false;
    }
    std::printf("wrote %s (%zu rows)\n", path, rows.size());
    return true;
  }
};

/// Parse the standard bench CLI `[--json <path>]`. Returns the path or
/// nullptr; on any other argument prints usage and exits 2.
inline const char* parse_json_arg(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
      std::exit(2);
    }
  }
  return json_path;
}

/// Linear-resolution scale factor from HYMV_BENCH_SCALE.
inline double scale_factor() {
  return hymv::env_double("HYMV_BENCH_SCALE", 1.0);
}

/// Scale a linear mesh resolution, keeping it >= 2.
inline std::int64_t scaled(std::int64_t n) {
  const auto s = static_cast<std::int64_t>(
      std::llround(static_cast<double>(n) * scale_factor()));
  return std::max<std::int64_t>(2, s);
}

/// GPU/CPU dense throughput ratio used to calibrate the simulated device.
inline constexpr double kGpuSpeedup = 8.0;

/// One calibrated device spec per process (measured once).
inline gpu::DeviceSpec calibrated_device_spec() {
  static const gpu::DeviceSpec spec = gpu::DeviceSpec::calibrated(
      perf::measure_host_emv_gflops(), kGpuSpeedup);
  return spec;
}

/// Aggregated (across ranks) measurements of one backend on one problem.
struct AggResult {
  // Setup, split the way the paper's stacked bars are (seconds):
  double setup_emat_s = 0.0;       ///< max over ranks, element matrices
  double setup_insert_s = 0.0;     ///< assembled: insertion; hymv: copy+maps
  double setup_comm_s = 0.0;       ///< modeled migration communication
  double setup_gpu_upload_s = 0.0; ///< device-residency upload (virtual)
  // SPMV over `napplies` products:
  int napplies = 0;
  double spmv_wall_s = 0.0;     ///< max over ranks, raw wall
  double spmv_modeled_s = 0.0;  ///< α-β modeled (or GPU-modeled) time
  double gflops_modeled = 0.0;  ///< total flops / modeled time
  std::int64_t flops = 0;       ///< total across ranks
  std::int64_t bytes = 0;

  [[nodiscard]] double setup_total_s() const {
    return setup_emat_s + setup_insert_s + setup_comm_s + setup_gpu_upload_s;
  }
};

struct BackendRun {
  driver::Backend backend = driver::Backend::kHymv;
  core::HymvOptions hymv{};
  core::HymvGpuOptions gpu{};
  bool use_device = false;
  /// Modeled shared-memory threads per rank (hybrid MPI+OpenMP runs): the
  /// modeled compute time is divided by threads × efficiency.
  int threads_per_rank = 1;
  double thread_efficiency = 0.95;
};

/// Run `napplies` SPMVs of one backend on a prebuilt problem, as one
/// simmpi job run with `job`, and aggregate per-rank reports into
/// paper-style numbers.
inline AggResult run_backend(
    const driver::ProblemSetup& setup, const BackendRun& run, int napplies,
    const simmpi::RunOptions& job = simmpi::RunOptions::from_env()) {
  const perf::ClusterSpec cluster;
  const int p = setup.nranks;
  std::vector<driver::SpmvReport> reports(static_cast<std::size_t>(p));
  std::vector<double> gpu_modeled(static_cast<std::size_t>(p), 0.0);
  std::mutex mutex;
  simmpi::run(p, [&](simmpi::Comm& comm) {
    driver::RankContext ctx(comm, setup);
    driver::MeasureOptions options;
    options.hymv = run.hymv;
    options.gpu = run.gpu;
    std::unique_ptr<gpu::Device> device;
    if (run.use_device) {
      device = std::make_unique<gpu::Device>(calibrated_device_spec());
      options.device = device.get();
    }
    const driver::SpmvReport report =
        driver::measure_spmv(comm, ctx, run.backend, napplies, options);
    std::lock_guard<std::mutex> lock(mutex);
    reports[static_cast<std::size_t>(comm.rank())] = report;
  }, job);

  AggResult agg;
  agg.napplies = napplies;
  std::vector<perf::RankSample> setup_samples, spmv_samples;
  for (const driver::SpmvReport& r : reports) {
    agg.setup_emat_s = std::max(agg.setup_emat_s, r.setup.emat_compute_s);
    agg.setup_insert_s = std::max(
        agg.setup_insert_s,
        r.setup.assembly_s + r.setup.local_copy_s + r.setup.maps_s);
    agg.setup_gpu_upload_s =
        std::max(agg.setup_gpu_upload_s, r.setup.gpu_upload_virtual_s);
    agg.spmv_wall_s = std::max(agg.spmv_wall_s, r.spmv_wall_s);
    agg.flops += r.flops;
    agg.bytes += r.bytes;
    setup_samples.push_back(
        {.compute_s = 0.0, .messages = r.setup.comm_messages,
         .bytes = r.setup.comm_bytes});
    spmv_samples.push_back({.compute_s = r.spmv_cpu_s,
                            .messages = r.comm_messages,
                            .bytes = r.comm_bytes});
  }
  agg.setup_comm_s = perf::model_phase(setup_samples, cluster).comm_s;

  const bool is_gpu = run.backend == driver::Backend::kHymvGpu ||
                      run.backend == driver::Backend::kAssembledGpu;
  if (is_gpu) {
    // GPU modeled time already accounts for host+device overlap per rank;
    // add the modeled network component on top.
    double worst = 0.0;
    for (const driver::SpmvReport& r : reports) {
      worst = std::max(worst, r.spmv_modeled_s);
    }
    agg.spmv_modeled_s =
        worst + perf::model_phase(spmv_samples, cluster).comm_s;
  } else {
    perf::ClusterSpec spec = cluster;
    spec.compute_scale =
        1.0 / (run.threads_per_rank * run.thread_efficiency);
    if (run.threads_per_rank == 1) {
      spec.compute_scale = 1.0;
    }
    agg.spmv_modeled_s = perf::model_phase(spmv_samples, spec).total_s();
  }
  agg.gflops_modeled = agg.spmv_modeled_s > 0.0
                           ? static_cast<double>(agg.flops) /
                                 agg.spmv_modeled_s / 1e9
                           : 0.0;
  return agg;
}

/// Print the standard scaling-row header used by the figure benches.
inline void print_scaling_header(bool with_breakdown) {
  if (with_breakdown) {
    std::printf(
        "%-6s %-10s | %-34s | %-34s | %-12s %-12s %-12s\n", "ranks", "DoFs",
        "assembled setup (emat/insert/comm)", "hymv setup (emat/copy/comm)",
        "spmv:asm", "spmv:hymv", "spmv:mfree");
  } else {
    std::printf("%-6s %-10s %-14s %-14s %-14s\n", "ranks", "DoFs",
                "spmv:asm", "spmv:hymv", "spmv:mfree");
  }
}

}  // namespace bench
