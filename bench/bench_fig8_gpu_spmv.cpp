// Reproduces paper Fig. 8 (plus the §V-D stream-count sweep):
//   (a) single node, increasing DoFs: CPU vs GPU setup and 10×SPMV — GPU
//       speedup roughly constant (~7.4× at 25.1M DoFs in the paper);
//       stream-count sweep showing 8 streams performs best;
//   (b) weak scaling with the three overlap schemes: GPU (blocking),
//       GPU/CPU(O) and GPU/GPU(O) — GPU/CPU(O) degrades as the
//       dependent/independent ratio grows.
//
// GPU times are the simulator's calibrated virtual clock (DESIGN.md).

#include "bench_common.hpp"

#include "hymv/driver/env_options.hpp"

namespace {

using namespace bench;

driver::ProblemSpec spec_for(std::int64_t n, std::int64_t nz) {
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kElasticity;
  spec.element = mesh::ElementType::kHex20;
  spec.box = {.nx = n, .ny = n, .nz = nz, .lx = 1.0, .ly = 1.0, .lz = 1.0,
              .origin = {-0.5, -0.5, 0.0}};
  spec.partitioner = mesh::Partitioner::kSlab;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const int napplies = 10;
  const char* json_path = parse_json_arg(argc, argv);
  JsonDoc json("fig8_gpu_spmv");
  const core::HymvOptions host_options = driver::hymv_options_from_env();

  std::printf("=== §V-D: stream-count sweep (elasticity hex20, 1 rank, "
              "10x SPMV) ===\n");
  std::printf("%-8s %-22s\n", "streams", "device pipeline (s)");
  {
    // Isolate the stream-pipelining effect on the device's virtual clock
    // (host staging is identical for every stream count).
    const driver::ProblemSetup setup =
        driver::ProblemSetup::build(spec_for(scaled(10), scaled(20)), 1);
    for (const int ns : {1, 2, 4, 8, 16}) {
      double device_s = 0.0;
      simmpi::run(1, [&](simmpi::Comm& comm) {
        driver::RankContext ctx(comm, setup);
        gpu::Device device(calibrated_device_spec());
        core::HymvGpuOperator op(comm, ctx.part(), ctx.element_op(), device,
                                 {.num_streams = ns, .host = host_options});
        pla::DistVector x(op.layout()), y(op.layout());
        x.set_all(1.0);
        op.apply(comm, x, y);  // warm-up
        op.reset_timings();
        for (int k = 0; k < napplies; ++k) {
          op.apply(comm, x, y);
        }
        device_s = op.timings().device_virtual_s;
      });
      std::printf("%-8d %-22.5f\n", ns, device_s);
      json.add("\"mode\": \"streams\", \"streams\": %d, "
               "\"device_s\": %.6g",
               ns, device_s);
    }
  }
  std::printf("paper: 8 streams best (transfers hidden behind kernels; too\n"
              "many streams add launch latency for no extra overlap).\n\n");

  std::printf("=== Fig. 8a: single node, increasing DoFs (2 ranks) ===\n");
  std::printf("%-10s %-12s %-12s %-12s %-12s %-10s\n", "DoFs", "cpu setup",
              "gpu setup", "cpu spmv", "gpu spmv", "speedup");
  for (const std::int64_t n : {4, 6, 8, 10, 13}) {
    const driver::ProblemSetup setup =
        driver::ProblemSetup::build(spec_for(scaled(n), scaled(2 * n)), 2);
    const AggResult cpu = run_backend(
        setup, {.backend = driver::Backend::kHymv}, napplies);
    const AggResult gpu = run_backend(
        setup,
        {.backend = driver::Backend::kHymvGpu, .gpu = {.num_streams = 8},
         .use_device = true},
        napplies);
    std::printf("%-10lld %-12.4f %-12.4f %-12.4f %-12.4f %-10.2f\n",
                static_cast<long long>(setup.total_dofs()),
                cpu.setup_total_s(), gpu.setup_total_s(), cpu.spmv_modeled_s,
                gpu.spmv_modeled_s, cpu.spmv_modeled_s / gpu.spmv_modeled_s);
    json.add("\"mode\": \"dofs\", \"dofs\": %lld, "
             "\"cpu_setup_s\": %.6g, \"gpu_setup_s\": %.6g, "
             "\"cpu_spmv_s\": %.6g, \"gpu_spmv_s\": %.6g",
             static_cast<long long>(setup.total_dofs()), cpu.setup_total_s(),
             gpu.setup_total_s(), cpu.spmv_modeled_s, gpu.spmv_modeled_s);
  }
  std::printf("paper shape: speedup ~constant (7.4x at 25.1M DoFs); GPU\n"
              "setup slightly above CPU setup (one-time element-matrix "
              "upload).\n\n");

  std::printf("=== Fig. 8b: weak scaling, three overlap schemes (10x SPMV, "
              "s) ===\n");
  std::printf("%-6s %-10s %-12s %-12s %-14s %-14s\n", "ranks", "DoFs",
              "cpu", "gpu", "gpu/cpu(O)", "gpu/gpu(O)");
  for (const int p : {1, 2, 4, 8}) {
    const driver::ProblemSetup setup =
        driver::ProblemSetup::build(spec_for(scaled(6), scaled(7) * p), p);
    const AggResult cpu = run_backend(
        setup, {.backend = driver::Backend::kHymv}, napplies);
    AggResult gpu_modes[3];
    const core::GpuOverlapMode modes[3] = {core::GpuOverlapMode::kNone,
                                           core::GpuOverlapMode::kGpuCpu,
                                           core::GpuOverlapMode::kGpuGpu};
    for (int m = 0; m < 3; ++m) {
      gpu_modes[m] = run_backend(
          setup,
          {.backend = driver::Backend::kHymvGpu,
           .gpu = {.num_streams = 8, .mode = modes[m]},
           .use_device = true},
          napplies);
    }
    std::printf("%-6d %-10lld %-12.4f %-12.4f %-14.4f %-14.4f\n", p,
                static_cast<long long>(setup.total_dofs()),
                cpu.spmv_modeled_s, gpu_modes[0].spmv_modeled_s,
                gpu_modes[1].spmv_modeled_s, gpu_modes[2].spmv_modeled_s);
    json.add("\"mode\": \"overlap\", \"ranks\": %d, \"dofs\": %lld, "
             "\"cpu_spmv_s\": %.6g, \"gpu_spmv_s\": %.6g, "
             "\"gpu_cpu_o_spmv_s\": %.6g, \"gpu_gpu_o_spmv_s\": %.6g",
             p, static_cast<long long>(setup.total_dofs()),
             cpu.spmv_modeled_s, gpu_modes[0].spmv_modeled_s,
             gpu_modes[1].spmv_modeled_s, gpu_modes[2].spmv_modeled_s);
  }
  std::printf("\npaper shape: GPU ~7.5x faster than CPU; GPU and GPU/GPU(O)\n"
              "comparable at this scale; GPU/CPU(O) degrades with more ranks\n"
              "(larger dependent/independent element ratio on the host).\n");
  return json.finish(json_path) ? 0 : 1;
}
