#include "hymv/perfmodel/perfmodel.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "hymv/common/aligned.hpp"
#include "hymv/common/env.hpp"
#include "hymv/common/error.hpp"
#include "hymv/common/numa.hpp"
#include "hymv/common/rng.hpp"
#include "hymv/common/timer.hpp"
#include "hymv/core/dense_kernels.hpp"

namespace hymv::perf {

ModeledPhase model_phase(std::span<const RankSample> ranks,
                         const ClusterSpec& spec) {
  HYMV_CHECK_MSG(!ranks.empty(), "model_phase: no rank samples");
  ModeledPhase phase;
  for (const RankSample& r : ranks) {
    phase.compute_s = std::max(phase.compute_s, r.compute_s * spec.compute_scale);
    const double comm = spec.alpha_s * static_cast<double>(r.messages) +
                        spec.beta_s_per_byte * static_cast<double>(r.bytes);
    phase.comm_s = std::max(phase.comm_s, comm);
  }
  return phase;
}

RankSample make_sample(double compute_s,
                       const simmpi::TrafficCounters& before,
                       const simmpi::TrafficCounters& after) {
  RankSample sample;
  sample.compute_s = compute_s;
  sample.messages = after.messages_sent - before.messages_sent;
  sample.bytes = after.bytes_sent - before.bytes_sent;
  return sample;
}

std::string format_roofline_table(std::span<const RooflineSample> samples) {
  std::ostringstream os;
  os << "method               GFLOP      bytes(GB)  AI(F/B)    time(s)    "
        "GFLOP/s\n";
  for (const RooflineSample& s : samples) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-20s %-10.3f %-10.3f %-10.4f %-10.4f %-10.3f\n",
                  s.name.c_str(), static_cast<double>(s.flops) / 1e9,
                  static_cast<double>(s.bytes) / 1e9,
                  s.arithmetic_intensity(), s.seconds, s.gflops());
    os << line;
  }
  return os.str();
}

double measure_host_emv_gflops(int n, int batches) {
  HYMV_CHECK_MSG(n > 0 && batches > 0, "measure_host_emv_gflops: bad args");
  const auto un = static_cast<std::size_t>(n);
  const std::size_t ld = hymv::round_up_to(un, 8);
  hymv::Xoshiro256 rng(123);
  hymv::aligned_vector<double> ke(ld * un);
  hymv::aligned_vector<double> u(un), v(un);
  for (double& x : ke) {
    x = rng.uniform(-1.0, 1.0);
  }
  for (double& x : u) {
    x = rng.uniform(-1.0, 1.0);
  }
  // Warmup.
  for (int b = 0; b < 10; ++b) {
    core::emv_simd(ke.data(), ld, un, u.data(), v.data());
  }
  hymv::Timer timer;
  double sink = 0.0;
  for (int b = 0; b < batches; ++b) {
    core::emv_simd(ke.data(), ld, un, u.data(), v.data());
    sink += v[0];
  }
  const double seconds = timer.elapsed_s();
  // Defeat dead-code elimination without perturbing the timing.
  if (sink == 42.424242) {
    return -1.0;
  }
  const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(batches);
  return flops / seconds / 1e9;
}

CpuSpec CpuSpec::from_env() {
  CpuSpec spec;
  spec.peak_flops_per_s =
      env_double_above("HYMV_CPU_PEAK_GFLOPS", spec.peak_flops_per_s / 1e9,
                       0.0) *
      1e9;
  // Memory ceiling precedence: explicit HYMV_CPU_MEM_GBPS > measured STREAM
  // triad (numa.hpp; one cached ~10 ms probe, HYMV_TRIAD_PROBE=0 disables)
  // > the compiled-in default. The probe only steers adaptive *decisions* —
  // every backend is bitwise-identical, so this never changes results.
  const double triad = hymv::numa::measured_triad_bytes_per_s();
  if (triad > 0.0) {
    spec.mem_bytes_per_s = triad;
  }
  // Unset, the override returns its fallback; scaling that back to B/s
  // would round the measured triad in its last bits.
  const double gbps = spec.mem_bytes_per_s / 1e9;
  const double bw = env_double_above("HYMV_CPU_MEM_GBPS", gbps, 0.0);
  if (bw != gbps) {
    spec.mem_bytes_per_s = bw * 1e9;
  }
  return spec;
}

double modeled_apply_s(const CpuSpec& spec, std::int64_t flops,
                       std::int64_t bytes) {
  const double compute_s =
      static_cast<double>(flops) / spec.peak_flops_per_s;
  const double memory_s = static_cast<double>(bytes) / spec.mem_bytes_per_s;
  return std::max(compute_s, memory_s);
}

}  // namespace hymv::perf
