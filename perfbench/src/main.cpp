// perfbench: one workload process of the repository benchmark. run.py
// builds this binary, fixes the thread budget in its environment, and
// turns the raw samples it writes into metrics.
//
//   perfbench --workload NAME --seed N --seconds S --out FILE
//             [--ranks R] [--repeats R] [--trace-file FILE] [--reference FILE]
//
// --seconds 0 only sets the workload up, --repeats times (for setup_s).
//   perfbench --make-reference FILE --seed N [--ranks R]
//   perfbench --canary

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "hymv/common/numa.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  long long value = 0;
  try {
    value = std::stoll(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size()) {
    usage(flag + " expects an integer, got '" + text + "'");
  }
  return value;
}

double parse_double(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size()) {
    usage(flag + " expects a number, got '" + text + "'");
  }
  return value;
}

/// Host-drift canary: a fixed single-thread dependent multiply-add chain
/// and a single-thread STREAM triad, each the median of five passes.
Json canary() {
  constexpr int kPasses = 5;
  constexpr long kChain = 20'000'000;
  constexpr std::size_t kTriad = std::size_t{1} << 21;  // 3 × 16 MiB arrays
  // Run-time inputs, so the compiler cannot fold the chain away.
  volatile double scale_in = 0.9999999;
  volatile double shift_in = 1e-7;
  const double scale = scale_in;
  const double shift = shift_in;
  std::vector<double> chain_ms;
  volatile double sink = 0.0;
  for (int p = 0; p < kPasses; ++p) {
    const Clock::time_point t0 = Clock::now();
    double x = sink + 1.0;
    for (long i = 0; i < kChain; ++i) {
      x = x * scale + shift;
    }
    sink = x;
    chain_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  std::vector<double> a(kTriad, 0.0), b(kTriad, 1.0), c(kTriad, 2.0);
  std::vector<double> triad_gbps;
  for (int p = 0; p < kPasses; ++p) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kTriad; ++i) {
      a[i] = b[i] + scale * c[i];
    }
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    sink = a[p];
    triad_gbps.push_back(3.0 * sizeof(double) * kTriad / s / 1e9);
  }
  (void)sink;
  Json out;
  out.num("compute_ms", median(chain_ms)).num("triad_gbps", median(triad_gbps));
  return out;
}

std::string result_json(const Result& r, double peak_rss_mb,
                        const std::string& trace_file) {
  Json j;
  j.obj("config", r.config)
      .nums("setup_s", r.setup_s)
      .nums("op_ms", r.op_ms)
      .num("timed_wall_s", r.timed_wall_s)
      .integer("attempted", r.attempted)
      .integer("failed", r.failed)
      .num("peak_rss_mb", peak_rss_mb)
      .obj("layers", r.layers)
      .nums("svc_queue_ms", r.svc_queue_ms)
      .nums("svc_solve_ms", r.svc_solve_ms)
      .str("trace_file", trace_file);
  return j.dump();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string out_path;
  std::string make_reference;
  bool run_canary = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--canary") {
      run_canary = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage(flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(parse_int(flag, value));
    } else if (flag == "--seconds") {
      args.seconds = parse_double(flag, value);
    } else if (flag == "--ranks") {
      args.ranks = static_cast<int>(parse_int(flag, value));
    } else if (flag == "--repeats") {
      args.repeats = static_cast<int>(parse_int(flag, value));
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else if (flag == "--reference") {
      args.reference = value;
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--make-reference") {
      make_reference = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.ranks < 1 || args.ranks > 8 || args.repeats < 1 ||
      !(args.seconds >= 0.0)) {
    usage("--ranks must be in [1, 8], --repeats >= 1, --seconds >= 0");
  }

  try {
    if (run_canary) {
      std::printf("%s\n", canary().dump().c_str());
      return 0;
    }
    if (!make_reference.empty()) {
      write_spmv_reference(args, make_reference);
      return 0;
    }
    if (out_path.empty()) {
      usage("--out is required");
    }
    Tracer tracer(!args.trace_file.empty(), 1 + args.ranks);
    Result result;
    if (args.workload == "spmv-hex20") {
      run_spmv(args, tracer, result);
    } else if (args.workload == "crack-hex8") {
      run_crack(args, tracer, result);
    } else if (args.workload == "service-tet4") {
      run_service(args, tracer, result);
    } else {
      usage("unknown workload '" + args.workload + "'");
    }
    rusage usage_self{};
    getrusage(RUSAGE_SELF, &usage_self);
    const double peak_rss_mb = static_cast<double>(usage_self.ru_maxrss) / 1024.0;
    if (!args.trace_file.empty()) {
      // Probed after the workload: a traced run reports no memory metric.
      result.layers.num("triad_bytes_per_s",
                        hymv::numa::measured_triad_bytes_per_s());
      tracer.write_chrome(args.trace_file, result.config);
    }
    const std::string text =
        result_json(result, peak_rss_mb, args.trace_file) + "\n";
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("cannot write " + out_path);
    }
    const bool written = std::fputs(text.c_str(), f) >= 0;
    if (std::fclose(f) != 0 || !written) {
      throw std::runtime_error("cannot write " + out_path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  return 0;
}
