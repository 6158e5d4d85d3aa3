// Google-benchmark microbenchmarks of the performance-critical kernels:
// the EMV kernels (paper §IV-E), CSR SpMV row traversal, ILU(0) triangular
// solves, and the ghost-exchange pack loop. These isolate the node-local
// claims (dense column-major EMV vs irregular CSR) from the distributed
// machinery.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "emv_reference.hpp"

#include "hymv/common/aligned.hpp"
#include "hymv/common/isa.hpp"
#include "hymv/common/rng.hpp"
#include "hymv/core/dense_kernels.hpp"
#include "hymv/pla/csr.hpp"

namespace {

using hymv::aligned_vector;

/// Batch of dense element matrices + vectors for EMV benchmarks. Element
/// b owns entries b*n .. b*n+n-1 of u and v, which is its E2L row.
struct EmvFixture {
  std::size_t n;
  std::size_t ld;
  std::size_t nbatch;
  aligned_vector<double> ke;
  aligned_vector<double> u;
  aligned_vector<double> v;
  std::vector<std::int64_t> e2l;
  std::vector<std::int64_t> order;

  explicit EmvFixture(std::size_t n_, std::size_t nbatch_ = 512)
      : n(n_), ld(hymv::round_up_to(n_, 8)), nbatch(nbatch_),
        ke(nbatch * ld * n), u(nbatch * n), v(nbatch * n), e2l(nbatch * n),
        order(nbatch) {
    hymv::Xoshiro256 rng(7);
    for (double& x : ke) {
      x = rng.uniform(-1.0, 1.0);
    }
    for (double& x : u) {
      x = rng.uniform(-1.0, 1.0);
    }
    std::iota(e2l.begin(), e2l.end(), std::int64_t{0});
    std::iota(order.begin(), order.end(), std::int64_t{0});
  }

  /// The stored-matrix register sweep over the whole batch.
  void sweep() {
    hymv::core::dense_sweep_body<double>(ld)(
        {ke.data(), ld * n, ld, n, e2l.data(), order.data(), 0,
         static_cast<std::int64_t>(nbatch), u.data(), v.data()});
  }
};

void report_emv(benchmark::State& state, const EmvFixture& fx) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.nbatch));
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(fx.n) * static_cast<double>(fx.n) *
          static_cast<double>(fx.nbatch) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

/// One single-element kernel call per matrix of the batch.
void bench_emv(benchmark::State& state,
               void (*emv)(const double*, std::size_t, std::size_t,
                           const double*, double*)) {
  EmvFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (std::size_t b = 0; b < fx.nbatch; ++b) {
      emv(fx.ke.data() + b * fx.ld * fx.n, fx.ld, fx.n,
          fx.u.data() + b * fx.n, fx.v.data() + b * fx.n);
    }
    benchmark::DoNotOptimize(fx.v.data());
    benchmark::ClobberMemory();
  }
  report_emv(state, fx);
}

/// The row-dot reference (tests/emv_reference.hpp).
void BM_EmvScalar(benchmark::State& state) {
  bench_emv(state, &hymv::reference::emv_rowdot);
}
/// The compiler-vectorized kernel the matrix-free operators run.
void BM_EmvSimd(benchmark::State& state) {
  bench_emv(state, &hymv::core::emv_simd);
}
/// The register sweep stored matrices run, gathering and scatter-adding
/// through the E2L row like an apply.
void BM_EmvSweep(benchmark::State& state) {
  EmvFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    fx.sweep();
    benchmark::DoNotOptimize(fx.v.data());
    benchmark::ClobberMemory();
  }
  report_emv(state, fx);
}

// Element sizes: hex8 Poisson (8), hex8 elasticity (24), hex20 elasticity
// (60), hex27 elasticity (81).
BENCHMARK(BM_EmvScalar)->Arg(8)->Arg(24)->Arg(60)->Arg(81);
BENCHMARK(BM_EmvSimd)->Arg(8)->Arg(24)->Arg(60)->Arg(81);
BENCHMARK(BM_EmvSweep)->Arg(8)->Arg(24)->Arg(60)->Arg(81);

/// CSR SpMV with FEM-like sparsity (27 nonzeros/row) and either local or
/// shuffled (irregular) column indices — the access-pattern contrast that
/// drives the paper's unstructured results.
void bench_csr(benchmark::State& state, bool shuffled) {
  const std::int64_t n = state.range(0);
  const int nnz_per_row = 27;
  hymv::Xoshiro256 rng(11);
  std::vector<hymv::pla::Triplet> trip;
  trip.reserve(static_cast<std::size_t>(n * nnz_per_row));
  for (std::int64_t r = 0; r < n; ++r) {
    for (int k = 0; k < nnz_per_row; ++k) {
      std::int64_t c;
      if (shuffled) {
        c = static_cast<std::int64_t>(
            rng.uniform_int(static_cast<std::uint64_t>(n)));
      } else {
        c = std::clamp<std::int64_t>(r + k - nnz_per_row / 2, 0, n - 1);
      }
      trip.push_back({r, c, 1.0});
    }
  }
  const auto m = hymv::pla::CsrMatrix::from_triplets(n, n, std::move(trip));
  std::vector<double> x(static_cast<std::size_t>(n), 1.0);
  std::vector<double> y(static_cast<std::size_t>(n));
  for (auto _ : state) {
    m.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m.num_nonzeros()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

void BM_CsrSpmvBanded(benchmark::State& state) { bench_csr(state, false); }
void BM_CsrSpmvShuffled(benchmark::State& state) { bench_csr(state, true); }
BENCHMARK(BM_CsrSpmvBanded)->Arg(1 << 14)->Arg(1 << 17);
BENCHMARK(BM_CsrSpmvShuffled)->Arg(1 << 14)->Arg(1 << 17);

/// ILU(0) triangular solve (the block-Jacobi sub-solve cost).
void BM_IluSolve(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::vector<hymv::pla::Triplet> trip;
  for (std::int64_t i = 0; i < n; ++i) {
    trip.push_back({i, i, 4.0});
    if (i > 0) trip.push_back({i, i - 1, -1.0});
    if (i < n - 1) trip.push_back({i, i + 1, -1.0});
    if (i >= 32) trip.push_back({i, i - 32, -0.5});
    if (i + 32 < n) trip.push_back({i, i + 32, -0.5});
  }
  const auto m = hymv::pla::CsrMatrix::from_triplets(n, n, std::move(trip));
  const hymv::pla::Ilu0 ilu(m);
  std::vector<double> b(static_cast<std::size_t>(n), 1.0);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto _ : state) {
    ilu.solve(b, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_IluSolve)->Arg(1 << 12)->Arg(1 << 15);

/// Best-of-reps wall seconds per call. Calibrates the inner repeat so a
/// rep runs >= ~2 ms (steady_clock granularity and SMT noise both drown
/// below that), then keeps the fastest rep — wall noise on a shared
/// machine is strictly additive.
template <typename Fn>
double best_seconds_per_call(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  const auto once = [&fn](int iters) {
    const auto t0 = clock::now();
    for (int i = 0; i < iters; ++i) {
      fn();
    }
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  const double probe = std::max(once(1), 1e-9);
  const int iters =
      static_cast<int>(std::clamp(2e-3 / probe, 1.0, 100000.0));
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    best = std::min(best, once(iters) / iters);
  }
  return best;
}

/// The `--json` mode: a compact per-ISA sweep of the runtime-dispatched
/// kernels written in the repo-wide flat JsonDoc schema (bench: "kernels",
/// identity fields kernel/isa/n, metrics gflops/gbytes_per_s) so
/// tools/bench_compare.py can diff runs. Each forced level plus the
/// runtime default ("auto") gets a row; the google-benchmark suite stays
/// the interactive/no-flag mode.
int run_isa_sweep(const char* json_path) {
  namespace isa = hymv::isa;
  bench::JsonDoc json("kernels");
  const int detected = static_cast<int>(isa::detected());
  std::printf("=== per-ISA kernel sweep (detected: %s) ===\n",
              std::string(isa::to_string(isa::detected())).c_str());
  for (int li = 0; li <= detected + 1; ++li) {
    const bool is_auto = li > detected;
    if (is_auto) {
      isa::reset();
    } else {
      isa::force(static_cast<isa::IsaLevel>(li));
    }
    const std::string isa_name =
        is_auto ? "auto" : std::string(isa::to_string(isa::active()));

    // Dispatched dense EMV: the stored-matrix register sweep.
    for (const std::size_t n : {std::size_t{8}, std::size_t{24},
                                std::size_t{60}, std::size_t{81}}) {
      EmvFixture fx(n);
      const double s = best_seconds_per_call([&fx] { fx.sweep(); });
      const double flops = 2.0 * static_cast<double>(n) *
                           static_cast<double>(n) *
                           static_cast<double>(fx.nbatch);
      const double bytes = 8.0 *
                           (static_cast<double>(fx.ld * n) +
                            2.0 * static_cast<double>(n)) *
                           static_cast<double>(fx.nbatch);
      std::printf("  emv  isa=%-7s n=%-3zu %8.2f GFLOP/s %8.2f GB/s\n",
                  isa_name.c_str(), n, flops / s / 1e9, bytes / s / 1e9);
      json.add("\"kernel\": \"emv\", \"isa\": \"%s\", \"n\": %lld, "
               "\"gflops\": %.6g, \"gbytes_per_s\": %.6g",
               isa_name.c_str(), static_cast<long long>(n), flops / s / 1e9,
               bytes / s / 1e9);
    }

    // Dispatched CSR SpMV (cross-row block kernels), banded vs shuffled.
    for (const bool shuffled : {false, true}) {
      const std::int64_t n = 1 << 14;
      const int nnz_per_row = 27;
      hymv::Xoshiro256 rng(11);
      std::vector<hymv::pla::Triplet> trip;
      trip.reserve(static_cast<std::size_t>(n * nnz_per_row));
      for (std::int64_t r = 0; r < n; ++r) {
        for (int k = 0; k < nnz_per_row; ++k) {
          const std::int64_t c =
              shuffled ? static_cast<std::int64_t>(rng.uniform_int(
                             static_cast<std::uint64_t>(n)))
                       : std::clamp<std::int64_t>(r + k - nnz_per_row / 2,
                                                  0, n - 1);
          trip.push_back({r, c, 1.0});
        }
      }
      const auto m =
          hymv::pla::CsrMatrix::from_triplets(n, n, std::move(trip));
      std::vector<double> x(static_cast<std::size_t>(n), 1.0);
      std::vector<double> y(static_cast<std::size_t>(n));
      const double s = best_seconds_per_call([&m, &x, &y] { m.spmv(x, y); });
      const double nnz = static_cast<double>(m.num_nonzeros());
      const double flops = 2.0 * nnz;
      const double bytes =
          16.0 * nnz + 16.0 * static_cast<double>(n) +
          8.0 * static_cast<double>(n + 1);  // vals+cols, x+y, row_ptr
      const char* kernel = shuffled ? "csr-shuffled" : "csr-banded";
      std::printf("  %-12s isa=%-7s n=%-6lld %6.2f GFLOP/s %8.2f GB/s\n",
                  kernel, isa_name.c_str(), static_cast<long long>(n),
                  flops / s / 1e9, bytes / s / 1e9);
      json.add("\"kernel\": \"%s\", \"isa\": \"%s\", \"n\": %lld, "
               "\"gflops\": %.6g, \"gbytes_per_s\": %.6g",
               kernel, isa_name.c_str(), static_cast<long long>(n),
               flops / s / 1e9, bytes / s / 1e9);
    }
  }
  isa::reset();
  return json.finish(json_path) ? 0 : 1;
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): with the repo-wide
// `--json <path>` flag the binary runs the hand-rolled per-ISA dispatch
// sweep and writes the flat JsonDoc schema tools/bench_compare.py
// consumes (identity: kernel/isa/n; metrics: gflops/gbytes_per_s).
// Without it, the google-benchmark suite runs as before.
int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      return run_isa_sweep(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
