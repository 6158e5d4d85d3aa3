/// bench_service: Poisson-arrival load generator for svc::SolveService.
///
/// Drives the multi-tenant service through sweeps of arrival rate ×
/// deadline × fault plan × panel width and reports, per configuration,
/// the terminal-outcome census (every request must end in exactly one
/// outcome — a hung request would hang the bench), sustained throughput,
/// and the latency percentiles (p50/p95/p99 via obs::Histogram).
///
/// The sweep shows the ISSUE's acceptance properties directly:
///   * >= 4 concurrent tenants under Poisson load, zero hung requests;
///   * batched panels beat max_panel=1 on throughput at saturation;
///   * overload sheds low-priority work while p99 stays bounded;
///   * a fault-armed run (HYMV_FAULT_SPEC) converges to fault-free
///     accuracy through service-level retries.
///
/// JSON rows (schema in EXPERIMENTS.md): kind="latency", one row per
/// configuration.

#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "hymv/core/hymv_operator.hpp"
#include "hymv/obs/metrics.hpp"
#include "hymv/svc/solve_service.hpp"

namespace {

using namespace hymv;

struct LoadConfig {
  const char* name;
  double rate_hz;         ///< Poisson arrival rate
  int requests;           ///< total submissions
  double deadline_ms;     ///< per-request deadline (<0 = none)
  int max_panel;          ///< service panel width cap
  bool faults;            ///< arm a flip-fault campaign + retries
  int queue_capacity;     ///< admission bound (small = overload shedding)
};

struct LoadResult {
  int solved = 0, rejected = 0, shed = 0, deadline_missed = 0, failed = 0;
  double wall_s = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double err_max = 0.0;
  std::int64_t retries = 0;
  std::int64_t cache_hits = 0;
};

constexpr const char* kTenants[4] = {"alpha", "beta", "gamma", "delta"};

svc::SolveRequest make_request(int i, const LoadConfig& cfg) {
  svc::SolveRequest r;
  r.tenant = kTenants[i % 4];
  r.spec.pde = driver::Pde::kPoisson;
  const std::int64_t n = bench::scaled(5);
  r.spec.box = {n, n, n, 1.0, 1.0, 1.0, {0.0, 0.0, 0.0}};
  r.rhs_scale = 1.0 + 0.25 * static_cast<double>(i % 8);
  r.priority = i % 3;  // mixed priorities exercise shedding order
  r.deadline_ms = cfg.deadline_ms;
  r.rtol = 1e-6;
  r.max_attempts = cfg.faults ? 3 : 1;
  return r;
}

LoadResult run_load(const LoadConfig& cfg) {
  svc::ServiceOptions opt = svc::ServiceOptions::from_env();
  opt.workers = 2;
  opt.ranks = cfg.faults ? 2 : 1;
  opt.store_checksums = cfg.faults;
  // Fault-free loads run no fault plan and no checksummed exchange,
  // whatever the environment holds.
  opt.run.faults = {};
  opt.run.protection.checksum = cfg.faults;
  if (cfg.faults) {
    // Two-pronged fault campaign (2-rank jobs so messages actually fly):
    //  * a low-mantissa-bit flip pinned to the allreduce tag perturbs a
    //    solve-phase dot-product payload in every job — CG absorbs it and
    //    still converges to discretization accuracy;
    //  * ServiceOptions::attempt_hook (below) NaNs one element-store
    //    block on attempt 1 of every batch — CG breaks down, the service
    //    scrubs the store against its checksums and retries, and the
    //    retry converges to fault-free accuracy.
    opt.run.faults = simmpi::FaultPlan::parse(
        "flip:src=0,dest=1,tag=268435463,nth=3,bit=12", 1234);
    opt.attempt_hook = [](pla::LinearOperator& op, int attempt) {
      if (attempt != 1) {
        return;
      }
      auto* hymv = dynamic_cast<core::HymvOperator*>(&op);
      if (hymv == nullptr) {
        return;
      }
      // NaN the second stored scalar (an off-diagonal entry, so the
      // Jacobi diagonal stays finite and the failure surfaces as a CG
      // breakdown rather than a preconditioner exception).
      auto bytes = hymv->mutable_store().raw_bytes();
      std::fill(bytes.begin() + 8, bytes.begin() + 16, std::byte{0xFF});
    };
  }
  opt.max_panel = cfg.max_panel;
  opt.queue_capacity = cfg.queue_capacity;
  opt.batch_window_ms = cfg.max_panel > 1 ? 2.0 : 0.0;
  opt.watchdog_ms = 60000.0;

  LoadResult out;
  obs::Histogram latency;
  const auto t0 = std::chrono::steady_clock::now();
  {
    svc::SolveService service(opt);
    std::mt19937_64 rng(2026);
    std::exponential_distribution<double> gap(cfg.rate_hz);
    std::vector<std::future<svc::SolveResponse>> futures;
    futures.reserve(static_cast<std::size_t>(cfg.requests));
    for (int i = 0; i < cfg.requests; ++i) {
      futures.push_back(service.submit(make_request(i, cfg)));
      std::this_thread::sleep_for(std::chrono::duration<double>(gap(rng)));
    }
    for (auto& f : futures) {
      const svc::SolveResponse r = f.get();  // would hang on a lost request
      switch (r.outcome) {
        case svc::Outcome::kSolved:
          ++out.solved;
          latency.observe(r.total_ms);
          out.err_max = std::max(out.err_max, r.err_inf);
          break;
        case svc::Outcome::kRejected:
          ++out.rejected;
          break;
        case svc::Outcome::kShed:
          ++out.shed;
          break;
        case svc::Outcome::kDeadlineMissed:
          ++out.deadline_missed;
          latency.observe(r.total_ms);
          break;
        case svc::Outcome::kFailed:
          ++out.failed;
          break;
      }
      out.cache_hits += r.cache_hit ? 1 : 0;
    }
    obs::MetricsRegistry& mets = service.metrics();
    for (const char* t : kTenants) {
      out.retries +=
          mets.counter_value(std::string("svc.") + t + ".retries", 0);
    }
    service.shutdown();
  }
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
  // quantile() is NaN on an empty histogram (nothing completed — e.g. a
  // config where every request was rejected); NaN is not valid JSON, so
  // report an explicit 0 alongside the zero solved/deadline counts.
  const bool any_latency = latency.count() > 0;
  out.p50_ms = any_latency ? latency.quantile(0.50) : 0.0;
  out.p95_ms = any_latency ? latency.quantile(0.95) : 0.0;
  out.p99_ms = any_latency ? latency.quantile(0.99) : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = bench::parse_json_arg(argc, argv);
  bench::JsonDoc doc("service");

  const int base_requests =
      static_cast<int>(hymv::env_int("HYMV_BENCH_SVC_REQUESTS", 40));

  const LoadConfig configs[] = {
      // rate sweep, no deadline: baseline latency/throughput
      {"steady", 100.0, base_requests, -1.0, 8, false, 64},
      {"saturated_k1", 2000.0, base_requests, -1.0, 1, false, 64},
      {"saturated_k8", 2000.0, base_requests, -1.0, 8, false, 64},
      // overload: tiny queue forces shedding/rejection, p99 stays bounded
      {"overload", 4000.0, 2 * base_requests, -1.0, 8, false, 4},
      // tight deadline: deadline_missed shows up, nothing hangs
      {"deadline", 500.0, base_requests, 120.0, 8, false, 64},
      // fault campaign: retries recover fault-free accuracy
      {"faulted", 100.0, base_requests / 2, -1.0, 4, true, 64},
  };

  for (const LoadConfig& cfg : configs) {
    const LoadResult r = run_load(cfg);
    const double thr =
        r.wall_s > 0.0 ? static_cast<double>(r.solved) / r.wall_s : 0.0;
    std::printf(
        "%-14s rate=%6.0f/s panel=%d  solved=%3d rejected=%3d shed=%3d "
        "dl_missed=%3d failed=%3d  thr=%7.1f rps  p50=%7.2f p95=%7.2f "
        "p99=%7.2f ms  retries=%lld err=%.3e\n",
        cfg.name, cfg.rate_hz, cfg.max_panel, r.solved, r.rejected, r.shed,
        r.deadline_missed, r.failed, thr, r.p50_ms, r.p95_ms, r.p99_ms,
        static_cast<long long>(r.retries), r.err_max);
    doc.add(
        "\"kind\": \"latency\", \"config\": \"%s\", \"rate_hz\": %.1f, "
        "\"deadline_ms\": %.1f, \"faults\": %d, \"max_panel\": %d, "
        "\"requests\": %d, \"solved\": %d, \"rejected\": %d, \"shed\": %d, "
        "\"deadline_missed\": %d, \"failed\": %d, \"retries\": %lld, "
        "\"cache_hits\": %lld, \"throughput_rps\": %.3f, \"p50_ms\": %.3f, "
        "\"p95_ms\": %.3f, \"p99_ms\": %.3f, \"err_max\": %.6e",
        cfg.name, cfg.rate_hz, cfg.deadline_ms, cfg.faults ? 1 : 0,
        cfg.max_panel, cfg.requests, r.solved, r.rejected, r.shed,
        r.deadline_missed, r.failed, static_cast<long long>(r.retries),
        static_cast<long long>(r.cache_hits), thr, r.p50_ms, r.p95_ms,
        r.p99_ms, r.err_max);
  }

  return doc.finish(json_path) ? 0 : 1;
}
