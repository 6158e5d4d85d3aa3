// Lifecycle and robustness coverage for svc::SolveService (ctest labels
// `service;threading`).
//
// Every test drives the real service — worker threads, simmpi solve jobs,
// the warm cache, the watchdog — through the public API only, and pins
// the terminal-outcome contract: every submitted request resolves to
// exactly one Outcome, no matter how hostile the schedule (zero-capacity
// queues, deadlines expiring mid-CG, eviction racing a hit, shutdown with
// solves in flight, a seeded PR 4 fault campaign).

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "hymv/core/hymv_operator.hpp"
#include "hymv/driver/driver.hpp"
#include "hymv/pla/dist_vector.hpp"
#include "hymv/svc/solve_service.hpp"

namespace {

using namespace hymv;
using svc::Outcome;
using svc::ServiceOptions;
using svc::SolveRequest;
using svc::SolveResponse;
using svc::SolveService;

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Scoped environment override (restores the previous value on exit).
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

SolveRequest poisson_request(std::int64_t n, double scale = 1.0) {
  SolveRequest r;
  r.spec.pde = driver::Pde::kPoisson;
  r.spec.box = {n, n, n, 1.0, 1.0, 1.0, {0.0, 0.0, 0.0}};
  r.rhs_scale = scale;
  r.rtol = 1e-6;
  return r;
}

/// A request whose CG runs for tens of milliseconds before it can
/// "converge": rtol=1e-300 is only reachable once the recursive residual
/// underflows to exactly zero, which takes ~35 ms of iterations on this
/// box (and much longer under sanitizers). Tests that cancel mid-CG must
/// fire their trigger (deadline / watchdog / shutdown) well inside that
/// window — CG is then guaranteed to be between iterations, not done.
SolveRequest endless_request() {
  SolveRequest r = poisson_request(10);
  r.rtol = 1e-300;
  r.max_iters = std::int64_t{1} << 40;
  return r;
}

/// Options for admission-only tests: no workers (the queue never drains,
/// so admission decisions are deterministic), no watchdog.
ServiceOptions admission_only() {
  ServiceOptions o;
  o.workers = 0;
  o.watchdog_ms = 0.0;
  o.batch_window_ms = 0.0;
  return o;
}

// ---------------------------------------------------------------------------

TEST(ProblemKeyTest, StableUnderScaleVariesWithSpec) {
  const SolveRequest a = poisson_request(5, 1.0);
  const SolveRequest b = poisson_request(5, 7.5);  // same problem, new load
  SolveRequest c = poisson_request(6);
  SolveRequest d = poisson_request(5);
  d.rtol = 1e-8;

  EXPECT_EQ(SolveService::problem_key(a), SolveService::problem_key(b));
  EXPECT_NE(SolveService::problem_key(a), SolveService::problem_key(c));
  EXPECT_NE(SolveService::problem_key(a), SolveService::problem_key(d));
}

TEST(AdmissionTest, ZeroCapacityQueueRejectsEverySubmitWithoutBlocking) {
  ServiceOptions opt = admission_only();
  opt.queue_capacity = 0;
  SolveService service(opt);

  for (int i = 0; i < 4; ++i) {
    auto future = service.submit(poisson_request(5));
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "submit must resolve rejected futures immediately";
    const SolveResponse r = future.get();
    EXPECT_EQ(r.outcome, Outcome::kRejected);
    EXPECT_EQ(r.reason, "queue_full");
  }
  EXPECT_EQ(service.metrics().counter_value("svc.default.rejected"), 4);
}

TEST(AdmissionTest, TenantQuotaIsPerTenant) {
  ServiceOptions opt = admission_only();
  opt.queue_capacity = 16;
  opt.tenant_inflight = 2;
  SolveService service(opt);

  SolveRequest alpha = poisson_request(5);
  alpha.tenant = "alpha";
  auto f1 = service.submit(alpha);
  auto f2 = service.submit(alpha);
  auto f3 = service.submit(alpha);  // over quota
  SolveRequest beta = alpha;
  beta.tenant = "beta";
  auto f4 = service.submit(beta);  // other tenants unaffected

  const SolveResponse r3 = f3.get();
  EXPECT_EQ(r3.outcome, Outcome::kRejected);
  EXPECT_EQ(r3.reason, "tenant_quota");
  EXPECT_EQ(service.queue_depth(), 3);  // f1, f2, f4 admitted

  service.shutdown();  // queued work resolves rejected, never hangs
  EXPECT_EQ(f1.get().reason, "shutting_down");
  EXPECT_EQ(f2.get().reason, "shutting_down");
  EXPECT_EQ(f4.get().reason, "shutting_down");
}

TEST(AdmissionTest, OverloadShedsStrictlyLowerPriorityOnly) {
  ServiceOptions opt = admission_only();
  opt.queue_capacity = 2;
  SolveService service(opt);

  SolveRequest lo = poisson_request(5);
  lo.priority = 0;
  SolveRequest mid = poisson_request(5);
  mid.priority = 1;
  SolveRequest hi = poisson_request(5);
  hi.priority = 5;

  auto f_lo = service.submit(lo);
  auto f_mid = service.submit(mid);

  // Queue full. An equal-or-lower priority newcomer bounces...
  const SolveResponse bounced = service.submit(lo).get();
  EXPECT_EQ(bounced.outcome, Outcome::kRejected);
  EXPECT_EQ(bounced.reason, "queue_full");

  // ...but a higher-priority one sheds the lowest-priority occupant.
  auto f_hi = service.submit(hi);
  const SolveResponse shed = f_lo.get();
  EXPECT_EQ(shed.outcome, Outcome::kShed);
  EXPECT_EQ(shed.reason, "shed_for_priority");
  EXPECT_EQ(service.queue_depth(), 2);

  service.shutdown();
  EXPECT_EQ(f_mid.get().outcome, Outcome::kRejected);
  EXPECT_EQ(f_hi.get().outcome, Outcome::kRejected);
}

TEST(SolveTest, SolvesWarmCacheHitsAndScalesLoads) {
  set_threads(2);
  ServiceOptions opt;
  opt.workers = 1;
  opt.batch_window_ms = 0.0;
  SolveService service(opt);

  const SolveResponse cold = service.submit(poisson_request(5, 1.0)).get();
  ASSERT_EQ(cold.outcome, Outcome::kSolved) << cold.reason;
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_LT(cold.err_inf, 5e-3);

  // Same problem, different load case: warm restart, same accuracy (the
  // lane solves A x = s·b and errors are reported on x / s).
  const SolveResponse warm = service.submit(poisson_request(5, 4.0)).get();
  ASSERT_EQ(warm.outcome, Outcome::kSolved) << warm.reason;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_NEAR(warm.err_inf, cold.err_inf, 1e-9);
  EXPECT_GE(service.metrics().counter_value("svc.cache.hits"), 1);
  set_threads(1);
}

TEST(SolveTest, CoalescesCompatibleRequestsIntoOnePanel) {
  set_threads(2);
  ServiceOptions opt;
  opt.workers = 1;
  opt.max_panel = 4;
  opt.batch_window_ms = 0.0;
  SolveService service(opt);

  // Park the single worker on an incompatible solve so the compatible
  // requests pile up behind it and coalesce when it frees up.
  SolveRequest blocker = poisson_request(8);
  blocker.rtol = 1e-10;
  auto f_blocker = service.submit(blocker);

  std::vector<std::future<SolveResponse>> futures;
  for (int j = 0; j < 4; ++j) {
    futures.push_back(
        service.submit(poisson_request(5, 1.0 + static_cast<double>(j))));
  }
  EXPECT_EQ(f_blocker.get().outcome, Outcome::kSolved);
  double err0 = -1.0;
  for (auto& f : futures) {
    const SolveResponse r = f.get();
    ASSERT_EQ(r.outcome, Outcome::kSolved) << r.reason;
    EXPECT_TRUE(r.batched);
    EXPECT_EQ(r.panel_lanes, 4);
    if (err0 < 0.0) {
      err0 = r.err_inf;
    } else {
      EXPECT_NEAR(r.err_inf, err0, 1e-9);  // load scaling is exact
    }
  }
  EXPECT_GE(service.metrics().counter_value("svc.batches"), 2);
  set_threads(1);
}

/// endless_request() on an unstructured tet4 mesh and without a
/// preconditioner: its CG runs ~0.9 s on an idle host before the residual
/// underflows (longer on a busy or instrumented one), ~40× the structured
/// box's window.
SolveRequest slow_endless_request() {
  SolveRequest r = endless_request();
  r.spec.element = mesh::ElementType::kTet4;
  r.spec.unstructured = true;
  r.precond = driver::Precond::kNone;
  return r;
}

TEST(DeadlineTest, ExpiringMidCgCancelsCooperatively) {
  // The deadline must expire after the cold build and before CG ends on its
  // own, however slow the host. So the deadline leaves a generous allowance
  // for the build, and the attempt hook — called between the build and CG —
  // holds CG back until kMargin before the deadline. CG then starts before
  // the deadline (the margin covers the right-hand side set-up) and it
  // is still iterating when it expires (the margin is a third of CG's run).
  constexpr std::chrono::milliseconds kBuildAllowance{1500};
  constexpr std::chrono::milliseconds kMargin{300};
  std::chrono::steady_clock::time_point cg_start;

  ServiceOptions opt;
  opt.workers = 1;
  opt.batch_window_ms = 0.0;
  opt.watchdog_ms = 10000.0;  // far beyond the deadline: must not fire
  opt.attempt_hook = [&](pla::LinearOperator&, int) {
    std::this_thread::sleep_until(cg_start);
  };
  SolveService service(opt);

  SolveRequest r = slow_endless_request();
  r.deadline_ms = static_cast<double>((kBuildAllowance + kMargin).count());
  cg_start = std::chrono::steady_clock::now() + kBuildAllowance;
  const SolveResponse resp = service.submit(r).get();
  EXPECT_EQ(resp.outcome, Outcome::kDeadlineMissed);
  EXPECT_EQ(resp.reason, "deadline");
  EXPECT_TRUE(resp.cg.canceled);
  EXPECT_GE(resp.cg.iterations, 1);  // it really was mid-CG, not pre-solve
  EXPECT_EQ(service.metrics().counter_value("svc.default.deadline_missed"),
            1);
}

TEST(WatchdogTest, FailsStuckRequestInsteadOfHanging) {
  ServiceOptions opt;
  opt.workers = 1;
  opt.batch_window_ms = 0.0;
  opt.watchdog_ms = 12.0;
  SolveService service(opt);

  const SolveResponse resp = service.submit(endless_request()).get();
  EXPECT_EQ(resp.outcome, Outcome::kFailed);
  EXPECT_EQ(resp.reason, "watchdog_timeout");
  EXPECT_TRUE(resp.cg.canceled);
  EXPECT_GE(service.metrics().counter_value("svc.watchdog_cancels"), 1);
}

TEST(ShutdownTest, CancelsInFlightMultiRankSolve) {
  // 2-rank job: the cooperative stop must stay collective (a unilateral
  // break would deadlock the other rank's ghost exchange / allreduce).
  ServiceOptions opt;
  opt.workers = 1;
  opt.ranks = 2;
  opt.batch_window_ms = 0.0;
  opt.watchdog_ms = 0.0;
  SolveService service(opt);

  auto future = service.submit(endless_request());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  service.shutdown();

  const SolveResponse resp = future.get();
  EXPECT_EQ(resp.outcome, Outcome::kFailed);
  EXPECT_EQ(resp.reason, "shutting_down");
  EXPECT_TRUE(resp.cg.canceled);
}

TEST(ShutdownTest, DestructorResolvesEveryOutstandingFuture) {
  std::vector<std::future<SolveResponse>> futures;
  {
    ServiceOptions opt;
    opt.workers = 1;
    opt.batch_window_ms = 0.0;
    SolveService service(opt);
    for (int i = 0; i < 6; ++i) {
      futures.push_back(service.submit(poisson_request(5)));
    }
    // Scope exit: the destructor shuts down with work queued/running.
  }
  int solved = 0, rejected = 0, failed = 0;
  for (auto& f : futures) {
    const SolveResponse r = f.get();  // a leaked promise would hang here
    solved += r.outcome == Outcome::kSolved ? 1 : 0;
    rejected += r.outcome == Outcome::kRejected ? 1 : 0;
    failed += r.outcome == Outcome::kFailed ? 1 : 0;
  }
  EXPECT_EQ(solved + rejected + failed, 6);
}

TEST(CacheTest, EvictionRacingHitsStaysSafe) {
  set_threads(1);
  ServiceOptions opt;
  opt.workers = 2;
  opt.batch_window_ms = 0.0;
  opt.cache_capacity_bytes = 1;  // every insert evicts the other key
  SolveService service(opt);

  // Two alternating problem keys from two workers: inserts and lookups
  // race; the shared_ptr entries must keep any copied store alive.
  std::vector<std::future<SolveResponse>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(service.submit(poisson_request(i % 2 == 0 ? 4 : 5)));
  }
  for (auto& f : futures) {
    const SolveResponse r = f.get();
    ASSERT_EQ(r.outcome, Outcome::kSolved) << r.reason;
    EXPECT_LT(r.err_inf, 1e-2);
  }
  EXPECT_GE(service.metrics().counter_value("svc.cache.evictions"), 1);
}

TEST(FaultsTest, SeededCampaignRecoversFaultFreeAccuracyThroughRetries) {
  set_threads(2);
  // Fault-free reference first.
  double err_clean = 0.0;
  {
    ServiceOptions opt;
    opt.workers = 1;
    opt.ranks = 2;
    opt.batch_window_ms = 0.0;
    SolveService service(opt);
    const SolveResponse r = service.submit(poisson_request(5)).get();
    ASSERT_EQ(r.outcome, Outcome::kSolved) << r.reason;
    err_clean = r.err_inf;
  }

  // Armed run: a seeded low-mantissa flip on the allreduce tag perturbs a
  // solve-phase reduction in every 2-rank job, and the attempt hook NaNs
  // one element-store block on attempt 1 — CG breaks down, the service
  // scrubs against the store checksums, backs off, and the retry solves.
  EnvGuard spec("HYMV_FAULT_SPEC", "flip:src=0,dest=1,tag=268435463,nth=3,bit=12");
  EnvGuard seed("HYMV_FAULT_SEED", "4242");
  EnvGuard csum("HYMV_FAULT_CHECKSUM", "1");

  ServiceOptions opt;
  opt.workers = 1;
  opt.ranks = 2;
  opt.max_panel = 4;
  opt.batch_window_ms = 0.0;
  opt.backoff_base_ms = 0.5;
  opt.store_checksums = true;
  opt.attempt_hook = [](pla::LinearOperator& op, int attempt) {
    if (attempt != 1) {
      return;
    }
    auto* hymv = dynamic_cast<core::HymvOperator*>(&op);
    ASSERT_NE(hymv, nullptr);
    auto bytes = hymv->mutable_store().raw_bytes();
    std::fill(bytes.begin() + 8, bytes.begin() + 16, std::byte{0xFF});
  };
  SolveService service(opt);

  SolveRequest r = poisson_request(5);
  r.tenant = "campaign";
  r.max_attempts = 3;
  const SolveResponse resp = service.submit(r).get();
  ASSERT_EQ(resp.outcome, Outcome::kSolved) << resp.reason;
  EXPECT_EQ(resp.attempts, 2);  // attempt 1 broke down, attempt 2 clean
  EXPECT_NEAR(resp.err_inf, err_clean, 1e-6);
  EXPECT_GE(service.metrics().counter_value("svc.campaign.retries"), 1);
  EXPECT_GE(service.metrics().counter_value("svc.scrubbed_blocks"), 1);
  set_threads(1);
}

// ---------------------------------------------------------------------------

TEST(ConcurrencyTest, BuildBackendIsSafeAcrossConcurrentJobs) {
  // The service's workers cold-build backends concurrently against one
  // shared immutable ProblemSetup; this pins that contract directly (and
  // gives TSan a focused target). Each thread runs its own simmpi job —
  // mutable state must stay confined to the job and its BuiltBackend.
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kPoisson;
  spec.box = {5, 5, 5, 1.0, 1.0, 1.0, {0.0, 0.0, 0.0}};
  const auto setup = driver::ProblemSetup::build(spec, 1);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 3; ++iter) {
        simmpi::run(1, [&](simmpi::Comm& comm) {
          driver::RankContext ctx(comm, setup);
          driver::BuiltBackend built =
              driver::build_backend(comm, ctx, driver::Backend::kHymv);
          pla::DistVector x(built.op->layout()), y(built.op->layout());
          for (std::int64_t i = 0; i < x.owned_size(); ++i) {
            x[i] = 1.0 + 0.125 * static_cast<double>(i % 4);
          }
          built.op->apply(comm, x, y);
          double sum = 0.0;
          for (std::int64_t i = 0; i < y.owned_size(); ++i) {
            sum += y[i];
          }
          if (!std::isfinite(sum)) {
            failures.fetch_add(1);
          }
        });
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
