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
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <random>
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

int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
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

/// endless_request() on a finer unstructured tet4 mesh and without a
/// preconditioner: its CG runs ~1.4 s (about 5,900 iterations) on an idle
/// 4-vCPU host before it breaks down on the underflowed residual (longer
/// on a busy or instrumented one). The 10-cell box runs ~0.35 s, too close
/// to DeadlineTest's 300 ms margin.
SolveRequest slow_endless_request() {
  SolveRequest r = endless_request();
  r.spec.box = {14, 14, 14, 1.0, 1.0, 1.0, {0.0, 0.0, 0.0}};
  r.spec.element = mesh::ElementType::kTet4;
  r.spec.unstructured = true;
  r.precond = driver::Precond::kNone;
  return r;
}

TEST(DeadlineTest, ExpiringMidCgCancelsCooperatively) {
  // The deadline must expire after the build and before CG ends on its
  // own, however slow the host. So a first request warms the problem key
  // (the hook lets it through): a tenant of its own, so its miss does not
  // count against the timed tenant's, and a short deadline, which cuts
  // its CG off once the build has cached the store. The timed request
  // builds from the cached store. Its deadline leaves a generous allowance
  // for that build, and the attempt hook — called between the build and
  // CG — holds CG back until kMargin before the deadline. CG then starts
  // before the deadline (the margin covers the right-hand side set-up) and
  // it is still iterating when it expires (the margin is about a fifth of
  // CG's run).
  constexpr std::chrono::milliseconds kBuildAllowance{1500};
  constexpr std::chrono::milliseconds kMargin{300};
  std::chrono::steady_clock::time_point cg_start;
  std::atomic<bool> hold{false};

  // One OpenMP thread per job: under a parallel ctest run, full-width
  // teams oversubscribe the host and a single apply can outlast kMargin.
  const int threads0 = omp_threads();
  set_threads(1);
  ServiceOptions opt;
  opt.workers = 1;
  opt.batch_window_ms = 0.0;
  opt.watchdog_ms = 10000.0;  // far beyond the deadline: must not fire
  opt.attempt_hook = [&](pla::LinearOperator&, int) {
    if (hold.load()) {
      std::this_thread::sleep_until(cg_start);
    }
  };
  SolveService service(opt);
  SolveRequest warm = slow_endless_request();
  warm.tenant = "warmup";
  warm.deadline_ms = 50.0;
  const SolveResponse warmup = service.submit(warm).get();
  ASSERT_NE(warmup.reason, "exception");
  ASSERT_EQ(service.metrics().counter_value("svc.cache.misses"), 1);

  SolveRequest r = slow_endless_request();
  r.deadline_ms = static_cast<double>((kBuildAllowance + kMargin).count());
  cg_start = std::chrono::steady_clock::now() + kBuildAllowance;
  hold.store(true);
  const SolveResponse resp = service.submit(r).get();
  EXPECT_TRUE(resp.cache_hit);
  EXPECT_EQ(resp.outcome, Outcome::kDeadlineMissed);
  EXPECT_EQ(resp.reason, "deadline");
  EXPECT_TRUE(resp.cg.canceled);
  EXPECT_GE(resp.cg.iterations, 1);  // it really was mid-CG, not pre-solve
  EXPECT_EQ(service.metrics().counter_value("svc.default.deadline_missed"),
            1);
  set_threads(threads0);
}

TEST(WatchdogTest, FailsStuckRequestInsteadOfHanging) {
  ServiceOptions opt;
  opt.workers = 1;
  opt.batch_window_ms = 0.0;
  opt.watchdog_ms = 12.0;
  SolveService service(opt);

  // The slow request: structured Poisson could settle before the
  // watchdog's 12 ms are up.
  const SolveResponse resp = service.submit(slow_endless_request()).get();
  EXPECT_EQ(resp.outcome, Outcome::kFailed);
  EXPECT_EQ(resp.reason, "watchdog_timeout");
  EXPECT_TRUE(resp.cg.canceled);
  EXPECT_GE(service.metrics().counter_value("svc.watchdog_cancels"), 1);
}

TEST(ShutdownTest, CancelsInFlightMultiRankSolve) {
  // 2-rank job: the cooperative stop must stay collective (a unilateral
  // break would deadlock the other rank's ghost exchange / allreduce).
  // Shutdown waits until the attempt hook has run, so the batch is in
  // flight: a fixed sleep let a loaded host leave the request queued,
  // where shutdown rejects it instead.
  ServiceOptions opt;
  opt.workers = 1;
  opt.ranks = 2;
  opt.batch_window_ms = 0.0;
  opt.watchdog_ms = 0.0;
  std::promise<void> started;
  std::atomic<bool> signaled{false};
  opt.attempt_hook = [&](pla::LinearOperator&, int) {
    if (!signaled.exchange(true)) {
      started.set_value();
    }
  };
  SolveService service(opt);

  auto future = service.submit(endless_request());
  started.get_future().wait();
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
  ServiceOptions opt;
  opt.run.faults = simmpi::FaultPlan::parse(
      "flip:src=0,dest=1,tag=268435463,nth=3,bit=12", 4242);
  opt.run.protection.checksum = true;
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

TEST(FaultsTest, BatchesRunTheServiceOptionsNotTheEnvironmentDrill) {
  // A drill that fails every 2-rank job it reaches: rank 0's first message
  // to rank 1 is dropped, and the receive timeout turns the silence into a
  // failed attempt instead of a hang.
  EnvGuard spec("HYMV_FAULT_SPEC", "drop:src=0,dest=1");
  EnvGuard timeout("HYMV_FAULT_RECV_TIMEOUT_MS", "50");
  const auto solve_once = [](ServiceOptions opt) {
    opt.workers = 1;
    opt.ranks = 2;
    opt.batch_window_ms = 0.0;
    SolveService service(std::move(opt));
    return service.submit(poisson_request(4)).get();
  };
  const SolveResponse plain = solve_once(ServiceOptions{});
  EXPECT_EQ(plain.outcome, Outcome::kSolved) << plain.reason;
  const SolveResponse drilled = solve_once(ServiceOptions::from_env());
  EXPECT_EQ(drilled.outcome, Outcome::kFailed);
  EXPECT_EQ(drilled.reason, "exception");

  // The drill is parsed where it is read: a malformed spec throws there.
  EnvGuard bad("HYMV_FAULT_SPEC", "zap:src=0");
  EXPECT_THROW((void)ServiceOptions::from_env(), hymv::Error);
}

// ---------------------------------------------------------------------------
// Pooled rank states: a warm batch borrows the problem's built state (rank
// context, operator, constrained b, preconditioner, exact field) and only
// scales its lanes, runs CG and checks the error.

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// Unstructured tet4 Poisson: CG takes real iterations here (structured
/// Poisson settles in one), so reused and rebuilt states run real Krylov
/// solves.
SolveRequest tet4_request(double scale) {
  SolveRequest r = poisson_request(6, scale);
  r.spec.element = mesh::ElementType::kTet4;
  r.spec.unstructured = true;
  return r;
}

/// Panels of widths 1, 4, 8 and 3 on tet4_request, each coalesced behind a
/// blocker that parks the single worker (a slow solve its deadline cuts
/// off), every request with its own rhs_scale. Replies in submit order.
std::vector<SolveResponse> run_panel_sequence(SolveService& service) {
  std::vector<SolveResponse> replies;
  double scale = 0.5;
  for (const int width : {1, 4, 8, 3}) {
    SolveRequest blocker = slow_endless_request();
    blocker.deadline_ms = 100.0;
    auto f_blocker = service.submit(blocker);
    std::vector<std::future<SolveResponse>> futures;
    for (int j = 0; j < width; ++j) {
      futures.push_back(service.submit(tet4_request(scale)));
      scale += 0.125;
    }
    f_blocker.get();
    for (auto& f : futures) {
      replies.push_back(f.get());
      EXPECT_EQ(replies.back().panel_lanes, width);
    }
  }
  return replies;
}

TEST(StatePoolTest, WarmBatchesMatchAnUncachedServiceBitwise) {
  for (const int ranks : {1, 2}) {
    SCOPED_TRACE("ranks " + std::to_string(ranks));
    ServiceOptions opt;
    opt.workers = 1;
    opt.ranks = ranks;
    opt.max_panel = 8;
    opt.batch_window_ms = 0.0;
    ServiceOptions uncached_opt = opt;
    uncached_opt.cache_capacity_bytes = 0;

    SolveService cached(opt);
    const std::vector<SolveResponse> warm = run_panel_sequence(cached);
    SolveService uncached(uncached_opt);
    const std::vector<SolveResponse> cold = run_panel_sequence(uncached);
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      ASSERT_EQ(warm[i].outcome, Outcome::kSolved) << warm[i].reason;
      EXPECT_EQ(warm[i].outcome, cold[i].outcome);
      EXPECT_EQ(warm[i].cg.iterations, cold[i].cg.iterations);
      EXPECT_EQ(bits(warm[i].cg.final_residual),
                bits(cold[i].cg.final_residual));
      EXPECT_EQ(bits(warm[i].err_inf), bits(cold[i].err_inf));
      EXPECT_EQ(warm[i].cache_hit, i > 0);
      EXPECT_FALSE(cold[i].cache_hit);
    }
    // Two problem keys, the blocker's and the panels': one state each,
    // which every later batch of the key borrows.
    EXPECT_EQ(cached.metrics().counter_value("svc.state.builds"), 2);
    EXPECT_GE(cached.metrics().counter_value("svc.state.reuses"), 3);
    EXPECT_EQ(uncached.metrics().counter_value("svc.state.reuses"), 0);
  }
}

TEST(StatePoolTest, AttemptHookGivesEveryBatchAFreshState) {
  // The hook may write the operator, so a state it ran on is never pooled:
  // each batch restarts from the cached store, with the pooled bits.
  ServiceOptions opt;
  opt.workers = 1;
  opt.batch_window_ms = 0.0;
  SolveService pooled(opt);
  int hook_calls = 0;
  opt.attempt_hook = [&](pla::LinearOperator&, int) { ++hook_calls; };
  SolveService hooked(opt);

  for (const double scale : {1.0, 0.75, 1.5}) {
    const SolveResponse a = pooled.submit(tet4_request(scale)).get();
    const SolveResponse b = hooked.submit(tet4_request(scale)).get();
    ASSERT_EQ(a.outcome, Outcome::kSolved) << a.reason;
    ASSERT_EQ(b.outcome, Outcome::kSolved) << b.reason;
    EXPECT_EQ(a.cache_hit, b.cache_hit);
    EXPECT_EQ(a.cg.iterations, b.cg.iterations);
    EXPECT_EQ(bits(a.cg.final_residual), bits(b.cg.final_residual));
    EXPECT_EQ(bits(a.err_inf), bits(b.err_inf));
  }
  EXPECT_EQ(hook_calls, 3);
  EXPECT_EQ(hooked.metrics().counter_value("svc.state.builds"), 3);
  EXPECT_EQ(hooked.metrics().counter_value("svc.state.reuses"), 0);
  EXPECT_EQ(pooled.metrics().counter_value("svc.state.builds"), 1);
  EXPECT_EQ(pooled.metrics().counter_value("svc.state.reuses"), 2);
}

TEST(StatePoolTest, ClosedLoopRepliesPassTheBenchmarkGate) {
  // The service-tet4 benchmark's traffic and gate: two workers borrow the
  // one problem's states while 16 requests stay outstanding, and every
  // reply must solve to within 1.5x the cold reply's error. A state
  // shared by two batches, a b scaled in place or a written store shows
  // up here as an unsolved or inaccurate reply.
  ServiceOptions opt;
  opt.workers = 2;
  opt.max_panel = 8;
  SolveService service(opt);

  const SolveResponse cold = service.submit(tet4_request(1.0)).get();
  ASSERT_EQ(cold.outcome, Outcome::kSolved) << cold.reason;
  const double err_bound = 1.5 * cold.err_inf;

  constexpr int kRequests = 240;
  constexpr std::size_t kOutstanding = 16;
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> scale(0.5, 2.0);
  std::deque<std::future<SolveResponse>> in_flight;
  int submitted = 0;
  int solved = 0;
  while (submitted < kRequests || !in_flight.empty()) {
    while (submitted < kRequests && in_flight.size() < kOutstanding) {
      in_flight.push_back(service.submit(tet4_request(scale(rng))));
      ++submitted;
    }
    const SolveResponse r = in_flight.front().get();
    in_flight.pop_front();
    ASSERT_EQ(r.outcome, Outcome::kSolved) << r.reason;
    EXPECT_LE(r.err_inf, err_bound);
    EXPECT_TRUE(r.cache_hit);
    ++solved;
  }
  EXPECT_EQ(solved, kRequests);
  EXPECT_LE(service.metrics().counter_value("svc.state.builds"), opt.workers);
  EXPECT_GE(service.metrics().counter_value("svc.state.reuses"), 1);
}

TEST(StatePoolTest, WriteToAStateStoreNeverReachesTheCache) {
  // States restart over the cached store without copying it. An attempt
  // hook that corrupts its state's store through mutable_store() must get
  // a private copy: the cached bytes, and the replies of every later batch
  // that restarts over them, stay bitwise those of a service with no hook.
  ServiceOptions opt;
  opt.workers = 1;
  opt.batch_window_ms = 0.0;
  SolveService reference(opt);

  std::atomic<bool> corrupt{false};
  std::shared_ptr<const core::ElementMatrixStore> cached;
  std::vector<std::byte> cached_before;
  opt.attempt_hook = [&](pla::LinearOperator& op, int) {
    if (!corrupt.load()) {
      return;
    }
    auto* hymv = dynamic_cast<core::HymvOperator*>(&op);
    ASSERT_NE(hymv, nullptr);
    cached = hymv->shared_store();  // the cache's store: the state reads it
    cached_before.assign(cached->raw_bytes().begin(),
                         cached->raw_bytes().end());
    // Every entry NaN: a corner element alone may touch only constrained
    // rows and columns, which the Dirichlet wrapper overwrites.
    auto bytes = hymv->mutable_store().raw_bytes();
    std::fill(bytes.begin(), bytes.end(), std::byte{0xFF});
    EXPECT_NE(&hymv->store(), cached.get());
  };
  SolveService hooked(opt);

  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const double scale = 0.75 + 0.25 * i;
    corrupt.store(i == 1);
    const SolveResponse want = reference.submit(tet4_request(scale)).get();
    const SolveResponse got = hooked.submit(tet4_request(scale)).get();
    ASSERT_EQ(want.outcome, Outcome::kSolved) << want.reason;
    if (i == 1) {
      EXPECT_NE(got.outcome, Outcome::kSolved);  // the write took effect
      EXPECT_TRUE(got.cache_hit);
      ASSERT_NE(cached, nullptr);
      const auto after = cached->raw_bytes();
      ASSERT_EQ(after.size(), cached_before.size());
      EXPECT_TRUE(std::equal(after.begin(), after.end(),
                             cached_before.begin()));
      continue;
    }
    ASSERT_EQ(got.outcome, Outcome::kSolved) << got.reason;
    EXPECT_EQ(got.cache_hit, want.cache_hit);
    EXPECT_EQ(got.cg.iterations, want.cg.iterations);
    EXPECT_EQ(bits(got.cg.final_residual), bits(want.cg.final_residual));
    EXPECT_EQ(bits(got.err_inf), bits(want.err_inf));
  }
}

TEST(StatePoolTest, WarmTwoWorkerServiceHoldsOneStorePerRank) {
  // Two batches of one key run at once, so the second builds a state of
  // its own; both states read the cached store. svc.cache.bytes counts a
  // store once per reader that holds a copy, so it stays below two stores.
  for (const int ranks : {1, 2}) {
    SCOPED_TRACE("ranks " + std::to_string(ranks));
    ServiceOptions opt;
    opt.workers = 2;
    opt.ranks = ranks;
    opt.max_panel = 1;
    opt.batch_window_ms = 0.0;
    SolveService service(opt);
    SolveRequest slow = slow_endless_request();
    slow.deadline_ms = 150.0;
    service.submit(slow).get();  // cold: builds, caches and pools a state
    auto a = service.submit(slow);
    auto b = service.submit(slow);
    a.get();
    b.get();
    ASSERT_EQ(service.metrics().counter_value("svc.state.builds"), 2);

    // The stores one cold build holds, one per rank.
    std::int64_t store_bytes = 0;
    const auto setup =
        driver::ProblemSetup::build(slow_endless_request().spec, ranks);
    std::vector<std::int64_t> per_rank(static_cast<std::size_t>(ranks));
    simmpi::run(ranks, [&](simmpi::Comm& comm) {
      driver::RankContext ctx(comm, setup);
      const driver::BuiltBackend built =
          driver::build_backend(comm, ctx, driver::Backend::kHymv);
      per_rank[static_cast<std::size_t>(comm.rank())] =
          built.hymv_cpu->store().bytes();
    });
    for (const std::int64_t bytes : per_rank) {
      store_bytes += bytes;
    }
    const double cache_bytes = service.metrics().gauge_value("svc.cache.bytes");
    EXPECT_GT(cache_bytes, static_cast<double>(store_bytes));
    EXPECT_LT(cache_bytes, 2.0 * static_cast<double>(store_bytes));
  }
}

TEST(StatePoolTest, StatesRunTheirRequestNotTheEnvironment) {
  // A kPadded request under operator knobs that name something else: every
  // state (the cold build and the warm restart) holds a kPadded store and
  // the default schedule, and the replies are bitwise those of a service
  // run without the variables.
  const auto run = [](int ranks, std::vector<core::HymvOptions>* seen) {
    std::mutex mu;
    ServiceOptions opt;
    opt.workers = 1;
    opt.ranks = ranks;
    opt.batch_window_ms = 0.0;
    opt.attempt_hook = [&](pla::LinearOperator& op, int) {
      auto* hymv = dynamic_cast<core::HymvOperator*>(&op);
      ASSERT_NE(hymv, nullptr);
      core::HymvOptions state = hymv->options();
      state.layout = hymv->store().layout();
      std::lock_guard<std::mutex> lock(mu);
      seen->push_back(state);
    };
    SolveService service(opt);
    std::vector<SolveResponse> replies;
    for (const double scale : {1.0, 0.5}) {
      replies.push_back(service.submit(tet4_request(scale)).get());
    }
    return replies;
  };
  for (const int ranks : {1, 2}) {
    SCOPED_TRACE("ranks " + std::to_string(ranks));
    std::vector<core::HymvOptions> plain_states, env_states;
    const std::vector<SolveResponse> plain = run(ranks, &plain_states);
    std::vector<SolveResponse> under_env;
    {
      EnvGuard layout("HYMV_STORE_LAYOUT", "fp32");
      EnvGuard schedule("HYMV_THREAD_SCHEDULE", "serial");
      EnvGuard taskgraph("HYMV_APPLY_TASKGRAPH", "1");
      under_env = run(ranks, &env_states);
    }
    ASSERT_EQ(env_states.size(), static_cast<std::size_t>(2 * ranks));
    for (const core::HymvOptions& state : env_states) {
      EXPECT_EQ(state.layout, core::StoreLayout::kPadded);
      EXPECT_EQ(state.schedule, core::ThreadSchedule::kColored);
      EXPECT_FALSE(state.taskgraph);
    }
    ASSERT_EQ(plain.size(), under_env.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      ASSERT_EQ(plain[i].outcome, Outcome::kSolved) << plain[i].reason;
      ASSERT_EQ(under_env[i].outcome, Outcome::kSolved)
          << under_env[i].reason;
      EXPECT_EQ(under_env[i].cache_hit, i > 0);
      EXPECT_EQ(under_env[i].cg.iterations, plain[i].cg.iterations);
      EXPECT_EQ(bits(under_env[i].cg.final_residual),
                bits(plain[i].cg.final_residual));
      EXPECT_EQ(bits(under_env[i].err_inf), bits(plain[i].err_inf));
    }
  }
}

TEST(ThreadBudgetTest, EveryRankRunsAtTheConstructorsOmpThreads) {
  // Workers start at the constructing thread's count, whatever a thread
  // would start at otherwise (the process default) or the submitting
  // thread holds later.
  const int threads0 = omp_threads();
  int fresh = 0;
  std::thread([&] { fresh = omp_threads(); }).join();
  set_threads(fresh == 2 ? 3 : 2);
  const int constructor_threads = omp_threads();
  for (const int ranks : {1, 2}) {
    SCOPED_TRACE("ranks " + std::to_string(ranks));
    std::mutex mu;
    std::vector<int> seen;
    ServiceOptions opt;
    opt.workers = 1;
    opt.ranks = ranks;
    opt.batch_window_ms = 0.0;
    opt.attempt_hook = [&](pla::LinearOperator&, int) {
      const int threads = omp_threads();
      std::lock_guard<std::mutex> lock(mu);
      seen.push_back(threads);
    };
    SolveService service(opt);
    set_threads(1);
    const SolveResponse r = service.submit(poisson_request(4)).get();
    set_threads(constructor_threads);
    ASSERT_EQ(r.outcome, Outcome::kSolved) << r.reason;
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(ranks));
    for (const int threads : seen) {
      EXPECT_EQ(threads, constructor_threads);
    }
  }
  set_threads(threads0);
}

TEST(ServiceOptionsTest, FromEnvRejectsOutOfRangeAndPastIntMax) {
  const ServiceOptions defaults;
  const auto read = [] {
    ::testing::internal::CaptureStderr();
    const ServiceOptions o = ServiceOptions::from_env();
    const std::string err = ::testing::internal::GetCapturedStderr();
    int warnings = 0;
    for (std::size_t at = err.find("hymv: ignoring"); at != std::string::npos;
         at = err.find("hymv: ignoring", at + 1)) {
      ++warnings;
    }
    return std::make_pair(o, warnings);
  };
  {
    EnvGuard ranks("HYMV_SVC_RANKS", "9");
    EnvGuard workers("HYMV_SVC_WORKERS", "-1");
    EnvGuard panel("HYMV_SVC_MAX_PANEL", "0");
    EnvGuard inflight("HYMV_SVC_TENANT_INFLIGHT", "0");
    EnvGuard capacity("HYMV_SVC_QUEUE_CAPACITY", "2147483648");
    const auto [o, warnings] = read();
    EXPECT_EQ(warnings, 5);
    EXPECT_EQ(o.ranks, defaults.ranks);
    EXPECT_EQ(o.workers, defaults.workers);
    EXPECT_EQ(o.max_panel, defaults.max_panel);
    EXPECT_EQ(o.tenant_inflight, defaults.tenant_inflight);
    EXPECT_EQ(o.queue_capacity, defaults.queue_capacity);
  }
  {
    // Past INT_MAX for every int field: never wrapped through a cast.
    EnvGuard ranks("HYMV_SVC_RANKS", "4294967297");
    EnvGuard workers("HYMV_SVC_WORKERS", "2147483648");
    EnvGuard panel("HYMV_SVC_MAX_PANEL", "4294967304");
    EnvGuard inflight("HYMV_SVC_TENANT_INFLIGHT", "9223372036854775807");
    EnvGuard capacity("HYMV_SVC_QUEUE_CAPACITY", "99999999999999999999");
    const auto [o, warnings] = read();
    EXPECT_EQ(warnings, 5);
    EXPECT_EQ(o.ranks, defaults.ranks);
    EXPECT_EQ(o.workers, defaults.workers);
    EXPECT_EQ(o.max_panel, defaults.max_panel);
    EXPECT_EQ(o.tenant_inflight, defaults.tenant_inflight);
    EXPECT_EQ(o.queue_capacity, defaults.queue_capacity);
  }
  {
    // The README's range ends are accepted without a warning.
    EnvGuard ranks("HYMV_SVC_RANKS", "8");
    EnvGuard workers("HYMV_SVC_WORKERS", "0");
    EnvGuard panel("HYMV_SVC_MAX_PANEL", "64");
    EnvGuard inflight("HYMV_SVC_TENANT_INFLIGHT", "1");
    EnvGuard capacity("HYMV_SVC_QUEUE_CAPACITY", "2147483647");
    const auto [o, warnings] = read();
    EXPECT_EQ(warnings, 0);
    EXPECT_EQ(o.ranks, 8);
    EXPECT_EQ(o.workers, 0);
    EXPECT_EQ(o.max_panel, 64);
    EXPECT_EQ(o.tenant_inflight, 1);
    EXPECT_EQ(o.queue_capacity, 2147483647);
  }
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
