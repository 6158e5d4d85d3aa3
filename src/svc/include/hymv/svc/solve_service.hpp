#pragma once

/// \file solve_service.hpp
/// Resilient multi-tenant solve service: a long-lived in-process front end
/// over driver-style problem solves, built for the paper's "many load
/// cases on a fixed mesh" production shape (§V-F). Callers submit
/// SolveRequests from any thread; the service
///
///   * admits or rejects each request immediately (bounded queue depth,
///     per-tenant in-flight quotas — submit() never blocks),
///   * coalesces compatible single-RHS requests for the same problem into
///     one cg_solve_multi panel (one element-matrix traversal per
///     iteration serves every lane),
///   * caches warm setups keyed by a hash of the problem definition: the
///     mesh partition, the per-rank element-matrix stores and a pool of
///     built rank states (rank context, operator, constrained b,
///     preconditioner, exact field), with LRU eviction under a byte
///     budget that counts pooled states, and an optional disk tier for
///     the stores via io::save_store. Every state's operator reads the
///     entry's store of its rank and copies it only on a write, so a
///     warm service holds one store per rank. A batch borrows a pooled
///     state and has it to itself, so a warm batch only scales its lanes,
///     runs CG and checks the error. The state goes back unless the job
///     threw, the attempt hook ran on it or a scrub ran on it,
///   * enforces per-request deadlines with cooperative cancellation at CG
///     iteration granularity (CgOptions::should_stop),
///   * degrades gracefully under overload: lowest-priority queued work is
///     shed first, panels fall back to k=1 when batching would blow a
///     deadline, and a watchdog fails stuck requests loudly instead of
///     letting them hang,
///   * retries failed attempts with exponential backoff, scrubbing the
///     element store between attempts when checksums are armed (the PR 4
///     fault-tolerance path).
///
/// Every request terminates in exactly one Outcome and is counted in the
/// service's MetricsRegistry under `svc.<tenant>.*`; nothing here is on
/// any default path — a process that never constructs a SolveService is
/// bitwise identical to one built before this file existed.
///
/// Execution model: each worker thread runs each solve batch as its own
/// simmpi::run job of ServiceOptions::ranks ranks (per-job Context makes
/// concurrent jobs safe) with ServiceOptions::run, so a fault drill
/// (faults, timeouts, exchange protection) reaches every batch the
/// options carry it to. Every worker, and so every rank of every job,
/// runs at the OpenMP thread count of the thread that constructed the
/// service. A batch runs its SolveRequest and the ServiceOptions and reads
/// no configuration variable (the process-wide ISA, NUMA and trace
/// switches aside), so a request gets the store layout, schedule,
/// preconditioner and fault drill the service was given whatever the
/// environment holds.

#include <cstdint>
#include <functional>
#include <future>
#include <string>

#include "hymv/core/element_store.hpp"
#include "hymv/driver/driver.hpp"
#include "hymv/obs/metrics.hpp"

namespace hymv::svc {

/// Terminal state of a request. Every submitted request reaches exactly
/// one of these; there is no "hung" state (the watchdog guarantees it).
enum class Outcome : int {
  kSolved,          ///< converged within deadline; solution verified
  kRejected,        ///< never admitted (queue full, quota, shutdown)
  kShed,            ///< admitted, then dropped for higher-priority work
  kDeadlineMissed,  ///< canceled mid-solve by its own deadline
  kFailed,          ///< breakdown / retries exhausted / watchdog kill
};

[[nodiscard]] const char* outcome_name(Outcome outcome);

/// One tenant-attributed solve of a driver problem. Requests with the
/// same problem (spec/backend/layout/precond/rtol/max_iters) differ only
/// by `rhs_scale` and are eligible for panel coalescing.
struct SolveRequest {
  std::string tenant = "default";
  driver::ProblemSpec spec;
  driver::Backend backend = driver::Backend::kHymv;
  core::StoreLayout layout = core::StoreLayout::kPadded;
  driver::Precond precond = driver::Precond::kJacobi;
  /// Load-case scale: the lane solves A x = rhs_scale · b. Linearity makes
  /// the solution rhs_scale · u, so accuracy is still checked against the
  /// analytic solution (err_inf is reported on x / rhs_scale). Must be a
  /// finite non-zero value.
  double rhs_scale = 1.0;
  /// Higher values are popped first and survive shedding longer.
  int priority = 0;
  /// Wall-clock budget from admission to completion. 0 = use the service
  /// default; negative = no deadline.
  double deadline_ms = 0.0;
  double rtol = 1e-3;
  std::int64_t max_iters = 20000;
  /// Whole-solve attempts (1 = no retry). Between attempts the service
  /// scrubs the element store (when checksums are armed) and backs off
  /// exponentially.
  int max_attempts = 1;
};

/// What the submit() future resolves to.
struct SolveResponse {
  Outcome outcome = Outcome::kFailed;
  /// Static machine-readable cause for non-solved outcomes: "queue_full",
  /// "tenant_quota", "shutting_down", "shed_for_priority", "deadline",
  /// "watchdog_timeout", "not_converged", "breakdown", "exception".
  std::string reason;
  pla::CgResult cg;
  double err_inf = 0.0;  ///< ‖x/rhs_scale − u_exact‖∞ (kSolved only)
  /// The batch computed no element matrices: it borrowed a pooled rank
  /// state or restarted from cached stores (memory or disk tier).
  bool cache_hit = false;
  bool batched = false;      ///< solved as part of a >1-lane panel
  int panel_lanes = 1;       ///< panel width the request ran at
  int attempts = 0;          ///< solve attempts consumed (0 if never ran)
  std::uint64_t problem_key = 0;  ///< coalescing/cache hash
  double queue_ms = 0.0;  ///< admission → execution start
  double solve_ms = 0.0;  ///< execution start → completion
  double total_ms = 0.0;  ///< admission → completion
};

/// Service policy. from_env() is the service's edge resolver: every field
/// but the attempt hook has an environment override there (validated; a
/// value outside the README range warns and keeps the default).
struct ServiceOptions {
  /// HYMV_SVC_WORKERS (>= 0; 0 admits but never executes, for tests).
  int workers = 2;
  /// simmpi ranks per solve job (HYMV_SVC_RANKS, in [1, 8]).
  /// 1 is cheapest; >1 exercises real ghost exchanges and allreduces, so
  /// message-level fault campaigns (`run`'s flips/drops/delays)
  /// reach the service's solves. The deadline/cancel stop decision is made
  /// collective with one extra tiny allreduce per CG iteration, so ranks
  /// never disagree about stopping.
  int ranks = 1;
  int queue_capacity = 64;     ///< HYMV_SVC_QUEUE_CAPACITY (0 rejects all)
  /// HYMV_SVC_TENANT_INFLIGHT (>= 1): queued + running requests per tenant.
  int tenant_inflight = 16;
  int max_panel = 8;           ///< HYMV_SVC_MAX_PANEL, in [1, 64]
  double batch_window_ms = 2.0;       ///< HYMV_SVC_BATCH_WINDOW_MS
  std::int64_t cache_capacity_bytes =  ///< HYMV_SVC_CACHE_BYTES
      std::int64_t{256} << 20;
  double default_deadline_ms = -1.0;  ///< HYMV_SVC_DEADLINE_MS (<0 = none)
  double watchdog_ms = 30000.0;       ///< HYMV_SVC_WATCHDOG_MS (<=0 = off)
  double backoff_base_ms = 1.0;       ///< HYMV_SVC_BACKOFF_MS
  std::string cache_dir;              ///< HYMV_SVC_CACHE_DIR ("" = no disk)
  /// Arm element-store checksums so retries can scrub corrupted blocks
  /// (also armed when HYMV_STORE_CHECKSUM=1).
  bool store_checksums = false;
  /// What every batch's simmpi job runs with: its fault plan, receive
  /// timeout and ghost-exchange protection (simmpi::RunOptions::from_env,
  /// the HYMV_FAULT_* drill). Its metrics_path is ignored: concurrent
  /// batches would race on one file.
  simmpi::RunOptions run;
  /// Test/bench fault-injection hook, mirroring
  /// driver::SolveOptions::attempt_hook: called on every rank of the solve
  /// job with the freshly built (unconstrained) operator and the 1-based
  /// attempt number, after checksum arming and before b, the
  /// preconditioner and the attempt's CG. A state the hook ran on is never
  /// pooled, so with a hook set every batch builds a fresh state.
  /// Harnesses use it to corrupt the element store on attempt 1 only and
  /// watch the service's retry + scrub path recover (a write through
  /// HymvOperator::mutable_store() copies a shared store first, so it
  /// never reaches the cache); no environment
  /// override (it is a function), never set in production.
  std::function<void(pla::LinearOperator&, int)> attempt_hook;

  static ServiceOptions from_env();
};

/// Long-lived multi-tenant solve front end. Construction starts the
/// worker + watchdog threads; destruction (or shutdown()) stops admitting,
/// fails all queued work, and joins every thread. All public methods are
/// thread-safe.
class SolveService {
 public:
  explicit SolveService(ServiceOptions options = {});
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Submit a request. NEVER blocks: the request is either admitted (the
  /// future resolves when the solve terminates) or the future is already
  /// resolved with kRejected/kShed and a reason. May shed a
  /// strictly-lower-priority queued request to make room.
  std::future<SolveResponse> submit(SolveRequest request);

  /// Stop admitting, reject all queued requests with "shutting_down",
  /// cancel running solves, and join every thread. Idempotent; the
  /// destructor calls it.
  void shutdown();

  /// Coalescing/cache key of a request (exposed for tests).
  [[nodiscard]] static std::uint64_t problem_key(const SolveRequest& request);

  /// Service metrics: `svc.<tenant>.{submitted,admitted,rejected,shed,
  /// solved,failed,deadline_missed,retries}` counters,
  /// `svc.<tenant>.{latency_ms,queue_ms,solve_ms}` histograms, and global
  /// `svc.{queue_depth,batches,panel_lanes,degraded_to_k1,
  /// watchdog_cancels,scrubbed_blocks,cache.hits,cache.misses,
  /// cache.disk_hits,cache.evictions,cache.bytes,cache.entries,
  /// state.builds,state.reuses}`. `cache.bytes` includes pooled rank
  /// states; `state.builds` counts rank states built (one per job, cold
  /// or restarted) and `state.reuses` batches that borrowed a pooled one.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }

  /// Number of requests currently queued (for tests and load shedding
  /// decisions by callers).
  [[nodiscard]] int queue_depth() const;

 private:
  struct Impl;
  // Declared before impl_: worker threads reach the registry through Impl,
  // so it must outlive (and be constructed before) the implementation.
  obs::MetricsRegistry metrics_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hymv::svc
