#include "hymv/svc/solve_service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "hymv/common/env.hpp"
#include "hymv/common/error.hpp"
#include "hymv/common/hash.hpp"
#include "hymv/io/store_io.hpp"
#include "hymv/simmpi/simmpi.hpp"

namespace hymv::svc {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Panel runs cost slightly more wall time per iteration than k=1 (wider
/// vector updates); the deadline filter inflates the EWMA estimate by this
/// factor before deciding a lane can afford to join a batch.
constexpr double kPanelPenalty = 1.25;

}  // namespace

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kSolved:
      return "solved";
    case Outcome::kRejected:
      return "rejected";
    case Outcome::kShed:
      return "shed";
    case Outcome::kDeadlineMissed:
      return "deadline_missed";
    case Outcome::kFailed:
      return "failed";
  }
  return "unknown";
}

ServiceOptions ServiceOptions::from_env() {
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  ServiceOptions o;
  o.workers = static_cast<int>(
      env_int_in_range("HYMV_SVC_WORKERS", o.workers, 0, kIntMax));
  o.ranks = static_cast<int>(env_int_in_range("HYMV_SVC_RANKS", o.ranks, 1, 8));
  o.queue_capacity = static_cast<int>(env_int_in_range(
      "HYMV_SVC_QUEUE_CAPACITY", o.queue_capacity, 0, kIntMax));
  o.tenant_inflight = static_cast<int>(env_int_in_range(
      "HYMV_SVC_TENANT_INFLIGHT", o.tenant_inflight, 1, kIntMax));
  o.max_panel = static_cast<int>(
      env_int_in_range("HYMV_SVC_MAX_PANEL", o.max_panel, 1, 64));
  o.batch_window_ms =
      env_duration_ms("HYMV_SVC_BATCH_WINDOW_MS", o.batch_window_ms);
  o.cache_capacity_bytes =
      env_size_bytes("HYMV_SVC_CACHE_BYTES", o.cache_capacity_bytes);
  o.default_deadline_ms =
      env_duration_ms("HYMV_SVC_DEADLINE_MS", o.default_deadline_ms);
  o.watchdog_ms = env_duration_ms("HYMV_SVC_WATCHDOG_MS", o.watchdog_ms);
  o.backoff_base_ms = env_duration_ms("HYMV_SVC_BACKOFF_MS", o.backoff_base_ms);
  if (const char* dir = std::getenv("HYMV_SVC_CACHE_DIR");
      dir != nullptr && *dir != '\0') {
    o.cache_dir = dir;
  }
  o.store_checksums = env_flag("HYMV_STORE_CHECKSUM", o.store_checksums);
  o.run = simmpi::RunOptions::from_env();
  return o;
}

std::uint64_t SolveService::problem_key(const SolveRequest& r) {
  // FNV-1a over the raw bytes of each field, in this order.
  std::uint64_t h = kFnv1aBasis;
  const auto add = [&h](const auto& v) {
    static_assert(std::is_trivially_copyable_v<std::decay_t<decltype(v)>>);
    h = fnv1a(&v, sizeof v, h);
  };
  add(static_cast<int>(r.spec.pde));
  add(static_cast<int>(r.spec.element));
  add(r.spec.box.nx);
  add(r.spec.box.ny);
  add(r.spec.box.nz);
  add(r.spec.box.lx);
  add(r.spec.box.ly);
  add(r.spec.box.lz);
  add(r.spec.box.origin);
  add(r.spec.unstructured);
  add(r.spec.jitter);
  add(r.spec.seed);
  add(static_cast<int>(r.spec.partitioner));
  add(r.spec.young);
  add(r.spec.poisson_ratio);
  add(r.spec.density);
  add(r.spec.gravity);
  add(static_cast<int>(r.backend));
  add(static_cast<int>(r.layout));
  add(static_cast<int>(r.precond));
  add(r.rtol);
  add(r.max_iters);
  return h;
}

namespace {

/// An admitted request waiting in (or popped from) the queue.
struct Pending {
  SolveRequest req;
  std::promise<SolveResponse> promise;
  Clock::time_point admitted;
  std::optional<Clock::time_point> deadline;
  std::uint64_t key = 0;
  std::int64_t seq = 0;
  bool done = false;  ///< promise fulfilled (single-fulfilment guard)
};

/// Watchdog registration of a batch in flight.
struct RunningBatch {
  std::shared_ptr<std::atomic<bool>> cancel;
  std::shared_ptr<std::atomic<bool>> watchdog_fired;
  Clock::time_point started;
};

/// Warm-cache entry. The shared_ptrs make eviction safe against a
/// concurrent hit: a worker that copied the entry keeps the data alive
/// while the LRU moves on. `stores` holds one element-matrix store per
/// job rank (empty for non-HYMV backends, where only the setup is warm).
struct CacheEntry {
  std::shared_ptr<const driver::ProblemSetup> setup;
  std::vector<std::shared_ptr<const core::ElementMatrixStore>> stores;
  std::int64_t bytes = 0;
  /// Identity of the cache slot the entry came from (0 = no entry): a key
  /// evicted and inserted again gets a new generation.
  std::uint64_t generation = 0;

  [[nodiscard]] bool empty() const { return setup == nullptr; }
  [[nodiscard]] bool has_stores() const {
    return !stores.empty() &&
           std::all_of(stores.begin(), stores.end(),
                       [](const auto& s) { return s != nullptr; });
  }
};

/// One rank's built solve state: everything a batch needs besides its
/// lanes' scales. Nothing in it is written after the build — lanes scale
/// copies of b — so batch after batch reads the same bits.
struct RankState {
  std::unique_ptr<driver::RankContext> ctx;
  std::unique_ptr<pla::LinearOperator> a;
  core::HymvOperator* hymv = nullptr;  ///< typed view of `a` (HYMV backend)
  std::unique_ptr<pla::ConstrainedOperator> ac;
  pla::DistVector b;  ///< constrained right-hand side (Dirichlet lift done)
  std::unique_ptr<pla::Preconditioner> m;
  std::vector<double> exact;  ///< exact solution at the owned DoFs
};

/// A problem's built state for every rank of a job. A batch borrows it
/// from its cache slot's free list and has it to itself; its operators
/// read the cache entry's stores (a write copies first) and it keeps the
/// setup its rank contexts point into alive.
struct SolveState {
  std::shared_ptr<const driver::ProblemSetup> setup;
  std::vector<RankState> ranks;
  std::uint64_t generation = 0;  ///< the cache slot the state belongs to
  std::int64_t bytes = 0;        ///< footprint counted while pooled
};

/// A cache slot: the entry, its LRU position, and the free list of pooled
/// rank states. `bytes` is what the slot charges to the LRU budget.
struct CacheSlot {
  CacheEntry entry;
  std::list<std::uint64_t>::iterator lru;
  std::vector<std::unique_ptr<SolveState>> free_states;
  std::int64_t bytes = 0;  ///< entry.bytes + the pooled states' bytes
};

/// Coarse footprint of a setup's mesh (and of the maps built over it).
std::int64_t mesh_bytes(const driver::ProblemSetup& setup) {
  return setup.total_nodes * 64 + setup.total_elements * 32;
}

/// Outcome of one lane of one executed attempt.
struct LaneResult {
  pla::CgResult cg;
  double err_inf = 0.0;
  bool cache_hit = false;
  bool deadline_stop = false;  ///< the panel deadline fired the stop
};

}  // namespace

struct SolveService::Impl {
  explicit Impl(ServiceOptions o, obs::MetricsRegistry* m)
      : opt(std::move(o)), mets(m) {
    opt.run.metrics_path.clear();  // concurrent jobs, one output file
#ifdef _OPENMP
    omp_threads = omp_get_max_threads();
#endif
  }

  ServiceOptions opt;
  obs::MetricsRegistry* mets;
  /// The constructing thread's OpenMP thread count, which every worker,
  /// and so every rank of every job, runs at.
  int omp_threads = 1;

  // --- queue + admission (guarded by mu) ---------------------------------
  mutable std::mutex mu;
  std::condition_variable cv;
  std::deque<std::unique_ptr<Pending>> queue;
  std::map<std::string, int> tenant_inflight;  // queued + executing
  bool stopping = false;
  std::int64_t next_seq = 0;

  std::vector<std::thread> workers;
  std::thread watchdog;

  // --- running-batch registry for the watchdog ---------------------------
  std::mutex run_mu;
  std::list<std::shared_ptr<RunningBatch>> running;

  // --- warm cache (guarded by cache_mu) ----------------------------------
  std::mutex cache_mu;
  std::list<std::uint64_t> lru;  // front = most recently used
  std::map<std::uint64_t, CacheSlot> cache;
  std::int64_t cache_bytes = 0;
  std::uint64_t next_generation = 1;

  // --- per-key solve-time estimate for the degradation ladder ------------
  std::mutex ewma_mu;
  std::map<std::uint64_t, double> ewma_ms;

  // -----------------------------------------------------------------------

  obs::Counter& tenant_counter(const std::string& tenant, const char* what) {
    return mets->counter("svc." + tenant + "." + what);
  }
  obs::Histogram& tenant_histogram(const std::string& tenant,
                                   const char* what) {
    return mets->histogram("svc." + tenant + "." + what);
  }

  void finish(Pending& p, SolveResponse&& response) {
    if (p.done) {
      return;
    }
    p.done = true;
    const Clock::time_point now = Clock::now();
    response.total_ms = ms_between(p.admitted, now);
    response.problem_key = p.key;
    switch (response.outcome) {
      case Outcome::kSolved:
        tenant_counter(p.req.tenant, "solved").inc();
        break;
      case Outcome::kRejected:
        tenant_counter(p.req.tenant, "rejected").inc();
        break;
      case Outcome::kShed:
        tenant_counter(p.req.tenant, "shed").inc();
        break;
      case Outcome::kDeadlineMissed:
        tenant_counter(p.req.tenant, "deadline_missed").inc();
        break;
      case Outcome::kFailed:
        tenant_counter(p.req.tenant, "failed").inc();
        break;
    }
    tenant_histogram(p.req.tenant, "latency_ms").observe(response.total_ms);
    tenant_histogram(p.req.tenant, "queue_ms").observe(response.queue_ms);
    tenant_histogram(p.req.tenant, "solve_ms").observe(response.solve_ms);
    p.promise.set_value(std::move(response));
  }

  /// finish() for a request that was admitted (tenant_inflight holds a
  /// slot for it): also releases the slot — first, so a caller that
  /// resubmits as soon as it sees the reply finds the slot free. Callers
  /// must NOT hold `mu`.
  void finish_admitted(Pending& p, SolveResponse&& response) {
    {
      std::lock_guard<std::mutex> lock(mu);
      --tenant_inflight[p.req.tenant];
    }
    finish(p, std::move(response));
  }

  double ewma_for(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(ewma_mu);
    auto it = ewma_ms.find(key);
    return it == ewma_ms.end() ? 0.0 : it->second;
  }

  void ewma_update(std::uint64_t key, double sample_ms) {
    std::lock_guard<std::mutex> lock(ewma_mu);
    double& e = ewma_ms[key];
    e = e == 0.0 ? sample_ms : 0.7 * e + 0.3 * sample_ms;
  }

  // --- cache -------------------------------------------------------------

  /// Look `key` up and, when its slot pools a free rank state, pop it
  /// into `state`: the caller has it to itself until state_return.
  CacheEntry cache_lookup(std::uint64_t key,
                          std::unique_ptr<SolveState>& state) {
    std::lock_guard<std::mutex> lock(cache_mu);
    auto it = cache.find(key);
    if (it == cache.end()) {
      mets->counter("svc.cache.misses").inc();
      return {};
    }
    CacheSlot& slot = it->second;
    lru.erase(slot.lru);
    lru.push_front(key);
    slot.lru = lru.begin();
    mets->counter("svc.cache.hits").inc();
    if (!slot.free_states.empty()) {
      state = std::move(slot.free_states.back());
      slot.free_states.pop_back();
      slot.bytes -= state->bytes;
      cache_bytes -= state->bytes;
      mets->gauge("svc.cache.bytes").set(static_cast<double>(cache_bytes));
    }
    return slot.entry;  // shared_ptr copies keep data eviction-safe
  }

  /// Insert `entry` unless the cache is off or the key is already cached,
  /// and return the entry that now holds the key (empty, generation 0,
  /// when none does).
  CacheEntry cache_insert(std::uint64_t key, CacheEntry entry) {
    if (opt.cache_capacity_bytes <= 0) {
      return {};
    }
    std::vector<CacheSlot> evicted;  // freed after the lock is released
    std::lock_guard<std::mutex> lock(cache_mu);
    if (auto it = cache.find(key); it != cache.end()) {
      return it->second.entry;  // another worker won the race
    }
    entry.generation = next_generation++;
    lru.push_front(key);
    CacheSlot& slot = cache[key];
    slot.bytes = entry.bytes;
    slot.entry = std::move(entry);
    slot.lru = lru.begin();
    cache_bytes += slot.bytes;
    CacheEntry held = slot.entry;  // the newest slot outlives the eviction
    evict_locked(evicted);
    return held;
  }

  /// Put a borrowed state back on its slot's free list (the slot becomes
  /// the most recently used). A state whose slot has left the cache since
  /// it was borrowed or built is dropped.
  void state_return(std::uint64_t key, std::unique_ptr<SolveState> state) {
    std::vector<CacheSlot> evicted;  // freed after the lock is released
    std::lock_guard<std::mutex> lock(cache_mu);
    auto it = cache.find(key);
    if (it == cache.end() ||
        it->second.entry.generation != state->generation) {
      return;
    }
    CacheSlot& slot = it->second;
    lru.erase(slot.lru);
    lru.push_front(key);
    slot.lru = lru.begin();
    slot.bytes += state->bytes;
    cache_bytes += state->bytes;
    slot.free_states.push_back(std::move(state));
    evict_locked(evicted);
  }

  /// Evict least-recently-used slots, pooled states included, until the
  /// byte budget holds or one slot is left. Requires `cache_mu`; evicted
  /// slots move to `evicted` so the caller frees them unlocked.
  void evict_locked(std::vector<CacheSlot>& evicted) {
    while (cache_bytes > opt.cache_capacity_bytes && cache.size() > 1) {
      auto vit = cache.find(lru.back());
      cache_bytes -= vit->second.bytes;
      evicted.push_back(std::move(vit->second));
      cache.erase(vit);
      lru.pop_back();
      mets->counter("svc.cache.evictions").inc();
    }
    mets->gauge("svc.cache.bytes").set(static_cast<double>(cache_bytes));
    mets->gauge("svc.cache.entries").set(static_cast<double>(cache.size()));
  }

  [[nodiscard]] std::string disk_path(std::uint64_t key, int rank) const {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%016llx_r%d",
                  static_cast<unsigned long long>(key), rank);
    return opt.cache_dir + "/hymv_store_" + buf + ".bin";
  }

  /// Disk tier: a memory miss may still find the per-rank element stores
  /// on disk (setup is rebuilt — the mesh is cheap next to quadrature).
  /// Returns all `nranks` stores or nothing.
  std::vector<std::shared_ptr<const core::ElementMatrixStore>> disk_load(
      std::uint64_t key, core::StoreLayout layout, int nranks) {
    std::vector<std::shared_ptr<const core::ElementMatrixStore>> stores;
    if (opt.cache_dir.empty()) {
      return stores;
    }
    try {
      for (int r = 0; r < nranks; ++r) {
        stores.push_back(std::make_shared<const core::ElementMatrixStore>(
            io::load_store(disk_path(key, r), layout)));
      }
      mets->counter("svc.cache.disk_hits").inc();
      return stores;
    } catch (const std::exception&) {
      return {};  // absent or unreadable: treat as a plain miss
    }
  }

  void disk_save(std::uint64_t key, int rank,
                 const core::ElementMatrixStore& store) {
    if (opt.cache_dir.empty()) {
      return;
    }
    try {
      io::save_store(disk_path(key, rank), store);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hymv svc: disk cache save failed: %s\n", e.what());
    }
  }

  // --- batching ----------------------------------------------------------

  /// Pop the best queued request: highest priority, FIFO within a
  /// priority. Requires `mu` held and a non-empty queue.
  std::unique_ptr<Pending> pop_best_locked() {
    auto best = queue.begin();
    for (auto it = std::next(queue.begin()); it != queue.end(); ++it) {
      if ((*it)->req.priority > (*best)->req.priority ||
          ((*it)->req.priority == (*best)->req.priority &&
           (*it)->seq < (*best)->seq)) {
        best = it;
      }
    }
    std::unique_ptr<Pending> p = std::move(*best);
    queue.erase(best);
    return p;
  }

  /// Move every queued request compatible with the leader into `batch`,
  /// up to max_panel lanes, skipping partners whose deadline the batched
  /// solve-time estimate would blow (degradation ladder: they run k=1
  /// later instead of missing inside a panel). Requires `mu` held.
  void collect_partners_locked(std::vector<std::unique_ptr<Pending>>& batch) {
    const Pending& leader = *batch.front();
    const double est_batched_ms = ewma_for(leader.key) * kPanelPenalty;
    for (auto it = queue.begin();
         it != queue.end() &&
         batch.size() < static_cast<std::size_t>(opt.max_panel);) {
      if ((*it)->key != leader.key) {
        ++it;
        continue;
      }
      if ((*it)->deadline && est_batched_ms > 0.0) {
        const double remaining =
            ms_between(Clock::now(), *(*it)->deadline);
        if (remaining < est_batched_ms) {
          mets->counter("svc.degraded_to_k1").inc();
          ++it;
          continue;
        }
      }
      batch.push_back(std::move(*it));
      it = queue.erase(it);
    }
  }

  // --- execution ---------------------------------------------------------

  void worker_loop() {
#ifdef _OPENMP
    omp_set_num_threads(omp_threads);
#endif
    for (;;) {
      std::vector<std::unique_ptr<Pending>> batch;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return stopping || !queue.empty(); });
        if (stopping) {
          return;  // shutdown() already drained the queue
        }
        batch.push_back(pop_best_locked());
        collect_partners_locked(batch);
        // Batch window: briefly hold the panel open for more compatible
        // arrivals — unless the leader's deadline is too tight to spend
        // any of it waiting.
        const Pending& leader = *batch.front();
        bool window_ok = opt.batch_window_ms > 0.0 && opt.max_panel > 1;
        if (window_ok && leader.deadline) {
          const double remaining =
              ms_between(Clock::now(), *leader.deadline);
          window_ok = remaining > 4.0 * opt.batch_window_ms;
          if (!window_ok) {
            mets->counter("svc.degraded_to_k1").inc();
          }
        }
        if (window_ok &&
            batch.size() < static_cast<std::size_t>(opt.max_panel)) {
          const auto until =
              Clock::now() + std::chrono::duration<double, std::milli>(
                                 opt.batch_window_ms);
          while (!stopping &&
                 batch.size() < static_cast<std::size_t>(opt.max_panel) &&
                 cv.wait_until(lk, until) != std::cv_status::timeout) {
            collect_partners_locked(batch);
          }
          collect_partners_locked(batch);
        }
        mets->gauge("svc.queue_depth")
            .set(static_cast<double>(queue.size()));
      }
      execute_batch(std::move(batch));
    }
  }

  void execute_batch(std::vector<std::unique_ptr<Pending>> batch) {
    const Clock::time_point exec_start = Clock::now();
    const std::uint64_t key = batch.front()->key;
    mets->counter("svc.batches").inc();
    mets->counter("svc.panel_lanes")
        .add(static_cast<std::int64_t>(batch.size()));
    const bool batched = batch.size() > 1;
    const int panel_lanes = static_cast<int>(batch.size());

    auto rb = std::make_shared<RunningBatch>();
    rb->cancel = std::make_shared<std::atomic<bool>>(false);
    rb->watchdog_fired = std::make_shared<std::atomic<bool>>(false);
    rb->started = exec_start;
    {
      std::lock_guard<std::mutex> lock(run_mu);
      running.push_back(rb);
    }

    // Lanes still needing a (re)attempt. Indices into `batch`.
    std::vector<std::size_t> pending_lanes(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      pending_lanes[i] = i;
    }

    auto make_response = [&](const Pending& p) {
      SolveResponse r;
      r.batched = batched;
      r.panel_lanes = panel_lanes;
      r.queue_ms = ms_between(p.admitted, exec_start);
      r.solve_ms = ms_between(exec_start, Clock::now());
      return r;
    };

    for (int attempt = 1; !pending_lanes.empty(); ++attempt) {
      // Drop lanes whose deadline already expired before this attempt.
      std::vector<std::size_t> lanes;
      for (std::size_t i : pending_lanes) {
        Pending& p = *batch[i];
        if (p.deadline && Clock::now() >= *p.deadline) {
          SolveResponse r = make_response(p);
          r.outcome = Outcome::kDeadlineMissed;
          r.reason = "deadline";
          r.attempts = attempt - 1;
          finish_admitted(p, std::move(r));
        } else {
          lanes.push_back(i);
        }
      }
      pending_lanes.clear();
      if (lanes.empty()) {
        break;
      }

      std::vector<LaneResult> results;
      bool job_threw = false;
      std::string job_error;
      try {
        results = run_attempt(batch, lanes, key, *rb, attempt);
      } catch (const std::exception& e) {
        job_threw = true;
        job_error = e.what();
      }

      for (std::size_t j = 0; j < lanes.size(); ++j) {
        Pending& p = *batch[lanes[j]];
        const bool attempts_left = attempt < p.req.max_attempts;
        if (job_threw) {
          if (attempts_left && !rb->cancel->load(std::memory_order_relaxed)) {
            tenant_counter(p.req.tenant, "retries").inc();
            pending_lanes.push_back(lanes[j]);
            continue;
          }
          SolveResponse r = make_response(p);
          r.outcome = Outcome::kFailed;
          r.reason = "exception";
          r.attempts = attempt;
          finish_admitted(p, std::move(r));
          if (j == 0) {
            std::fprintf(stderr, "hymv svc: attempt %d failed: %s\n", attempt,
                         job_error.c_str());
          }
          continue;
        }
        const LaneResult& lr = results[j];
        SolveResponse r = make_response(p);
        r.cg = lr.cg;
        r.err_inf = lr.err_inf;
        r.cache_hit = lr.cache_hit;
        r.attempts = attempt;
        if (lr.cg.converged) {
          r.outcome = Outcome::kSolved;
          finish_admitted(p, std::move(r));
        } else if (lr.cg.canceled) {
          if (rb->watchdog_fired->load(std::memory_order_relaxed)) {
            r.outcome = Outcome::kFailed;
            r.reason = "watchdog_timeout";
          } else if (lr.deadline_stop ||
                     (p.deadline && Clock::now() >= *p.deadline)) {
            r.outcome = Outcome::kDeadlineMissed;
            r.reason = "deadline";
          } else {
            r.outcome = Outcome::kFailed;
            r.reason = "shutting_down";
          }
          finish_admitted(p, std::move(r));
        } else if (attempts_left) {
          tenant_counter(p.req.tenant, "retries").inc();
          pending_lanes.push_back(lanes[j]);
        } else {
          r.outcome = Outcome::kFailed;
          r.reason = lr.cg.breakdown ? "breakdown" : "not_converged";
          finish_admitted(p, std::move(r));
        }
      }

      if (!pending_lanes.empty()) {
        // Exponential backoff before the retry, clipped so we never sleep
        // through a retrying lane's deadline.
        double sleep_ms =
            opt.backoff_base_ms * std::pow(2.0, static_cast<double>(attempt - 1));
        for (std::size_t i : pending_lanes) {
          const Pending& p = *batch[i];
          if (p.deadline) {
            sleep_ms = std::min(
                sleep_ms, std::max(0.0, ms_between(Clock::now(), *p.deadline)));
          }
        }
        std::unique_lock<std::mutex> lk(mu);
        cv.wait_for(lk,
                    std::chrono::duration<double, std::milli>(sleep_ms),
                    [&] { return stopping; });
        if (stopping) {
          for (std::size_t i : pending_lanes) {
            Pending& p = *batch[i];
            SolveResponse r = make_response(p);
            r.outcome = Outcome::kFailed;
            r.reason = "shutting_down";
            r.attempts = attempt;
            lk.unlock();
            finish_admitted(p, std::move(r));
            lk.lock();
          }
          pending_lanes.clear();
        }
      }
    }

    {
      std::lock_guard<std::mutex> lock(run_mu);
      running.remove(rb);
    }
    ewma_update(key, ms_between(exec_start, Clock::now()));
  }

  /// Build one rank's solve state in a cold solve's order: context, the
  /// operator (restarted from this rank's warm store when there is one),
  /// checksum arming, the attempt hook, then b with its Dirichlet lift,
  /// the preconditioner and the exact field. Collective.
  void build_rank_state(
      simmpi::Comm& comm, RankState& rs, const driver::ProblemSetup& setup,
      const SolveRequest& proto,
      const std::vector<std::shared_ptr<const core::ElementMatrixStore>>&
          warm_stores,
      int attempt) {
    rs.ctx = std::make_unique<driver::RankContext>(comm, setup);
    const driver::RankContext& ctx = *rs.ctx;
    core::HymvOptions hymv_options;
    hymv_options.layout = proto.layout;
    if (proto.backend == driver::Backend::kHymv && !warm_stores.empty()) {
      // Warm path: restart over this rank's cached element-matrix store
      // — no quadrature, no emat compute, no copy until a write.
      auto op = std::make_unique<core::HymvOperator>(
          comm, ctx.part(), setup.spec.ndof_per_node(),
          warm_stores[static_cast<std::size_t>(comm.rank())], hymv_options);
      rs.hymv = op.get();
      rs.a = std::move(op);
    } else {
      driver::BuiltBackend built = driver::build_backend(
          comm, ctx, proto.backend, nullptr, {}, hymv_options);
      rs.a = std::move(built.op);
      rs.hymv = built.hymv_cpu;
    }
    if (opt.store_checksums && rs.hymv != nullptr) {
      rs.hymv->enable_store_checksums();
    }
    // After checksum arming, so injected corruption is detectable and
    // the post-attempt scrub can repair it.
    if (opt.attempt_hook) {
      opt.attempt_hook(*rs.a, attempt);
    }

    rs.ac = std::make_unique<pla::ConstrainedOperator>(*rs.a,
                                                       ctx.constraints());
    rs.b = rs.ctx->assemble_rhs(comm);
    pla::apply_constraints_to_rhs(comm, *rs.a, ctx.constraints(), rs.b);

    // The shared driver construction path: every Precond the driver knows
    // (including chebyshev/multigrid) is servable, with its default
    // options — a state runs its request, not the environment. problem_key
    // hashes the precond int, so requests for different preconditioners
    // never coalesce.
    rs.m = driver::make_preconditioner(comm, ctx, *rs.ac, proto.precond);
    rs.exact = ctx.exact_owned();
  }

  /// Footprint of a built state while it is pooled: the coarse mesh
  /// estimate for its contexts' and operators' maps, plus per rank the
  /// operator (its store unless it reads the entry's `cached` store, which
  /// the entry counts, or the bytes one apply streams for the other
  /// backends) and three owned vectors (b, exact, a diagonal).
  [[nodiscard]] static std::int64_t state_bytes(
      const SolveState& state,
      const std::vector<std::shared_ptr<const core::ElementMatrixStore>>&
          cached) {
    std::int64_t bytes = mesh_bytes(*state.setup);
    for (std::size_t r = 0; r < state.ranks.size(); ++r) {
      const RankState& rs = state.ranks[r];
      if (rs.hymv == nullptr) {
        bytes += rs.a->apply_bytes();
      } else if (r >= cached.size() || &rs.hymv->store() != cached[r].get()) {
        bytes += rs.hymv->store().bytes();
      }
      bytes += 3 * rs.b.owned_size() *
               static_cast<std::int64_t>(sizeof(double));
    }
    return bytes;
  }

  /// One solve attempt over `lanes` of `batch`, as its own simmpi job
  /// (opt.ranks ranks; per-job Context makes concurrent jobs safe). The
  /// job runs on a rank state borrowed from the key's cache slot, or on
  /// one it builds; the state goes back unless the job threw, the attempt
  /// hook ran on it, or a scrub ran on it.
  /// Throws what the job throws (TimeoutError from dropped messages,
  /// IntegrityError from checksum failures, ...).
  std::vector<LaneResult> run_attempt(
      const std::vector<std::unique_ptr<Pending>>& batch,
      const std::vector<std::size_t>& lanes, std::uint64_t key,
      RunningBatch& rb, int attempt) {
    const SolveRequest& proto = batch[lanes.front()]->req;
    const int nranks = opt.ranks;

    std::unique_ptr<SolveState> state;
    const CacheEntry entry = cache_lookup(key, state);
    const bool fresh = state == nullptr;
    std::vector<std::shared_ptr<const core::ElementMatrixStore>> warm_stores;
    if (fresh) {
      if (entry.has_stores() &&
          entry.stores.size() == static_cast<std::size_t>(nranks)) {
        warm_stores = entry.stores;
      } else if (auto disk = disk_load(key, proto.layout, nranks);
                 !disk.empty()) {
        warm_stores = std::move(disk);
      }
      state = std::make_unique<SolveState>();
      state->setup = entry.setup;
      if (state->setup == nullptr) {
        state->setup = std::make_shared<const driver::ProblemSetup>(
            driver::ProblemSetup::build(proto.spec, nranks));
      }
      state->ranks.resize(static_cast<std::size_t>(nranks));
      state->generation = entry.generation;
      mets->counter("svc.state.builds").inc();
    } else {
      mets->counter("svc.state.reuses").inc();
    }
    // No element matrices computed: a pooled state, or a restart.
    const bool cache_hit = !fresh || !warm_stores.empty();
    const driver::ProblemSetup& setup = *state->setup;

    // Panel deadline: the cooperative stop fires only when EVERY lane's
    // deadline has passed (converged lanes deflate on their own; a lane
    // with no deadline keeps the panel alive until convergence).
    std::optional<Clock::time_point> panel_deadline;
    bool all_have_deadlines = true;
    for (std::size_t i : lanes) {
      if (!batch[i]->deadline) {
        all_have_deadlines = false;
        break;
      }
      panel_deadline = panel_deadline
                           ? std::max(*panel_deadline, *batch[i]->deadline)
                           : *batch[i]->deadline;
    }
    if (!all_have_deadlines) {
      panel_deadline.reset();
    }

    const int k = static_cast<int>(lanes.size());
    std::vector<LaneResult> results(static_cast<std::size_t>(k));
    std::vector<std::shared_ptr<const core::ElementMatrixStore>>
        stores_to_cache(static_cast<std::size_t>(nranks));
    auto deadline_stop = std::make_shared<std::atomic<bool>>(false);
    std::atomic<bool> scrubbed{false};

    simmpi::run(nranks, [&](simmpi::Comm& comm) {
      const int rank = comm.rank();
      RankState& rs = state->ranks[static_cast<std::size_t>(rank)];
      if (fresh) {
        build_rank_state(comm, rs, setup, proto, warm_stores, attempt);
      }
      const pla::Layout& layout = rs.a->layout();

      pla::CgOptions cg_options;
      cg_options.rtol = proto.rtol;
      cg_options.max_iters = proto.max_iters;
      // The stop decision must be identical on every rank (breaking out of
      // a collective loop unilaterally would deadlock the others), so each
      // rank contributes its local view and a tiny allreduce (a sum) makes
      // the call. Single-rank jobs reduce locally — no messages. The vote
      // weights must not alias under summation: cancel=1 sums to at most 8
      // (the rank cap), far below the deadline weight of 1024. And the
      // thresholds are >= 1.0, not > 0.0: a low-mantissa-bit flip fault on
      // a 0.0 vote payload yields a denormal on one rank only, and a > 0.0
      // test would make that rank stop unilaterally and deadlock the rest.
      cg_options.should_stop = [&, rank](std::int64_t) {
        double local = 0.0;
        if (rb.cancel->load(std::memory_order_relaxed)) {
          local += 1.0;
        }
        if (panel_deadline && Clock::now() >= *panel_deadline) {
          local += 1024.0;
        }
        double global = 0.0;
        simmpi::AllreduceHandle h =
            comm.allreduce_start(std::span<const double>(&local, 1));
        comm.allreduce_finish(h, std::span<double>(&global, 1));
        if (global >= 1024.0 && rank == 0) {
          deadline_stop->store(true, std::memory_order_relaxed);
        }
        return global >= 1.0;
      };

      // Each lane scales its own copy of the state's b.
      std::vector<pla::CgResult> cg(static_cast<std::size_t>(k));
      pla::DistMultiVector x_panel;
      pla::DistVector x_single(layout);
      if (k == 1) {
        pla::DistVector bj(layout);
        pla::copy(rs.b, bj);
        const double s = batch[lanes[0]]->req.rhs_scale;
        for (std::int64_t d = 0; d < bj.owned_size(); ++d) {
          bj[d] *= s;
        }
        cg[0] = pla::cg_solve(comm, *rs.ac, *rs.m, bj, x_single, cg_options);
      } else {
        pla::DistMultiVector b_panel(layout, k);
        x_panel = pla::DistMultiVector(layout, k);
        pla::DistVector bj(layout);
        for (int j = 0; j < k; ++j) {
          pla::copy(rs.b, bj);
          const double s =
              batch[lanes[static_cast<std::size_t>(j)]]->req.rhs_scale;
          for (std::int64_t d = 0; d < bj.owned_size(); ++d) {
            bj[d] *= s;
          }
          b_panel.set_lane(j, bj);
        }
        cg = pla::cg_solve_multi(comm, *rs.ac, *rs.m, b_panel, x_panel,
                                 cg_options);
      }

      // error_inf is collective — every rank walks the same lane loop, but
      // only rank 0 writes the shared results array.
      pla::DistVector xj(layout);
      for (int j = 0; j < k; ++j) {
        LaneResult lr;
        lr.cg = cg[static_cast<std::size_t>(j)];
        lr.cache_hit = cache_hit;
        lr.deadline_stop = deadline_stop->load(std::memory_order_relaxed);
        if (lr.cg.converged) {
          if (k == 1) {
            pla::copy(x_single, xj);
          } else {
            x_panel.get_lane(j, xj);
          }
          const double s =
              batch[lanes[static_cast<std::size_t>(j)]]->req.rhs_scale;
          for (std::int64_t d = 0; d < xj.owned_size(); ++d) {
            xj[d] /= s;
          }
          lr.err_inf = driver::RankContext::error_inf(comm, xj, rs.exact);
        }
        if (rank == 0) {
          results[static_cast<std::size_t>(j)] = lr;
        }
      }

      // A lane that failed to converge may be a corrupted store: scrub
      // this rank's blocks (detect + recompute) so the retry starts clean.
      const bool any_unconverged = std::any_of(
          cg.begin(), cg.end(),
          [](const pla::CgResult& c) { return !c.converged; });
      if (any_unconverged && opt.store_checksums && rs.hymv != nullptr) {
        scrubbed.store(true, std::memory_order_relaxed);
        const std::int64_t repaired =
            rs.hymv->scrub_store(rs.ctx->element_op());
        if (repaired > 0) {
          mets->counter("svc.scrubbed_blocks").add(repaired);
        }
      }

      if (!cache_hit && rs.hymv != nullptr) {
        stores_to_cache[static_cast<std::size_t>(rank)] =
            rs.hymv->shared_store();
      }
    }, opt.run);

    CacheEntry held = entry;  // the entry the state belongs to
    if (entry.empty()) {
      CacheEntry fresh_entry;
      fresh_entry.setup = state->setup;
      const bool built_stores = std::all_of(
          stores_to_cache.begin(), stores_to_cache.end(),
          [](const auto& s) { return s != nullptr; });
      if (built_stores) {
        fresh_entry.stores = stores_to_cache;
      } else if (!warm_stores.empty()) {
        fresh_entry.stores = warm_stores;  // disk hit promoted to memory
      }
      // Footprint: the dominant store payload plus a coarse mesh estimate.
      fresh_entry.bytes = mesh_bytes(setup);
      for (const auto& s : fresh_entry.stores) {
        fresh_entry.bytes += s->bytes();
      }
      // The state joins the entry that holds the key now: this one, or
      // the one another worker inserted first.
      held = cache_insert(key, std::move(fresh_entry));
      state->generation = held.generation;
      if (built_stores) {
        for (int r = 0; r < nranks; ++r) {
          disk_save(key, r, *stores_to_cache[static_cast<std::size_t>(r)]);
        }
      }
    }
    if (fresh) {
      state->bytes = state_bytes(*state, held.stores);
    }
    if (!opt.attempt_hook && !scrubbed.load(std::memory_order_relaxed)) {
      state_return(key, std::move(state));
    }
    return results;
  }

  void watchdog_loop() {
    const auto period = std::chrono::duration<double, std::milli>(
        std::min(opt.watchdog_ms / 4.0, 50.0));
    std::unique_lock<std::mutex> lk(mu);
    while (!cv.wait_for(lk, period, [&] { return stopping; })) {
      lk.unlock();
      const Clock::time_point now = Clock::now();
      {
        std::lock_guard<std::mutex> lock(run_mu);
        for (const auto& rb : running) {
          if (ms_between(rb->started, now) > opt.watchdog_ms &&
              !rb->cancel->load(std::memory_order_relaxed)) {
            rb->watchdog_fired->store(true, std::memory_order_relaxed);
            rb->cancel->store(true, std::memory_order_relaxed);
            mets->counter("svc.watchdog_cancels").inc();
            std::fprintf(stderr,
                         "hymv svc: WATCHDOG canceling batch stuck for more "
                         "than %.0f ms\n",
                         opt.watchdog_ms);
          }
        }
      }
      lk.lock();
    }
  }
};

SolveService::SolveService(ServiceOptions options)
    : impl_(std::make_unique<Impl>(std::move(options), &metrics_)) {
  for (int w = 0; w < impl_->opt.workers; ++w) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
  if (impl_->opt.watchdog_ms > 0.0) {
    impl_->watchdog = std::thread([this] { impl_->watchdog_loop(); });
  }
}

SolveService::~SolveService() { shutdown(); }

int SolveService::queue_depth() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return static_cast<int>(impl_->queue.size());
}

std::future<SolveResponse> SolveService::submit(SolveRequest request) {
  auto p = std::make_unique<Pending>();
  p->req = std::move(request);
  std::future<SolveResponse> future = p->promise.get_future();
  impl_->tenant_counter(p->req.tenant, "submitted").inc();

  auto reject = [&](const char* reason) {
    SolveResponse r;
    r.outcome = Outcome::kRejected;
    r.reason = reason;
    p->key = SolveService::problem_key(p->req);
    p->admitted = Clock::now();
    impl_->finish(*p, std::move(r));
    return std::move(future);
  };

  if (!(std::isfinite(p->req.rhs_scale)) || p->req.rhs_scale == 0.0) {
    return reject("bad_request");
  }

  std::unique_ptr<Pending> shed_victim;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->stopping) {
      return reject("shutting_down");
    }
    if (impl_->opt.tenant_inflight > 0 &&
        impl_->tenant_inflight[p->req.tenant] >= impl_->opt.tenant_inflight) {
      return reject("tenant_quota");
    }
    if (static_cast<int>(impl_->queue.size()) >= impl_->opt.queue_capacity) {
      // Overload: shed the lowest-priority queued request if it is
      // strictly below the newcomer; otherwise the newcomer bounces.
      auto victim = impl_->queue.end();
      for (auto it = impl_->queue.begin(); it != impl_->queue.end(); ++it) {
        if (victim == impl_->queue.end() ||
            (*it)->req.priority < (*victim)->req.priority ||
            ((*it)->req.priority == (*victim)->req.priority &&
             (*it)->seq > (*victim)->seq)) {
          victim = it;
        }
      }
      if (victim == impl_->queue.end() ||
          (*victim)->req.priority >= p->req.priority) {
        return reject("queue_full");
      }
      shed_victim = std::move(*victim);
      impl_->queue.erase(victim);
      --impl_->tenant_inflight[shed_victim->req.tenant];
    }
    p->admitted = Clock::now();
    double deadline_ms = p->req.deadline_ms;
    if (deadline_ms == 0.0) {
      deadline_ms = impl_->opt.default_deadline_ms;
    }
    if (deadline_ms > 0.0) {
      p->deadline = p->admitted +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(deadline_ms));
    }
    p->key = SolveService::problem_key(p->req);
    p->seq = impl_->next_seq++;
    ++impl_->tenant_inflight[p->req.tenant];
    impl_->tenant_counter(p->req.tenant, "admitted").inc();
    impl_->queue.push_back(std::move(p));
    impl_->mets->gauge("svc.queue_depth")
        .set(static_cast<double>(impl_->queue.size()));
  }
  if (shed_victim != nullptr) {
    SolveResponse r;
    r.outcome = Outcome::kShed;
    r.reason = "shed_for_priority";
    r.queue_ms = ms_between(shed_victim->admitted, Clock::now());
    impl_->finish(*shed_victim, std::move(r));
  }
  impl_->cv.notify_all();
  return future;
}

void SolveService::shutdown() {
  std::deque<std::unique_ptr<Pending>> drained;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->stopping) {
      return;
    }
    impl_->stopping = true;
    drained.swap(impl_->queue);
    for (const auto& p : drained) {
      --impl_->tenant_inflight[p->req.tenant];
    }
    impl_->mets->gauge("svc.queue_depth").set(0.0);
  }
  for (auto& p : drained) {
    SolveResponse r;
    r.outcome = Outcome::kRejected;
    r.reason = "shutting_down";
    r.queue_ms = ms_between(p->admitted, Clock::now());
    impl_->finish(*p, std::move(r));
  }
  // Cancel in-flight batches (cooperative: they stop at the next CG
  // iteration) and wake every sleeping thread.
  {
    std::lock_guard<std::mutex> lock(impl_->run_mu);
    for (const auto& rb : impl_->running) {
      rb->cancel->store(true, std::memory_order_relaxed);
    }
  }
  impl_->cv.notify_all();
  for (auto& t : impl_->workers) {
    if (t.joinable()) {
      t.join();
    }
  }
  if (impl_->watchdog.joinable()) {
    impl_->watchdog.join();
  }
}

}  // namespace hymv::svc
