// service-tet4: closed-loop traffic into svc::SolveService. One generator
// thread keeps 2 × max_panel requests outstanding from two tenants; all
// requests are for one unstructured tet4 Poisson problem and differ only
// by rhs_scale, so panel width does not depend on how arrivals interleave,
// and the unstructured mesh makes CG take real iterations (structured
// Poisson converges in one).

#include <future>
#include <limits>
#include <optional>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {

using namespace hymv;

constexpr std::int64_t kElems = 10;  ///< hex cells per edge, 6 tets each: 1,331 DoFs
constexpr int kWorkers = 2;
constexpr int kMaxPanel = 8;
constexpr int kOutstanding = 2 * kMaxPanel;
constexpr double kRtol = 1e-6;
/// A reply's err_inf may exceed the warm-up request's by this factor: lanes
/// with other rhs_scale values stop at slightly different iterates.
constexpr double kErrSlack = 1.5;
constexpr std::int64_t kWarmupRequests = 2 * kOutstanding;
constexpr std::uint64_t kStreamRequests = 4;
constexpr const char* kTenants[] = {"alpha", "beta"};
constexpr auto kPoll = std::chrono::microseconds(500);

driver::ProblemSpec service_spec() {
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kPoisson;
  spec.element = mesh::ElementType::kTet4;
  spec.unstructured = true;
  spec.box = {.nx = kElems, .ny = kElems, .nz = kElems, .lx = 1.0, .ly = 1.0,
              .lz = 1.0, .origin = {0.0, 0.0, 0.0}};
  return spec;
}

struct Reply {
  std::int64_t id = 0;
  Clock::time_point submit;     ///< submit() called
  Clock::time_point submitted;  ///< submit() returned
  Clock::time_point done;       ///< the generator saw the reply
  svc::SolveResponse response;
};

/// Closed loop: keep kOutstanding requests in flight until `limit` requests
/// were submitted or `until` passed, then drain. Replies come back in the
/// order the generator saw them.
std::vector<Reply> closed_loop(svc::SolveService& service, Load& load,
                               const svc::SolveRequest& proto,
                               std::int64_t limit, Clock::time_point until) {
  struct Pending {
    std::future<svc::SolveResponse> future;
    Reply reply;
  };
  std::vector<Pending> pending;
  std::vector<Reply> done;
  std::int64_t submitted = 0;
  for (;;) {
    while (static_cast<int>(pending.size()) < kOutstanding &&
           submitted < limit && Clock::now() < until) {
      svc::SolveRequest request = proto;
      request.tenant = kTenants[load.below(std::size(kTenants))];
      request.rhs_scale = load.uniform(0.5, 2.0);
      Pending p;
      p.reply.id = submitted++;
      p.reply.submit = Clock::now();
      p.future = service.submit(std::move(request));
      p.reply.submitted = Clock::now();
      pending.push_back(std::move(p));
    }
    if (pending.empty()) {
      return done;
    }
    // Block on the oldest request for at most one poll interval, then
    // collect every reply that is ready.
    pending.front().future.wait_for(kPoll);
    const Clock::time_point now = Clock::now();
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      it->reply.done = now;
      it->reply.response = it->future.get();
      done.push_back(std::move(it->reply));
      it = pending.erase(it);
    }
  }
}

std::int64_t tenant_total(const obs::MetricsRegistry& metrics,
                          const char* what) {
  std::int64_t total = 0;
  for (const char* tenant : kTenants) {
    total += metrics.counter_value(std::string("svc.") + tenant + "." + what);
  }
  return total;
}

}  // namespace

void run_service(const Args& args, Tracer& tracer, Result& out) {
  const driver::ProblemSpec spec = service_spec();
  TraceLane* lane = tracer.lane(0);

  // Mesh size for the configuration (the service builds its own setup).
  if (lane != nullptr) {
    lane->set_phase(-1, 0);
  }
  std::optional<driver::ProblemSetup> setup;
  {
    Span span(lane, "mesh.build");
    setup.emplace(driver::ProblemSetup::build(spec, 1));
  }

  svc::ServiceOptions options;
  options.workers = kWorkers;
  options.ranks = 1;
  options.max_panel = kMaxPanel;
  svc::SolveRequest proto;
  proto.spec = spec;
  proto.backend = driver::Backend::kHymv;
  proto.layout = core::StoreLayout::kPadded;
  proto.precond = driver::Precond::kJacobi;
  proto.deadline_ms = -1.0;
  proto.rtol = kRtol;

  Load load(args.seed, kStreamRequests);
  std::unique_ptr<svc::SolveService> service;
  double err_bound = 0.0;
  for (int repeat = 0; repeat < args.repeats; ++repeat) {
    if (lane != nullptr) {
      lane->set_phase(-1, repeat);
    }
    const Clock::time_point start = Clock::now();
    service.reset();
    service = std::make_unique<svc::SolveService>(options);
    // The cold request builds and caches the store; its error sets the
    // accuracy every later reply is held to.
    const std::vector<Reply> cold =
        closed_loop(*service, load, proto, 1, Clock::time_point::max());
    const std::string why =
        check_reply(cold[0].response, std::numeric_limits<double>::infinity());
    if (!why.empty()) {
      throw std::runtime_error("cold request failed: " + why);
    }
    err_bound = kErrSlack * cold[0].response.err_inf;
    closed_loop(*service, load, proto, kWarmupRequests,
                Clock::time_point::max());
    out.setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  if (args.seconds <= 0.0) {
    service->shutdown();
    return;
  }

  obs::MetricsRegistry& metrics = service->metrics();
  const std::int64_t batches0 = metrics.counter_value("svc.batches");
  const std::int64_t lanes0 = metrics.counter_value("svc.panel_lanes");
  const std::int64_t retries0 = tenant_total(metrics, "retries");
  const std::int64_t rejected0 = tenant_total(metrics, "rejected");
  if (lane != nullptr) {
    lane->set_phase(-1, -1);
  }
  const Clock::time_point start = Clock::now();
  const std::vector<Reply> replies = closed_loop(
      *service, load, proto, std::numeric_limits<std::int64_t>::max(),
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds)));
  const std::int64_t batches = metrics.counter_value("svc.batches") - batches0;
  const std::int64_t lanes = metrics.counter_value("svc.panel_lanes") - lanes0;

  Clock::time_point last = start;
  double iterations = 0.0;
  double cache_hits = 0.0;
  for (const Reply& reply : replies) {
    const svc::SolveResponse& r = reply.response;
    const std::string why = check_reply(r, err_bound);
    if (!why.empty() && ++out.failed <= 5) {
      std::fprintf(stderr, "perfbench: request %lld failed: %s\n",
                   static_cast<long long>(reply.id), why.c_str());
    }
    out.op_ms.push_back(ms_between(reply.submit, reply.done));
    out.svc_queue_ms.push_back(r.queue_ms);
    out.svc_solve_ms.push_back(r.solve_ms);
    iterations += static_cast<double>(r.cg.iterations);
    cache_hits += r.cache_hit ? 1.0 : 0.0;
    last = std::max(last, reply.done);
    if (lane != nullptr) {
      // The request span covers submit() to the reply; its queue and solve
      // parts come from the split the service returns with the reply.
      const double t0 = lane->to_us(reply.submit);
      const double queued = t0 + 1e3 * r.queue_ms;
      const std::int64_t id =
          lane->record("op", t0, lane->to_us(reply.done), -1, reply.id);
      lane->record("svc.submit", t0, lane->to_us(reply.submitted), id, reply.id);
      lane->record("svc.queue", t0, queued, id, reply.id);
      lane->record("svc.solve", queued, queued + 1e3 * r.solve_ms, id, reply.id);
    }
  }
  const double n = static_cast<double>(replies.size());
  out.attempted = static_cast<std::int64_t>(replies.size());
  out.timed_wall_s = std::chrono::duration<double>(last - start).count();
  out.layers.num("svc.panel_lanes_mean", batches > 0 ? static_cast<double>(lanes) / batches : 0.0)
      .num("svc.batches", static_cast<double>(batches))
      .num("svc.cache_hit_ratio", n > 0 ? cache_hits / n : 0.0)
      .num("svc.cg_iterations", n > 0 ? iterations / n : 0.0)
      .num("svc.retries", static_cast<double>(tenant_total(metrics, "retries") - retries0))
      .num("svc.rejected", static_cast<double>(tenant_total(metrics, "rejected") - rejected0));
  out.config = base_config(args)
                   .integer("workers", kWorkers)
                   .integer("ranks_per_job", options.ranks)
                   .integer("compute_threads", kWorkers * options.ranks * omp_threads())
                   .str("problem", "tet4 Poisson, unstructured box")
                   .integer("cells_per_edge", kElems)
                   .integer("dofs", setup->total_dofs())
                   .integer("elements", setup->total_elements)
                   .str("backend", "hymv")
                   .str("layout", core::to_string(proto.layout))
                   .str("precond", "jacobi")
                   .num("rtol", kRtol)
                   .integer("max_panel", kMaxPanel)
                   .integer("outstanding", kOutstanding)
                   .integer("tenants", static_cast<std::int64_t>(std::size(kTenants)))
                   .num("batch_window_ms", options.batch_window_ms)
                   .num("err_bound", err_bound);
  service->shutdown();
}

}  // namespace perfbench
