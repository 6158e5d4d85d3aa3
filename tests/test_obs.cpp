// Observability layer tests (ctest label `obs`):
//  * MetricsRegistry semantics: get-or-create, kind ownership, reset/merge,
//    deterministic JSON export;
//  * Tracer: disarmed neutrality (nothing recorded, golden apply bits
//    unchanged), span nesting, rank/thread attribution, Chrome JSON shape;
//  * registry-vs-legacy parity: ApplyBreakdown/SetupBreakdown/
//    TrafficCounters/CgResult must equal the registry values they view;
//  * bench hygiene: measure_spmv's phase breakdown covers ONE round (the
//    fastest), not the sum of all repeats, and GPU applies report theirs.

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hymv/common/error.hpp"
#include "hymv/core/hymv_operator.hpp"
#include "hymv/driver/driver.hpp"
#include "hymv/mesh/distributed.hpp"
#include "hymv/mesh/partition.hpp"
#include "hymv/mesh/structured.hpp"
#include "hymv/obs/metrics.hpp"
#include "hymv/obs/trace.hpp"
#include "hymv/pla/preconditioner.hpp"

namespace {

using namespace hymv;
using core::HymvOperator;
using core::StoreLayout;
using simmpi::Comm;

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

#ifdef _OPENMP
constexpr bool kHaveOpenMp = true;
#else
constexpr bool kHaveOpenMp = false;
#endif

/// Arms/disarms the process tracer for one scope and restores the previous
/// state (other tests share the singleton).
struct TracerArmGuard {
  bool saved;
  explicit TracerArmGuard(bool armed) : saved(obs::Tracer::instance().armed()) {
    set(armed);
  }
  ~TracerArmGuard() { set(saved); }
  static void set(bool armed) {
    if (armed) {
      obs::Tracer::instance().arm();
    } else {
      obs::Tracer::instance().disarm();
    }
  }
};

/// JSON brace balance: a cheap well-formedness check without a parser.
void expect_balanced(const std::string& json) {
  std::int64_t depth = 0;
  for (const char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterGaugeHistogramBasics) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  c.inc();
  c.add(4);
  EXPECT_EQ(c.value(), 5);
  EXPECT_EQ(&reg.counter("c"), &c) << "second lookup must be the same node";
  EXPECT_EQ(reg.counter_value("c"), 5);
  EXPECT_EQ(reg.counter_value("absent", -7), -7);

  obs::Gauge& g = reg.gauge("g_s");
  g.add(0.5);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 0.75);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("g_s"), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("absent", -1.5), -1.5);

  obs::Histogram& h = reg.histogram("h");
  h.observe(3.0);
  h.observe(1.0);
  h.observe(2.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);

  EXPECT_TRUE(reg.has("c"));
  EXPECT_TRUE(reg.has("g_s"));
  EXPECT_TRUE(reg.has("h"));
  EXPECT_FALSE(reg.has("absent"));
}

TEST(MetricsTest, NameOwnsItsKind) {
  obs::MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), hymv::Error);
  EXPECT_THROW(reg.histogram("x"), hymv::Error);
  reg.gauge("y_s");
  EXPECT_THROW(reg.counter("y_s"), hymv::Error);
}

TEST(MetricsTest, ResetZeroesValuesButKeepsNodes) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  obs::Gauge& g = reg.gauge("g_s");
  c.add(3);
  g.set(1.5);
  reg.histogram("h").observe(2.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0) << "reference must still be live after reset";
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(reg.histogram("h").count(), 0);
  EXPECT_TRUE(reg.has("c"));
}

TEST(MetricsTest, MergeFromAddsAndCreates) {
  obs::MetricsRegistry a, b;
  a.counter("shared").add(2);
  b.counter("shared").add(5);
  b.counter("only_b").add(1);
  b.gauge("t_s").add(0.5);
  b.histogram("h").observe(4.0);
  a.merge_from(b);
  EXPECT_EQ(a.counter_value("shared"), 7);
  EXPECT_EQ(a.counter_value("only_b"), 1);
  EXPECT_DOUBLE_EQ(a.gauge_value("t_s"), 0.5);
  EXPECT_EQ(a.histogram("h").count(), 1);
  // b is untouched.
  EXPECT_EQ(b.counter_value("shared"), 5);
}

TEST(MetricsTest, ToJsonIsDeterministicAndCarriesUnits) {
  obs::MetricsRegistry reg;
  reg.counter("traffic.messages_sent").add(42);
  reg.gauge("apply.emv_s").add(0.125);
  reg.histogram("lat_s").observe(1.0);
  const std::string json = reg.to_json();
  // Deterministic: same contents, same document.
  EXPECT_EQ(json, reg.to_json());
  EXPECT_NE(json.find("\"units\""), std::string::npos);
  EXPECT_NE(json.find("per-thread CPU"), std::string::npos);
  EXPECT_NE(json.find("\"traffic.messages_sent\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"apply.emv_s\": 0.125"), std::string::npos);
  EXPECT_NE(json.find("\"lat_s\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  expect_balanced(json);
}

TEST(MetricsTest, QuantileOfKnownDistribution) {
  obs::Histogram h;
  // Uniform over {0.001, 0.002, ..., 1.000} (seconds scale). Log-bucketed
  // estimates carry up to one bucket width (10^(1/8) ~ 1.33x) of relative
  // error, so assert within 35%.
  for (int i = 1; i <= 1000; ++i) {
    h.observe(static_cast<double>(i) * 1e-3);
  }
  EXPECT_EQ(h.count(), 1000);
  EXPECT_NEAR(h.quantile(0.50), 0.500, 0.35 * 0.500);
  EXPECT_NEAR(h.quantile(0.95), 0.950, 0.35 * 0.950);
  EXPECT_NEAR(h.quantile(0.99), 0.990, 0.35 * 0.990);
  // Endpoints are clamped to the observed extremes, so they are exact.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.001);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.000);
  // Out-of-range q clamps rather than throwing.
  EXPECT_DOUBLE_EQ(h.quantile(-3.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(7.0), h.quantile(1.0));
  // Quantiles are monotone in q.
  EXPECT_LE(h.quantile(0.50), h.quantile(0.95));
  EXPECT_LE(h.quantile(0.95), h.quantile(0.99));
}

TEST(MetricsTest, QuantileDegenerateCases) {
  // Empty histograms have NO quantiles: NaN, not 0 — a 0 would be
  // indistinguishable from a genuine zero-latency measurement in the svc
  // summaries and bench JSON.
  obs::Histogram empty;
  EXPECT_TRUE(std::isnan(empty.quantile(0.5)));
  EXPECT_TRUE(std::isnan(empty.quantile(0.0)));
  EXPECT_TRUE(std::isnan(empty.quantile(1.0)));

  obs::Histogram single;
  single.observe(0.125);
  EXPECT_DOUBLE_EQ(single.quantile(0.0), 0.125);
  EXPECT_DOUBLE_EQ(single.quantile(0.5), 0.125);
  EXPECT_DOUBLE_EQ(single.quantile(1.0), 0.125);

  // Samples at/below the bucket floor (zero, negative) clamp into the first
  // bucket and the [min, max] clamp keeps estimates within observed range.
  obs::Histogram low;
  low.observe(0.0);
  low.observe(-2.0);
  EXPECT_GE(low.quantile(0.5), -2.0);
  EXPECT_LE(low.quantile(0.5), 0.0);
}

TEST(MetricsTest, QuantileSurvivesMerge) {
  obs::Histogram a, b;
  for (int i = 0; i < 100; ++i) a.observe(1e-3);   // 100 fast samples
  for (int i = 0; i < 100; ++i) b.observe(1.0);    // 100 slow samples
  a.merge(b);
  EXPECT_EQ(a.count(), 200);
  // Median sits at the boundary of the two populations; p99 must reflect
  // the slow half that only ever lived in b.
  EXPECT_NEAR(a.quantile(0.99), 1.0, 0.35);
  EXPECT_NEAR(a.quantile(0.25), 1e-3, 0.35 * 1e-3);
  EXPECT_DOUBLE_EQ(a.min(), 1e-3);
  EXPECT_DOUBLE_EQ(a.max(), 1.0);
}

TEST(MetricsTest, ToJsonCarriesQuantiles) {
  obs::MetricsRegistry reg;
  for (int i = 1; i <= 10; ++i) {
    reg.histogram("lat_s").observe(static_cast<double>(i));
  }
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  expect_balanced(json);

  // Registry-level merge_from also folds buckets, not just count/sum.
  obs::MetricsRegistry other;
  other.histogram("lat_s").observe(100.0);
  reg.merge_from(other);
  EXPECT_EQ(reg.histogram("lat_s").count(), 11);
  EXPECT_NEAR(reg.histogram("lat_s").quantile(1.0), 100.0, 1e-12);
}

TEST(MetricsTest, ToJsonOmitsQuantilesForEmptyHistogram) {
  // Registering a histogram without observing anything (a tenant that never
  // completed a request, a phase that never ran) must not render p50/p95/p99
  // — NaN is not valid JSON and 0 would read as a real measurement.
  obs::MetricsRegistry reg;
  reg.histogram("never_observed_s");
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"never_observed_s\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 0"), std::string::npos);
  EXPECT_EQ(json.find("\"p50\""), std::string::npos);
  EXPECT_EQ(json.find("\"p95\""), std::string::npos);
  EXPECT_EQ(json.find("\"p99\""), std::string::npos);
  expect_balanced(json);

  // A non-empty histogram in the same registry still carries its quantiles.
  reg.histogram("observed_s").observe(0.25);
  const std::string json2 = reg.to_json();
  EXPECT_NE(json2.find("\"p50\""), std::string::npos);
  expect_balanced(json2);
}

TEST(MetricsTest, WriteJsonRoundTripAndFailure) {
  obs::MetricsRegistry reg;
  reg.counter("n").add(3);
  const std::string path = ::testing::TempDir() + "hymv_obs_metrics.json";
  reg.write_json(path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096] = {};
  const std::size_t got = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, got), reg.to_json());
  EXPECT_THROW(reg.write_json("/nonexistent-dir/metrics.json"), hymv::Error);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(TracerTest, DisarmedRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::instance();
  TracerArmGuard guard(false);
  tracer.clear();
  {
    HYMV_TRACE_SCOPE("disarmed_span", "test");
    HYMV_TRACE_INSTANT("disarmed_instant", "test");
  }
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(TracerTest, SpansNestAndInstantsMark) {
  obs::Tracer& tracer = obs::Tracer::instance();
  TracerArmGuard guard(true);
  tracer.clear();
  {
    HYMV_TRACE_SCOPE("outer", "test");
    {
      HYMV_TRACE_SCOPE("inner", "test");
      HYMV_TRACE_INSTANT("mark", "test");
    }
  }
  TracerArmGuard::set(false);
  const std::vector<obs::TraceEvent> events = tracer.snapshot();
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  const obs::TraceEvent* mark = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (std::strcmp(e.name, "outer") == 0) outer = &e;
    if (std::strcmp(e.name, "inner") == 0) inner = &e;
    if (std::strcmp(e.name, "mark") == 0) mark = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(mark, nullptr);
  // Spans carry durations; instants are marked with dur_ns == -1.
  EXPECT_GE(outer->dur_ns, 0);
  EXPECT_GE(inner->dur_ns, 0);
  EXPECT_EQ(mark->dur_ns, -1);
  // inner nests inside outer on the time axis.
  EXPECT_GE(inner->ts_ns, outer->ts_ns);
  EXPECT_LE(inner->ts_ns + inner->dur_ns, outer->ts_ns + outer->dur_ns);
  // The instant falls inside inner.
  EXPECT_GE(mark->ts_ns, inner->ts_ns);
  EXPECT_LE(mark->ts_ns, inner->ts_ns + inner->dur_ns);
  // All three on this thread, no rank tag outside simmpi.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_EQ(outer->tid, mark->tid);
  EXPECT_EQ(outer->rank, -1);
  // Both time axes recorded: spans carry a (possibly zero) CPU component.
  EXPECT_GE(outer->cpu_s, 0.0);
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(TracerTest, ThreadsAndRanksAreAttributed) {
  obs::Tracer& tracer = obs::Tracer::instance();
  TracerArmGuard guard(true);
  tracer.clear();
  {
    HYMV_TRACE_SCOPE("main_span", "test");
    std::thread worker([] {
      obs::set_current_rank(3);
      {
        // Record inside the tagged region: rank is read when the span ends.
        HYMV_TRACE_SCOPE("worker_span", "test");
      }
      obs::set_current_rank(-1);
    });
    worker.join();
  }
  TracerArmGuard::set(false);
  const std::vector<obs::TraceEvent> events = tracer.snapshot();
  const obs::TraceEvent* main_e = nullptr;
  const obs::TraceEvent* worker_e = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (std::strcmp(e.name, "main_span") == 0) main_e = &e;
    if (std::strcmp(e.name, "worker_span") == 0) worker_e = &e;
  }
  ASSERT_NE(main_e, nullptr);
  ASSERT_NE(worker_e, nullptr);
  EXPECT_NE(main_e->tid, worker_e->tid);
  EXPECT_EQ(worker_e->rank, 3);
  tracer.clear();
}

TEST(TracerTest, SimmpiRunTagsRanksAndExportsChromeJson) {
  obs::Tracer& tracer = obs::Tracer::instance();
  TracerArmGuard guard(true);
  tracer.clear();
  simmpi::run(2, [](Comm& comm) {
    HYMV_TRACE_SCOPE("per_rank_work", "test");
    comm.barrier();
  });
  TracerArmGuard::set(false);

  // Every rank thread recorded its span under its own rank tag (set by
  // simmpi::run).
  bool saw_rank[2] = {false, false};
  for (const obs::TraceEvent& e : tracer.snapshot()) {
    if (std::strcmp(e.name, "per_rank_work") == 0 && e.rank >= 0 &&
        e.rank < 2) {
      saw_rank[e.rank] = true;
    }
  }
  EXPECT_TRUE(saw_rank[0]);
  EXPECT_TRUE(saw_rank[1]);

  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("rank 0"), std::string::npos);
  EXPECT_NE(json.find("rank 1"), std::string::npos);
  EXPECT_NE(json.find("\"per_rank_work\""), std::string::npos);
  EXPECT_NE(json.find("\"barrier\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"cpu_s\""), std::string::npos);
  expect_balanced(json);

  const std::string path = ::testing::TempDir() + "hymv_obs_trace.json";
  tracer.write_chrome_json(path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_THROW(tracer.write_chrome_json("/nonexistent-dir/trace.json"),
               hymv::Error);
  tracer.clear();
}

// ---------------------------------------------------------------------------
// Golden neutrality: tracer state must not move a bit of the apply result
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(const double* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    unsigned char b[8];
    std::memcpy(b, &p[i], 8);
    for (int k = 0; k < 8; ++k) {
      h ^= b[k];
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// The test_layout.cpp golden Poisson case (1 rank, hex8 4x3x5, kSlab), run
/// with the tracer disarmed and armed. Both must hash to the same pinned
/// golden value: observability is bitwise neutral for the apply path.
TEST(ObsGoldenTest, ApplyBitsIdenticalArmedAndDisarmed) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  // Same rationale as the test_layout golden: instrumentation changes FMA
  // contraction, moving the last ulp. Behaviour is covered elsewhere.
  GTEST_SKIP() << "golden bits are defined for uninstrumented builds";
#endif
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 4, .ny = 3, .nz = 5}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 1, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 1);
  for (const int threads : {1, 4}) {
    set_threads(threads);
    for (const bool armed : {false, true}) {
      TracerArmGuard guard(armed);
      obs::Tracer::instance().clear();
      simmpi::run(1, [&](Comm& comm) {
        const fem::PoissonOperator op(mesh::ElementType::kHex8);
        HymvOperator hop(comm, dist.parts[0], op);
        pla::DistVector x(hop.layout()), y(hop.layout());
        for (std::int64_t i = 0; i < x.owned_size(); ++i) {
          const std::int64_t g = hop.layout().begin + i;
          x[i] = static_cast<double>(g * 13 % 64 - 32) * 0.03125 +
                 static_cast<double>(i % 5) * 0.25;
        }
        hop.apply(comm, x, y);
        ASSERT_EQ(y.owned_size(), 120);
        EXPECT_EQ(y[0], -0.057942708333333315)
            << "armed=" << armed << " threads=" << threads;
        EXPECT_EQ(y[60], -0.089843749999999972)
            << "armed=" << armed << " threads=" << threads;
        EXPECT_EQ(fnv1a(y.values().data(),
                        static_cast<std::size_t>(y.owned_size())),
                  0xf0783812668c8ab6ULL)
            << "armed=" << armed << " threads=" << threads;
      });
      obs::Tracer::instance().clear();
    }
  }
  set_threads(1);
}

// ---------------------------------------------------------------------------
// Registry-vs-legacy parity
// ---------------------------------------------------------------------------

driver::ProblemSpec small_poisson() {
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kPoisson;
  spec.element = mesh::ElementType::kHex8;
  spec.box = {.nx = 4, .ny = 3, .nz = 6};
  return spec;
}

/// The Timoshenko bar: unlike the manufactured Poisson problem (a discrete
/// eigenvector — Jacobi-CG converges in one iteration) this runs 10+
/// iterations, enough for checkpoints and residual replacements to fire.
driver::ProblemSpec small_elasticity() {
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kElasticity;
  spec.element = mesh::ElementType::kHex8;
  spec.box = {.nx = 4, .ny = 4, .nz = 4, .lx = 1.0, .ly = 1.0, .lz = 1.0,
              .origin = {-0.5, -0.5, 0.0}};
  return spec;
}

TEST(ObsParityTest, ApplyAndSetupBreakdownsMatchRegistry) {
  const auto setup = driver::ProblemSetup::build(small_poisson(), 1);
  for (const StoreLayout layout :
       {StoreLayout::kPadded, StoreLayout::kInterleaved,
        StoreLayout::kSymPacked, StoreLayout::kFp32}) {
    for (const bool openmp : {false, true}) {
      if (openmp && !kHaveOpenMp) {
        continue;
      }
      set_threads(openmp ? 4 : 1);
      simmpi::run(1, [&](Comm& comm) {
        driver::RankContext ctx(comm, setup);
        HymvOperator op(comm, ctx.part(), ctx.element_op(),
                        {.use_openmp = openmp, .layout = layout});
        pla::DistVector x(op.layout()), y(op.layout());
        x.set_all(1.0);
        const int applies = 3;
        for (int k = 0; k < applies; ++k) {
          op.apply(comm, x, y);
        }
        const obs::MetricsRegistry& reg = op.metrics();
        const core::ApplyBreakdown apply = op.apply_breakdown();
        EXPECT_EQ(apply.applies, applies);
        EXPECT_EQ(apply.applies, reg.counter_value("apply.applies"));
        EXPECT_EQ(apply.lnsm_s, reg.gauge_value("apply.lnsm_s"));
        EXPECT_EQ(apply.emv_s, reg.gauge_value("apply.emv_s"));
        EXPECT_EQ(apply.gngm_s, reg.gauge_value("apply.gngm_s"));
        const core::SetupBreakdown su = op.setup_breakdown();
        EXPECT_EQ(su.emat_compute_s,
                  reg.gauge_value("setup.emat_compute_cpu_s"));
        EXPECT_EQ(su.local_copy_s, reg.gauge_value("setup.local_copy_cpu_s"));
        EXPECT_EQ(su.maps_s, reg.gauge_value("setup.maps_cpu_s"));
        EXPECT_EQ(su.schedule_s, reg.gauge_value("setup.schedule_cpu_s"));
        // Both time axes exist side by side (satellite: comparable axes).
        EXPECT_TRUE(reg.has("setup.emat_compute_s"));
        EXPECT_TRUE(reg.has("apply.emv_cpu_s"));
        // reset_apply_breakdown zeroes apply.* on both axes, keeps setup.*.
        op.reset_apply_breakdown();
        EXPECT_EQ(op.apply_breakdown().applies, 0);
        EXPECT_EQ(reg.gauge_value("apply.emv_s"), 0.0);
        EXPECT_EQ(reg.gauge_value("apply.emv_cpu_s"), 0.0);
        EXPECT_EQ(op.setup_breakdown().maps_s,
                  reg.gauge_value("setup.maps_cpu_s"));
      });
    }
  }
  set_threads(1);
}

TEST(ObsParityTest, TrafficCountersMatchRegistry) {
  simmpi::run(3, [](Comm& comm) {
    // Deterministic traffic: a ring of scalar sends + collectives.
    const int dest = (comm.rank() + 1) % comm.size();
    const int src = (comm.rank() + comm.size() - 1) % comm.size();
    const double payload = 1.0 + comm.rank();
    comm.send_value(dest, 42, payload);
    const double got = comm.recv_value<double>(src, 42);
    EXPECT_EQ(got, 1.0 + src);
    double root_val = comm.rank() == 0 ? 7.0 : 0.0;
    comm.bcast_bytes(&root_val, sizeof root_val, 0);
    EXPECT_EQ(root_val, 7.0);
    const double sum = comm.allreduce(payload, simmpi::ReduceOp::kSum);
    EXPECT_EQ(sum, 6.0);
    comm.barrier();

    const simmpi::TrafficCounters view = comm.counters();
    const obs::MetricsRegistry& reg = comm.metrics();
    EXPECT_EQ(view.messages_sent, reg.counter_value("traffic.messages_sent"));
    EXPECT_EQ(view.bytes_sent, reg.counter_value("traffic.bytes_sent"));
    EXPECT_EQ(view.messages_received,
              reg.counter_value("traffic.messages_received"));
    EXPECT_EQ(view.bytes_received,
              reg.counter_value("traffic.bytes_received"));
    EXPECT_EQ(view.messages_resent,
              reg.counter_value("traffic.messages_resent"));
    EXPECT_GT(view.messages_sent, 0);

    comm.add_resent(2);
    EXPECT_EQ(comm.counters().messages_resent, view.messages_resent + 2);
    EXPECT_EQ(reg.counter_value("traffic.messages_resent"),
              view.messages_resent + 2);

    // reset_counters() zeroes the registry-backed view too.
    comm.reset_counters();
    EXPECT_EQ(comm.counters().messages_sent, 0);
    EXPECT_EQ(reg.counter_value("traffic.messages_sent"), 0);
  });
}

TEST(ObsParityTest, CgResultReadsRegistryDeltas) {
  const auto setup = driver::ProblemSetup::build(small_elasticity(), 2);
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    HymvOperator a(comm, ctx.part(), ctx.element_op());
    pla::ConstrainedOperator ac(a, ctx.constraints());
    pla::DistVector b = ctx.assemble_rhs(comm);
    pla::apply_constraints_to_rhs(comm, a, ctx.constraints(), b);
    pla::JacobiPreconditioner m(comm, ac);
    pla::CgOptions opts;
    opts.rtol = 1e-8;
    opts.true_residual_every = 3;
    opts.checkpoint_every = 4;

    const obs::MetricsRegistry& reg = comm.metrics();
    const std::int64_t ck0 = reg.counter_value("cg.checkpoints_taken");
    const std::int64_t rr0 = reg.counter_value("cg.residual_replacements");

    pla::DistVector u1(a.layout());
    const pla::CgResult r1 = pla::cg_solve(comm, ac, m, b, u1, opts);
    EXPECT_TRUE(r1.converged);
    EXPECT_GT(r1.checkpoints_taken, 0);
    EXPECT_GT(r1.residual_replacements, 0);
    EXPECT_EQ(r1.rollbacks, 0);
    EXPECT_EQ(reg.counter_value("cg.checkpoints_taken") - ck0,
              r1.checkpoints_taken);
    EXPECT_EQ(reg.counter_value("cg.residual_replacements") - rr0,
              r1.residual_replacements);
    EXPECT_EQ(reg.counter_value("cg.iterations"), r1.iterations);
    EXPECT_EQ(reg.counter_value("cg.solves"), 1);
    EXPECT_EQ(reg.counter_value("cg.converged"), 1);

    // A second solve reports ITS OWN deltas while the registry accumulates.
    pla::DistVector u2(a.layout());
    const pla::CgResult r2 = pla::cg_solve(comm, ac, m, b, u2, opts);
    EXPECT_EQ(r2.checkpoints_taken, r1.checkpoints_taken);
    EXPECT_EQ(r2.residual_replacements, r1.residual_replacements);
    EXPECT_EQ(reg.counter_value("cg.checkpoints_taken") - ck0,
              r1.checkpoints_taken + r2.checkpoints_taken);
    EXPECT_EQ(reg.counter_value("cg.solves"), 2);
    EXPECT_EQ(reg.counter_value("cg.iterations"),
              r1.iterations + r2.iterations);
  });
}

TEST(ObsParityTest, SolveProblemPublishesIntoCommRegistry) {
  const auto setup = driver::ProblemSetup::build(small_poisson(), 1);
  simmpi::run(1, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    driver::SolveOptions options;
    options.backend = driver::Backend::kHymv;
    const driver::SolveReport report =
        driver::solve_problem(comm, ctx, options);
    const obs::MetricsRegistry& reg = comm.metrics();
    EXPECT_EQ(reg.counter_value("solve.solves"), 1);
    EXPECT_EQ(reg.counter_value("solve.attempts"), report.attempts);
    EXPECT_EQ(reg.gauge_value("solve.wall_s"), report.solve_wall_s);
    EXPECT_EQ(reg.gauge_value("solve.err_inf"), report.err_inf);
    EXPECT_EQ(reg.counter_value("cg.iterations"), report.cg.iterations);
    // The HYMV operator's registry was folded in before the operator died.
    EXPECT_TRUE(reg.has("apply.emv_s"));
    EXPECT_TRUE(reg.has("setup.maps_cpu_s"));
  });
}

// ---------------------------------------------------------------------------
// Bench hygiene: the breakdown must cover one round, not all of them
// ---------------------------------------------------------------------------

TEST(ObsRepHygieneTest, MeasureSpmvBreakdownIsPerRound) {
  const auto setup = driver::ProblemSetup::build(small_poisson(), 1);
  simmpi::run(1, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    driver::MeasureOptions options;
    options.repeats = 3;
    const int napplies = 4;
    const driver::SpmvReport report = driver::measure_spmv(
        comm, ctx, driver::Backend::kHymv, napplies, options);
    // Pre-fix, this accumulated repeats x napplies (12) applies' worth of
    // phase time; the fastest round holds exactly `napplies`, matching the
    // min-wall spmv_wall_s it is reported next to.
    EXPECT_EQ(report.hymv_apply.applies, napplies);
    // The per-rank registry got the spmv publication.
    EXPECT_EQ(comm.metrics().counter_value("spmv.measurements"), 1);
    EXPECT_EQ(comm.metrics().counter_value("spmv.applies"), napplies);
    EXPECT_EQ(comm.metrics().gauge_value("spmv.wall_s"), report.spmv_wall_s);
  });
}

TEST(ObsRepHygieneTest, MeasureSpmvGpuReportsApplyPhases) {
  // A GPU apply runs its host operator's skeleton, so the apply.* metrics
  // the driver merges from host_op() cover the timed round of GPU applies.
  const auto setup = driver::ProblemSetup::build(small_poisson(), 2);
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    gpu::Device device;
    driver::MeasureOptions options;
    options.device = &device;
    options.repeats = 2;
    const int napplies = 3;
    (void)driver::measure_spmv(comm, ctx, driver::Backend::kHymvGpu,
                               napplies, options);
    const obs::MetricsRegistry& reg = comm.metrics();
    EXPECT_EQ(reg.counter_value("apply.applies"), napplies);
    EXPECT_GT(reg.gauge_value("apply.emv_s"), 0.0);
  });
}

}  // namespace
