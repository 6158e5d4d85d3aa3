#pragma once

/// \file bench.hpp
/// Shared pieces of the repository benchmark: the seeded load generator,
/// the JSON record a workload process hands back to run.py, the span
/// tracer with its operator and preconditioner decorators, the
/// correctness gates, and the barrier-bracketed op loop.
///
/// Everything here calls the library through its public headers only; no
/// library file knows the benchmark exists.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hymv/core/hymv_operator.hpp"
#include "hymv/driver/driver.hpp"
#include "hymv/pla/cg.hpp"
#include "hymv/pla/operator.hpp"
#include "hymv/pla/preconditioner.hpp"
#include "hymv/svc/solve_service.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Seeded load
// ---------------------------------------------------------------------------

/// The one generator every workload input is drawn from (SplitMix64, so a
/// seed gives the same stream on every platform). `stream` separates the
/// independent draws of one workload (vectors, op order, requests).
class Load {
 public:
  Load(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

/// Minimal JSON object writer for the result and trace files. Non-finite
/// numbers are written as null.
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& integer(const std::string& key, std::int64_t value);
  Json& str(const std::string& key, const std::string& value);
  Json& nums(const std::string& key, const std::vector<double>& values);
  Json& obj(const std::string& key, const Json& value);
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& key);
  std::string body_;
};

[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_string(const std::string& value);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< enclosing span on the same lane, -1 if none
  std::int64_t op = -1;      ///< op or request id; -1 during set-up
  int repeat = -1;           ///< set-up repeat; -1 during the timed ops
  double start_us = 0.0;     ///< since the tracer epoch
  double end_us = 0.0;
};

/// The spans of one thread: the main thread (lane 0) or one simmpi rank
/// (lane 1 + rank). Only its owning thread touches a lane while the
/// workload runs.
class TraceLane {
 public:
  TraceLane(int lane, Clock::time_point epoch) : lane_(lane), epoch_(epoch) {}

  [[nodiscard]] double to_us(Clock::time_point t) const;
  [[nodiscard]] double now_us() const { return to_us(Clock::now()); }
  /// Tag the spans opened from now on with an op id or a set-up repeat.
  void set_phase(std::int64_t op, int repeat) {
    op_ = op;
    repeat_ = repeat;
  }
  /// Open a span nested in the innermost open span; returns its id.
  std::int64_t open(const char* name);
  void close();
  /// Record a finished span with explicit bounds, for spans that overlap
  /// others on the lane (concurrent service requests).
  std::int64_t record(const char* name, double start_us, double end_us,
                      std::int64_t parent, std::int64_t op);

  [[nodiscard]] int lane() const { return lane_; }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::int64_t next_id() { return (std::int64_t{lane_} << 40) + count_++; }

  int lane_;
  Clock::time_point epoch_;
  std::int64_t count_ = 0;
  std::int64_t op_ = -1;
  int repeat_ = -1;
  std::vector<std::size_t> open_;  ///< indices into spans_ of open spans
  std::vector<SpanRecord> spans_;
};

/// All lanes of one workload process. A disabled tracer hands out null
/// lanes, and every span on a null lane is a no-op.
class Tracer {
 public:
  Tracer(bool enabled, int lanes);
  [[nodiscard]] TraceLane* lane(int index) {
    return lanes_.empty() ? nullptr : lanes_[static_cast<std::size_t>(index)].get();
  }
  /// Write every span as a Chrome trace ("X" events, pid 0, tid = lane;
  /// args carry id, parent, op and repeat). Call at quiescence.
  void write_chrome(const std::string& path, const Json& metadata) const;

 private:
  std::vector<std::unique_ptr<TraceLane>> lanes_;
};

/// Scoped span; no-op on a null lane.
class Span {
 public:
  Span(TraceLane* lane, const char* name) : lane_(lane) {
    if (lane_ != nullptr) {
      lane_->open(name);
    }
  }
  ~Span() {
    if (lane_ != nullptr) {
      lane_->close();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceLane* lane_;
};

/// Records a "core.apply" span around every apply() and forwards
/// everything else to the wrapped operator.
class TracedOperator final : public hymv::pla::LinearOperator {
 public:
  TracedOperator(hymv::pla::LinearOperator& inner, TraceLane& lane)
      : inner_(inner), lane_(lane) {}
  [[nodiscard]] const hymv::pla::Layout& layout() const override {
    return inner_.layout();
  }
  void apply(simmpi::Comm& comm, const hymv::pla::DistVector& x,
             hymv::pla::DistVector& y) override {
    Span span(&lane_, "core.apply");
    inner_.apply(comm, x, y);
  }
  std::vector<double> diagonal(simmpi::Comm& comm) override {
    return inner_.diagonal(comm);
  }
  [[nodiscard]] std::int64_t apply_flops() const override {
    return inner_.apply_flops();
  }
  [[nodiscard]] std::int64_t apply_bytes() const override {
    return inner_.apply_bytes();
  }

 private:
  hymv::pla::LinearOperator& inner_;
  TraceLane& lane_;
};

/// Records a "pla.precond_apply" span around every apply().
class TracedPreconditioner final : public hymv::pla::Preconditioner {
 public:
  TracedPreconditioner(hymv::pla::Preconditioner& inner, TraceLane& lane)
      : inner_(inner), lane_(lane) {}
  void apply(simmpi::Comm& comm, const hymv::pla::DistVector& r,
             hymv::pla::DistVector& z) override {
    Span span(&lane_, "pla.precond_apply");
    inner_.apply(comm, r, z);
  }

 private:
  hymv::pla::Preconditioner& inner_;
  TraceLane& lane_;
};

// ---------------------------------------------------------------------------
// Correctness gates: "" on pass, otherwise the reason the op failed
// ---------------------------------------------------------------------------

/// SpMV error bound against a serial reference (Kokkos-Kernels style):
/// eps · max_row_len · max|A| · max|x|, eps the double machine epsilon.
[[nodiscard]] double spmv_tolerance(std::int64_t max_row_len, double max_abs_a,
                                    double max_abs_x);
/// Every |y_i − y_ref_i| ≤ tol (NaN fails).
[[nodiscard]] std::string check_spmv(std::span<const double> y,
                                     std::span<const double> y_ref, double tol);
/// CG converged and the true relative residual ‖b − Âu‖/‖b‖ meets rtol.
[[nodiscard]] std::string check_solve(const hymv::pla::CgResult& cg,
                                      double true_rel_residual, double rtol);
/// The reply is kSolved and its err_inf is within err_bound.
[[nodiscard]] std::string check_reply(const hymv::svc::SolveResponse& reply,
                                      double err_bound);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;     ///< timed phase; 0 = set up only
  int ranks = 1;            ///< simmpi ranks (spmv-hex20, crack-hex8)
  int repeats = 3;          ///< set-up repeats; setup_s is their median
  std::string trace_file;   ///< non-empty: traced run
  std::string reference;    ///< spmv-hex20 reference file
};

/// What a workload process hands back to run.py, which turns the raw
/// samples into metrics.
struct Result {
  Json config;                  ///< effective configuration
  std::vector<double> setup_s;  ///< one sample per set-up repeat
  std::vector<double> op_ms;    ///< per-op wall time (max over ranks)
  double timed_wall_s = 0.0;    ///< wall time the timed ops took
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Json layers;  ///< per-layer numbers read through public accessors
  std::vector<double> svc_queue_ms;  ///< service: SolveResponse::queue_ms
  std::vector<double> svc_solve_ms;  ///< service: SolveResponse::solve_ms
};

void run_spmv(const Args& args, Tracer& tracer, Result& out);
void run_crack(const Args& args, Tracer& tracer, Result& out);
void run_service(const Args& args, Tracer& tracer, Result& out);

/// Write the spmv-hex20 reference for `args.seed` and `args.ranks`: the
/// pool of seeded input vectors and their products with the serial
/// assembled CSR matrix, in the partitioned DoF numbering.
void write_spmv_reference(const Args& args, const std::string& path);

// ---------------------------------------------------------------------------
// Shared workload helpers
// ---------------------------------------------------------------------------

/// Per-rank totals of the timed ops (everything but op_ms/failed is summed
/// over the ops; traffic and apply breakdown cover only the timed windows).
struct OpTotals {
  std::vector<double> op_ms;  ///< this rank's op times
  std::vector<int> failed;    ///< this rank's gate verdicts (1 = failed)
  std::int64_t messages = 0;  ///< Comm::counters().messages_sent
  std::int64_t bytes = 0;     ///< Comm::counters().bytes_sent
  std::int64_t allreduces = 0;  ///< the "cg.allreduces" counter
  hymv::core::ApplyBreakdown apply{};
};

/// Run ops for `seconds`: each op is bracketed by barriers and timed on
/// every rank, then checked (untimed). The stop decision is collective and
/// taken only after whole cycles of `cycle` ops, so a run always covers
/// whole op cycles and per-op counts repeat exactly.
OpTotals run_timed_ops(simmpi::Comm& comm, TraceLane* lane,
                       const hymv::core::HymvOperator& hymv, double seconds,
                       int cycle, const std::function<void(std::int64_t)>& op,
                       const std::function<std::string(std::int64_t)>& check);

/// Fill `out` on rank 0 from every rank's totals (collective).
void reduce_op_totals(simmpi::Comm& comm, const OpTotals& mine,
                      Result& out);

/// Set-up numbers of the rank-parallel workloads, one entry per repeat.
struct SetupSamples {
  std::vector<double> emat_compute_s;  ///< SetupReport, mean over ranks
  std::vector<double> maps_s;
  std::vector<double> local_copy_s;
  double store_mb = 0.0;  ///< element-matrix store, summed over ranks
};

/// Append this repeat's SetupReport and store size (collective; rank 0
/// appends).
void sample_setup(simmpi::Comm& comm, const hymv::driver::SetupReport& report,
                  const hymv::core::HymvOperator& hymv, SetupSamples& samples);

/// Medians of the set-up samples, plus the per-call flops and computed bytes
/// of `a` summed over ranks, into out.layers (collective; rank 0 writes).
void report_setup(simmpi::Comm& comm, const SetupSamples& samples,
                  const hymv::pla::LinearOperator& a, Result& out);

/// Median of a non-empty sample.
[[nodiscard]] double median(std::vector<double> values);

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b);

/// Threads one OpenMP team opens in this thread.
[[nodiscard]] int omp_threads();

/// Configuration fields every workload prints.
[[nodiscard]] Json base_config(const Args& args);

}  // namespace perfbench
