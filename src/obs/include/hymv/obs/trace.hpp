#pragma once

/// \file trace.hpp
/// Low-overhead scoped-span tracer with Chrome trace-event JSON export.
///
/// Spans are recorded into per-thread fixed-capacity ring buffers: the hot
/// record path touches only the calling thread's own buffer (no locks, no
/// shared writes), so arming the tracer perturbs the measured kernels as
/// little as possible. Disarmed, HYMV_TRACE_SCOPE costs one relaxed atomic
/// load — the apply path stays bitwise identical and within noise of an
/// uninstrumented build.
///
/// Export follows the Chrome trace-event format (load in chrome://tracing or
/// https://ui.perfetto.dev): simmpi ranks appear as "processes" (pid) and
/// OS threads as "threads" (tid), which makes the §IV independent/dependent
/// overlap and the checksummed-exchange retries visible as timelines.
///
/// Each complete span records BOTH time axes (satellite: setup used
/// CPU-seconds while apply used wall-seconds, which are not comparable under
/// OpenMP): `ts`/`dur` are wall microseconds, and `args.cpu_s` carries the
/// thread-CPU seconds the span consumed.
///
/// Env knobs (validated strictly, see README):
///   HYMV_TRACE       0|1 — arm the tracer at process start (default 0).
///   HYMV_TRACE_FILE  path for the atexit Chrome-trace dump (default
///                    hymv_trace.json; only written when armed via env).
///
/// Snapshots/export read other threads' buffers and are only well-defined at
/// quiescence (after simmpi::run returned / threads joined) — same
/// owner-thread-writes convention as simmpi's traffic counters.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "hymv/common/timer.hpp"

namespace hymv::obs {

/// One recorded event. `name`/`category` must be string literals (or
/// otherwise outlive the tracer) — the record path stores the pointer only.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  std::int64_t ts_ns = 0;    ///< wall ns since tracer epoch (steady clock)
  std::int64_t dur_ns = -1;  ///< span duration; -1 marks an instant event
  double cpu_s = 0.0;        ///< thread-CPU seconds inside the span
  int rank = -1;             ///< simmpi rank (set_current_rank), -1 unknown
  std::uint32_t tid = 0;     ///< per-process sequential thread id
};

/// Process-wide tracer singleton.
class Tracer {
 public:
  /// The singleton. First call reads HYMV_TRACE / HYMV_TRACE_FILE and, when
  /// armed from the environment, registers an atexit Chrome-trace dump.
  static Tracer& instance();

  /// Disarmed fast path: one relaxed load.
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }
  void arm() { armed_.store(true, std::memory_order_relaxed); }
  void disarm() { armed_.store(false, std::memory_order_relaxed); }

  /// Wall ns since the tracer epoch (process-wide steady origin).
  [[nodiscard]] std::int64_t now_ns() const { return epoch_.elapsed_ns(); }

  /// Record a complete span ending now. No-op when disarmed.
  void record_complete(const char* name, const char* category,
                       std::int64_t ts_ns, std::int64_t dur_ns, double cpu_s);
  /// Record an instant event (a point marker, e.g. an exchange retry).
  void record_instant(const char* name, const char* category);

  /// Copy of every retained event, oldest-first per thread. Call only at
  /// quiescence.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  /// Total events discarded because ring buffers wrapped.
  [[nodiscard]] std::int64_t dropped() const;
  /// Discard all retained events (buffers stay registered).
  void clear();

  /// Chrome trace-event JSON document for the current contents.
  [[nodiscard]] std::string to_chrome_json() const;
  /// to_chrome_json() written to `path` (overwrite). Throws hymv::Error on
  /// I/O failure.
  void write_chrome_json(const std::string& path) const;

  /// Path the env-armed atexit dump writes to (HYMV_TRACE_FILE, default
  /// hymv_trace.json).
  [[nodiscard]] const std::string& exit_dump_path() const {
    return exit_dump_path_;
  }

  /// Events each thread's ring retains before overwriting the oldest
  /// (~1 MiB per traced thread).
  static constexpr std::size_t kRingCapacity = 1 << 14;

 private:
  Tracer();
  struct ThreadBuffer;
  ThreadBuffer& local_buffer();

  std::atomic<bool> armed_{false};
  hymv::Timer epoch_;
  std::string exit_dump_path_ = "hymv_trace.json";
  mutable std::mutex registry_mu_;  ///< guards buffers_ (registration only)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Tag the calling thread with its simmpi rank so its events group under
/// that rank's "process" row. simmpi::run sets this for rank threads; the
/// threaded apply propagates it to OpenMP workers. -1 clears.
void set_current_rank(int rank);
/// The calling thread's rank tag (-1 when never set).
[[nodiscard]] int current_rank();

/// RAII span: samples wall + thread-CPU clocks on construction when the
/// tracer is armed, records a complete event on destruction. When disarmed
/// the constructor is one relaxed load and the destructor a branch: no
/// clock is read.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* category) {
    if (Tracer::instance().armed()) {
      name_ = name;
      category_ = category;
      cpu_.emplace();
      start_ns_ = Tracer::instance().now_ns();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      Tracer& t = Tracer::instance();
      t.record_complete(name_, category_, start_ns_,
                        t.now_ns() - start_ns_, cpu_->elapsed_s());
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;  ///< nullptr == constructed disarmed
  const char* category_ = nullptr;
  std::int64_t start_ns_ = 0;
  /// Started only when armed: constructing the timer reads the thread's
  /// CPU clock, a system call.
  std::optional<hymv::ThreadCpuTimer> cpu_;
};

}  // namespace hymv::obs

#define HYMV_OBS_CONCAT_INNER(a, b) a##b
#define HYMV_OBS_CONCAT(a, b) HYMV_OBS_CONCAT_INNER(a, b)

/// Scoped span covering the rest of the enclosing block.
/// Usage: HYMV_TRACE_SCOPE("emv", "apply");
#define HYMV_TRACE_SCOPE(name, category)                    \
  ::hymv::obs::TraceSpan HYMV_OBS_CONCAT(hymv_trace_span_, \
                                         __LINE__)(name, category)

/// Instant (point) event, e.g. a retransmit or a CG rollback.
#define HYMV_TRACE_INSTANT(name, category)                        \
  do {                                                            \
    ::hymv::obs::Tracer& hymv_tr_ = ::hymv::obs::Tracer::instance(); \
    if (hymv_tr_.armed()) hymv_tr_.record_instant(name, category);   \
  } while (0)
