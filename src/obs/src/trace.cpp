#include "hymv/obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>

#include "hymv/common/env.hpp"
#include "hymv/common/error.hpp"

namespace hymv::obs {

namespace {

thread_local int tls_rank = -1;

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out += '\\';
    out += *s;
  }
}

void append_us(std::string& out, std::int64_t ns) {
  // Microseconds with ns precision, kept as a decimal literal (Chrome trace
  // `ts`/`dur` are doubles in us).
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

void dump_trace_at_exit() {
  Tracer& t = Tracer::instance();
  try {
    t.write_chrome_json(t.exit_dump_path());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hymv: trace dump failed: %s\n", e.what());
  }
}

}  // namespace

void set_current_rank(int rank) { tls_rank = rank; }
int current_rank() { return tls_rank; }

struct Tracer::ThreadBuffer {
  std::vector<TraceEvent> ring;
  std::uint64_t written = 0;  ///< monotonic; ring index = written % capacity
  std::uint32_t tid = 0;
};

Tracer& Tracer::instance() {
  // Intentionally leaked (still reachable at exit): the atexit trace dump
  // registered by the constructor must outlive static destruction.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Tracer() {
  const bool armed_by_env = hymv::env_flag("HYMV_TRACE", false);
  const char* file_env = std::getenv("HYMV_TRACE_FILE");
  if (file_env != nullptr && *file_env != '\0') {
    exit_dump_path_ = file_env;
  }
  if (!armed_by_env && file_env != nullptr) {
    std::fprintf(stderr,
                 "hymv: HYMV_TRACE_FILE is set but HYMV_TRACE != 1; no trace "
                 "will be written\n");
  }
  if (armed_by_env) {
    armed_.store(true, std::memory_order_relaxed);
    std::atexit(&dump_trace_at_exit);
  }
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    auto buf = std::make_unique<ThreadBuffer>();
    buf->ring.resize(kRingCapacity);
    std::lock_guard<std::mutex> lock(registry_mu_);
    buf->tid = static_cast<std::uint32_t>(buffers_.size());
    local = buf.get();
    buffers_.push_back(std::move(buf));
  }
  return *local;
}

void Tracer::record_complete(const char* name, const char* category,
                             std::int64_t ts_ns, std::int64_t dur_ns,
                             double cpu_s) {
  if (!armed()) return;
  ThreadBuffer& buf = local_buffer();
  TraceEvent& e = buf.ring[buf.written % kRingCapacity];
  e.name = name;
  e.category = category;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns < 0 ? 0 : dur_ns;
  e.cpu_s = cpu_s;
  e.rank = tls_rank;
  e.tid = buf.tid;
  ++buf.written;
}

void Tracer::record_instant(const char* name, const char* category) {
  if (!armed()) return;
  ThreadBuffer& buf = local_buffer();
  TraceEvent& e = buf.ring[buf.written % kRingCapacity];
  e.name = name;
  e.category = category;
  e.ts_ns = now_ns();
  e.dur_ns = -1;
  e.cpu_s = 0.0;
  e.rank = tls_rank;
  e.tid = buf.tid;
  ++buf.written;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& buf : buffers_) {
    const std::uint64_t n = std::min<std::uint64_t>(buf->written,
                                                    kRingCapacity);
    const std::uint64_t first = buf->written - n;
    for (std::uint64_t i = 0; i < n; ++i) {
      out.push_back(buf->ring[(first + i) % kRingCapacity]);
    }
  }
  return out;
}

std::int64_t Tracer::dropped() const {
  std::int64_t total = 0;
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& buf : buffers_) {
    if (buf->written > kRingCapacity) {
      total += static_cast<std::int64_t>(buf->written - kRingCapacity);
    }
  }
  return total;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& buf : buffers_) buf->written = 0;
}

std::string Tracer::to_chrome_json() const {
  std::vector<TraceEvent> events = snapshot();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });

  std::string out;
  out += "{\"traceEvents\":[\n";
  bool first = true;

  // Process metadata: one "process" per simmpi rank (pid = rank + 1 so the
  // untagged rank -1 maps to pid 0).
  std::set<int> ranks;
  for (const TraceEvent& e : events) ranks.insert(e.rank);
  for (int rank : ranks) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(rank + 1) + ",\"tid\":0,\"args\":{\"name\":\"" +
           (rank < 0 ? std::string("untagged") :
                       "rank " + std::to_string(rank)) +
           "\"}}";
  }

  char buf[64];
  for (const TraceEvent& e : events) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, e.name);
    out += "\",\"cat\":\"";
    append_escaped(out, e.category);
    out += "\",\"pid\":" + std::to_string(e.rank + 1) +
           ",\"tid\":" + std::to_string(e.tid) + ",\"ts\":";
    append_us(out, e.ts_ns);
    if (e.dur_ns < 0) {
      out += ",\"ph\":\"i\",\"s\":\"t\",\"args\":{}}";
    } else {
      out += ",\"ph\":\"X\",\"dur\":";
      append_us(out, e.dur_ns);
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"cpu_s\":%.9g}}", e.cpu_s);
      out += buf;
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
         "\"ts_unit\":\"microseconds (wall clock)\","
         "\"cpu_s_unit\":\"seconds (per-thread CPU time)\","
         "\"dropped_events\":" + std::to_string(dropped()) + "}}\n";
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  const std::string doc = to_chrome_json();
  std::ofstream f(path, std::ios::trunc);
  HYMV_CHECK_MSG(f.good(), "cannot open trace path '" + path + "'");
  f << doc;
  f.flush();
  HYMV_CHECK_MSG(f.good(), "write failed for trace '" + path + "'");
}

}  // namespace hymv::obs
