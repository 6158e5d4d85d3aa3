#include <cstdio>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

double TraceLane::to_us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

std::int64_t TraceLane::open(const char* name) {
  SpanRecord span;
  span.name = name;
  span.id = next_id();
  span.parent = open_.empty() ? -1 : spans_[open_.back()].id;
  span.op = op_;
  span.repeat = repeat_;
  span.start_us = now_us();
  open_.push_back(spans_.size());
  spans_.push_back(span);
  return span.id;
}

void TraceLane::close() {
  if (open_.empty()) {
    throw std::logic_error("TraceLane::close without an open span");
  }
  spans_[open_.back()].end_us = now_us();
  open_.pop_back();
}

std::int64_t TraceLane::record(const char* name, double start_us,
                               double end_us, std::int64_t parent,
                               std::int64_t op) {
  SpanRecord span;
  span.name = name;
  span.id = next_id();
  span.parent = parent;
  span.op = op;
  span.repeat = repeat_;
  span.start_us = start_us;
  span.end_us = end_us;
  spans_.push_back(span);
  return span.id;
}

Tracer::Tracer(bool enabled, int lanes) {
  if (!enabled) {
    return;
  }
  const Clock::time_point epoch = Clock::now();
  for (int i = 0; i < lanes; ++i) {
    lanes_.push_back(std::make_unique<TraceLane>(i, epoch));
  }
}

void Tracer::write_chrome(const std::string& path, const Json& metadata) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (file == nullptr) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  std::FILE* f = file.get();
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"metadata\":%s,\"traceEvents\":[",
               metadata.dump().c_str());
  bool first = true;
  for (const auto& lane : lanes_) {
    for (const SpanRecord& s : lane->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld,\"op\":%lld,\"repeat\":%d}}",
                   first ? "" : ",", json_string(s.name).c_str(), lane->lane(),
                   s.start_us, s.end_us - s.start_us,
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.op), s.repeat);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(file.release()) != 0) {
    throw std::runtime_error("cannot write trace file " + path);
  }
}

}  // namespace perfbench
