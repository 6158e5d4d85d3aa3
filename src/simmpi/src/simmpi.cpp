#include "hymv/simmpi/simmpi.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#if defined(__linux__)
#include <sched.h>
#endif

#include "hymv/common/env.hpp"
#include "hymv/obs/metrics.hpp"
#include "hymv/obs/trace.hpp"

namespace simmpi {
namespace detail {

namespace {

/// Internal tag space; user code should use tags below kInternalTagBase.
/// (+3..+6 are used by the header collective templates.)
constexpr int kBarrierTag = kInternalTagBase + 0;
constexpr int kBcastTag = kInternalTagBase + 1;
constexpr int kReduceTag = kInternalTagBase + 2;
constexpr int kSplitAllreduceTag = kInternalTagBase + 7;

}  // namespace

/// Completion state shared between a Request handle and the runtime.
/// `done` and `status` are guarded by the owning rank's mailbox mutex.
struct RequestState {
  bool done = false;
  Status status;
  int owner_rank = -1;  ///< Rank whose mailbox guards this state.
};

/// An eagerly-buffered in-flight message.
struct Envelope {
  int src = -1;
  int tag = kAnyTag;
  std::vector<std::byte> payload;
};

/// A posted, not-yet-matched receive.
struct PendingRecv {
  int src = kAnySource;
  int tag = kAnyTag;
  void* buf = nullptr;
  std::size_t capacity = 0;
  std::shared_ptr<RequestState> state;
};

/// Per-rank mailbox: unexpected-message queue + posted-receive queue.
struct Mailbox {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Envelope> unexpected;   // arrival order
  std::deque<PendingRecv> pending;   // post order
};

/// Per-rank observability: the unified registry plus cached handles to the
/// traffic counters so the message hot path never does a name lookup.
/// Received-side counters are incremented by the *sender* thread inside
/// deliver(); they are relaxed atomics, and the mailbox-mutex handoff that
/// already orders message delivery also orders the counter values.
struct RankObs {
  hymv::obs::MetricsRegistry registry;
  hymv::obs::Counter* messages_sent = nullptr;
  hymv::obs::Counter* bytes_sent = nullptr;
  hymv::obs::Counter* messages_received = nullptr;
  hymv::obs::Counter* bytes_received = nullptr;
  hymv::obs::Counter* messages_resent = nullptr;

  RankObs() {
    messages_sent = &registry.counter("traffic.messages_sent");
    bytes_sent = &registry.counter("traffic.bytes_sent");
    messages_received = &registry.counter("traffic.messages_received");
    bytes_received = &registry.counter("traffic.bytes_received");
    messages_resent = &registry.counter("traffic.messages_resent");
  }
};

/// splitmix64: derives deterministic per-fault values from the plan seed.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// What the matched faults ask isend_bytes to do to one message.
struct SendFaultAction {
  bool drop = false;
  std::int64_t flip_bit = -1;  ///< -1 = no flip
  double delay_ms = 0.0;
};

/// Job-wide shared state for one simmpi::run invocation.
class Context {
 public:
  Context(int nranks, const RunOptions& options)
      : nranks_(nranks), options_(options),
        mailboxes_(static_cast<std::size_t>(nranks)),
        rank_obs_(static_cast<std::size_t>(nranks)),
        p2p_ops_(static_cast<std::size_t>(nranks), 0),
        fault_hits_(options.faults.faults.size()) {
    for (auto& box : mailboxes_) {
      box = std::make_unique<Mailbox>();
    }
    for (auto& o : rank_obs_) {
      o = std::make_unique<RankObs>();
    }
  }

  [[nodiscard]] int size() const { return nranks_; }

  [[nodiscard]] Mailbox& mailbox(int rank) {
    return *mailboxes_[static_cast<std::size_t>(rank)];
  }

  [[nodiscard]] const RunOptions& options() const { return options_; }

  [[nodiscard]] RankObs& robs(int rank) {
    return *rank_obs_[static_cast<std::size_t>(rank)];
  }

  /// Advance `rank`'s p2p-op clock and fire any crash fault scheduled for
  /// this op. Called from isend_bytes/irecv_bytes on the rank's own thread.
  void note_p2p_op(int rank) {
    if (options_.faults.empty()) {
      return;
    }
    const std::int64_t op = ++p2p_ops_[static_cast<std::size_t>(rank)];
    for (const Fault& f : options_.faults.faults) {
      if (f.type == FaultType::kCrash && f.rank == rank && f.at_op == op) {
        HYMV_THROW("simmpi: injected crash on rank " + std::to_string(rank) +
                   " at p2p op " + std::to_string(op));
      }
    }
  }

  /// Match message faults for one send and consume their Nth-counters.
  /// Only the sending rank's thread touches a src-pinned fault's counter,
  /// so the Nth-message bookkeeping is deterministic.
  SendFaultAction match_send_faults(int src, int dest, int tag,
                                    std::size_t bytes) {
    SendFaultAction action;
    const auto& faults = options_.faults.faults;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const Fault& f = faults[i];
      if (f.type == FaultType::kCrash || f.src != src ||
          (f.dest != -1 && f.dest != dest) ||
          (f.tag != kAnyTag && f.tag != tag)) {
        continue;
      }
      const std::int64_t n =
          fault_hits_[i].fetch_add(1, std::memory_order_relaxed) + 1;
      if (n != f.nth) {
        continue;
      }
      switch (f.type) {
        case FaultType::kBitFlip:
          if (bytes > 0) {
            const auto nbits = static_cast<std::uint64_t>(bytes) * 8;
            action.flip_bit =
                f.bit >= 0
                    ? f.bit % static_cast<std::int64_t>(nbits)
                    : static_cast<std::int64_t>(
                          mix64(options_.faults.seed + i) % nbits);
          }
          break;
        case FaultType::kDrop:
          action.drop = true;
          break;
        case FaultType::kDelay:
          action.delay_ms += f.delay_ms;
          break;
        case FaultType::kCrash:
          break;
      }
    }
    return action;
  }

  void abort() {
    aborted_.store(true, std::memory_order_release);
    for (auto& box : mailboxes_) {
      std::lock_guard<std::mutex> lock(box->mutex);
      box->cv.notify_all();
    }
  }

  [[nodiscard]] bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }

 private:
  int nranks_;
  RunOptions options_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<RankObs>> rank_obs_;
  std::vector<std::int64_t> p2p_ops_;  ///< per-rank, owner-thread-written
  std::vector<std::atomic<std::int64_t>> fault_hits_;
  std::atomic<bool> aborted_{false};
};

namespace {

bool matches(int want_src, int want_tag, int src, int tag) {
  return (want_src == kAnySource || want_src == src) &&
         (want_tag == kAnyTag || want_tag == tag);
}

void deliver(RankObs& receiver_obs, int receiver, const PendingRecv& recv,
             int src, int tag, const void* data, std::size_t bytes) {
  HYMV_CHECK_MSG(bytes <= recv.capacity,
                 "simmpi: received message larger than posted buffer");
  if (bytes > 0) {
    std::memcpy(recv.buf, data, bytes);
  }
  recv.state->status = Status{src, tag, bytes};
  recv.state->done = true;
  if (src != receiver) {  // self-messages are not network traffic
    receiver_obs.messages_received->inc();
    receiver_obs.bytes_received->add(static_cast<std::int64_t>(bytes));
  }
}

}  // namespace

}  // namespace detail

int Comm::size() const { return ctx_->size(); }

Request Comm::isend_bytes(int dest, int tag, const void* data,
                          std::size_t bytes) {
  HYMV_CHECK_MSG(dest >= 0 && dest < size(), "isend: destination out of range");
  if (ctx_->aborted()) {
    throw AbortError();
  }
  // Fault injection (no-op for an empty plan): crash clock, then message
  // faults. Mutations act on the delivered copy, never the caller's buffer.
  std::vector<std::byte> mutated;
  if (!ctx_->options().faults.empty()) {
    ctx_->note_p2p_op(rank_);
    const detail::SendFaultAction action =
        ctx_->match_send_faults(rank_, dest, tag, bytes);
    if (action.delay_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(action.delay_ms));
    }
    if (action.drop) {
      // The sender observes a normal completed send (its counters included)
      // — the message simply never arrives, like a lost packet.
      if (dest != rank_) {
        detail::RankObs& robs = ctx_->robs(rank_);
        robs.messages_sent->inc();
        robs.bytes_sent->add(static_cast<std::int64_t>(bytes));
      }
      HYMV_TRACE_INSTANT("fault.drop", "simmpi");
      auto state = std::make_shared<detail::RequestState>();
      state->done = true;
      state->status = Status{dest, tag, bytes};
      state->owner_rank = rank_;
      return Request(std::move(state));
    }
    if (action.flip_bit >= 0 && bytes > 0) {
      mutated.resize(bytes);
      std::memcpy(mutated.data(), data, bytes);
      mutated[static_cast<std::size_t>(action.flip_bit / 8)] ^=
          static_cast<std::byte>(1U << (action.flip_bit % 8));
      data = mutated.data();
    }
  }
  if (dest != rank_) {
    detail::RankObs& robs = ctx_->robs(rank_);
    robs.messages_sent->inc();
    robs.bytes_sent->add(static_cast<std::int64_t>(bytes));
  }
  detail::Mailbox& box = ctx_->mailbox(dest);
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    // Try to match the earliest posted receive (FIFO per source/tag).
    for (auto it = box.pending.begin(); it != box.pending.end(); ++it) {
      if (detail::matches(it->src, it->tag, rank_, tag)) {
        detail::deliver(ctx_->robs(dest), dest, *it, rank_, tag, data, bytes);
        box.pending.erase(it);
        box.cv.notify_all();
        auto state = std::make_shared<detail::RequestState>();
        state->done = true;
        state->status = Status{dest, tag, bytes};
        state->owner_rank = rank_;
        return Request(std::move(state));
      }
    }
    // No posted receive: enqueue as an unexpected (eagerly buffered) message.
    detail::Envelope env;
    env.src = rank_;
    env.tag = tag;
    env.payload.resize(bytes);
    if (bytes > 0) {
      std::memcpy(env.payload.data(), data, bytes);
    }
    box.unexpected.push_back(std::move(env));
    box.cv.notify_all();
  }
  auto state = std::make_shared<detail::RequestState>();
  state->done = true;
  state->status = Status{dest, tag, bytes};
  state->owner_rank = rank_;
  return Request(std::move(state));
}

Request Comm::irecv_bytes(int source, int tag, void* buf,
                          std::size_t capacity) {
  HYMV_CHECK_MSG(source == kAnySource || (source >= 0 && source < size()),
                 "irecv: source out of range");
  if (ctx_->aborted()) {
    throw AbortError();
  }
  if (!ctx_->options().faults.empty()) {
    ctx_->note_p2p_op(rank_);
  }
  detail::Mailbox& box = ctx_->mailbox(rank_);
  auto state = std::make_shared<detail::RequestState>();
  state->owner_rank = rank_;
  std::lock_guard<std::mutex> lock(box.mutex);
  // Try the unexpected queue first (earliest arrival wins).
  for (auto it = box.unexpected.begin(); it != box.unexpected.end(); ++it) {
    if (detail::matches(source, tag, it->src, it->tag)) {
      detail::PendingRecv recv{source, tag, buf, capacity, state};
      detail::deliver(ctx_->robs(rank_), rank_, recv, it->src, it->tag,
                      it->payload.data(), it->payload.size());
      box.unexpected.erase(it);
      return Request(std::move(state));
    }
  }
  box.pending.push_back(detail::PendingRecv{source, tag, buf, capacity, state});
  return Request(std::move(state));
}

Status Comm::wait(Request& req) {
  if (!req.valid()) {
    return Status{};
  }
  detail::RequestState& state = *req.state_;
  detail::Mailbox& box = ctx_->mailbox(state.owner_rank);
  std::unique_lock<std::mutex> lock(box.mutex);
  const double timeout_s = ctx_->options().recv_timeout_s;
  if (timeout_s > 0.0) {
    const bool completed =
        box.cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                        [&] { return state.done || ctx_->aborted(); });
    if (!completed) {
      throw hymv::TimeoutError(
          "simmpi: wait timed out after " + std::to_string(timeout_s) +
          " s (message dropped or sender stalled?)");
    }
  } else {
    box.cv.wait(lock, [&] { return state.done || ctx_->aborted(); });
  }
  if (!state.done) {
    throw AbortError();
  }
  const Status status = state.status;
  req.state_.reset();
  return status;
}

bool Comm::wait_for(Request& req, double timeout_s, Status* status) {
  if (!req.valid()) {
    if (status != nullptr) {
      *status = Status{};
    }
    return true;
  }
  detail::RequestState& state = *req.state_;
  detail::Mailbox& box = ctx_->mailbox(state.owner_rank);
  std::unique_lock<std::mutex> lock(box.mutex);
  const bool completed =
      box.cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                      [&] { return state.done || ctx_->aborted(); });
  if (!completed) {
    return false;  // request stays posted; a resend can still complete it
  }
  if (!state.done) {
    throw AbortError();
  }
  if (status != nullptr) {
    *status = state.status;
  }
  req.state_.reset();
  return true;
}

bool Comm::test(Request& req) {
  if (!req.valid()) {
    return true;
  }
  detail::RequestState& state = *req.state_;
  detail::Mailbox& box = ctx_->mailbox(state.owner_rank);
  std::lock_guard<std::mutex> lock(box.mutex);
  if (ctx_->aborted() && !state.done) {
    throw AbortError();
  }
  return state.done;
}

void Comm::waitall(std::span<Request> reqs) {
  for (Request& r : reqs) {
    wait(r);
  }
}

int Comm::waitany(std::span<Request> reqs, Status* status) {
  bool any_valid = false;
  for (const Request& r : reqs) {
    if (r.valid()) {
      HYMV_CHECK_MSG(r.state_->owner_rank == rank_,
                     "waitany: request belongs to another rank");
      any_valid = true;
    }
  }
  if (!any_valid) {
    return -1;
  }
  // Every request made by this Comm lives in this rank's mailbox, so one cv
  // wait with an any-done predicate covers the whole span.
  detail::Mailbox& box = ctx_->mailbox(rank_);
  std::unique_lock<std::mutex> lock(box.mutex);
  const auto find_done = [&]() -> int {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i].valid() && reqs[i].state_->done) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  int idx = -1;
  const auto pred = [&] {
    idx = find_done();
    return idx >= 0 || ctx_->aborted();
  };
  const double timeout_s = ctx_->options().recv_timeout_s;
  if (timeout_s > 0.0) {
    const bool completed =
        box.cv.wait_for(lock, std::chrono::duration<double>(timeout_s), pred);
    if (!completed) {
      throw hymv::TimeoutError(
          "simmpi: waitany timed out after " + std::to_string(timeout_s) +
          " s (message dropped or sender stalled?)");
    }
  } else {
    box.cv.wait(lock, pred);
  }
  if (idx < 0) {
    throw AbortError();
  }
  if (status != nullptr) {
    *status = reqs[static_cast<std::size_t>(idx)].state_->status;
  }
  reqs[static_cast<std::size_t>(idx)].state_.reset();
  return idx;
}

int Comm::testany(std::span<Request> reqs, Status* status) {
  detail::Mailbox& box = ctx_->mailbox(rank_);
  std::lock_guard<std::mutex> lock(box.mutex);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (!reqs[i].valid()) {
      continue;
    }
    HYMV_CHECK_MSG(reqs[i].state_->owner_rank == rank_,
                   "testany: request belongs to another rank");
    if (ctx_->aborted() && !reqs[i].state_->done) {
      throw AbortError();
    }
    if (reqs[i].state_->done) {
      if (status != nullptr) {
        *status = reqs[i].state_->status;
      }
      reqs[i].state_.reset();
      return static_cast<int>(i);
    }
  }
  return -1;
}

AllreduceHandle Comm::allreduce_start(std::span<const double> in) {
  HYMV_TRACE_SCOPE("allreduce_start", "simmpi");
  const int p = size();
  const std::size_t n = in.size();
  AllreduceHandle handle;
  handle.count_ = n;
  handle.parts_.assign(static_cast<std::size_t>(p) * n, 0.0);
  handle.active_ = true;
  std::copy(in.begin(), in.end(),
            handle.parts_.begin() + static_cast<std::size_t>(rank_) * n);
  handle.reqs_.reserve(static_cast<std::size_t>(p > 0 ? p - 1 : 0));
  for (int r = 0; r < p; ++r) {
    if (r == rank_) {
      continue;
    }
    handle.reqs_.push_back(irecv(
        r, detail::kSplitAllreduceTag,
        std::span<double>(handle.parts_.data() + static_cast<std::size_t>(r) * n,
                          n)));
  }
  for (int r = 0; r < p; ++r) {
    if (r == rank_) {
      continue;
    }
    // Eager send: completes immediately, the request needs no tracking.
    isend(r, detail::kSplitAllreduceTag, in);
  }
  return handle;
}

void Comm::allreduce_finish(AllreduceHandle& handle, std::span<double> out) {
  HYMV_TRACE_SCOPE("allreduce_finish", "simmpi");
  HYMV_CHECK_MSG(handle.active_, "allreduce_finish: no allreduce in flight");
  HYMV_CHECK_MSG(out.size() == handle.count_,
                 "allreduce_finish: size mismatch with allreduce_start");
  waitall(handle.reqs_);
  // Combine in rank order 0..p-1: every rank sums the identical sequence,
  // so the result is bitwise identical across ranks (collective decisions
  // like CG convergence tests stay consistent).
  const std::size_t n = handle.count_;
  std::fill(out.begin(), out.end(), 0.0);
  const int p = size();
  for (int r = 0; r < p; ++r) {
    const double* part = handle.parts_.data() + static_cast<std::size_t>(r) * n;
    for (std::size_t j = 0; j < n; ++j) {
      out[j] += part[j];
    }
  }
  handle.active_ = false;
  handle.reqs_.clear();
  handle.parts_.clear();
  handle.count_ = 0;
}

Status Comm::probe(int source, int tag) {
  detail::Mailbox& box = ctx_->mailbox(rank_);
  std::unique_lock<std::mutex> lock(box.mutex);
  for (;;) {
    for (const auto& env : box.unexpected) {
      if (detail::matches(source, tag, env.src, env.tag)) {
        return Status{env.src, env.tag, env.payload.size()};
      }
    }
    if (ctx_->aborted()) {
      throw AbortError();
    }
    box.cv.wait(lock);
  }
}

void Comm::barrier() {
  HYMV_TRACE_SCOPE("barrier", "simmpi");
  // Dissemination barrier: ceil(log2 p) rounds; round k sends a token to
  // (rank + 2^k) mod p and receives one from (rank - 2^k) mod p.
  const int p = size();
  std::byte token{};
  for (int k = 1; k < p; k <<= 1) {
    const int to = (rank_ + k) % p;
    const int from = (rank_ - k % p + p) % p;
    Request s = isend_bytes(to, detail::kBarrierTag, &token, 1);
    wait(s);
    std::byte in{};
    Request r = irecv_bytes(from, detail::kBarrierTag, &in, 1);
    wait(r);
  }
}

void Comm::bcast_bytes(void* data, std::size_t bytes, int root) {
  HYMV_TRACE_SCOPE("bcast", "simmpi");
  // Binomial tree rooted at `root`.
  const int p = size();
  HYMV_CHECK_MSG(root >= 0 && root < p, "bcast: root out of range");
  const int vrank = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if ((vrank & mask) != 0) {
      const int parent = ((vrank - mask) + root) % p;
      Request r = irecv_bytes(parent, detail::kBcastTag, data, bytes);
      wait(r);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < p) {
      const int child = ((vrank + mask) + root) % p;
      Request s = isend_bytes(child, detail::kBcastTag, data, bytes);
      wait(s);
    }
    mask >>= 1;
  }
}

void Comm::reduce_bytes_inplace(void* data, std::size_t count,
                                std::size_t elem_size, ReduceOp op, int root,
                                void (*apply)(void*, const void*, std::size_t,
                                              ReduceOp)) {
  HYMV_TRACE_SCOPE("reduce", "simmpi");
  // Binomial tree reduction to `root`; `data` holds this rank's contribution
  // on entry and, on the root, the reduced result on exit.
  const int p = size();
  const int vrank = (rank_ - root + p) % p;
  const std::size_t bytes = count * elem_size;
  std::vector<std::byte> incoming(bytes);
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((vrank & mask) != 0) {
      const int parent = ((vrank & ~mask) + root) % p;
      Request s = isend_bytes(parent, detail::kReduceTag, data, bytes);
      wait(s);
      return;
    }
    const int vchild = vrank | mask;
    if (vchild < p) {
      const int child = (vchild + root) % p;
      Request r = irecv_bytes(child, detail::kReduceTag, incoming.data(), bytes);
      wait(r);
      apply(data, incoming.data(), count, op);
    }
  }
}

hymv::obs::MetricsRegistry& Comm::metrics() const {
  return ctx_->robs(rank_).registry;
}

TrafficCounters Comm::counters() const {
  const detail::RankObs& robs = ctx_->robs(rank_);
  TrafficCounters out;
  out.messages_sent = robs.messages_sent->value();
  out.bytes_sent = robs.bytes_sent->value();
  out.messages_received = robs.messages_received->value();
  out.bytes_received = robs.bytes_received->value();
  out.messages_resent = robs.messages_resent->value();
  return out;
}

void Comm::reset_counters() {
  detail::RankObs& robs = ctx_->robs(rank_);
  robs.messages_sent->reset();
  robs.bytes_sent->reset();
  robs.messages_received->reset();
  robs.bytes_received->reset();
  robs.messages_resent->reset();
}

void Comm::add_resent(std::int64_t n) {
  ctx_->robs(rank_).messages_resent->add(n);
}

const ExchangeProtection& Comm::exchange_protection() const {
  return ctx_->options().protection;
}

// ---------------------------------------------------------------------------
// Fault-plan parsing
// ---------------------------------------------------------------------------

namespace {

/// Strict integer parse: the whole field must be one integer.
std::int64_t parse_int_field(const std::string& key, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  HYMV_CHECK_MSG(errno != ERANGE && end != text.c_str() && *end == '\0',
                 "FaultPlan: bad integer for '" + key + "': \"" + text + "\"");
  return value;
}

double parse_double_field(const std::string& key, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  HYMV_CHECK_MSG(errno != ERANGE && end != text.c_str() && *end == '\0',
                 "FaultPlan: bad number for '" + key + "': \"" + text + "\"");
  return value;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  for (const std::string& entry : split(spec, ';')) {
    if (entry.empty()) {
      continue;  // allow a trailing ';'
    }
    const std::size_t colon = entry.find(':');
    HYMV_CHECK_MSG(colon != std::string::npos,
                   "FaultPlan: missing ':' in fault \"" + entry + "\"");
    const std::string type = entry.substr(0, colon);
    Fault fault;
    if (type == "flip") {
      fault.type = FaultType::kBitFlip;
    } else if (type == "drop") {
      fault.type = FaultType::kDrop;
    } else if (type == "delay") {
      fault.type = FaultType::kDelay;
    } else if (type == "crash") {
      fault.type = FaultType::kCrash;
    } else {
      HYMV_THROW("FaultPlan: unknown fault type \"" + type +
                 "\" (expected flip|drop|delay|crash)");
    }
    for (const std::string& kv : split(entry.substr(colon + 1), ',')) {
      const std::size_t eq = kv.find('=');
      HYMV_CHECK_MSG(eq != std::string::npos && eq > 0,
                     "FaultPlan: expected key=value, got \"" + kv + "\"");
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      if (key == "src") {
        fault.src = static_cast<int>(parse_int_field(key, value));
      } else if (key == "dest") {
        fault.dest = static_cast<int>(parse_int_field(key, value));
      } else if (key == "tag") {
        fault.tag = static_cast<int>(parse_int_field(key, value));
      } else if (key == "nth") {
        fault.nth = parse_int_field(key, value);
      } else if (key == "bit" && fault.type == FaultType::kBitFlip) {
        fault.bit = parse_int_field(key, value);
      } else if (key == "ms" && fault.type == FaultType::kDelay) {
        fault.delay_ms = parse_double_field(key, value);
      } else if (key == "rank" && fault.type == FaultType::kCrash) {
        fault.rank = static_cast<int>(parse_int_field(key, value));
      } else if (key == "op" && fault.type == FaultType::kCrash) {
        fault.at_op = parse_int_field(key, value);
      } else {
        HYMV_THROW("FaultPlan: unknown key \"" + key + "\" for fault type \"" +
                   type + "\"");
      }
    }
    if (fault.type == FaultType::kCrash) {
      HYMV_CHECK_MSG(fault.rank >= 0 && fault.at_op >= 1,
                     "FaultPlan: crash faults need rank>=0 and op>=1");
    } else {
      HYMV_CHECK_MSG(fault.src >= 0,
                     "FaultPlan: message faults need a source rank (src=N) — "
                     "per-sender order is what makes injection deterministic");
      HYMV_CHECK_MSG(fault.nth >= 1, "FaultPlan: nth must be >= 1");
      HYMV_CHECK_MSG(fault.delay_ms >= 0.0,
                     "FaultPlan: delay must be non-negative");
    }
    plan.faults.push_back(fault);
  }
  return plan;
}

FaultPlan FaultPlan::from_env() {
  const char* spec = std::getenv("HYMV_FAULT_SPEC");
  const auto seed = static_cast<std::uint64_t>(hymv::env_int_in_range(
      "HYMV_FAULT_SEED", 0, 0, std::numeric_limits<std::int64_t>::max()));
  if (spec == nullptr || *spec == '\0') {
    return FaultPlan{.seed = seed, .faults = {}};
  }
  return parse(spec, seed);
}

RunOptions RunOptions::from_env() {
  RunOptions options;
  options.faults = FaultPlan::from_env();
  const double timeout_ms = hymv::env_double("HYMV_FAULT_RECV_TIMEOUT_MS", 0.0);
  HYMV_CHECK_MSG(timeout_ms >= 0.0,
                 "HYMV_FAULT_RECV_TIMEOUT_MS must be >= 0");
  options.recv_timeout_s = timeout_ms / 1000.0;
  ExchangeProtection& prot = options.protection;
  prot.checksum = hymv::env_flag("HYMV_FAULT_CHECKSUM", prot.checksum);
  prot.max_retries = static_cast<int>(hymv::env_int_in_range(
      "HYMV_FAULT_MAX_RETRIES", prot.max_retries, 0, 1000));
  prot.recv_timeout_s =
      hymv::env_double_above("HYMV_FAULT_TIMEOUT_MS",
                             prot.recv_timeout_s * 1000.0, 0.0) /
      1000.0;
  if (const char* path = std::getenv("HYMV_METRICS_JSON")) {
    options.metrics_path = path;
  }
  return options;
}

void run(int nranks, const std::function<void(Comm&)>& fn) {
  run(nranks, fn, RunOptions::from_env());
}

void run(int nranks, const std::function<void(Comm&)>& fn,
         const RunOptions& options) {
  HYMV_CHECK_MSG(nranks > 0, "simmpi::run: nranks must be positive");
  detail::Context ctx(nranks, options);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  const auto rank_main = [&](int r) {
    // Tag the rank's thread so its trace spans group under this rank's
    // "process" row in the Chrome-trace export.
    hymv::obs::set_current_rank(r);
    Comm comm(&ctx, r);
    try {
      HYMV_TRACE_SCOPE("rank", "simmpi");
      fn(comm);
    } catch (...) {
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      ctx.abort();
    }
  };
  // Every rank starts at the calling thread's OpenMP thread count: a new
  // thread would otherwise start at the process default (OMP_NUM_THREADS
  // or the core count), whatever the caller set.
#ifdef _OPENMP
  const int caller_threads = omp_get_max_threads();
#endif
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks - 1));
  for (int r = 1; r < nranks; ++r) {
    threads.emplace_back([&, r] {
#ifdef _OPENMP
      omp_set_num_threads(caller_threads);
#endif
      rank_main(r);
      hymv::obs::set_current_rank(-1);
    });
  }
  // Rank 0 runs on the calling thread, so a 1-rank job spawns no thread
  // and allocates from the caller's malloc arena. Whatever rank 0 does to
  // the thread's rank tag, OpenMP thread count or CPU affinity is undone
  // afterwards: opt-in pinning (numa.hpp) pins the first team's master,
  // and threads the caller spawns later would inherit that one CPU.
  {
    const int caller_rank = hymv::obs::current_rank();
#if defined(__linux__)
    cpu_set_t caller_cpus;
    const bool have_cpus =
        sched_getaffinity(0, sizeof(caller_cpus), &caller_cpus) == 0;
#endif
    rank_main(0);
    hymv::obs::set_current_rank(caller_rank);
#ifdef _OPENMP
    omp_set_num_threads(caller_threads);
#endif
#if defined(__linux__)
    if (have_cpus) {
      (void)sched_setaffinity(0, sizeof(caller_cpus), &caller_cpus);
    }
#endif
  }
  for (auto& t : threads) {
    t.join();
  }
  // Merged job totals across ranks, written when the job completes (last
  // simmpi::run in a process wins). Skipped on failure so a partially-
  // populated registry never masquerades as a clean run.
  const bool job_failed =
      std::any_of(errors.begin(), errors.end(),
                  [](const std::exception_ptr& e) { return bool(e); });
  if (!options.metrics_path.empty() && !job_failed) {
    hymv::obs::MetricsRegistry merged;
    for (int r = 0; r < nranks; ++r) {
      merged.merge_from(ctx.robs(r).registry);
    }
    merged.write_json(options.metrics_path);
  }
  // Prefer the original failure over secondary AbortErrors.
  std::exception_ptr first_abort;
  for (const auto& e : errors) {
    if (!e) {
      continue;
    }
    try {
      std::rethrow_exception(e);
    } catch (const AbortError&) {
      if (!first_abort) {
        first_abort = e;
      }
    } catch (...) {
      std::rethrow_exception(e);
    }
  }
  if (first_abort) {
    std::rethrow_exception(first_abort);
  }
}

}  // namespace simmpi
