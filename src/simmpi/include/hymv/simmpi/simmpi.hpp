#pragma once

/// \file simmpi.hpp
/// In-process message-passing runtime ("simulated MPI").
///
/// The paper's HYMV library targets MPI on a cluster. This environment has
/// no MPI and one machine, so simmpi provides the same programming model
/// in-process: `simmpi::run(nranks, fn)` runs rank 0 on the calling thread
/// and ranks 1..nranks-1 on std::threads of their own. Each rank receives
/// a `Comm` handle exposing ranked, tagged, nonblocking point-to-point
/// messaging and the collectives the HYMV/PETSc-sim layers need. Message
/// matching is real (posted receives vs. unexpected-message queue, FIFO per
/// (source, tag)), so the ghost-exchange and assembly-migration code paths
/// execute genuine concurrent message passing with the same ordering and
/// deadlock semantics they would have under MPI. A job runs its RunOptions
/// (fault drill, exchange protection, metrics file) and reads no
/// environment; `run(nranks, fn)` resolves them with RunOptions::from_env.
///
/// Collectives are implemented on top of the point-to-point layer using the
/// standard tree/dissemination algorithms, so per-rank traffic counters
/// (messages, bytes) reflect realistic communication volume; the perfmodel
/// module feeds those counters into an alpha-beta cluster model to produce
/// modeled scaling curves.
///
/// Deliberate simplifications relative to MPI (documented in DESIGN.md):
/// sends are eager (buffered; an isend completes immediately), there are no
/// communicators other than "world", and datatypes are trivially copyable
/// element spans.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "hymv/common/error.hpp"

namespace hymv::obs {
class MetricsRegistry;
}  // namespace hymv::obs

namespace simmpi {

/// Wildcard source for irecv/probe: match a message from any rank.
inline constexpr int kAnySource = -1;
/// Wildcard tag for irecv/probe: match a message with any tag.
inline constexpr int kAnyTag = -1;
/// First tag of the runtime-internal tag space (collectives, the split
/// allreduce). User code must keep its tags strictly below this — the
/// hymv::pla comm-tag registry static_asserts against it.
inline constexpr int kInternalTagBase = 1 << 28;

/// Element-wise reduction operators for allreduce/reduce/scan.
enum class ReduceOp : std::uint8_t {
  kSum,
  kMin,
  kMax,
  kProd,
  kLogicalAnd,
  kLogicalOr,
};

/// Completion information for a receive.
struct Status {
  int source = kAnySource;   ///< Rank the matched message came from.
  int tag = kAnyTag;         ///< Tag of the matched message.
  std::size_t bytes = 0;     ///< Payload size actually received.
};

/// Per-rank communication accounting, used by the performance model.
///
/// This struct is a thin VIEW: the authoritative values live in the rank's
/// obs::MetricsRegistry under "traffic.*" counters (see Comm::metrics());
/// Comm::counters() materialises them here for existing callers.
struct TrafficCounters {
  std::int64_t messages_sent = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t messages_received = 0;
  std::int64_t bytes_received = 0;
  /// Retransmissions performed by recovery protocols (e.g. the checksummed
  /// ghost exchange's resend-on-mismatch path); a subset of messages_sent.
  std::int64_t messages_resent = 0;
};

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------
//
// A FaultPlan describes deterministic faults the runtime injects while the
// job runs, so recovery code paths (checksummed exchange, CG rollback,
// store scrubbing) can be exercised reproducibly. Injection happens on the
// *sender* thread at isend time: because per-sender send order is
// deterministic, a fault pinned to a source rank fires at exactly the same
// message on every run with the same plan.

/// Kind of injected fault.
enum class FaultType : int {
  kBitFlip,  ///< flip one bit of the delivered payload copy
  kDrop,     ///< silently discard the message (sender still "succeeds")
  kDelay,    ///< stall the sender for delay_ms before delivery
  kCrash,    ///< throw from the victim rank at its at_op-th p2p operation
};

/// One fault. Message faults (kBitFlip/kDrop/kDelay) match the Nth send
/// from `src` (required) to `dest` (or any rank when -1) with tag `tag`
/// (or any tag when kAnyTag). kCrash ignores the message fields and fires
/// at `rank`'s `at_op`-th point-to-point call (isend or irecv, 1-based).
struct Fault {
  FaultType type = FaultType::kBitFlip;
  int src = -1;            ///< sender rank (message faults; required)
  int dest = -1;           ///< receiver rank; -1 matches any
  int tag = kAnyTag;       ///< tag filter; kAnyTag matches any
  std::int64_t nth = 1;    ///< fire on the Nth matching message (1-based)
  std::int64_t bit = -1;   ///< kBitFlip: bit index; -1 derives from the seed
  double delay_ms = 0.0;   ///< kDelay: sender stall
  int rank = -1;           ///< kCrash: victim rank
  std::int64_t at_op = 0;  ///< kCrash: 1-based p2p op count on the victim
};

/// A seeded, deterministic set of faults for one simmpi job.
struct FaultPlan {
  std::uint64_t seed = 0;     ///< drives derived choices (e.g. bit index)
  std::vector<Fault> faults;

  [[nodiscard]] bool empty() const { return faults.empty(); }

  /// Parse a fault spec string. Grammar: faults separated by ';', each
  ///   type ':' key '=' value (',' key '=' value)*
  /// with type in {flip, drop, delay, crash} and keys
  ///   src, dest, tag, nth, bit (flip), ms (delay), rank, op (crash).
  /// Example:
  ///   "flip:src=0,dest=1,tag=1001,nth=2,bit=12;crash:rank=1,op=100"
  /// Strict: unknown types/keys, trailing garbage in numbers, or missing
  /// required fields throw hymv::Error.
  static FaultPlan parse(const std::string& spec, std::uint64_t seed = 0);

  /// Build from HYMV_FAULT_SPEC (parsed strictly; a malformed spec throws)
  /// and HYMV_FAULT_SEED (an integer in [0, INT64_MAX]; anything else warns
  /// and keeps 0). Unset env → empty plan.
  static FaultPlan from_env();
};

/// End-to-end integrity protection for a job's ghost exchanges
/// (hymv::pla::GhostExchange). When `checksum` is on, every data message
/// carries a 16-byte trailer {epoch, FNV-1a checksum}; the receiver
/// verifies it and answers with a one-byte ACK, or a NACK that makes the
/// sender retransmit (bounded by `max_retries` failed attempts per
/// message). Receive waits are bounded by `recv_timeout_s`, so a dropped
/// message surfaces as a NACK-triggered resend instead of a hang;
/// exhausting the budget throws hymv::TimeoutError (silence) or
/// hymv::IntegrityError (persistent corruption). Off by default — the
/// unprotected exchange is byte-identical to the pre-protection one.
struct ExchangeProtection {
  bool checksum = false;
  int max_retries = 2;          ///< failed attempts allowed per message
  double recv_timeout_s = 0.25; ///< per-attempt wait bound (seconds)
};

/// What one simmpi::run job runs with. The defaults (no faults, no
/// timeout, no protection, no metrics file) leave the runtime behaviour —
/// including message contents and counters — identical to the pre-fault-
/// layer runtime.
struct RunOptions {
  FaultPlan faults;
  /// When > 0, every blocking wait() on this job times out after this many
  /// seconds and throws hymv::TimeoutError instead of hanging — the knob
  /// that turns dropped messages into diagnosable errors.
  double recv_timeout_s = 0.0;
  /// The protection every ghost exchange built in this job runs with
  /// (Comm::exchange_protection()).
  ExchangeProtection protection;
  /// When non-empty, the job's merged metrics are written to this path
  /// when it completes without error. Callers running many concurrent jobs
  /// in one process (the svc::SolveService) leave it empty so the jobs
  /// don't race on one output file.
  std::string metrics_path;

  /// The one reader of a job's fault drill and metrics path:
  /// HYMV_FAULT_SPEC / HYMV_FAULT_SEED (plan), HYMV_FAULT_RECV_TIMEOUT_MS
  /// (>= 0), HYMV_FAULT_CHECKSUM / _MAX_RETRIES / _TIMEOUT_MS (protection;
  /// bad values warn and keep the default) and HYMV_METRICS_JSON.
  static RunOptions from_env();
};

/// Thrown in every rank blocked inside simmpi when some other rank exits
/// with an exception; prevents distributed deadlock on failure.
class AbortError : public hymv::Error {
 public:
  AbortError() : hymv::Error("simmpi: job aborted by failure on another rank") {}
};

namespace detail {
class Context;
struct RequestState;
}  // namespace detail

/// Handle for a nonblocking operation. Default-constructed requests are
/// "null" and complete immediately in wait/test.
class Request {
 public:
  Request() = default;

  /// True if this is a real (non-null) request.
  [[nodiscard]] bool valid() const { return state_ != nullptr; }

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<detail::RequestState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::RequestState> state_;
};

/// In-flight handle of a split (overlappable) allreduce — see
/// Comm::allreduce_start. Movable; must be finished (allreduce_finish) or
/// destroyed without finishing (the posted receives are then abandoned,
/// which is only safe when the job is tearing down anyway).
class AllreduceHandle {
 public:
  AllreduceHandle() = default;

  /// True between allreduce_start and allreduce_finish.
  [[nodiscard]] bool active() const { return active_; }

 private:
  friend class Comm;
  std::size_t count_ = 0;       ///< elements per rank contribution
  std::vector<double> parts_;   ///< size() * count_, rank-major slots
  std::vector<Request> reqs_;   ///< the size()-1 posted receives
  bool active_ = false;
};

/// Per-rank communicator handle. Cheap to copy; all copies refer to the same
/// job-wide context. A Comm is bound to one rank and must only be used from
/// that rank's thread.
class Comm {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;

  // --- point-to-point (byte level) ---------------------------------------

  /// Nonblocking eager send: the payload is copied out immediately; the
  /// returned request is already complete (kept for symmetry with MPI code).
  Request isend_bytes(int dest, int tag, const void* data, std::size_t bytes);

  /// Nonblocking receive into `buf` (capacity `capacity` bytes). The matched
  /// message must fit. `source` may be kAnySource, `tag` may be kAnyTag.
  Request irecv_bytes(int source, int tag, void* buf, std::size_t capacity);

  /// Block until `req` completes; returns receive Status (sends return a
  /// Status with bytes == bytes sent). Under a job-wide recv timeout
  /// (RunOptions::recv_timeout_s > 0) throws hymv::TimeoutError when the
  /// deadline expires.
  Status wait(Request& req);

  /// Bounded wait: true (and `req` consumed, Status in *status if given)
  /// when the request completed within `timeout_s`; false when the deadline
  /// expired — the request stays valid and posted, so a later resend can
  /// still complete it. Throws AbortError if the job aborts meanwhile.
  bool wait_for(Request& req, double timeout_s, Status* status = nullptr);

  /// Nonblocking completion check.
  [[nodiscard]] bool test(Request& req);

  /// Wait for every request in `reqs`.
  void waitall(std::span<Request> reqs);

  /// Block until at least one request in `reqs` completes; returns the
  /// lowest completed index (that request is consumed, its Status stored in
  /// *status if given), or -1 when every entry is null. The lowest-index
  /// rule makes the pick deterministic whenever several requests are
  /// already complete. All requests must have been created by this Comm.
  /// Under a job-wide recv timeout throws hymv::TimeoutError like wait().
  int waitany(std::span<Request> reqs, Status* status = nullptr);

  /// Nonblocking waitany: lowest completed index (consumed), or -1 when no
  /// request has completed yet (also -1 when every entry is null).
  int testany(std::span<Request> reqs, Status* status = nullptr);

  /// Block until a matching message is available; returns its envelope info
  /// without receiving it.
  Status probe(int source, int tag);

  // --- point-to-point (typed convenience) ---------------------------------

  template <typename T>
  Request isend(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    return isend_bytes(dest, tag, data.data(), data.size_bytes());
  }

  template <typename T>
  Request irecv(int source, int tag, std::span<T> buf) {
    static_assert(std::is_trivially_copyable_v<T>);
    return irecv_bytes(source, tag, buf.data(), buf.size_bytes());
  }

  template <typename T>
  void send(int dest, int tag, std::span<const T> data) {
    Request r = isend(dest, tag, data);
    wait(r);
  }

  template <typename T>
  Status recv(int source, int tag, std::span<T> buf) {
    Request r = irecv(source, tag, buf);
    return wait(r);
  }

  /// Scalar send/recv convenience.
  template <typename T>
  void send_value(int dest, int tag, const T& value) {
    send(dest, tag, std::span<const T>(&value, 1));
  }
  template <typename T>
  T recv_value(int source, int tag) {
    T value{};
    recv(source, tag, std::span<T>(&value, 1));
    return value;
  }

  // --- collectives ---------------------------------------------------------

  /// Dissemination barrier (log2(p) rounds of point-to-point messages).
  void barrier();

  /// Broadcast `data` from `root` to all ranks (binomial tree).
  void bcast_bytes(void* data, std::size_t bytes, int root);

  template <typename T>
  void bcast(std::span<T> data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    bcast_bytes(data.data(), data.size_bytes(), root);
  }

  /// Element-wise allreduce over arithmetic element type T.
  template <typename T>
  void allreduce(std::span<const T> in, std::span<T> out, ReduceOp op);

  /// Scalar allreduce convenience.
  template <typename T>
  T allreduce(T value, ReduceOp op) {
    T out{};
    allreduce(std::span<const T>(&value, 1), std::span<T>(&out, 1), op);
    return out;
  }

  /// Gather equal-size contributions to every rank.
  template <typename T>
  void allgather(std::span<const T> mine, std::span<T> all);

  /// Gather variable-size contributions to every rank; returns the
  /// concatenation in rank order and fills `counts[r]` = elements from rank r.
  template <typename T>
  std::vector<T> allgatherv(std::span<const T> mine,
                            std::vector<std::size_t>* counts = nullptr);

  /// Variable-size all-to-all exchange. `send[r]` is the payload for rank r
  /// (may be empty); returns `recv[r]` = payload from rank r.
  template <typename T>
  std::vector<std::vector<T>> alltoallv(
      const std::vector<std::vector<T>>& send);

  /// Start an overlappable sum-allreduce over doubles: posts one receive
  /// per peer and eagerly sends this rank's contribution, then returns so
  /// the caller can compute while peer contributions arrive. Unlike
  /// allreduce() (blocking tree reduce + bcast) this costs O(p^2) messages
  /// job-wide — fine for the small p of this runtime, and the only way to
  /// get genuine overlap out of eager point-to-point. At most one split
  /// allreduce may be in flight per rank at a time relative to ordering
  /// guarantees the caller needs; back-to-back start/finish pairs are safe
  /// (FIFO matching per (source, tag) keeps epochs straight).
  AllreduceHandle allreduce_start(std::span<const double> in);

  /// Complete a split allreduce: waits for all peer contributions and
  /// combines them in rank order 0..p-1, so every rank computes the same
  /// floating-point sum bit for bit. `out.size()` must equal the start's
  /// `in.size()`; `out` may alias the original `in`.
  void allreduce_finish(AllreduceHandle& handle, std::span<double> out);

  /// Exclusive prefix reduction: rank r receives op(values of ranks 0..r-1);
  /// rank 0 receives T{} (the op identity is the caller's concern for
  /// non-sum ops, matching MPI_Exscan's undefined-rank-0 semantics).
  template <typename T>
  T exscan(T value, ReduceOp op);

  // --- accounting ----------------------------------------------------------

  /// This rank's unified metrics registry (per job). The runtime publishes
  /// its traffic accounting here ("traffic.messages_sent", ...); higher
  /// layers (ghost exchange, CG, driver) publish their own metrics into the
  /// same registry so one to_json() captures the whole rank. When the job's
  /// RunOptions::metrics_path is set, simmpi::run merges every rank's
  /// registry and writes the job totals there on successful completion.
  [[nodiscard]] hymv::obs::MetricsRegistry& metrics() const;

  /// Cumulative traffic sent/received by this rank — a view over the
  /// "traffic.*" counters in metrics().
  [[nodiscard]] TrafficCounters counters() const;

  /// Reset this rank's traffic counters to zero.
  void reset_counters();

  /// Record `n` protocol retransmissions in this rank's counters (called by
  /// recovery layers such as the checksummed ghost exchange).
  void add_resent(std::int64_t n = 1);

  /// The job's RunOptions::protection, which its ghost exchanges run.
  [[nodiscard]] const ExchangeProtection& exchange_protection() const;

 private:
  friend void run(int, const std::function<void(Comm&)>&,
                  const RunOptions&);
  friend class detail::Context;
  Comm(detail::Context* ctx, int rank) : ctx_(ctx), rank_(rank) {}

  void reduce_bytes_inplace(void* data, std::size_t count,
                            std::size_t elem_size, ReduceOp op, int root,
                            void (*apply)(void*, const void*, std::size_t,
                                          ReduceOp));

  detail::Context* ctx_ = nullptr;
  int rank_ = -1;
};

/// Run `fn(comm)` on `nranks` ranks: rank 0 on the calling thread, ranks
/// 1..nranks-1 on threads spawned for the job, so a 1-rank job spawns none.
/// Blocks until all ranks return. The calling thread's obs rank tag,
/// OpenMP thread count and CPU affinity are restored after rank 0 returns.
/// If any rank throws, the job is aborted (ranks blocked in simmpi calls
/// receive AbortError) and the first original exception is rethrown.
/// This overload is run(nranks, fn, RunOptions::from_env()), so fault
/// campaigns can target existing binaries via HYMV_FAULT_* without code
/// changes; with the environment unset it behaves exactly as before.
void run(int nranks, const std::function<void(Comm&)>& fn);

/// run() with explicit options; reads no environment.
void run(int nranks, const std::function<void(Comm&)>& fn,
         const RunOptions& options);

// ---------------------------------------------------------------------------
// template implementations
// ---------------------------------------------------------------------------

namespace detail {

/// Element-wise application of a reduction op on arrays of T.
template <typename T>
void apply_reduce(void* acc_v, const void* in_v, std::size_t count,
                  ReduceOp op) {
  T* acc = static_cast<T*>(acc_v);
  const T* in = static_cast<const T*>(in_v);
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < count; ++i) acc[i] = acc[i] + in[i];
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < count; ++i) acc[i] = in[i] < acc[i] ? in[i] : acc[i];
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < count; ++i) acc[i] = acc[i] < in[i] ? in[i] : acc[i];
      break;
    case ReduceOp::kProd:
      for (std::size_t i = 0; i < count; ++i) acc[i] = acc[i] * in[i];
      break;
    case ReduceOp::kLogicalAnd:
      for (std::size_t i = 0; i < count; ++i)
        acc[i] = static_cast<T>(acc[i] != T{} && in[i] != T{});
      break;
    case ReduceOp::kLogicalOr:
      for (std::size_t i = 0; i < count; ++i)
        acc[i] = static_cast<T>(acc[i] != T{} || in[i] != T{});
      break;
  }
}

}  // namespace detail

template <typename T>
void Comm::allreduce(std::span<const T> in, std::span<T> out, ReduceOp op) {
  static_assert(std::is_trivially_copyable_v<T>);
  HYMV_CHECK_MSG(in.size() == out.size(), "allreduce: size mismatch");
  if (in.data() != out.data()) {
    std::copy(in.begin(), in.end(), out.begin());
  }
  reduce_bytes_inplace(out.data(), out.size(), sizeof(T), op, /*root=*/0,
                       &detail::apply_reduce<T>);
  bcast(out, /*root=*/0);
}

template <typename T>
void Comm::allgather(std::span<const T> mine, std::span<T> all) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = size();
  HYMV_CHECK_MSG(all.size() == mine.size() * static_cast<std::size_t>(p),
                 "allgather: output size must be size() * input size");
  std::copy(mine.begin(), mine.end(),
            all.begin() + static_cast<std::ptrdiff_t>(mine.size()) * rank_);
  // Gather to root then broadcast; O(p) messages, simple and adequate for
  // the setup-phase uses in this library.
  constexpr int kTag = (1 << 28) + 3;
  if (rank_ == 0) {
    for (int r = 1; r < p; ++r) {
      recv(r, kTag, all.subspan(mine.size() * static_cast<std::size_t>(r),
                                mine.size()));
    }
  } else {
    send(0, kTag, std::span<const T>(mine));
  }
  bcast(all, /*root=*/0);
}

template <typename T>
std::vector<T> Comm::allgatherv(std::span<const T> mine,
                                std::vector<std::size_t>* counts) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = size();
  // Exchange sizes first.
  std::vector<std::uint64_t> sizes(static_cast<std::size_t>(p), 0);
  const std::uint64_t my_size = mine.size();
  allgather(std::span<const std::uint64_t>(&my_size, 1),
            std::span<std::uint64_t>(sizes));
  std::size_t total = 0;
  for (const auto s : sizes) total += s;
  std::vector<T> all(total);
  constexpr int kTag = (1 << 28) + 4;
  if (rank_ == 0) {
    std::size_t offset = 0;
    for (int r = 0; r < p; ++r) {
      const std::size_t n = sizes[static_cast<std::size_t>(r)];
      if (r == 0) {
        std::copy(mine.begin(), mine.end(), all.begin());
      } else if (n > 0) {
        recv(r, kTag, std::span<T>(all.data() + offset, n));
      }
      offset += n;
    }
  } else if (!mine.empty()) {
    send(0, kTag, std::span<const T>(mine));
  }
  bcast(std::span<T>(all), /*root=*/0);
  if (counts != nullptr) {
    counts->assign(sizes.begin(), sizes.end());
  }
  return all;
}

template <typename T>
std::vector<std::vector<T>> Comm::alltoallv(
    const std::vector<std::vector<T>>& send_bufs) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = size();
  HYMV_CHECK_MSG(static_cast<int>(send_bufs.size()) == p,
                 "alltoallv: need one send buffer per rank");
  constexpr int kSizeTag = (1 << 28) + 5;
  constexpr int kDataTag = (1 << 28) + 6;

  // Exchange sizes with nonblocking point-to-point (all pairs).
  std::vector<std::uint64_t> send_sizes(static_cast<std::size_t>(p));
  std::vector<std::uint64_t> recv_sizes(static_cast<std::size_t>(p));
  std::vector<Request> reqs;
  reqs.reserve(2 * static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    send_sizes[static_cast<std::size_t>(r)] =
        send_bufs[static_cast<std::size_t>(r)].size();
    reqs.push_back(irecv_bytes(r, kSizeTag,
                               &recv_sizes[static_cast<std::size_t>(r)],
                               sizeof(std::uint64_t)));
  }
  for (int r = 0; r < p; ++r) {
    reqs.push_back(isend_bytes(r, kSizeTag,
                               &send_sizes[static_cast<std::size_t>(r)],
                               sizeof(std::uint64_t)));
  }
  waitall(reqs);
  reqs.clear();

  std::vector<std::vector<T>> recv_bufs(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    recv_bufs[static_cast<std::size_t>(r)].resize(
        recv_sizes[static_cast<std::size_t>(r)]);
    if (recv_sizes[static_cast<std::size_t>(r)] > 0) {
      reqs.push_back(irecv(r, kDataTag,
                           std::span<T>(recv_bufs[static_cast<std::size_t>(r)])));
    }
  }
  for (int r = 0; r < p; ++r) {
    if (!send_bufs[static_cast<std::size_t>(r)].empty()) {
      reqs.push_back(isend(
          r, kDataTag,
          std::span<const T>(send_bufs[static_cast<std::size_t>(r)])));
    }
  }
  waitall(reqs);
  return recv_bufs;
}

template <typename T>
T Comm::exscan(T value, ReduceOp op) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = size();
  std::vector<T> all(static_cast<std::size_t>(p));
  allgather(std::span<const T>(&value, 1), std::span<T>(all));
  T acc{};
  bool first = true;
  for (int r = 0; r < rank_; ++r) {
    if (first) {
      acc = all[static_cast<std::size_t>(r)];
      first = false;
    } else {
      detail::apply_reduce<T>(&acc, &all[static_cast<std::size_t>(r)], 1, op);
    }
  }
  return acc;
}

}  // namespace simmpi
