#include "hymv/pla/ghost_exchange.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "hymv/common/error.hpp"
#include "hymv/common/hash.hpp"
#include "hymv/obs/metrics.hpp"
#include "hymv/obs/trace.hpp"

namespace hymv::pla {

namespace {

/// Wire trailer of a protected data message: {epoch, checksum}, appended
/// after the payload so a bit-flip anywhere in the message is detected.
constexpr std::size_t kTrailerBytes = 16;

/// Checksum of payload ‖ epoch — folding the epoch in means a trailer whose
/// epoch bits were flipped also fails verification.
std::uint64_t wire_checksum(const std::byte* payload, std::size_t bytes,
                            std::uint64_t epoch) {
  return fnv1a(&epoch, sizeof epoch, fnv1a(payload, bytes));
}

void append_trailer(std::vector<std::byte>& wire, std::uint64_t epoch) {
  const std::size_t payload = wire.size();
  const std::uint64_t csum = wire_checksum(wire.data(), payload, epoch);
  wire.resize(payload + kTrailerBytes);
  std::memcpy(wire.data() + payload, &epoch, 8);
  std::memcpy(wire.data() + payload + 8, &csum, 8);
}
}  // namespace

GhostExchange::GhostExchange(simmpi::Comm& comm, const Layout& layout,
                             std::vector<std::int64_t> ghosts)
    : layout_(layout),
      ghosts_(std::move(ghosts)),
      prot_(comm.exchange_protection()) {
  HYMV_CHECK_MSG(std::is_sorted(ghosts_.begin(), ghosts_.end()),
                 "GhostExchange: ghost ids must be sorted");
  for (std::size_t i = 0; i + 1 < ghosts_.size(); ++i) {
    HYMV_CHECK_MSG(ghosts_[i] != ghosts_[i + 1],
                   "GhostExchange: duplicate ghost id");
  }
  for (const std::int64_t g : ghosts_) {
    HYMV_CHECK_MSG(g < layout_.begin || g >= layout_.end_excl,
                   "GhostExchange: ghost id is owned by this rank");
  }
  ghost_vals_.assign(ghosts_.size(), 0.0);

  const std::vector<std::int64_t> offsets =
      Layout::gather_offsets(comm, layout_);
  const int p = comm.size();

  // Group the sorted ghosts into per-owner runs → recv peers.
  {
    std::size_t i = 0;
    while (i < ghosts_.size()) {
      const int owner = owner_of(offsets, ghosts_[i]);
      std::size_t j = i;
      while (j < ghosts_.size() && owner_of(offsets, ghosts_[j]) == owner) {
        ++j;
      }
      RecvPeer peer;
      peer.rank = owner;
      peer.ghost_offset = static_cast<std::int64_t>(i);
      peer.count = static_cast<std::int64_t>(j - i);
      recv_peers_.push_back(peer);
      i = j;
    }
  }

  // Tell each owner which of its ids we need (alltoallv), producing the
  // send side of the plan on the owners.
  std::vector<std::vector<std::int64_t>> requests(static_cast<std::size_t>(p));
  for (const RecvPeer& peer : recv_peers_) {
    auto& req = requests[static_cast<std::size_t>(peer.rank)];
    req.assign(ghosts_.begin() + peer.ghost_offset,
               ghosts_.begin() + peer.ghost_offset + peer.count);
  }
  const auto wanted = comm.alltoallv(requests);
  for (int r = 0; r < p; ++r) {
    const auto& ids = wanted[static_cast<std::size_t>(r)];
    if (ids.empty()) {
      continue;
    }
    SendPeer peer;
    peer.rank = r;
    peer.owned_locals.reserve(ids.size());
    for (const std::int64_t g : ids) {
      HYMV_CHECK_MSG(g >= layout_.begin && g < layout_.end_excl,
                     "GhostExchange: peer requested an id we do not own");
      peer.owned_locals.push_back(g - layout_.begin);
    }
    send_peers_.push_back(std::move(peer));
  }
}

void GhostExchange::protected_begin(simmpi::Comm& comm, int data_tag) {
  // Each data stream advances its OWN epoch: with one shared counter a
  // stream's epoch sequence depended on the interleaving of the other
  // stream, so a stale retransmission could alias a live epoch.
  const auto stream =
      static_cast<std::size_t>(tags::data_stream_index(data_tag));
  const std::uint64_t epoch = ++epochs_[stream];
  widest_[stream] = std::max(widest_[stream], width_);
  for (ProtRecv& r : prot_recvs_) {
    r.wire.resize(r.count * static_cast<std::size_t>(widest_[stream]) *
                      sizeof(double) +
                  kTrailerBytes);
    r.req = comm.irecv_bytes(r.peer, data_tag, r.wire.data(), r.wire.size());
  }
  for (ProtSend& s : prot_sends_) {
    append_trailer(s.wire, epoch);
    comm.isend_bytes(s.peer, data_tag, s.wire.data(), s.wire.size());
  }
}

void GhostExchange::protected_end(simmpi::Comm& comm, int data_tag) {
  constexpr std::byte kAck{0};
  constexpr std::byte kNack{1};
  const int ctrl_tag = tags::ctrl_tag_of(data_tag);
  const std::uint64_t cur_epoch =
      epochs_[static_cast<std::size_t>(tags::data_stream_index(data_tag))];
  // Event loop over all pending receives and unacknowledged sends. The
  // sender side must be serviced while our own receives are still pending:
  // a NACK has to trigger the retransmit even when this rank is itself
  // waiting on a dropped message, or two mutually-dropped links would
  // starve each other into timeouts.
  const double slice_s = std::max(prot_.recv_timeout_s / 4.0, 1e-3);
  const double ack_budget_s =
      prot_.recv_timeout_s * static_cast<double>(prot_.max_retries + 3);

  struct RecvState {
    bool done = false;
    int attempts = 0;
    double waited_s = 0.0;
  };
  struct SendState {
    bool acked = false;
    int attempts = 0;
    double waited_s = 0.0;
    std::byte verdict{};
    simmpi::Request ctrl;
  };
  std::vector<RecvState> rstate(prot_recvs_.size());
  std::vector<SendState> sstate(prot_sends_.size());
  for (std::size_t i = 0; i < prot_sends_.size(); ++i) {
    sstate[i].ctrl = comm.irecv_bytes(prot_sends_[i].peer, ctrl_tag,
                                      &sstate[i].verdict, 1);
  }

  std::size_t open = prot_recvs_.size() + prot_sends_.size();
  while (open > 0) {
    // --- sender side: consume verdicts, retransmit on NACK --------------
    for (std::size_t i = 0; i < prot_sends_.size(); ++i) {
      ProtSend& s = prot_sends_[i];
      SendState& st = sstate[i];
      if (st.acked || !comm.test(st.ctrl)) {
        continue;
      }
      comm.wait(st.ctrl);  // completed — consume the request
      if (st.verdict == kAck) {
        st.acked = true;
        --open;
        continue;
      }
      if (st.attempts >= prot_.max_retries) {
        throw hymv::IntegrityError(
            "GhostExchange: rank " + std::to_string(s.peer) +
            " still rejects the message after " +
            std::to_string(prot_.max_retries) + " retransmissions");
      }
      ++st.attempts;
      comm.isend_bytes(s.peer, data_tag, s.wire.data(), s.wire.size());
      ++resends_;
      comm.add_resent();
      comm.metrics().counter("exchange.resends").inc();
      HYMV_TRACE_INSTANT("exchange.retransmit", "exchange");
      st.waited_s = 0.0;
      st.ctrl = comm.irecv_bytes(s.peer, ctrl_tag, &st.verdict, 1);
    }

    // --- receiver side: bounded waits, verify, ACK/NACK -----------------
    bool waited = false;
    for (std::size_t i = 0; i < prot_recvs_.size(); ++i) {
      ProtRecv& r = prot_recvs_[i];
      RecvState& st = rstate[i];
      if (st.done) {
        continue;
      }
      simmpi::Status status;
      if (!comm.wait_for(r.req, slice_s, &status)) {
        waited = true;
        st.waited_s += slice_s;
        if (st.waited_s >= prot_.recv_timeout_s) {
          if (st.attempts >= prot_.max_retries) {
            throw hymv::TimeoutError(
                "GhostExchange: no data from rank " + std::to_string(r.peer) +
                " after " + std::to_string(prot_.max_retries + 1) +
                " bounded waits (message dropped?)");
          }
          ++st.attempts;
          ++timeouts_recovered_;
          comm.metrics().counter("exchange.timeouts_recovered").inc();
          HYMV_TRACE_INSTANT("exchange.nack_timeout", "exchange");
          comm.isend_bytes(r.peer, ctrl_tag, &kNack, 1);
          st.waited_s = 0.0;
        }
        continue;
      }
      const std::size_t payload =
          r.count * static_cast<std::size_t>(width_) * sizeof(double);
      if (status.bytes != payload + kTrailerBytes) {
        // Wrong size: a stale duplicate from an earlier phase of a
        // different width. Discard and repost — no attempt charged.
        r.req =
            comm.irecv_bytes(r.peer, data_tag, r.wire.data(), r.wire.size());
        continue;
      }
      std::uint64_t epoch = 0;
      std::uint64_t csum = 0;
      std::memcpy(&epoch, r.wire.data() + payload, 8);
      std::memcpy(&csum, r.wire.data() + payload + 8, 8);
      if (epoch != cur_epoch) {
        // Stale duplicate (late retransmit of an earlier phase): discard.
        r.req =
            comm.irecv_bytes(r.peer, data_tag, r.wire.data(), r.wire.size());
        continue;
      }
      if (csum != wire_checksum(r.wire.data(), payload, cur_epoch)) {
        ++checksum_failures_;
        comm.metrics().counter("exchange.checksum_failures").inc();
        HYMV_TRACE_INSTANT("exchange.checksum_fail", "exchange");
        if (st.attempts >= prot_.max_retries) {
          throw hymv::IntegrityError(
              "GhostExchange: checksum mismatch from rank " +
              std::to_string(r.peer) + " persists after " +
              std::to_string(prot_.max_retries) + " retransmissions");
        }
        ++st.attempts;
        comm.isend_bytes(r.peer, ctrl_tag, &kNack, 1);
        r.req =
            comm.irecv_bytes(r.peer, data_tag, r.wire.data(), r.wire.size());
        st.waited_s = 0.0;
        continue;
      }
      comm.isend_bytes(r.peer, ctrl_tag, &kAck, 1);
      std::memcpy(r.dst, r.wire.data(), payload);
      st.done = true;
      --open;
    }

    // Only unacknowledged sends left this round: block briefly on one ctrl
    // request so the loop never spins hot, with an overall deadline.
    if (!waited) {
      for (std::size_t i = 0; i < prot_sends_.size(); ++i) {
        SendState& st = sstate[i];
        if (st.acked) {
          continue;
        }
        if (!comm.wait_for(st.ctrl, slice_s)) {
          st.waited_s += slice_s;
          if (st.waited_s > ack_budget_s) {
            throw hymv::TimeoutError(
                "GhostExchange: no acknowledgement from rank " +
                std::to_string(prot_sends_[i].peer) +
                " (control message lost?)");
          }
        }
        break;  // completion (request consumed) is handled at the loop top
      }
    }
  }
  prot_recvs_.clear();
  prot_sends_.clear();
}

void GhostExchange::begin_exchange(const char* what, std::int64_t values,
                                   std::int64_t per_lane, int width) {
  HYMV_CHECK_MSG(width >= 1, std::string(what) + ": width must be positive");
  HYMV_CHECK_MSG(values == per_lane * width,
                 std::string(what) + ": span size mismatch");
  HYMV_CHECK_MSG(pending_.empty() && recv_reqs_.empty(),
                 std::string(what) + ": previous exchange still in flight");
  width_ = width;
}

void GhostExchange::forward_begin(simmpi::Comm& comm,
                                  std::span<const double> owned, int width) {
  HYMV_TRACE_SCOPE("exchange.forward_begin", "exchange");
  begin_exchange("forward_begin", static_cast<std::int64_t>(owned.size()),
                 layout_.owned(), width);
  const auto w = static_cast<std::size_t>(width);
  ghost_vals_.resize(ghosts_.size() * w);
  const auto ghost_slice = [&](const RecvPeer& peer) {
    return std::span<double>(ghost_vals_).subspan(
        static_cast<std::size_t>(peer.ghost_offset) * w,
        static_cast<std::size_t>(peer.count) * w);
  };
  // Pack one peer's rows into `out`, width values per DoF: one message per
  // neighbor.
  const auto pack = [&](const SendPeer& peer, double* out) {
    for (std::size_t i = 0; i < peer.owned_locals.size(); ++i) {
      const auto src = static_cast<std::size_t>(peer.owned_locals[i]) * w;
      for (std::size_t j = 0; j < w; ++j) {
        out[i * w + j] = owned[src + j];
      }
    }
  };
  if (prot_.checksum) {
    for (const RecvPeer& peer : recv_peers_) {
      ProtRecv r;
      r.peer = peer.rank;
      r.dst = ghost_slice(peer).data();
      r.count = static_cast<std::size_t>(peer.count);
      prot_recvs_.push_back(std::move(r));
    }
    for (const SendPeer& peer : send_peers_) {
      ProtSend s;
      s.peer = peer.rank;
      s.wire.resize(peer.owned_locals.size() * w * sizeof(double));
      pack(peer, reinterpret_cast<double*>(s.wire.data()));
      prot_sends_.push_back(std::move(s));
    }
    protected_begin(comm, tags::kForward);
    return;
  }
  // Post receives into slices of the ghost array, tracked per peer so the
  // task-graph apply can retire them one neighbor at a time.
  for (const RecvPeer& peer : recv_peers_) {
    recv_reqs_.push_back(
        comm.irecv(peer.rank, tags::kForward, ghost_slice(peer)));
  }
  for (SendPeer& peer : send_peers_) {
    peer.buf.resize(peer.owned_locals.size() * w);
    pack(peer, peer.buf.data());
    pending_.push_back(comm.isend(peer.rank, tags::kForward,
                                  std::span<const double>(peer.buf)));
  }
}

void GhostExchange::forward_end(simmpi::Comm& comm) {
  HYMV_TRACE_SCOPE("exchange.forward_end", "exchange");
  if (prot_.checksum) {
    protected_end(comm, tags::kForward);
    return;
  }
  // Receives already retired by forward_complete_any are null; wait() on a
  // null request returns immediately, so waitall covers both paths.
  comm.waitall(recv_reqs_);
  recv_reqs_.clear();
  comm.waitall(pending_);
  pending_.clear();
}

int GhostExchange::forward_complete_any(simmpi::Comm& comm) {
  return comm.waitany(recv_reqs_);
}

int GhostExchange::forward_test_any(simmpi::Comm& comm) {
  return comm.testany(recv_reqs_);
}

void GhostExchange::reverse_begin(simmpi::Comm& comm,
                                  std::span<const double> ghost_contrib,
                                  int width) {
  HYMV_TRACE_SCOPE("exchange.reverse_begin", "exchange");
  begin_exchange("reverse_begin",
                 static_cast<std::int64_t>(ghost_contrib.size()),
                 num_ghosts(), width);
  const auto w = static_cast<std::size_t>(width);
  // Receives land in the send peers' buffers (roles are mirrored); the
  // contributions are scatter-added in reverse_end.
  for (SendPeer& peer : send_peers_) {
    peer.buf.resize(peer.owned_locals.size() * w);
  }
  const auto contrib_of = [&](const RecvPeer& peer) {
    return ghost_contrib.subspan(
        static_cast<std::size_t>(peer.ghost_offset) * w,
        static_cast<std::size_t>(peer.count) * w);
  };
  if (prot_.checksum) {
    for (SendPeer& peer : send_peers_) {
      ProtRecv r;
      r.peer = peer.rank;
      r.dst = peer.buf.data();
      r.count = peer.owned_locals.size();
      prot_recvs_.push_back(std::move(r));
    }
    for (const RecvPeer& peer : recv_peers_) {
      const std::span<const double> contrib = contrib_of(peer);
      ProtSend s;
      s.peer = peer.rank;
      s.wire.resize(contrib.size_bytes());
      std::memcpy(s.wire.data(), contrib.data(), contrib.size_bytes());
      prot_sends_.push_back(std::move(s));
    }
    protected_begin(comm, tags::kReverse);
    return;
  }
  for (SendPeer& peer : send_peers_) {
    pending_.push_back(
        comm.irecv(peer.rank, tags::kReverse, std::span<double>(peer.buf)));
  }
  for (const RecvPeer& peer : recv_peers_) {
    pending_.push_back(comm.isend(peer.rank, tags::kReverse, contrib_of(peer)));
  }
}

void GhostExchange::reverse_end(simmpi::Comm& comm, std::span<double> owned) {
  HYMV_TRACE_SCOPE("exchange.reverse_end", "exchange");
  HYMV_CHECK_MSG(static_cast<std::int64_t>(owned.size()) ==
                     layout_.owned() * width_,
                 "reverse_end: owned span size mismatch");
  if (prot_.checksum) {
    protected_end(comm, tags::kReverse);
  } else {
    comm.waitall(pending_);
    pending_.clear();
  }
  const auto w = static_cast<std::size_t>(width_);
  for (const SendPeer& peer : send_peers_) {
    for (std::size_t i = 0; i < peer.owned_locals.size(); ++i) {
      const auto dst = static_cast<std::size_t>(peer.owned_locals[i]) * w;
      for (std::size_t j = 0; j < w; ++j) {
        owned[dst + j] += peer.buf[i * w + j];
      }
    }
  }
}

}  // namespace hymv::pla
