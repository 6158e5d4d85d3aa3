#pragma once

/// \file ghost_exchange.hpp
/// Neighbor exchange of ghost values over a Layout — the communication
/// engine behind both the assembled-matrix SPMV (PETSc VecScatter
/// equivalent) and HYMV's LNSM/GNGM maps (paper §IV-D):
///
///   * forward  (scatter): owners send owned values needed as ghosts by
///     neighbors — the Local Node Scatter Map direction;
///   * reverse  (gather/accumulate): ghost contributions are sent back and
///     *summed* into the owners' entries — the Ghost Node Gather Map
///     direction used after element-vector accumulation.
///
/// Each direction is one begin/end pair, so callers can overlap
/// communication with computation (independent-element EMV, diag-block
/// SpMV), exactly as Algorithm 2 of the paper prescribes. Both pairs take a
/// lane width; a single vector is the width-1 panel.
/// An exchange runs the integrity protection of the job that built it
/// (simmpi::ExchangeProtection, off by default).

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "hymv/pla/comm_tags.hpp"
#include "hymv/pla/dist_vector.hpp"
#include "hymv/simmpi/simmpi.hpp"

namespace hymv::pla {

/// Communication plan for one set of ghost indices against one Layout.
/// Construction is collective over the communicator.
class GhostExchange {
 public:
  GhostExchange() = default;

  /// `ghosts` must be sorted, unique global ids NOT owned by this rank.
  /// Collective: every rank must construct with its own ghost list. The
  /// plan keeps comm.exchange_protection() for its lifetime.
  GhostExchange(simmpi::Comm& comm, const Layout& layout,
                std::vector<std::int64_t> ghosts);

  /// Ghost ids this plan serves (sorted).
  [[nodiscard]] const std::vector<std::int64_t>& ghost_ids() const {
    return ghosts_;
  }
  [[nodiscard]] std::int64_t num_ghosts() const {
    return static_cast<std::int64_t>(ghosts_.size());
  }

  // --- forward: owned → ghosts (LNSM direction) ---------------------------
  //
  // Both directions move lane-interleaved panels: a span holds `width`
  // values per DoF (lane j of DoF i at [i·width + j]), and a single vector
  // is the width-1 panel. Each neighbor gets exactly ONE message per
  // direction whatever the width, so the latency (message-count) cost of a
  // k-lane apply equals the single-vector cost and only the bandwidth term
  // scales with k.

  /// Start sending owned values neighbors need. `owned` holds this rank's
  /// owned block (layout-local), owned()·width values.
  void forward_begin(simmpi::Comm& comm, std::span<const double> owned,
                     int width = 1);
  /// Finish: afterwards ghost_values() holds num_ghosts()·width values,
  /// aligned with ghost_ids().
  void forward_end(simmpi::Comm& comm);
  [[nodiscard]] std::span<const double> ghost_values() const {
    return ghost_vals_;
  }

  // --- reverse: ghosts → owned, summed (GNGM direction) -------------------

  /// Start sending `ghost_contrib` (num_ghosts()·width, aligned with
  /// ghost_ids()) back to the owners.
  void reverse_begin(simmpi::Comm& comm, std::span<const double> ghost_contrib,
                     int width = 1);
  /// Finish: incoming contributions are *added* into `owned`
  /// (owned()·width values).
  void reverse_end(simmpi::Comm& comm, std::span<double> owned);

  /// Number of neighbor ranks this rank exchanges with.
  [[nodiscard]] int num_neighbors() const {
    return static_cast<int>(send_peers_.size() + recv_peers_.size());
  }

  // --- per-neighbor completion (task-graph apply) -------------------------
  //
  // Between forward_begin and forward_end, the task-graph apply retires
  // receives one neighbor at a time instead of barriering on the whole
  // exchange: each completed receive fills exactly the [ghost_offset,
  // ghost_offset + count) slice of the ghost array (times the width), so
  // the element blocks gated only by that peer can run immediately.

  /// Number of neighbor ranks this rank RECEIVES ghost values from.
  [[nodiscard]] int num_recv_peers() const {
    return static_cast<int>(recv_peers_.size());
  }
  /// First ghost-array index served by recv peer `i` (DoF units; a panel
  /// scales it by the width).
  [[nodiscard]] std::int64_t recv_peer_ghost_offset(int i) const {
    return recv_peers_[static_cast<std::size_t>(i)].ghost_offset;
  }
  /// Number of ghost DoFs served by recv peer `i`.
  [[nodiscard]] std::int64_t recv_peer_count(int i) const {
    return recv_peers_[static_cast<std::size_t>(i)].count;
  }
  /// True when the in-flight forward exchange can retire per neighbor. The
  /// checksummed protocol verifies and ACKs messages only inside
  /// forward_end, so the task-graph apply must fall back to two-phase when
  /// protection is armed.
  [[nodiscard]] bool supports_taskgraph() const { return !prot_.checksum; }
  /// Block until one more forward receive lands; returns its recv-peer
  /// index, or -1 when every forward receive has already been retired.
  /// Ghost data for that peer's slice is in place on return.
  int forward_complete_any(simmpi::Comm& comm);
  /// Nonblocking twin: recv-peer index of one newly completed forward
  /// receive, or -1 when none is ready right now.
  int forward_test_any(simmpi::Comm& comm);

  // --- integrity protection ----------------------------------------------

  /// Data retransmissions this plan performed (sender side).
  [[nodiscard]] std::int64_t resends() const { return resends_; }
  /// Checksum mismatches this plan detected (receiver side).
  [[nodiscard]] std::int64_t checksum_failures() const {
    return checksum_failures_;
  }
  /// Receive timeouts this plan recovered from via NACK (receiver side).
  [[nodiscard]] std::int64_t timeouts_recovered() const {
    return timeouts_recovered_;
  }

 private:
  /// One neighbor's share of the plan. For send_peers_, `owned_locals` are
  /// the owned-block indices packed for that peer (the LNSM rows) and `buf`
  /// stages them, or receives that peer's reverse contributions; for
  /// recv_peers_, [ghost_offset, ghost_offset + count) is the slice of the
  /// sorted ghost array owned by that peer.
  struct SendPeer {
    int rank = -1;
    std::vector<std::int64_t> owned_locals;
    std::vector<double> buf;
  };
  struct RecvPeer {
    int rank = -1;
    std::int64_t ghost_offset = 0;
    std::int64_t count = 0;
  };

  /// One protected incoming message: wire buffer (payload + trailer), the
  /// staging destination for the verified payload, and the posted request.
  struct ProtRecv {
    int peer = -1;
    std::vector<std::byte> wire;
    double* dst = nullptr;
    std::size_t count = 0;  ///< payload DoFs (times width_ doubles)
    simmpi::Request req;
  };
  /// One protected outgoing message, kept for retransmission.
  struct ProtSend {
    int peer = -1;
    std::vector<std::byte> wire;
  };

  /// Protected begin: callers fill prot_recvs_ (peer, dst, count) and
  /// prot_sends_ (peer, wire = raw payload bytes); this appends the
  /// {epoch, checksum} trailer to each send, sizes the receive wires, and
  /// posts everything on `data_tag`.
  void protected_begin(simmpi::Comm& comm, int data_tag);
  /// Protected end: verify/ACK/NACK protocol with bounded retries; on
  /// return every ProtRecv's payload has been copied (verified) into dst.
  void protected_end(simmpi::Comm& comm, int data_tag);
  /// Check and record the width of an exchange about to start.
  void begin_exchange(const char* what, std::int64_t values,
                      std::int64_t per_lane, int width);

  Layout layout_;
  std::vector<std::int64_t> ghosts_;
  std::vector<double> ghost_vals_;  ///< num_ghosts()·width, last forward
  int width_ = 1;                   ///< width of the in-flight exchange
  std::vector<SendPeer> send_peers_;
  std::vector<RecvPeer> recv_peers_;
  /// Forward receives, parallel to recv_peers_ (entry i completes peer i's
  /// ghost slice); consumed entries are null. Kept separate from the send
  /// requests so forward_complete_any can waitany over receives alone.
  std::vector<simmpi::Request> recv_reqs_;
  std::vector<simmpi::Request> pending_;  ///< sends + reverse receives
  simmpi::ExchangeProtection prot_{};
  /// Per-data-stream protected-phase counters (stale-dup filter), indexed
  /// by tags::data_stream_index. One shared counter was an epoch-aliasing
  /// hazard: a stream's epoch sequence depended on how the other stream
  /// interleaved, so a stale retransmission on one stream could carry the
  /// epoch the other happened to be on.
  std::array<std::uint64_t, tags::kNumDataStreams> epochs_{};
  /// Widest width each data stream has carried protected, indexed like
  /// epochs_. Protected receives are sized for it, so a stale
  /// retransmission of a wider message than the current one is received
  /// and discarded instead of overflowing the posted buffer.
  std::array<int, tags::kNumDataStreams> widest_{};
  std::int64_t resends_ = 0;
  std::int64_t checksum_failures_ = 0;
  std::int64_t timeouts_recovered_ = 0;
  std::vector<ProtRecv> prot_recvs_;
  std::vector<ProtSend> prot_sends_;
};

}  // namespace hymv::pla
