#pragma once

/// \file taskgraph.hpp
/// Dependency-driven traversal of the DEPENDENT element schedule — the
/// latency half of the alpha-beta model (ROADMAP open item 4).
///
/// The two-phase apply pays every neighbor's latency at one barrier: it
/// cannot touch ANY dependent element until the LAST ghost message has
/// arrived. The task graph removes that barrier. At setup it records, for
/// every block of every color of the dependent schedule, which recv peers
/// gate it (the peers owning the ghost DoFs its elements read). At apply
/// time each per-neighbor ghost completion (GhostExchange::
/// forward_complete_any / forward_test_any on the tagged recv machinery)
/// unlocks only the blocks that peer gates, tracked with per-block atomic
/// dependency counters — blocks gated by the fast neighbors run while the
/// slow neighbor's message is still in flight.
///
/// Determinism argument (why out-of-order unlock is still bitwise
/// reproducible): the traversal preserves the colored schedule's color
/// fences — color c+1 starts only after every block of color c ran — and
/// only reorders blocks WITHIN a color. The coloring invariant (schedule.
/// hpp) says no two blocks of one color share a node, so each DoF receives
/// its per-color contributions from at most one block, executed by one
/// thread in fixed ascending element order; within-color block order is
/// therefore immaterial to the floating-point result, for any thread count.
/// Ready batches are additionally sorted (fixed unlock order) so even the
/// dispatch sequence is deterministic given arrival order.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "hymv/core/maps.hpp"
#include "hymv/core/schedule.hpp"
#include "hymv/pla/ghost_exchange.hpp"
#include "hymv/simmpi/simmpi.hpp"

namespace hymv::core {

/// Peer-gating structure of one dependent ElementSchedule, built once at
/// operator setup and reused every apply.
class ApplyTaskGraph {
 public:
  /// What one traversal did, for the apply breakdown metrics.
  struct RunStats {
    double wait_s = 0.0;       ///< wall time blocked on neighbor messages
    std::int64_t unlocks = 0;  ///< per-neighbor completions processed
  };

  ApplyTaskGraph() = default;

  /// Record, for every block of `dep_sched`, the distinct recv peers whose
  /// ghost slices its elements read (via the E2L map and the exchange's
  /// per-peer ghost ranges).
  ApplyTaskGraph(const DofMaps& maps, const ElementSchedule& dep_sched);

  /// Traverse the dependent schedule against the forward exchange the
  /// caller started with forward_begin (the caller still calls forward_end
  /// afterwards to retire the sends).
  ///
  /// `run_blocks(color, ready)` executes the given blocks of `color`
  /// (indices into dep_sched.blocks(color)); within one call the blocks are
  /// conflict-free, so the callback may run them on any threads in any
  /// order. `load_peer(i)` copies recv peer i's freshly arrived ghost slice
  /// into the caller's distributed array; it is invoked exactly once per
  /// peer, always before any block that peer gates is passed to
  /// `run_blocks`.
  RunStats run(
      simmpi::Comm& comm, pla::GhostExchange& exchange,
      const std::function<void(int, std::span<const std::int32_t>)>& run_blocks,
      const std::function<void(int)>& load_peer) const;

  [[nodiscard]] int num_colors() const {
    return static_cast<int>(block_peers_.size());
  }

 private:
  int num_peers_ = 0;
  /// [color][block] -> sorted distinct recv-peer indices gating the block.
  std::vector<std::vector<std::vector<std::int32_t>>> block_peers_;
  /// [color][peer] -> blocks the peer gates (inverse of block_peers_).
  std::vector<std::vector<std::vector<std::int32_t>>> peer_blocks_;
};

}  // namespace hymv::core
