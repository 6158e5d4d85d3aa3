#include "hymv/core/taskgraph.hpp"

#include <algorithm>
#include <atomic>

#include "hymv/common/error.hpp"
#include "hymv/common/timer.hpp"
#include "hymv/obs/trace.hpp"

namespace hymv::core {

ApplyTaskGraph::ApplyTaskGraph(const DofMaps& maps,
                               const ElementSchedule& dep_sched) {
  const pla::GhostExchange& ex = maps.exchange();
  num_peers_ = ex.num_recv_peers();
  const std::int64_t n_pre = maps.n_pre();
  const std::int64_t n_owned = maps.n_owned();

  // Recv peer i serves the contiguous ghost-index run
  // [peer_begin[i], peer_begin[i+1]) of the sorted ghost array.
  std::vector<std::int64_t> peer_begin(
      static_cast<std::size_t>(num_peers_) + 1, 0);
  for (int i = 0; i < num_peers_; ++i) {
    peer_begin[static_cast<std::size_t>(i)] = ex.recv_peer_ghost_offset(i);
  }
  peer_begin[static_cast<std::size_t>(num_peers_)] =
      num_peers_ > 0 ? ex.recv_peer_ghost_offset(num_peers_ - 1) +
                           ex.recv_peer_count(num_peers_ - 1)
                     : 0;

  const auto peer_of_ghost = [&](std::int64_t gi) -> std::int32_t {
    const auto it =
        std::upper_bound(peer_begin.begin(), peer_begin.end(), gi);
    return static_cast<std::int32_t>(it - peer_begin.begin()) - 1;
  };

  const int ncolors = dep_sched.num_colors();
  block_peers_.resize(static_cast<std::size_t>(ncolors));
  peer_blocks_.resize(static_cast<std::size_t>(ncolors));
  const std::span<const std::int64_t> order = dep_sched.order();
  std::vector<std::int32_t> seen(static_cast<std::size_t>(num_peers_), -1);
  std::int32_t stamp = -1;
  for (int c = 0; c < ncolors; ++c) {
    const std::span<const ElementSchedule::Block> blocks = dep_sched.blocks(c);
    auto& bp = block_peers_[static_cast<std::size_t>(c)];
    auto& pb = peer_blocks_[static_cast<std::size_t>(c)];
    bp.resize(blocks.size());
    pb.resize(static_cast<std::size_t>(num_peers_));
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      ++stamp;
      for (std::int64_t k = blocks[b].begin; k < blocks[b].end; ++k) {
        for (const std::int64_t da_idx :
             maps.e2l(order[static_cast<std::size_t>(k)])) {
          std::int64_t gi;
          if (da_idx < n_pre) {
            gi = da_idx;  // pre-ghost prefix
          } else if (da_idx >= n_pre + n_owned) {
            gi = da_idx - n_owned;  // post-ghost suffix
          } else {
            continue;  // owned DoF, no gate
          }
          const std::int32_t peer = peer_of_ghost(gi);
          if (seen[static_cast<std::size_t>(peer)] != stamp) {
            seen[static_cast<std::size_t>(peer)] = stamp;
            bp[b].push_back(peer);
            pb[static_cast<std::size_t>(peer)].push_back(
                static_cast<std::int32_t>(b));
          }
        }
      }
      std::sort(bp[b].begin(), bp[b].end());
    }
  }
}

ApplyTaskGraph::RunStats ApplyTaskGraph::run(
    simmpi::Comm& comm, pla::GhostExchange& exchange,
    const std::function<void(int, std::span<const std::int32_t>)>& run_blocks,
    const std::function<void(int)>& load_peer) const {
  HYMV_TRACE_SCOPE("taskgraph.run", "apply");
  RunStats stats;
  // A peer's message, once landed, stays landed: arrival state persists
  // across the color fences of one traversal.
  std::vector<unsigned char> arrived(static_cast<std::size_t>(num_peers_), 0);
  const int ncolors = num_colors();
  std::vector<std::int32_t> ready;
  for (int c = 0; c < ncolors; ++c) {
    const auto& bp = block_peers_[static_cast<std::size_t>(c)];
    const auto& pb = peer_blocks_[static_cast<std::size_t>(c)];
    const std::size_t nb = bp.size();
    // Per-block counters of not-yet-arrived gating peers. The orchestration
    // loop below is single-threaded (worker threads live inside
    // run_blocks), but the counters are atomics so a future concurrent
    // drain cannot introduce a lost decrement.
    std::vector<std::atomic<std::int32_t>> deps(nb);
    ready.clear();
    for (std::size_t b = 0; b < nb; ++b) {
      std::int32_t missing = 0;
      for (const std::int32_t peer : bp[b]) {
        missing += arrived[static_cast<std::size_t>(peer)] ? 0 : 1;
      }
      deps[b].store(missing, std::memory_order_relaxed);
      if (missing == 0) {
        ready.push_back(static_cast<std::int32_t>(b));
      }
    }
    const auto unlock_peer = [&](int peer) {
      load_peer(peer);
      arrived[static_cast<std::size_t>(peer)] = 1;
      ++stats.unlocks;
      HYMV_TRACE_INSTANT("taskgraph.unlock", "apply");
      for (const std::int32_t b : pb[static_cast<std::size_t>(peer)]) {
        if (deps[static_cast<std::size_t>(b)].fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          ready.push_back(b);
        }
      }
    };
    std::size_t done = 0;
    while (done < nb) {
      // Drain whatever already landed so freshly unlocked blocks join the
      // batch before we commit to running it.
      for (;;) {
        const int peer = exchange.forward_test_any(comm);
        if (peer < 0) {
          break;
        }
        unlock_peer(peer);
      }
      if (!ready.empty()) {
        // Fixed unlock order: sorting the batch makes the dispatch sequence
        // deterministic given arrival order (and the coloring invariant
        // makes the RESULT independent even of arrival order).
        std::sort(ready.begin(), ready.end());
        run_blocks(c, ready);
        done += ready.size();
        ready.clear();
        continue;
      }
      // Nothing runnable: block until one more neighbor lands.
      hymv::Timer wait_timer;
      int peer;
      {
        HYMV_TRACE_SCOPE("taskgraph.wait", "apply");
        peer = exchange.forward_complete_any(comm);
      }
      stats.wait_s += wait_timer.elapsed_s();
      // Every gating peer eventually arrives and unlocks its blocks, so a
      // starved color with no outstanding receives is an invariant breach.
      HYMV_CHECK_MSG(peer >= 0,
                     "ApplyTaskGraph: blocked with no outstanding receives");
      unlock_peer(peer);
    }
  }
  return stats;
}

}  // namespace hymv::core
