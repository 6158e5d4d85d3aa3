#pragma once

/// \file schedule.hpp
/// Conflict-free element scheduling for the threaded EMV scatter-add.
///
/// The element-by-element SPMV's only shared-memory hazard is the
/// scatter-add of v_e into the v distributed array: two elements race iff
/// they share a node. Instead of per-thread accumulation buffers (whose
/// zero + collapse costs O(nthreads × da_size) per apply and reassociates
/// the sums), the ElementSchedule chops the element subset into contiguous
/// blocks — the unit of work a thread streams through, keeping the
/// element-matrix store access sequential — and greedily colors the BLOCK
/// conflict graph built from the E2L maps so that no two blocks of one
/// color touch a common node. OpenMP threads then scatter-add directly
/// into the shared v-DA, color by color, with no races, no per-thread
/// vectors, and no reduction pass.
///
/// Coloring whole blocks instead of single elements matters twice over:
/// the blocks preserve the store's streaming order (element-granular
/// colors would stride through it), and block conflict graphs of
/// bandwidth-ordered meshes are nearly chains, so a handful of colors —
/// i.e. barriers per apply — suffices where element coloring needs the
/// full node valence.
///
/// Elements inside one block may share nodes, but a block is executed by
/// exactly one thread in fixed ascending order; each DoF therefore
/// receives its per-color contributions from at most one block, in a
/// deterministic order — the result is bitwise identical for ANY thread
/// count (including the serial execution of the same color-major order).
///
/// Schedules are built per element *subset* (the independent and dependent
/// sets of DofMaps), so coloring composes with the paper's
/// communication/computation overlap unchanged.

#include <cstdint>
#include <span>
#include <vector>

#include "hymv/core/maps.hpp"

namespace hymv::core {

/// Strategy for the threaded element loop.
enum class ThreadSchedule : int {
  kSerial,   ///< plain element-order loop, never threaded
  kColored,  ///< conflict-free coloring, direct scatter-add (default)
};

/// Human-readable strategy name ("serial" / "colored").
[[nodiscard]] const char* to_string(ThreadSchedule schedule);

/// A conflict-free execution order for one subset of elements.
///
/// Elements are emitted color-major: order()[color_begin(c)..color_end(c))
/// holds color c's elements in ascending id order, grouped into the
/// blocks() work units. Within a color no two BLOCKS share a node, so
/// blocks may be processed concurrently in any order (each block runs on
/// one thread, in order); colors must be separated by a barrier.
class ElementSchedule {
 public:
  /// Elements per cache-friendly block (a block is the unit of work handed
  /// to a thread and the granularity of the coloring; within a block
  /// element ids ascend).
  static constexpr std::int64_t kDefaultBlockElems = 128;

  /// Contiguous range [begin, end) into order() forming one work block.
  struct Block {
    std::int64_t begin = 0;
    std::int64_t end = 0;
  };

  ElementSchedule() = default;

  /// Chop `elements` (a subset of maps' element ids, in subset order) into
  /// blocks of at most `block_elems` consecutive entries, then greedily
  /// color the blocks using node-sharing conflicts from the E2L map.
  ElementSchedule(const DofMaps& maps, std::span<const std::int64_t> elements,
                  std::int64_t block_elems = kDefaultBlockElems);

  [[nodiscard]] int num_colors() const {
    return static_cast<int>(color_offsets_.empty()
                                ? 0
                                : color_offsets_.size() - 1);
  }
  [[nodiscard]] std::int64_t num_elements() const {
    return static_cast<std::int64_t>(order_.size());
  }

  /// The full color-major element order (serial execution of this order is
  /// bitwise identical to any threaded execution of the schedule).
  [[nodiscard]] std::span<const std::int64_t> order() const { return order_; }

  /// Elements of color c, ascending ids.
  [[nodiscard]] std::span<const std::int64_t> color(int c) const {
    const auto b = static_cast<std::size_t>(color_offsets_[c]);
    const auto e = static_cast<std::size_t>(color_offsets_[c + 1]);
    return {order_.data() + b, e - b};
  }

  /// Work blocks of color c (ranges into order()).
  [[nodiscard]] std::span<const Block> blocks(int c) const {
    const auto b = static_cast<std::size_t>(block_offsets_[c]);
    const auto e = static_cast<std::size_t>(block_offsets_[c + 1]);
    return {blocks_.data() + b, e - b};
  }

  /// Size of the largest color (parallelism bound per barrier interval).
  [[nodiscard]] std::int64_t max_color_size() const;

 private:
  std::vector<std::int64_t> order_;          ///< color-major element ids
  std::vector<std::int64_t> color_offsets_;  ///< num_colors+1 into order_
  std::vector<Block> blocks_;                ///< all colors' blocks
  std::vector<std::int64_t> block_offsets_;  ///< num_colors+1 into blocks_
};

}  // namespace hymv::core
