#include "hymv/core/schedule.hpp"

#include <algorithm>

#include "hymv/common/error.hpp"

namespace hymv::core {

const char* to_string(ThreadSchedule schedule) {
  switch (schedule) {
    case ThreadSchedule::kSerial:
      return "serial";
    case ThreadSchedule::kColored:
      return "colored";
  }
  return "unknown";
}

ElementSchedule::ElementSchedule(const DofMaps& maps,
                                 std::span<const std::int64_t> elements,
                                 std::int64_t block_elems) {
  HYMV_CHECK_MSG(block_elems > 0, "ElementSchedule: block_elems must be > 0");
  const auto ne = static_cast<std::int64_t>(elements.size());
  if (ne == 0) {
    color_offsets_ = {0};
    block_offsets_ = {0};
    return;
  }

  // Two blocks conflict iff any of their elements share a node. The E2L
  // map stores DoF indices with a node's components contiguous, the DA
  // prefix/suffix hold whole ghost nodes, and the owned range starts at a
  // node boundary — so e2l[component-0 slot] / ndof is a unique DA-local
  // *node* id.
  const int ndof = maps.ndof_per_node();
  const int ndofs_per_elem = maps.ndofs_per_elem();
  const std::int64_t n_nodes = maps.da_size() / ndof;
  const int nodes_per_elem = ndofs_per_elem / ndof;

  const auto node_of = [&](std::int64_t e, int k) {
    return maps.e2l(e)[static_cast<std::size_t>(k * ndof)] / ndof;
  };

  // Blocks are consecutive runs of the subset list, so the coloring
  // granularity IS the streaming unit — a thread works through one block's
  // element matrices in store order.
  const std::int64_t nb = (ne + block_elems - 1) / block_elems;
  const auto block_of = [&](std::int64_t i) { return i / block_elems; };

  // Node → block adjacency (CSR, duplicates kept), for the conflict scan.
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(n_nodes) + 1, 0);
  for (const std::int64_t e : elements) {
    for (int k = 0; k < nodes_per_elem; ++k) {
      ++offsets[static_cast<std::size_t>(node_of(e, k)) + 1];
    }
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }
  std::vector<std::int64_t> adj(static_cast<std::size_t>(offsets.back()));
  {
    std::vector<std::int64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::int64_t i = 0; i < ne; ++i) {
      const std::int64_t e = elements[static_cast<std::size_t>(i)];
      for (int k = 0; k < nodes_per_elem; ++k) {
        const auto node = static_cast<std::size_t>(node_of(e, k));
        adj[static_cast<std::size_t>(cursor[node]++)] = block_of(i);
      }
    }
  }

  // Greedy first-fit coloring in block order: for each block, stamp the
  // colors of already-colored blocks sharing any of its nodes and take the
  // smallest unstamped color. Bounded by the max block-node valence, so a
  // stamp array sized by the running color count suffices.
  std::vector<int> color(static_cast<std::size_t>(nb), -1);
  std::vector<std::int64_t> stamp;  // stamp[c] == b ⇒ color c is taken
  int num_colors = 0;
  for (std::int64_t b = 0; b < nb; ++b) {
    const std::int64_t lo = b * block_elems;
    const std::int64_t hi = std::min(lo + block_elems, ne);
    for (std::int64_t i = lo; i < hi; ++i) {
      const std::int64_t e = elements[static_cast<std::size_t>(i)];
      for (int k = 0; k < nodes_per_elem; ++k) {
        const auto node = static_cast<std::size_t>(node_of(e, k));
        for (std::int64_t a = offsets[node]; a < offsets[node + 1]; ++a) {
          const int c =
              color[static_cast<std::size_t>(adj[static_cast<std::size_t>(a)])];
          if (c >= 0) {
            stamp[static_cast<std::size_t>(c)] = b;
          }
        }
      }
    }
    int c = 0;
    while (c < num_colors && stamp[static_cast<std::size_t>(c)] == b) {
      ++c;
    }
    if (c == num_colors) {
      ++num_colors;
      stamp.push_back(-1);
    }
    color[static_cast<std::size_t>(b)] = c;
  }

  // Emit color-major: blocks bucketed by color (ascending block order per
  // color, so a color's element ids still ascend), elements in subset
  // order within each block.
  color_offsets_.assign(static_cast<std::size_t>(num_colors) + 1, 0);
  block_offsets_.assign(static_cast<std::size_t>(num_colors) + 1, 0);
  order_.reserve(static_cast<std::size_t>(ne));
  for (int c = 0; c < num_colors; ++c) {
    for (std::int64_t b = 0; b < nb; ++b) {
      if (color[static_cast<std::size_t>(b)] != c) {
        continue;
      }
      const std::int64_t lo = b * block_elems;
      const std::int64_t hi = std::min(lo + block_elems, ne);
      blocks_.push_back({static_cast<std::int64_t>(order_.size()),
                         static_cast<std::int64_t>(order_.size()) + hi - lo});
      for (std::int64_t i = lo; i < hi; ++i) {
        order_.push_back(elements[static_cast<std::size_t>(i)]);
      }
    }
    color_offsets_[static_cast<std::size_t>(c) + 1] =
        static_cast<std::int64_t>(order_.size());
    block_offsets_[static_cast<std::size_t>(c) + 1] =
        static_cast<std::int64_t>(blocks_.size());
  }
}

std::int64_t ElementSchedule::max_color_size() const {
  std::int64_t largest = 0;
  for (int c = 0; c < num_colors(); ++c) {
    largest = std::max(largest,
                       static_cast<std::int64_t>(color(c).size()));
  }
  return largest;
}

}  // namespace hymv::core
