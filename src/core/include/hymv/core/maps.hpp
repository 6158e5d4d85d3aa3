#pragma once

/// \file maps.hpp
/// HYMV's per-partition connectivity maps (paper §IV-A/B, Algorithm 1).
///
/// Starting from the user-provided inputs — element count, E2G map, and the
/// owned global-index range [Nbegin, Nend] — the setup phase derives:
///   * the ghost sets Gpre (ids < Nbegin) and Gpost (ids > Nend),
///   * the E2L map into the distributed-array layout
///     [pre-ghost | owned | post-ghost],
///   * the independent/dependent element split used to overlap
///     communication with computation (Fig. 2),
///   * the LNSM/GNGM communication plan (via pla::GhostExchange).
///
/// Everything is expressed at the *DoF* level: node ids are expanded by
/// ndof_per_node (Poisson 1, elasticity 3) so one code path serves all
/// operators.

#include <cstdint>
#include <span>
#include <vector>

#include "hymv/common/aligned.hpp"
#include "hymv/common/error.hpp"
#include "hymv/common/numa.hpp"
#include "hymv/mesh/distributed.hpp"
#include "hymv/pla/dist_vector.hpp"
#include "hymv/pla/ghost_exchange.hpp"
#include "hymv/simmpi/simmpi.hpp"

namespace hymv::core {

/// The complete per-partition map set. Collectively constructed.
class DofMaps {
 public:
  /// Build from a mesh partition, expanding node ids to `ndof_per_node`
  /// DoFs. Collective over `comm` (layout + exchange construction).
  DofMaps(simmpi::Comm& comm, const mesh::MeshPartition& part,
          int ndof_per_node);

  [[nodiscard]] const pla::Layout& layout() const { return layout_; }
  [[nodiscard]] int ndof_per_node() const { return ndof_; }
  [[nodiscard]] int ndofs_per_elem() const { return ndofs_per_elem_; }
  [[nodiscard]] std::int64_t num_elements() const { return num_elements_; }

  /// Distributed-array sizes: [pre | owned | post].
  [[nodiscard]] std::int64_t n_pre() const { return n_pre_; }
  [[nodiscard]] std::int64_t n_owned() const { return layout_.owned(); }
  [[nodiscard]] std::int64_t n_post() const { return n_post_; }
  [[nodiscard]] std::int64_t da_size() const {
    return n_pre_ + n_owned() + n_post_;
  }

  /// E2L row of element e: DA-local indices of its DoFs (Algorithm 1).
  [[nodiscard]] std::span<const std::int64_t> e2l(std::int64_t e) const {
    return {e2l_.data() + static_cast<std::size_t>(e * ndofs_per_elem_),
            static_cast<std::size_t>(ndofs_per_elem_)};
  }
  /// Every E2L row back to back, ndofs_per_elem() per element.
  [[nodiscard]] const std::int64_t* e2l_data() const { return e2l_.data(); }
  /// E2G row of element e: global DoF ids.
  [[nodiscard]] std::span<const std::int64_t> e2g(std::int64_t e) const {
    return {e2g_.data() + static_cast<std::size_t>(e * ndofs_per_elem_),
            static_cast<std::size_t>(ndofs_per_elem_)};
  }

  /// Elements whose DoFs are all owned (overlap with communication).
  [[nodiscard]] const std::vector<std::int64_t>& independent_elements() const {
    return independent_;
  }
  /// Elements touching at least one ghost DoF.
  [[nodiscard]] const std::vector<std::int64_t>& dependent_elements() const {
    return dependent_;
  }

  /// Sorted ghost DoF ids ([Gpre..., Gpost...]).
  [[nodiscard]] const std::vector<std::int64_t>& ghost_ids() const {
    return ghosts_;
  }

  /// The LNSM/GNGM communication plan.
  [[nodiscard]] pla::GhostExchange& exchange() { return exchange_; }
  [[nodiscard]] const pla::GhostExchange& exchange() const {
    return exchange_;
  }

  /// DA-local index of owned global DoF g.
  [[nodiscard]] std::int64_t owned_local(std::int64_t g) const {
    return n_pre_ + (g - layout_.begin);
  }

 private:
  pla::Layout layout_;
  int ndof_ = 1;
  int ndofs_per_elem_ = 0;
  std::int64_t num_elements_ = 0;
  std::int64_t n_pre_ = 0;
  std::int64_t n_post_ = 0;
  std::vector<std::int64_t> e2g_;
  std::vector<std::int64_t> e2l_;
  std::vector<std::int64_t> ghosts_;
  std::vector<std::int64_t> independent_;
  std::vector<std::int64_t> dependent_;
  pla::GhostExchange exchange_;
};

/// Distributed array (paper §IV-C): ghost-padded local vector with layout
/// [pre-ghost | owned | post-ghost], aligned for the SIMD kernels.
///
/// `width` > 1 turns the DA into a ghost-padded *panel*: every node slot
/// holds `width` lane-interleaved values (entry i of lane j lives at
/// i*width + j), so the E2L gather of one element pulls a contiguous
/// `width`-wide run per DoF — the layout the multi-RHS panel kernels eat.
class DistributedArray {
 public:
  explicit DistributedArray(const DofMaps& maps, int width = 1)
      : maps_(&maps), width_(width) {
    HYMV_CHECK_MSG(width >= 1, "DistributedArray: width must be >= 1");
    // First-touch placement: the no-init resize leaves pages unmapped; the
    // parallel zero fill faults each page on the thread that streams the
    // same static slice in the scatter/gather sweeps (DESIGN.md §5i).
    v_.resize(static_cast<std::size_t>(maps.da_size() * width));
    numa::first_touch_fill(v_.data(), v_.size(), 0.0);
  }

  [[nodiscard]] int width() const { return width_; }

  [[nodiscard]] std::span<double> all() { return v_; }
  [[nodiscard]] std::span<const double> all() const { return v_; }
  [[nodiscard]] std::span<double> owned() {
    return {v_.data() + maps_->n_pre() * width_,
            static_cast<std::size_t>(maps_->n_owned() * width_)};
  }
  [[nodiscard]] std::span<const double> owned() const {
    return {v_.data() + maps_->n_pre() * width_,
            static_cast<std::size_t>(maps_->n_owned() * width_)};
  }
  /// Ghost slots in exchange order (pre then post): pre is the DA prefix,
  /// post is the DA suffix. For width > 1 the spans are lane-interleaved
  /// panels (`width` values per ghost DoF).
  void load_ghosts(std::span<const double> ghost_vals);
  /// Copy ghost slots [begin, end) — exchange-order indices in DoF units —
  /// from `ghost_vals` (the FULL exchange-order ghost array, as for
  /// load_ghosts) into the DA, splitting the run at the pre/post boundary.
  /// The task-graph apply uses this to land one neighbor's slice as soon as
  /// that neighbor's message completes.
  void load_ghost_range(std::span<const double> ghost_vals, std::int64_t begin,
                        std::int64_t end);
  /// Copy the DA's ghost slots out in exchange order.
  void store_ghosts(std::span<double> ghost_vals) const;

  void fill(double value) { std::fill(v_.begin(), v_.end(), value); }

 private:
  const DofMaps* maps_;
  int width_ = 1;
  hymv::aligned_uninit_vector<double> v_;
};

}  // namespace hymv::core
