#include "hymv/core/hymv_operator.hpp"

#include <algorithm>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "dual_timer.hpp"
#include "hymv/common/error.hpp"
#include "hymv/obs/trace.hpp"

namespace hymv::core {

namespace {

/// The stored backends of the skeleton's independent and dependent regions.
std::array<StoredRegionBackend, 2> stored_regions(
    const DofMaps& maps, const ElementMatrixStore& store,
    const ApplySkeleton& skeleton, const HymvOptions& options, int rank) {
  const bool threads = threads_element_loops(options);
  return {StoredRegionBackend(maps, store, skeleton.schedule(0), threads, rank),
          StoredRegionBackend(maps, store, skeleton.schedule(1), threads,
                              rank)};
}

}  // namespace

HymvOperator::OperatorMetrics::OperatorMetrics() {
  setup_emat_compute_s = &registry.gauge("setup.emat_compute_s");
  setup_emat_compute_cpu_s = &registry.gauge("setup.emat_compute_cpu_s");
  setup_local_copy_s = &registry.gauge("setup.local_copy_s");
  setup_local_copy_cpu_s = &registry.gauge("setup.local_copy_cpu_s");
  setup_maps_s = &registry.gauge("setup.maps_s");
  setup_maps_cpu_s = &registry.gauge("setup.maps_cpu_s");
  setup_schedule_s = &registry.gauge("setup.schedule_s");
  setup_schedule_cpu_s = &registry.gauge("setup.schedule_cpu_s");
}

SetupBreakdown HymvOperator::setup_breakdown() const {
  SetupBreakdown view;
  view.emat_compute_s = metrics_.setup_emat_compute_cpu_s->value();
  view.local_copy_s = metrics_.setup_local_copy_cpu_s->value();
  view.maps_s = metrics_.setup_maps_cpu_s->value();
  view.schedule_s = metrics_.setup_schedule_cpu_s->value();
  return view;
}

ApplyBreakdown HymvOperator::apply_breakdown() const {
  return skeleton_.breakdown();
}

void HymvOperator::reset_apply_breakdown() { skeleton_.reset_breakdown(); }

DofMaps HymvOperator::build_maps_timed(simmpi::Comm& comm,
                                       const mesh::MeshPartition& part,
                                       int ndof_per_node,
                                       OperatorMetrics& metrics) {
  // The breakdown view reports the CPU axis: under simmpi the ranks
  // time-share one machine, so wall clock would charge this rank for its
  // neighbors' work. Both axes land in the registry.
  HYMV_TRACE_SCOPE("setup.maps", "setup");
  DualTimer timer;
  DofMaps maps(comm, part, ndof_per_node);
  timer.add_to(metrics.setup_maps_s, metrics.setup_maps_cpu_s);
  return maps;
}

HymvOperator::HymvOperator(simmpi::Comm& comm,
                           const mesh::MeshPartition& part,
                           const fem::ElementOperator& op,
                           HymvOptions options)
    : options_(options),
      maps_(build_maps_timed(comm, part, op.ndof_per_node(), metrics_)),
      writable_(std::make_shared<ElementMatrixStore>(
          part.num_local_elements(), op.num_dofs(), options.layout)),
      store_(writable_),
      elem_coords_(part.elem_coords),
      skeleton_(maps_, options_, metrics_.registry),
      regions_(stored_regions(maps_, *store_, skeleton_, options_,
                              comm.rank())) {
  HYMV_CHECK_MSG(part.nodes_per_elem ==
                     static_cast<int>(op.num_nodes()),
                 "HymvOperator: element type mismatch between mesh and "
                 "operator");
  // Element-matrix computation + local copy (the HYMV "setup" the paper
  // times against PETSc's global assembly).
  HYMV_TRACE_SCOPE("setup.emat", "setup");
  DualTimer timer;
  const auto n = static_cast<std::size_t>(op.num_dofs());
  const auto nper = static_cast<std::size_t>(op.num_nodes());
  std::vector<double> ke(n * n);
  double compute_s = 0.0;
  double compute_cpu_s = 0.0;
  double copy_s = 0.0;
  double copy_cpu_s = 0.0;
  for (std::int64_t e = 0; e < maps_.num_elements(); ++e) {
    timer.restart();
    op.element_matrix(
        std::span<const mesh::Point>(elem_coords_.data() + e * nper, nper),
        ke);
    compute_s += timer.wall.elapsed_s();
    compute_cpu_s += timer.cpu.elapsed_s();
    timer.restart();
    writable_->set(e, ke);
    copy_s += timer.wall.elapsed_s();
    copy_cpu_s += timer.cpu.elapsed_s();
  }
  metrics_.setup_emat_compute_s->add(compute_s);
  metrics_.setup_emat_compute_cpu_s->add(compute_cpu_s);
  metrics_.setup_local_copy_s->add(copy_s);
  metrics_.setup_local_copy_cpu_s->add(copy_cpu_s);
}

HymvOperator::HymvOperator(simmpi::Comm& comm,
                           const mesh::MeshPartition& part,
                           int ndof_per_node, ElementMatrixStore store,
                           HymvOptions options)
    : HymvOperator(comm, part, ndof_per_node,
                   std::make_shared<ElementMatrixStore>(std::move(store)),
                   nullptr, options) {}

HymvOperator::HymvOperator(simmpi::Comm& comm,
                           const mesh::MeshPartition& part,
                           int ndof_per_node,
                           std::shared_ptr<const ElementMatrixStore> store,
                           HymvOptions options)
    : HymvOperator(comm, part, ndof_per_node, nullptr, std::move(store),
                   options) {}

HymvOperator::HymvOperator(simmpi::Comm& comm,
                           const mesh::MeshPartition& part,
                           int ndof_per_node,
                           std::shared_ptr<ElementMatrixStore> writable,
                           std::shared_ptr<const ElementMatrixStore> store,
                           HymvOptions options)
    : options_(options),
      maps_(build_maps_timed(comm, part, ndof_per_node, metrics_)),
      writable_(std::move(writable)),
      store_(writable_ != nullptr ? writable_ : std::move(store)),
      elem_coords_(part.elem_coords),
      skeleton_(maps_, options_, metrics_.registry),
      regions_(stored_regions(maps_, *store_, skeleton_, options_,
                              comm.rank())) {
  HYMV_CHECK_MSG(store_->num_elements() == maps_.num_elements(),
                 "HymvOperator: adopted store has wrong element count");
  HYMV_CHECK_MSG(store_->ndofs() == maps_.ndofs_per_elem(),
                 "HymvOperator: adopted store has wrong matrix size");
  options_.layout = store_->layout();  // the adopted store dictates layout
}

std::shared_ptr<const ElementMatrixStore> HymvOperator::shared_store() {
  writable_.reset();
  return store_;
}

ElementMatrixStore& HymvOperator::writable_store() {
  if (writable_ == nullptr) {
    writable_ = std::make_shared<ElementMatrixStore>(*store_);
    store_ = writable_;
    for (StoredRegionBackend& region : regions_) {
      region.rebind(*store_);
    }
  }
  return *writable_;
}

bool HymvOperator::threading_active() const {
#ifdef _OPENMP
  return threads_element_loops(options_) && omp_get_max_threads() > 1;
#else
  return false;
#endif
}

void HymvOperator::apply(simmpi::Comm& comm, const pla::DistVector& x,
                         pla::DistVector& y) {
  HYMV_TRACE_SCOPE("apply", "hymv");
  skeleton_.apply(comm, x, y, regions_[0], regions_[1]);
}

void HymvOperator::apply_multi(simmpi::Comm& comm,
                               const pla::DistMultiVector& x,
                               pla::DistMultiVector& y) {
  HYMV_TRACE_SCOPE("apply_multi", "hymv");
  skeleton_.apply_multi(comm, x, y, regions_[0], regions_[1]);
}

std::vector<double> HymvOperator::diagonal(simmpi::Comm& comm) {
  // Independent ∪ dependent covers every local element exactly once.
  return skeleton_.diagonal(comm, [&](std::span<double> v) {
    regions_[0].add_diagonal(v);
    regions_[1].add_diagonal(v);
  });
}

pla::CsrMatrix HymvOperator::owned_block(simmpi::Comm& comm) {
  // Block-local assembly: entries (gi, gj) with both DoFs owned by the same
  // rank belong to that rank's diagonal block. Entries whose two DoFs live
  // on different ranks are off-block and dropped. Contributions for a
  // remote rank's block (this rank's elements touching two of its nodes)
  // are shipped to it.
  const auto n = static_cast<std::size_t>(store_->ndofs());
  const pla::Layout& layout = maps_.layout();
  const std::vector<std::int64_t> offsets =
      pla::Layout::gather_offsets(comm, layout);
  const int p = comm.size();

  std::vector<pla::Triplet> local;
  std::vector<std::vector<pla::Triplet>> outbound(static_cast<std::size_t>(p));
  for (std::int64_t e = 0; e < maps_.num_elements(); ++e) {
    const auto e2g = maps_.e2g(e);
    for (std::size_t b = 0; b < n; ++b) {
      const int owner_b = pla::owner_of(offsets, e2g[b]);
      for (std::size_t a = 0; a < n; ++a) {
        const int owner_a = pla::owner_of(offsets, e2g[a]);
        if (owner_a != owner_b) {
          continue;  // off-block entry
        }
        const pla::Triplet t{e2g[a], e2g[b],
                             store_->at(e, static_cast<int>(a),
                                       static_cast<int>(b))};
        if (owner_a == comm.rank()) {
          local.push_back(t);
        } else {
          outbound[static_cast<std::size_t>(owner_a)].push_back(t);
        }
      }
    }
  }
  const auto inbound = comm.alltoallv(outbound);
  for (const auto& batch : inbound) {
    local.insert(local.end(), batch.begin(), batch.end());
  }
  for (pla::Triplet& t : local) {
    t.row -= layout.begin;
    t.col -= layout.begin;
  }
  return pla::CsrMatrix::from_triplets(layout.owned(), layout.owned(),
                                       std::move(local));
}

void HymvOperator::update_elements(
    std::span<const std::int64_t> local_elements,
    const fem::ElementOperator& op) {
  HYMV_CHECK_MSG(op.num_dofs() == store_->ndofs(),
                 "update_elements: operator size mismatch");
  ElementMatrixStore& store = writable_store();
  const auto n = static_cast<std::size_t>(op.num_dofs());
  const auto nper = static_cast<std::size_t>(op.num_nodes());
  // Validate up front: throwing from inside an OpenMP region terminates.
  for (const std::int64_t e : local_elements) {
    HYMV_CHECK_MSG(e >= 0 && e < maps_.num_elements(),
                   "update_elements: element out of range");
  }
  // try_set (not set) so a kSymPacked store can report a non-symmetric
  // recompute without throwing inside the parallel region; the failure is
  // rethrown once the loop finishes.
  const auto recompute = [&](std::int64_t e, std::vector<double>& ke) {
    op.element_matrix(
        std::span<const mesh::Point>(elem_coords_.data() + e * nper, nper),
        ke);
    return store.try_set(e, ke);
  };
  bool symmetric = true;
#ifdef _OPENMP
  // Each element owns a disjoint store slot, so the update needs no
  // coloring — a plain parallel loop is already race-free.
  if (threading_active()) {
#pragma omp parallel reduction(&& : symmetric)
    {
      std::vector<double> ke(n * n);
#pragma omp for schedule(static)
      for (std::int64_t i = 0;
           i < static_cast<std::int64_t>(local_elements.size()); ++i) {
        symmetric =
            recompute(local_elements[static_cast<std::size_t>(i)], ke) &&
            symmetric;
      }
    }
  } else
#endif
  {
    std::vector<double> ke(n * n);
    for (const std::int64_t e : local_elements) {
      symmetric = recompute(e, ke) && symmetric;
    }
  }
  HYMV_CHECK_MSG(symmetric,
                 "update_elements: non-symmetric recompute rejected by the "
                 "sympacked store (symmetric elements of this update were "
                 "still applied; use a dense layout for unsymmetric "
                 "operators)");
}

std::int64_t HymvOperator::scrub_store(const fem::ElementOperator& op) {
  HYMV_CHECK_MSG(op.num_dofs() == store_->ndofs(),
                 "scrub_store: operator size mismatch");
  const auto nper = static_cast<std::size_t>(op.num_nodes());
  return writable_store().scrub([&](std::int64_t e, std::span<double> ke) {
    op.element_matrix(
        std::span<const mesh::Point>(elem_coords_.data() + e * nper, nper),
        ke);
  });
}

std::int64_t HymvOperator::apply_flops() const {
  const auto n = static_cast<std::int64_t>(store_->ndofs());
  return maps_.num_elements() * 2 * n * n;
}

std::int64_t HymvOperator::apply_bytes() const {
  // Cache-level (Advisor-equivalent) traffic of the EMV sweep: the
  // layout-true matrix streaming cost (each stored scalar's load at its
  // actual width plus the v_e read-modify-write it feeds — see
  // ElementMatrixStore::emv_traffic_bytes_per_elem), plus the u_e gather
  // and v_e scatter. For kPadded this reproduces the paper's measured
  // AI ≈ 0.08 F/B; the compressed layouts report proportionally less.
  const auto n = static_cast<std::int64_t>(store_->ndofs());
  const std::int64_t per_elem =
      store_->emv_traffic_bytes_per_elem() + 40 * n;
  return maps_.num_elements() * per_elem + maps_.da_size() * 16;
}

std::int64_t HymvOperator::apply_flops_multi(int nrhs) const {
  return apply_flops() * nrhs;
}

std::int64_t HymvOperator::apply_bytes_multi(int nrhs) const {
  // The matrix-side stream (K_e load + v_e accumulator RMW) is charged
  // once per panel — it is what the multi-RHS path amortizes — while the
  // u_e gather / v_e scatter (40 B per DoF per lane) and the DA panel
  // traffic scale with k. Identical to apply_bytes() at nrhs == 1.
  const auto n = static_cast<std::int64_t>(store_->ndofs());
  const std::int64_t per_elem =
      store_->emv_panel_traffic_bytes_per_elem() + nrhs * 40 * n;
  return maps_.num_elements() * per_elem + maps_.da_size() * 16 * nrhs;
}

}  // namespace hymv::core
