#include "hymv/core/matrix_free_operator.hpp"

#include <algorithm>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "hymv/common/aligned.hpp"
#include "hymv/common/error.hpp"
#include "hymv/core/hymv_operator.hpp"

namespace hymv::core {

MatrixFreeOperator::MatrixFreeOperator(simmpi::Comm& comm,
                                       const mesh::MeshPartition& part,
                                       const fem::ElementOperator& op,
                                       bool overlap, bool use_openmp)
    : op_(&op),
      overlap_(overlap),
      use_openmp_(use_openmp),
      taskgraph_(apply_taskgraph_from_env(false)),
      schedule_(thread_schedule_from_env(ThreadSchedule::kColored)),
      maps_(comm, part, op.ndof_per_node()),
      elem_coords_(part.elem_coords),
      u_da_(maps_),
      v_da_(maps_),
      ghost_buf_(static_cast<std::size_t>(maps_.n_pre() + maps_.n_post()),
                 0.0),
      indep_sched_(maps_, maps_.independent_elements()),
      dep_sched_(maps_, maps_.dependent_elements()),
      dep_graph_(maps_, dep_sched_) {
  HYMV_CHECK_MSG(part.nodes_per_elem == static_cast<int>(op.num_nodes()),
                 "MatrixFreeOperator: element type mismatch");
}

bool MatrixFreeOperator::threading_active() const {
#ifdef _OPENMP
  return use_openmp_ && schedule_ == ThreadSchedule::kColored &&
         omp_get_max_threads() > 1;
#else
  return false;
#endif
}

bool MatrixFreeOperator::taskgraph_active() const {
  return taskgraph_ && overlap_ && schedule_ == ThreadSchedule::kColored &&
         maps_.exchange().supports_taskgraph();
}

void MatrixFreeOperator::emv_dep_taskgraph(simmpi::Comm& comm) {
  const auto n = static_cast<std::size_t>(op_->num_dofs());
  const auto nper = static_cast<std::size_t>(op_->num_nodes());
  const std::span<double> v = v_da_.all();
  const std::span<const double> u = u_da_.all();
  const std::span<const std::int64_t> order = dep_sched_.order();
  pla::GhostExchange& ex = maps_.exchange();

  const auto load_peer = [&](int peer) {
    const std::int64_t off = ex.recv_peer_ghost_offset(peer);
    u_da_.load_ghost_range(ex.ghost_values(), off,
                           off + ex.recv_peer_count(peer));
  };
  const auto process = [&](std::int64_t e, std::vector<double>& ke,
                           double* ue, double* ve) {
    const auto e2l = maps_.e2l(e);
    for (std::size_t a = 0; a < n; ++a) {
      ue[a] = u[static_cast<std::size_t>(e2l[a])];
    }
    op_->element_matrix(
        std::span<const mesh::Point>(elem_coords_.data() + e * nper, nper),
        ke);
    emv_simd(ke.data(), n, n, ue, ve);
    for (std::size_t a = 0; a < n; ++a) {
      v[static_cast<std::size_t>(e2l[a])] += ve[a];
    }
  };

#ifdef _OPENMP
  if (threading_active()) {
    const auto run_blocks = [&](int c, std::span<const std::int32_t> ready) {
      const std::span<const ElementSchedule::Block> blocks =
          dep_sched_.blocks(c);
#pragma omp parallel
      {
        std::vector<double> ke(n * n);
        hymv::aligned_vector<double> ue(n), ve(n);
#pragma omp for schedule(dynamic, 1)
        for (std::int64_t i = 0; i < static_cast<std::int64_t>(ready.size());
             ++i) {
          const ElementSchedule::Block& blk = blocks[static_cast<std::size_t>(
              ready[static_cast<std::size_t>(i)])];
          for (std::int64_t j = blk.begin; j < blk.end; ++j) {
            process(order[static_cast<std::size_t>(j)], ke, ue.data(),
                    ve.data());
          }
        }
      }
    };
    dep_graph_.run(comm, ex, run_blocks, load_peer);
    return;
  }
#endif
  std::vector<double> ke(n * n);
  hymv::aligned_vector<double> ue(n), ve(n);
  const auto run_blocks = [&](int c, std::span<const std::int32_t> ready) {
    const std::span<const ElementSchedule::Block> blocks =
        dep_sched_.blocks(c);
    for (const std::int32_t b : ready) {
      const ElementSchedule::Block& blk = blocks[static_cast<std::size_t>(b)];
      for (std::int64_t j = blk.begin; j < blk.end; ++j) {
        process(order[static_cast<std::size_t>(j)], ke, ue.data(), ve.data());
      }
    }
  };
  dep_graph_.run(comm, ex, run_blocks, load_peer);
}

void MatrixFreeOperator::emv_dep_taskgraph_multi(simmpi::Comm& comm, int k) {
  const auto n = static_cast<std::size_t>(op_->num_dofs());
  const auto nper = static_cast<std::size_t>(op_->num_nodes());
  const auto ku = static_cast<std::size_t>(k);
  const std::span<double> v = v_mda_->all();
  const std::span<const double> u = u_mda_->all();
  const std::span<const std::int64_t> order = dep_sched_.order();
  pla::GhostExchange& ex = maps_.exchange();

  const auto load_peer = [&](int peer) {
    const std::int64_t off = ex.recv_peer_ghost_offset(peer);
    u_mda_->load_ghost_range(ex.ghost_panel(), off,
                             off + ex.recv_peer_count(peer));
  };
  const auto process = [&](std::int64_t e, std::vector<double>& ke,
                           double* ue, double* ve) {
    const auto e2l = maps_.e2l(e);
    for (std::size_t a = 0; a < n; ++a) {
      const double* src = u.data() + static_cast<std::size_t>(e2l[a]) * ku;
      double* dst = ue + a * ku;
      for (std::size_t j = 0; j < ku; ++j) {
        dst[j] = src[j];
      }
    }
    op_->element_matrix(
        std::span<const mesh::Point>(elem_coords_.data() + e * nper, nper),
        ke);
    emv_multi(ke.data(), n, n, ku, ue, ve);
    for (std::size_t a = 0; a < n; ++a) {
      double* dst = v.data() + static_cast<std::size_t>(e2l[a]) * ku;
      const double* src = ve + a * ku;
      for (std::size_t j = 0; j < ku; ++j) {
        dst[j] += src[j];
      }
    }
  };

#ifdef _OPENMP
  if (threading_active()) {
    const auto run_blocks = [&](int c, std::span<const std::int32_t> ready) {
      const std::span<const ElementSchedule::Block> blocks =
          dep_sched_.blocks(c);
#pragma omp parallel
      {
        std::vector<double> ke(n * n);
        hymv::aligned_vector<double> ue(n * ku), ve(n * ku);
#pragma omp for schedule(dynamic, 1)
        for (std::int64_t i = 0; i < static_cast<std::int64_t>(ready.size());
             ++i) {
          const ElementSchedule::Block& blk = blocks[static_cast<std::size_t>(
              ready[static_cast<std::size_t>(i)])];
          for (std::int64_t j = blk.begin; j < blk.end; ++j) {
            process(order[static_cast<std::size_t>(j)], ke, ue.data(),
                    ve.data());
          }
        }
      }
    };
    dep_graph_.run(comm, ex, run_blocks, load_peer);
    return;
  }
#endif
  std::vector<double> ke(n * n);
  hymv::aligned_vector<double> ue(n * ku), ve(n * ku);
  const auto run_blocks = [&](int c, std::span<const std::int32_t> ready) {
    const std::span<const ElementSchedule::Block> blocks =
        dep_sched_.blocks(c);
    for (const std::int32_t b : ready) {
      const ElementSchedule::Block& blk = blocks[static_cast<std::size_t>(b)];
      for (std::int64_t j = blk.begin; j < blk.end; ++j) {
        process(order[static_cast<std::size_t>(j)], ke, ue.data(), ve.data());
      }
    }
  };
  dep_graph_.run(comm, ex, run_blocks, load_peer);
}

void MatrixFreeOperator::emv_loop(const ElementSchedule& sched,
                                  std::span<const std::int64_t> elements) {
  const auto n = static_cast<std::size_t>(op_->num_dofs());
  const auto nper = static_cast<std::size_t>(op_->num_nodes());
  const std::span<double> v = v_da_.all();
  const std::span<const double> u = u_da_.all();

  const auto process = [&](std::int64_t e, std::vector<double>& ke,
                           double* ue, double* ve) {
    const auto e2l = maps_.e2l(e);
    for (std::size_t a = 0; a < n; ++a) {
      ue[a] = u[static_cast<std::size_t>(e2l[a])];
    }
    // The defining difference from HYMV: K_e is recomputed here, inside the
    // SPMV (Algorithm 4, line 6).
    op_->element_matrix(
        std::span<const mesh::Point>(elem_coords_.data() + e * nper, nper),
        ke);
    emv_simd(ke.data(), n, n, ue, ve);
    for (std::size_t a = 0; a < n; ++a) {
      v[static_cast<std::size_t>(e2l[a])] += ve[a];
    }
  };

  if (schedule_ == ThreadSchedule::kColored) {
    const std::span<const std::int64_t> order = sched.order();
#ifdef _OPENMP
    if (threading_active()) {
#pragma omp parallel
      {
        std::vector<double> ke(n * n);
        hymv::aligned_vector<double> ue(n), ve(n);
        for (int c = 0; c < sched.num_colors(); ++c) {
          const std::span<const ElementSchedule::Block> blocks =
              sched.blocks(c);
#pragma omp for schedule(dynamic, 1)
          for (std::int64_t b = 0;
               b < static_cast<std::int64_t>(blocks.size()); ++b) {
            const ElementSchedule::Block& blk =
                blocks[static_cast<std::size_t>(b)];
            for (std::int64_t i = blk.begin; i < blk.end; ++i) {
              process(order[static_cast<std::size_t>(i)], ke, ue.data(),
                      ve.data());
            }
          }
        }
      }
      return;
    }
#endif
    // Same color-major order serially → bitwise identical to threaded.
    std::vector<double> ke(n * n);
    hymv::aligned_vector<double> ue(n), ve(n);
    for (const std::int64_t e : order) {
      process(e, ke, ue.data(), ve.data());
    }
    return;
  }

  std::vector<double> ke(n * n);
  hymv::aligned_vector<double> ue(n), ve(n);
  for (const std::int64_t e : elements) {
    process(e, ke, ue.data(), ve.data());
  }
}

void MatrixFreeOperator::emv_loop_multi(const ElementSchedule& sched,
                                        std::span<const std::int64_t> elements,
                                        int k) {
  const auto n = static_cast<std::size_t>(op_->num_dofs());
  const auto nper = static_cast<std::size_t>(op_->num_nodes());
  const auto ku = static_cast<std::size_t>(k);
  const std::span<double> v = v_mda_->all();
  const std::span<const double> u = u_mda_->all();

  const auto process = [&](std::int64_t e, std::vector<double>& ke,
                           double* ue, double* ve) {
    const auto e2l = maps_.e2l(e);
    for (std::size_t a = 0; a < n; ++a) {  // gather the ndofs × k panel
      const double* src = u.data() + static_cast<std::size_t>(e2l[a]) * ku;
      double* dst = ue + a * ku;
      for (std::size_t j = 0; j < ku; ++j) {
        dst[j] = src[j];
      }
    }
    // One recomputation serves all k lanes — the panel amortization.
    op_->element_matrix(
        std::span<const mesh::Point>(elem_coords_.data() + e * nper, nper),
        ke);
    emv_multi(ke.data(), n, n, ku, ue, ve);
    for (std::size_t a = 0; a < n; ++a) {
      double* dst = v.data() + static_cast<std::size_t>(e2l[a]) * ku;
      const double* src = ve + a * ku;
      for (std::size_t j = 0; j < ku; ++j) {
        dst[j] += src[j];
      }
    }
  };

  if (schedule_ == ThreadSchedule::kColored) {
    const std::span<const std::int64_t> order = sched.order();
#ifdef _OPENMP
    if (threading_active()) {
#pragma omp parallel
      {
        std::vector<double> ke(n * n);
        hymv::aligned_vector<double> ue(n * ku), ve(n * ku);
        for (int c = 0; c < sched.num_colors(); ++c) {
          const std::span<const ElementSchedule::Block> blocks =
              sched.blocks(c);
#pragma omp for schedule(dynamic, 1)
          for (std::int64_t b = 0;
               b < static_cast<std::int64_t>(blocks.size()); ++b) {
            const ElementSchedule::Block& blk =
                blocks[static_cast<std::size_t>(b)];
            for (std::int64_t i = blk.begin; i < blk.end; ++i) {
              process(order[static_cast<std::size_t>(i)], ke, ue.data(),
                      ve.data());
            }
          }
        }
      }
      return;
    }
#endif
    // Same color-major order serially → bitwise identical to threaded.
    std::vector<double> ke(n * n);
    hymv::aligned_vector<double> ue(n * ku), ve(n * ku);
    for (const std::int64_t e : order) {
      process(e, ke, ue.data(), ve.data());
    }
    return;
  }

  std::vector<double> ke(n * n);
  hymv::aligned_vector<double> ue(n * ku), ve(n * ku);
  for (const std::int64_t e : elements) {
    process(e, ke, ue.data(), ve.data());
  }
}

void MatrixFreeOperator::ensure_multi_buffers(int k) {
  if (multi_width_ == k) {
    return;
  }
  u_mda_ = std::make_unique<DistributedArray>(maps_, k);
  v_mda_ = std::make_unique<DistributedArray>(maps_, k);
  ghost_panel_buf_.assign(
      static_cast<std::size_t>((maps_.n_pre() + maps_.n_post()) * k), 0.0);
  multi_width_ = k;
}

void MatrixFreeOperator::apply_multi(simmpi::Comm& comm,
                                     const pla::DistMultiVector& x,
                                     pla::DistMultiVector& y) {
  const int k = x.width();
  HYMV_CHECK_MSG(k >= 1 && y.width() == k,
                 "MatrixFreeOperator::apply_multi: panel width mismatch");
  HYMV_CHECK_MSG(x.owned_size() == maps_.n_owned() &&
                     y.owned_size() == maps_.n_owned(),
                 "MatrixFreeOperator::apply_multi: size mismatch");
  ensure_multi_buffers(k);
  std::copy(x.values().begin(), x.values().end(), u_mda_->owned().begin());
  v_mda_->fill(0.0);
  if (taskgraph_active()) {
    maps_.exchange().forward_begin_multi(comm, x.values(), k);
    emv_loop_multi(indep_sched_, maps_.independent_elements(), k);
    emv_dep_taskgraph_multi(comm, k);
    maps_.exchange().forward_end_multi(comm);  // retire the sends
  } else if (overlap_) {
    maps_.exchange().forward_begin_multi(comm, x.values(), k);
    emv_loop_multi(indep_sched_, maps_.independent_elements(), k);
    maps_.exchange().forward_end_multi(comm);
    u_mda_->load_ghosts(maps_.exchange().ghost_panel());
    emv_loop_multi(dep_sched_, maps_.dependent_elements(), k);
  } else {
    maps_.exchange().forward_begin_multi(comm, x.values(), k);
    maps_.exchange().forward_end_multi(comm);
    u_mda_->load_ghosts(maps_.exchange().ghost_panel());
    emv_loop_multi(indep_sched_, maps_.independent_elements(), k);
    emv_loop_multi(dep_sched_, maps_.dependent_elements(), k);
  }
  v_mda_->store_ghosts(ghost_panel_buf_);
  maps_.exchange().reverse_begin_multi(comm, ghost_panel_buf_, k);
  std::copy(v_mda_->owned().begin(), v_mda_->owned().end(),
            y.values().begin());
  maps_.exchange().reverse_end_multi(comm, y.values());
}

void MatrixFreeOperator::apply(simmpi::Comm& comm, const pla::DistVector& x,
                               pla::DistVector& y) {
  HYMV_CHECK_MSG(x.owned_size() == maps_.n_owned() &&
                     y.owned_size() == maps_.n_owned(),
                 "MatrixFreeOperator::apply: size mismatch");
  std::copy(x.values().begin(), x.values().end(), u_da_.owned().begin());
  v_da_.fill(0.0);
  if (taskgraph_active()) {
    maps_.exchange().forward_begin(comm, x.values());
    emv_loop(indep_sched_, maps_.independent_elements());
    emv_dep_taskgraph(comm);
    maps_.exchange().forward_end(comm);  // retire the sends
  } else if (overlap_) {
    maps_.exchange().forward_begin(comm, x.values());
    emv_loop(indep_sched_, maps_.independent_elements());
    maps_.exchange().forward_end(comm);
    u_da_.load_ghosts(maps_.exchange().ghost_values());
    emv_loop(dep_sched_, maps_.dependent_elements());
  } else {
    maps_.exchange().forward_begin(comm, x.values());
    maps_.exchange().forward_end(comm);
    u_da_.load_ghosts(maps_.exchange().ghost_values());
    emv_loop(indep_sched_, maps_.independent_elements());
    emv_loop(dep_sched_, maps_.dependent_elements());
  }
  reduce_da_to_owned(comm, maps_, v_da_, ghost_buf_, y.values());
}

std::vector<double> MatrixFreeOperator::diagonal(simmpi::Comm& comm) {
  const auto n = static_cast<std::size_t>(op_->num_dofs());
  const auto nper = static_cast<std::size_t>(op_->num_nodes());
  v_da_.fill(0.0);
  const std::span<double> v = v_da_.all();
  std::vector<double> ke(n * n);
  for (std::int64_t e = 0; e < maps_.num_elements(); ++e) {
    op_->element_matrix(
        std::span<const mesh::Point>(elem_coords_.data() + e * nper, nper),
        ke);
    const auto e2l = maps_.e2l(e);
    for (std::size_t a = 0; a < n; ++a) {
      v[static_cast<std::size_t>(e2l[a])] += ke[a * n + a];
    }
  }
  std::vector<double> diag(static_cast<std::size_t>(maps_.n_owned()), 0.0);
  reduce_da_to_owned(comm, maps_, v_da_, ghost_buf_, diag);
  return diag;
}

std::int64_t MatrixFreeOperator::apply_flops() const {
  const auto n = static_cast<std::int64_t>(op_->num_dofs());
  return maps_.num_elements() * (op_->matrix_flops() + 2 * n * n);
}

std::int64_t MatrixFreeOperator::apply_bytes() const {
  // Cache-level traffic: the per-apply element-matrix recomputation
  // (quadrature-loop loads/stores) dominates; plus the EMV pass over the
  // freshly computed matrix and the element vectors.
  const auto n = static_cast<std::int64_t>(op_->num_dofs());
  const auto nper = static_cast<std::int64_t>(op_->num_nodes());
  const std::int64_t per_elem =
      op_->matrix_traffic_bytes() + 24 * n * n + nper * 24 + 40 * n;
  return maps_.num_elements() * per_elem + maps_.da_size() * 16;
}

std::int64_t MatrixFreeOperator::apply_flops_multi(int nrhs) const {
  // The recomputation flops are paid once per panel; only the EMV scales.
  const auto n = static_cast<std::int64_t>(op_->num_dofs());
  return maps_.num_elements() * (op_->matrix_flops() + nrhs * 2 * n * n);
}

std::int64_t MatrixFreeOperator::apply_bytes_multi(int nrhs) const {
  // Recomputation traffic (quadrature loads + the K_e working-set sweep)
  // charged once per panel; element-vector and DA traffic scale with k.
  const auto n = static_cast<std::int64_t>(op_->num_dofs());
  const auto nper = static_cast<std::int64_t>(op_->num_nodes());
  const std::int64_t per_elem = op_->matrix_traffic_bytes() + 24 * n * n +
                                nper * 24 + nrhs * 40 * n;
  return maps_.num_elements() * per_elem + maps_.da_size() * 16 * nrhs;
}

}  // namespace hymv::core
