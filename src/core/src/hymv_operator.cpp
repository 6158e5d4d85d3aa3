#include "hymv/core/hymv_operator.hpp"

#include <algorithm>
#include <cstdio>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "hymv/common/env.hpp"
#include "hymv/common/error.hpp"
#include "hymv/obs/trace.hpp"

namespace hymv::core {

namespace {

/// Samples the wall and per-thread-CPU clocks together, so every phase is
/// recorded on both axes (the two were previously mixed: setup CPU-only,
/// apply wall-only — not comparable under OpenMP).
struct DualTimer {
  hymv::Timer wall;
  hymv::ThreadCpuTimer cpu;
  void restart() {
    wall.restart();
    cpu.restart();
  }
  void add_to(hymv::obs::Gauge* wall_g, hymv::obs::Gauge* cpu_g) const {
    wall_g->add(wall.elapsed_s());
    cpu_g->add(cpu.elapsed_s());
  }
};

}  // namespace

HymvOperator::OperatorMetrics::OperatorMetrics() {
  lnsm_s = &registry.gauge("apply.lnsm_s");
  lnsm_cpu_s = &registry.gauge("apply.lnsm_cpu_s");
  emv_s = &registry.gauge("apply.emv_s");
  emv_cpu_s = &registry.gauge("apply.emv_cpu_s");
  reduce_s = &registry.gauge("apply.reduce_s");
  reduce_cpu_s = &registry.gauge("apply.reduce_cpu_s");
  gngm_s = &registry.gauge("apply.gngm_s");
  gngm_cpu_s = &registry.gauge("apply.gngm_cpu_s");
  taskgraph_wait_s = &registry.gauge("apply.taskgraph_wait_s");
  taskgraph_unlocks = &registry.counter("apply.taskgraph_unlocks");
  applies = &registry.counter("apply.applies");
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
  ApplyBreakdown view;
  view.lnsm_s = metrics_.lnsm_s->value();
  view.emv_s = metrics_.emv_s->value();
  view.reduce_s = metrics_.reduce_s->value();
  view.gngm_s = metrics_.gngm_s->value();
  view.applies = static_cast<int>(metrics_.applies->value());
  return view;
}

void HymvOperator::reset_apply_breakdown() {
  metrics_.lnsm_s->reset();
  metrics_.lnsm_cpu_s->reset();
  metrics_.emv_s->reset();
  metrics_.emv_cpu_s->reset();
  metrics_.reduce_s->reset();
  metrics_.reduce_cpu_s->reset();
  metrics_.gngm_s->reset();
  metrics_.gngm_cpu_s->reset();
  metrics_.taskgraph_wait_s->reset();
  metrics_.taskgraph_unlocks->reset();
  metrics_.applies->reset();
}

int nrhs_from_env(int fallback) {
  const std::int64_t value = hymv::env_int("HYMV_NRHS", fallback);
  if (value < 1 || value > 64) {
    std::fprintf(stderr,
                 "hymv: ignoring HYMV_NRHS=%lld (expected 1..64); using %d\n",
                 static_cast<long long>(value), fallback);
    return fallback;
  }
  return static_cast<int>(value);
}

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

void HymvOperator::build_schedules() {
  HYMV_TRACE_SCOPE("setup.schedule", "setup");
  DualTimer timer;
  indep_sched_ = ElementSchedule(maps_, maps_.independent_elements());
  dep_sched_ = ElementSchedule(maps_, maps_.dependent_elements());
  dep_graph_ = ApplyTaskGraph(maps_, dep_sched_);
  timer.add_to(metrics_.setup_schedule_s, metrics_.setup_schedule_cpu_s);
}

HymvOperator::HymvOperator(simmpi::Comm& comm,
                           const mesh::MeshPartition& part,
                           const fem::ElementOperator& op,
                           HymvOptions options)
    : options_(options),
      comm_rank_(comm.rank()),
      maps_(build_maps_timed(comm, part, op.ndof_per_node(), metrics_)),
      store_(part.num_local_elements(), op.num_dofs(),
             store_layout_from_env(options.layout)),
      sweep_(maps_, store_),
      elem_coords_(part.elem_coords),
      u_da_(maps_),
      v_da_(maps_),
      ghost_buf_(static_cast<std::size_t>(maps_.n_pre() + maps_.n_post()),
                 0.0) {
  HYMV_CHECK_MSG(part.nodes_per_elem ==
                     static_cast<int>(op.num_nodes()),
                 "HymvOperator: element type mismatch between mesh and "
                 "operator");
  options_.schedule = thread_schedule_from_env(options_.schedule);
  options_.layout = store_.layout();  // reflect the env override
  options_.nrhs = nrhs_from_env(options_.nrhs);
  options_.taskgraph = apply_taskgraph_from_env(options_.taskgraph);
  build_schedules();
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
    store_.set(e, ke);
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
    : options_(options),
      comm_rank_(comm.rank()),
      maps_(build_maps_timed(comm, part, ndof_per_node, metrics_)),
      store_(std::move(store)),
      sweep_(maps_, store_),
      elem_coords_(part.elem_coords),
      u_da_(maps_),
      v_da_(maps_),
      ghost_buf_(static_cast<std::size_t>(maps_.n_pre() + maps_.n_post()),
                 0.0) {
  HYMV_CHECK_MSG(store_.num_elements() == maps_.num_elements(),
                 "HymvOperator: adopted store has wrong element count");
  HYMV_CHECK_MSG(store_.ndofs() == maps_.ndofs_per_elem(),
                 "HymvOperator: adopted store has wrong matrix size");
  options_.schedule = thread_schedule_from_env(options_.schedule);
  options_.layout = store_.layout();  // the adopted store dictates layout
  options_.nrhs = nrhs_from_env(options_.nrhs);
  options_.taskgraph = apply_taskgraph_from_env(options_.taskgraph);
  build_schedules();
}

bool HymvOperator::threading_active() const {
#ifdef _OPENMP
  return options_.use_openmp &&
         options_.schedule != ThreadSchedule::kSerial &&
         omp_get_max_threads() > 1;
#else
  return false;
#endif
}

bool HymvOperator::taskgraph_active() const {
  return options_.taskgraph && options_.overlap &&
         options_.schedule == ThreadSchedule::kColored &&
         maps_.exchange().supports_taskgraph();
}

void HymvOperator::emv_range(std::span<const std::int64_t> order,
                             std::int64_t begin, std::int64_t end, double* ue,
                             double* ve) {
  sweep_.range(order, begin, end, u_da_.all(), v_da_.all(), ue, ve);
}

void HymvOperator::emv_loop(const ElementSchedule& sched,
                            std::span<const std::int64_t> elements) {
  if (options_.schedule == ThreadSchedule::kColored) {
    HYMV_TRACE_SCOPE("emv", "apply");
    DualTimer timer;
    // The shared sweep runs the color-major block traversal (threaded team
    // or the bitwise-identical serial execution of the same order).
    sweep_.colored_loop(sched, threading_active(), comm_rank_, u_da_.all(),
                        v_da_.all());
    timer.add_to(metrics_.emv_s, metrics_.emv_cpu_s);
    return;
  }

#ifdef _OPENMP
  if (options_.schedule == ThreadSchedule::kBufferReduce &&
      threading_active()) {
    const std::span<double> v = v_da_.all();
    const std::span<const double> u = u_da_.all();
    const int nthreads = omp_get_max_threads();
    if (thread_bufs_.size() < static_cast<std::size_t>(nthreads)) {
      thread_bufs_.resize(static_cast<std::size_t>(nthreads));
    }
    HYMV_TRACE_SCOPE("emv", "apply");
    DualTimer timer;
    // Per-thread accumulation buffers dodge the scatter-add race at the
    // cost of zeroing and collapsing nthreads full DA copies per call —
    // the overhead the colored schedule exists to remove. Kept as the
    // legacy fallback / ablation baseline.
#pragma omp parallel num_threads(nthreads)
    {
      thread_bufs_[static_cast<std::size_t>(omp_get_thread_num())].assign(
          v.size(), 0.0);
    }
    timer.add_to(metrics_.reduce_s, metrics_.reduce_cpu_s);
    timer.restart();
#pragma omp parallel num_threads(nthreads)
    {
      hymv::obs::set_current_rank(comm_rank_);
      HYMV_TRACE_SCOPE("emv_worker", "apply");
      const std::int64_t t = omp_get_thread_num();
      const std::int64_t team = omp_get_num_threads();
      auto& buf = thread_bufs_[static_cast<std::size_t>(t)];
      // The shared sweep over this thread's static chunk of the elements,
      // scattering into the thread's own buffer.
      const auto ne = static_cast<std::int64_t>(elements.size());
      hymv::aligned_vector<double> ue(sweep_.workspace_size()),
          ve(sweep_.workspace_size());
      sweep_.range(elements, ne * t / team, ne * (t + 1) / team, u, buf,
                   ue.data(), ve.data());
    }
    timer.add_to(metrics_.emv_s, metrics_.emv_cpu_s);
    timer.restart();
    // Collapse the thread buffers into v.
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(v.size()); ++i) {
      double sum = 0.0;
      for (int tt = 0; tt < nthreads; ++tt) {
        sum += thread_bufs_[static_cast<std::size_t>(tt)]
                           [static_cast<std::size_t>(i)];
      }
      v[static_cast<std::size_t>(i)] += sum;
    }
    timer.add_to(metrics_.reduce_s, metrics_.reduce_cpu_s);
    return;
  }
#endif

  // kSerial (and any strategy with threading unavailable/disabled): the
  // plain element-order loop (one range, so aligned interleaved runs still
  // batch).
  HYMV_TRACE_SCOPE("emv", "apply");
  DualTimer timer;
  sweep_.serial_loop(elements, u_da_.all(), v_da_.all());
  timer.add_to(metrics_.emv_s, metrics_.emv_cpu_s);
}

void HymvOperator::emv_dep_taskgraph(simmpi::Comm& comm) {
  const auto n = static_cast<std::size_t>(store_.ndofs());
  const std::size_t ws =
      n * static_cast<std::size_t>(ElementMatrixStore::kBatchElems);
  const std::span<const std::int64_t> order = dep_sched_.order();
  pla::GhostExchange& ex = maps_.exchange();

  const auto load_peer = [&](int peer) {
    const std::int64_t off = ex.recv_peer_ghost_offset(peer);
    u_da_.load_ghost_range(ex.ghost_values(), off,
                           off + ex.recv_peer_count(peer));
  };

  HYMV_TRACE_SCOPE("emv", "apply");
  DualTimer timer;
  ApplyTaskGraph::RunStats stats;
#ifdef _OPENMP
  if (threading_active()) {
    // Each ready batch is a set of same-color blocks, so the batch is
    // conflict-free and runs under the usual colored team; the orchestration
    // (message drain + unlock bookkeeping) stays on this thread between
    // batches.
    const auto run_blocks = [&](int c, std::span<const std::int32_t> ready) {
      const std::span<const ElementSchedule::Block> blocks =
          dep_sched_.blocks(c);
#pragma omp parallel
      {
        hymv::obs::set_current_rank(comm_rank_);
        HYMV_TRACE_SCOPE("emv_worker", "apply");
        hymv::aligned_vector<double> ue(ws), ve(ws);
#pragma omp for schedule(dynamic, 1)
        for (std::int64_t i = 0; i < static_cast<std::int64_t>(ready.size());
             ++i) {
          const ElementSchedule::Block& blk = blocks[static_cast<std::size_t>(
              ready[static_cast<std::size_t>(i)])];
          emv_range(order, blk.begin, blk.end, ue.data(), ve.data());
        }
      }
    };
    stats = dep_graph_.run(comm, ex, run_blocks, load_peer);
  } else
#endif
  {
    hymv::aligned_vector<double> ue(ws), ve(ws);
    const auto run_blocks = [&](int c, std::span<const std::int32_t> ready) {
      const std::span<const ElementSchedule::Block> blocks =
          dep_sched_.blocks(c);
      for (const std::int32_t b : ready) {
        const ElementSchedule::Block& blk =
            blocks[static_cast<std::size_t>(b)];
        emv_range(order, blk.begin, blk.end, ue.data(), ve.data());
      }
    };
    stats = dep_graph_.run(comm, ex, run_blocks, load_peer);
  }
  // The blocked-on-neighbor share of the traversal is communication, not
  // element work: report it under its own gauge and keep emv_s comparable
  // with the two-phase path.
  metrics_.emv_s->add(timer.wall.elapsed_s() - stats.wait_s);
  metrics_.emv_cpu_s->add(timer.cpu.elapsed_s());
  metrics_.taskgraph_wait_s->add(stats.wait_s);
  metrics_.taskgraph_unlocks->add(stats.unlocks);
}

void reduce_da_to_owned(simmpi::Comm& comm, DofMaps& maps,
                        const DistributedArray& v,
                        std::span<double> ghost_scratch,
                        std::span<double> owned_out) {
  v.store_ghosts(ghost_scratch);
  maps.exchange().reverse_begin(comm, ghost_scratch);
  std::copy(v.owned().begin(), v.owned().end(), owned_out.begin());
  maps.exchange().reverse_end(comm, owned_out);
}

void HymvOperator::reduce_v_to_owned(simmpi::Comm& comm,
                                     std::span<double> owned_out) {
  reduce_da_to_owned(comm, maps_, v_da_, ghost_buf_, owned_out);
}

void HymvOperator::apply(simmpi::Comm& comm, const pla::DistVector& x,
                         pla::DistVector& y) {
  HYMV_CHECK_MSG(x.owned_size() == maps_.n_owned() &&
                     y.owned_size() == maps_.n_owned(),
                 "HymvOperator::apply: vector size mismatch");
  HYMV_TRACE_SCOPE("apply", "hymv");
  // Stage u into the distributed array and start the LNSM scatter.
  std::copy(x.values().begin(), x.values().end(), u_da_.owned().begin());
  v_da_.fill(0.0);

  DualTimer timer;
  if (taskgraph_active()) {
    timer.restart();
    maps_.exchange().forward_begin(comm, x.values());
    timer.add_to(metrics_.lnsm_s, metrics_.lnsm_cpu_s);
    emv_loop(indep_sched_,  // overlap with communication
             maps_.independent_elements());
    // Dependency-driven dependent phase: each per-neighbor completion loads
    // that peer's ghost slice and unlocks only the blocks it gates — no
    // all-neighbors barrier.
    emv_dep_taskgraph(comm);
    timer.restart();
    maps_.exchange().forward_end(comm);  // retire the sends; receives are
                                         // already consumed by the traversal
    timer.add_to(metrics_.lnsm_s, metrics_.lnsm_cpu_s);
  } else if (options_.overlap) {
    timer.restart();
    maps_.exchange().forward_begin(comm, x.values());
    timer.add_to(metrics_.lnsm_s, metrics_.lnsm_cpu_s);
    emv_loop(indep_sched_,  // overlap with communication
             maps_.independent_elements());
    timer.restart();
    maps_.exchange().forward_end(comm);
    u_da_.load_ghosts(maps_.exchange().ghost_values());
    timer.add_to(metrics_.lnsm_s, metrics_.lnsm_cpu_s);
    emv_loop(dep_sched_, maps_.dependent_elements());
  } else {
    timer.restart();
    maps_.exchange().forward_begin(comm, x.values());
    maps_.exchange().forward_end(comm);
    u_da_.load_ghosts(maps_.exchange().ghost_values());
    timer.add_to(metrics_.lnsm_s, metrics_.lnsm_cpu_s);
    emv_loop(indep_sched_, maps_.independent_elements());
    emv_loop(dep_sched_, maps_.dependent_elements());
  }

  // GNGM: ship ghost contributions back to their owners and accumulate.
  timer.restart();
  {
    HYMV_TRACE_SCOPE("reduce", "apply");
    reduce_v_to_owned(comm, y.values());
  }
  timer.add_to(metrics_.gngm_s, metrics_.gngm_cpu_s);
  metrics_.applies->inc();
}

void HymvOperator::ensure_multi_buffers(int k) {
  if (multi_width_ == k) {
    return;
  }
  u_mda_ = std::make_unique<DistributedArray>(maps_, k);
  v_mda_ = std::make_unique<DistributedArray>(maps_, k);
  ghost_panel_buf_.assign(
      static_cast<std::size_t>((maps_.n_pre() + maps_.n_post()) * k), 0.0);
  multi_width_ = k;
}

void HymvOperator::emv_range_multi(std::span<const std::int64_t> order,
                                   std::int64_t begin, std::int64_t end,
                                   std::size_t k, double* ue, double* ve) {
  sweep_.range_multi(order, begin, end, k, u_mda_->all(), v_mda_->all(), ue,
                     ve);
}

void HymvOperator::emv_loop_multi(const ElementSchedule& sched,
                                  std::span<const std::int64_t> elements,
                                  int k) {
  const auto ku = static_cast<std::size_t>(k);
  if (options_.schedule == ThreadSchedule::kColored) {
    HYMV_TRACE_SCOPE("emv", "apply");
    DualTimer timer;
    sweep_.colored_loop_multi(sched, threading_active(), comm_rank_, ku,
                              u_mda_->all(), v_mda_->all());
    timer.add_to(metrics_.emv_s, metrics_.emv_cpu_s);
    return;
  }

  // kSerial — and kBufferReduce, which has no panel variant (per-thread
  // panel buffers would cost nthreads × da_size × k doubles per apply;
  // the colored schedule is the supported threaded mode): plain
  // element-order traversal.
  HYMV_TRACE_SCOPE("emv", "apply");
  DualTimer timer;
  sweep_.serial_loop_multi(elements, ku, u_mda_->all(), v_mda_->all());
  timer.add_to(metrics_.emv_s, metrics_.emv_cpu_s);
}

void HymvOperator::emv_dep_taskgraph_multi(simmpi::Comm& comm, int k) {
  const auto n = static_cast<std::size_t>(store_.ndofs());
  const auto ku = static_cast<std::size_t>(k);
  const std::size_t ws =
      n * static_cast<std::size_t>(ElementMatrixStore::kBatchElems) * ku;
  const std::span<const std::int64_t> order = dep_sched_.order();
  pla::GhostExchange& ex = maps_.exchange();

  const auto load_peer = [&](int peer) {
    const std::int64_t off = ex.recv_peer_ghost_offset(peer);
    u_mda_->load_ghost_range(ex.ghost_panel(), off,
                             off + ex.recv_peer_count(peer));
  };

  HYMV_TRACE_SCOPE("emv", "apply");
  DualTimer timer;
  ApplyTaskGraph::RunStats stats;
#ifdef _OPENMP
  if (threading_active()) {
    const auto run_blocks = [&](int c, std::span<const std::int32_t> ready) {
      const std::span<const ElementSchedule::Block> blocks =
          dep_sched_.blocks(c);
#pragma omp parallel
      {
        hymv::obs::set_current_rank(comm_rank_);
        HYMV_TRACE_SCOPE("emv_worker", "apply");
        hymv::aligned_vector<double> ue(ws), ve(ws);
#pragma omp for schedule(dynamic, 1)
        for (std::int64_t i = 0; i < static_cast<std::int64_t>(ready.size());
             ++i) {
          const ElementSchedule::Block& blk = blocks[static_cast<std::size_t>(
              ready[static_cast<std::size_t>(i)])];
          emv_range_multi(order, blk.begin, blk.end, ku, ue.data(),
                          ve.data());
        }
      }
    };
    stats = dep_graph_.run(comm, ex, run_blocks, load_peer);
  } else
#endif
  {
    hymv::aligned_vector<double> ue(ws), ve(ws);
    const auto run_blocks = [&](int c, std::span<const std::int32_t> ready) {
      const std::span<const ElementSchedule::Block> blocks =
          dep_sched_.blocks(c);
      for (const std::int32_t b : ready) {
        const ElementSchedule::Block& blk =
            blocks[static_cast<std::size_t>(b)];
        emv_range_multi(order, blk.begin, blk.end, ku, ue.data(), ve.data());
      }
    };
    stats = dep_graph_.run(comm, ex, run_blocks, load_peer);
  }
  metrics_.emv_s->add(timer.wall.elapsed_s() - stats.wait_s);
  metrics_.emv_cpu_s->add(timer.cpu.elapsed_s());
  metrics_.taskgraph_wait_s->add(stats.wait_s);
  metrics_.taskgraph_unlocks->add(stats.unlocks);
}

void HymvOperator::apply_multi(simmpi::Comm& comm,
                               const pla::DistMultiVector& x,
                               pla::DistMultiVector& y) {
  const int k = x.width();
  HYMV_CHECK_MSG(k >= 1 && y.width() == k,
                 "HymvOperator::apply_multi: panel width mismatch");
  HYMV_CHECK_MSG(x.owned_size() == maps_.n_owned() &&
                     y.owned_size() == maps_.n_owned(),
                 "HymvOperator::apply_multi: vector size mismatch");
  HYMV_TRACE_SCOPE("apply_multi", "hymv");
  ensure_multi_buffers(k);
  // The panel DA and DistMultiVector share the lane-interleaved layout, so
  // staging is one contiguous copy.
  std::copy(x.values().begin(), x.values().end(), u_mda_->owned().begin());
  v_mda_->fill(0.0);

  DualTimer timer;
  if (taskgraph_active()) {
    timer.restart();
    maps_.exchange().forward_begin_multi(comm, x.values(), k);
    timer.add_to(metrics_.lnsm_s, metrics_.lnsm_cpu_s);
    emv_loop_multi(indep_sched_,  // overlap with communication
                   maps_.independent_elements(), k);
    emv_dep_taskgraph_multi(comm, k);
    timer.restart();
    maps_.exchange().forward_end_multi(comm);  // retire the sends
    timer.add_to(metrics_.lnsm_s, metrics_.lnsm_cpu_s);
  } else if (options_.overlap) {
    timer.restart();
    maps_.exchange().forward_begin_multi(comm, x.values(), k);
    timer.add_to(metrics_.lnsm_s, metrics_.lnsm_cpu_s);
    emv_loop_multi(indep_sched_,  // overlap with communication
                   maps_.independent_elements(), k);
    timer.restart();
    maps_.exchange().forward_end_multi(comm);
    u_mda_->load_ghosts(maps_.exchange().ghost_panel());
    timer.add_to(metrics_.lnsm_s, metrics_.lnsm_cpu_s);
    emv_loop_multi(dep_sched_, maps_.dependent_elements(), k);
  } else {
    timer.restart();
    maps_.exchange().forward_begin_multi(comm, x.values(), k);
    maps_.exchange().forward_end_multi(comm);
    u_mda_->load_ghosts(maps_.exchange().ghost_panel());
    timer.add_to(metrics_.lnsm_s, metrics_.lnsm_cpu_s);
    emv_loop_multi(indep_sched_, maps_.independent_elements(), k);
    emv_loop_multi(dep_sched_, maps_.dependent_elements(), k);
  }

  // GNGM over whole panels: one message per neighbor per direction.
  timer.restart();
  {
    HYMV_TRACE_SCOPE("reduce", "apply");
    v_mda_->store_ghosts(ghost_panel_buf_);
    maps_.exchange().reverse_begin_multi(comm, ghost_panel_buf_, k);
    std::copy(v_mda_->owned().begin(), v_mda_->owned().end(),
              y.values().begin());
    maps_.exchange().reverse_end_multi(comm, y.values());
  }
  timer.add_to(metrics_.gngm_s, metrics_.gngm_cpu_s);
  metrics_.applies->inc();
}

void HymvOperator::diagonal_loop(const ElementSchedule& sched,
                                 std::span<const std::int64_t> elements) {
  if (options_.schedule == ThreadSchedule::kColored) {
    sweep_.diagonal_colored(sched, threading_active(), v_da_.all());
    return;
  }
  // kSerial / kBufferReduce: the diagonal scatter is too small to warrant
  // thread buffers — run the plain element-order loop.
  sweep_.diagonal_serial(elements, v_da_.all());
}

std::vector<double> HymvOperator::diagonal(simmpi::Comm& comm) {
  v_da_.fill(0.0);
  // Independent ∪ dependent covers every local element exactly once.
  diagonal_loop(indep_sched_, maps_.independent_elements());
  diagonal_loop(dep_sched_, maps_.dependent_elements());
  std::vector<double> diag(static_cast<std::size_t>(maps_.n_owned()), 0.0);
  reduce_v_to_owned(comm, diag);
  return diag;
}

pla::CsrMatrix HymvOperator::owned_block(simmpi::Comm& comm) {
  // Block-local assembly: entries (gi, gj) with both DoFs owned by the same
  // rank belong to that rank's diagonal block. Entries whose two DoFs live
  // on different ranks are off-block and dropped. Contributions for a
  // remote rank's block (this rank's elements touching two of its nodes)
  // are shipped to it.
  const auto n = static_cast<std::size_t>(store_.ndofs());
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
                             store_.at(e, static_cast<int>(a),
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
  HYMV_CHECK_MSG(op.num_dofs() == store_.ndofs(),
                 "update_elements: operator size mismatch");
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
    return store_.try_set(e, ke);
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
  HYMV_CHECK_MSG(op.num_dofs() == store_.ndofs(),
                 "scrub_store: operator size mismatch");
  const auto nper = static_cast<std::size_t>(op.num_nodes());
  return store_.scrub([&](std::int64_t e, std::span<double> ke) {
    op.element_matrix(
        std::span<const mesh::Point>(elem_coords_.data() + e * nper, nper),
        ke);
  });
}

std::int64_t HymvOperator::apply_flops() const {
  const auto n = static_cast<std::int64_t>(store_.ndofs());
  return maps_.num_elements() * 2 * n * n;
}

std::int64_t HymvOperator::apply_bytes() const {
  // Cache-level (Advisor-equivalent) traffic of the EMV sweep: the
  // layout-true matrix streaming cost (each stored scalar's load at its
  // actual width plus the v_e read-modify-write it feeds — see
  // ElementMatrixStore::emv_traffic_bytes_per_elem), plus the u_e gather
  // and v_e scatter. For kPadded this reproduces the paper's measured
  // AI ≈ 0.08 F/B; the compressed layouts report proportionally less.
  const auto n = static_cast<std::int64_t>(store_.ndofs());
  const std::int64_t per_elem =
      store_.emv_traffic_bytes_per_elem() + 40 * n;
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
  const auto n = static_cast<std::int64_t>(store_.ndofs());
  const std::int64_t per_elem =
      store_.emv_panel_traffic_bytes_per_elem() + nrhs * 40 * n;
  return maps_.num_elements() * per_elem + maps_.da_size() * 16 * nrhs;
}

}  // namespace hymv::core
