#include "hymv/core/apply_skeleton.hpp"

#include <algorithm>

#include "dual_timer.hpp"
#include "hymv/common/error.hpp"
#include "hymv/obs/trace.hpp"

namespace hymv::core {

namespace {

/// The schedule `strategy` traverses `elements` in: kColored colors blocks
/// of kDefaultBlockElems; kSerial keeps the whole subset as one block in
/// subset order — the plain element-order loop, run on one thread.
ElementSchedule schedule_for(const DofMaps& maps,
                             std::span<const std::int64_t> elements,
                             ThreadSchedule strategy) {
  const auto ne = static_cast<std::int64_t>(elements.size());
  return ElementSchedule(maps, elements,
                         strategy == ThreadSchedule::kSerial
                             ? std::max<std::int64_t>(ne, 1)
                             : ElementSchedule::kDefaultBlockElems);
}

}  // namespace

ApplySkeleton::Gauges::Gauges(hymv::obs::MetricsRegistry& registry)
    : lnsm_s(&registry.gauge("apply.lnsm_s")),
      lnsm_cpu_s(&registry.gauge("apply.lnsm_cpu_s")),
      emv_s(&registry.gauge("apply.emv_s")),
      emv_cpu_s(&registry.gauge("apply.emv_cpu_s")),
      gngm_s(&registry.gauge("apply.gngm_s")),
      gngm_cpu_s(&registry.gauge("apply.gngm_cpu_s")),
      taskgraph_wait_s(&registry.gauge("apply.taskgraph_wait_s")),
      taskgraph_unlocks(&registry.counter("apply.taskgraph_unlocks")),
      applies(&registry.counter("apply.applies")) {}

ApplySkeleton::Staging::Staging(const DofMaps& maps, int width)
    : u(maps, width),
      v(maps, width),
      ghosts(static_cast<std::size_t>((maps.n_pre() + maps.n_post()) * width),
             0.0) {}

ApplySkeleton::ApplySkeleton(DofMaps& maps, const HymvOptions& options,
                             hymv::obs::MetricsRegistry& registry)
    : maps_(&maps),
      options_(&options),
      gauges_(registry),
      single_(maps, 1) {
  HYMV_TRACE_SCOPE("setup.schedule", "setup");
  DualTimer timer;
  schedules_[0] =
      schedule_for(maps, maps.independent_elements(), options.schedule);
  schedules_[1] =
      schedule_for(maps, maps.dependent_elements(), options.schedule);
  dep_graph_ = ApplyTaskGraph(maps, schedules_[1]);
  timer.add_to(&registry.gauge("setup.schedule_s"),
               &registry.gauge("setup.schedule_cpu_s"));
}

ApplySkeleton::Staging& ApplySkeleton::staging(int lanes) {
  if (lanes <= 1) {
    return single_;
  }
  if (!panel_ || panel_->u.width() != lanes) {
    panel_ = std::make_unique<Staging>(*maps_, lanes);
  }
  return *panel_;
}

void ApplySkeleton::apply(simmpi::Comm& comm, const pla::DistVector& x,
                          pla::DistVector& y, RegionBackend& independent,
                          RegionBackend& dependent) {
  HYMV_CHECK_MSG(x.owned_size() == maps_->n_owned() &&
                     y.owned_size() == maps_->n_owned(),
                 "apply: vector size mismatch");
  run(comm, x.values(), y.values(), 0, independent, dependent);
}

void ApplySkeleton::apply_multi(simmpi::Comm& comm,
                                const pla::DistMultiVector& x,
                                pla::DistMultiVector& y,
                                RegionBackend& independent,
                                RegionBackend& dependent) {
  const int k = x.width();
  HYMV_CHECK_MSG(k >= 1 && y.width() == k,
                 "apply_multi: panel width mismatch");
  HYMV_CHECK_MSG(x.owned_size() == maps_->n_owned() &&
                     y.owned_size() == maps_->n_owned(),
                 "apply_multi: vector size mismatch");
  run(comm, x.values(), y.values(), k, independent, dependent);
}

void ApplySkeleton::run(simmpi::Comm& comm, std::span<const double> x,
                        std::span<double> y, int lanes,
                        RegionBackend& independent,
                        RegionBackend& dependent) {
  // Stage u into the distributed array (the DA and the distributed
  // vectors share the lane-interleaved layout, so this is one copy).
  Staging& s = staging(lanes);
  std::copy(x.begin(), x.end(), s.u.owned().begin());
  s.v.fill(0.0);
  pla::GhostExchange& ex = maps_->exchange();
  const int width = s.u.width();

  DualTimer timer;
  const auto lnsm = [&](const auto& step) {
    timer.restart();
    step();
    timer.add_to(gauges_.lnsm_s, gauges_.lnsm_cpu_s);
  };
  const auto emv = [&](RegionBackend& region) {
    HYMV_TRACE_SCOPE("emv", "apply");
    DualTimer emv_timer;
    region.apply(s.u.all(), s.v.all(), lanes);
    emv_timer.add_to(gauges_.emv_s, gauges_.emv_cpu_s);
  };
  const auto load_ghosts = [&] { s.u.load_ghosts(ex.ghost_values()); };

  ElementBlockBackend* dep_blocks = dependent.element_blocks();
  if (options_->overlap && options_->taskgraph &&
      options_->schedule == ThreadSchedule::kColored && dep_blocks &&
      ex.supports_taskgraph()) {
    lnsm([&] { ex.forward_begin(comm, x, width); });
    emv(independent);  // overlaps the exchange
    // Each per-neighbor completion loads that peer's ghost slice and
    // unlocks only the blocks it gates — no all-neighbors barrier.
    run_taskgraph(comm, *dep_blocks, s, lanes);
    // Retire the sends; the traversal already consumed the receives.
    lnsm([&] { ex.forward_end(comm); });
  } else if (options_->overlap) {
    lnsm([&] { ex.forward_begin(comm, x, width); });
    emv(independent);  // overlaps the exchange
    lnsm([&] {
      ex.forward_end(comm);
      load_ghosts();
    });
    emv(dependent);
  } else {
    lnsm([&] {
      ex.forward_begin(comm, x, width);
      ex.forward_end(comm);
      load_ghosts();
    });
    emv(independent);
    emv(dependent);
  }
  // Asynchronous regions (the device) land their results once both
  // regions have run, so their work overlapped the exchange and the other
  // region.
  timer.restart();
  independent.complete(s.v.all(), lanes);
  dependent.complete(s.v.all(), lanes);
  timer.add_to(gauges_.emv_s, gauges_.emv_cpu_s);

  // GNGM: ship ghost contributions back to their owners and accumulate.
  timer.restart();
  {
    HYMV_TRACE_SCOPE("reduce", "apply");
    reduce_da_to_owned(comm, *maps_, s.v, s.ghosts, y);
  }
  timer.add_to(gauges_.gngm_s, gauges_.gngm_cpu_s);
  gauges_.applies->inc();
}

void ApplySkeleton::run_taskgraph(simmpi::Comm& comm,
                                  ElementBlockBackend& dependent, Staging& s,
                                  int lanes) {
  HYMV_CHECK_MSG(&dependent.schedule() == &schedules_[1],
                 "apply: the dependent backend must run the dependent "
                 "schedule");
  pla::GhostExchange& ex = maps_->exchange();
  const auto load_peer = [&](int peer) {
    const std::int64_t off = ex.recv_peer_ghost_offset(peer);
    s.u.load_ghost_range(ex.ghost_values(), off,
                         off + ex.recv_peer_count(peer));
  };
  const auto run_blocks = [&](int color, std::span<const std::int32_t> ready) {
    dependent.run_blocks(color, ready, lanes, s.u.all(), s.v.all());
  };

  HYMV_TRACE_SCOPE("emv", "apply");
  DualTimer timer;
  const ApplyTaskGraph::RunStats stats =
      dep_graph_.run(comm, ex, run_blocks, load_peer);
  // The blocked-on-neighbor share of the traversal is communication, not
  // element work: report it under its own gauge and keep emv_s comparable
  // with the two-phase path.
  gauges_.emv_s->add(timer.wall.elapsed_s() - stats.wait_s);
  gauges_.emv_cpu_s->add(timer.cpu.elapsed_s());
  gauges_.taskgraph_wait_s->add(stats.wait_s);
  gauges_.taskgraph_unlocks->add(stats.unlocks);
}

std::vector<double> ApplySkeleton::diagonal(
    simmpi::Comm& comm,
    const std::function<void(std::span<double>)>& scatter) {
  single_.v.fill(0.0);
  scatter(single_.v.all());
  std::vector<double> diag(static_cast<std::size_t>(maps_->n_owned()), 0.0);
  reduce_da_to_owned(comm, *maps_, single_.v, single_.ghosts, diag);
  return diag;
}

ApplyBreakdown ApplySkeleton::breakdown() const {
  ApplyBreakdown view;
  view.lnsm_s = gauges_.lnsm_s->value();
  view.emv_s = gauges_.emv_s->value();
  view.gngm_s = gauges_.gngm_s->value();
  view.applies = static_cast<int>(gauges_.applies->value());
  return view;
}

void ApplySkeleton::reset_breakdown() {
  for (hymv::obs::Gauge* g :
       {gauges_.lnsm_s, gauges_.lnsm_cpu_s, gauges_.emv_s, gauges_.emv_cpu_s,
        gauges_.gngm_s, gauges_.gngm_cpu_s, gauges_.taskgraph_wait_s}) {
    g->reset();
  }
  gauges_.taskgraph_unlocks->reset();
  gauges_.applies->reset();
}

void reduce_da_to_owned(simmpi::Comm& comm, DofMaps& maps,
                        const DistributedArray& v,
                        std::span<double> ghost_scratch,
                        std::span<double> owned_out) {
  v.store_ghosts(ghost_scratch);
  maps.exchange().reverse_begin(comm, ghost_scratch, v.width());
  std::copy(v.owned().begin(), v.owned().end(), owned_out.begin());
  maps.exchange().reverse_end(comm, owned_out);
}

}  // namespace hymv::core
