#include "hymv/core/adaptive_operator.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <sstream>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "hymv/common/error.hpp"
#include "hymv/common/timer.hpp"
#include "hymv/obs/trace.hpp"

namespace hymv::core {

const char* to_string(RegionBackendKind kind) {
  switch (kind) {
    case RegionBackendKind::kStored:
      return "stored";
    case RegionBackendKind::kMatrixFree:
      return "matrixfree";
    case RegionBackendKind::kSell:
      return "sell";
  }
  return "?";
}

namespace {

constexpr int kNumKinds = 3;

bool kind_from_name(const char* name, RegionBackendKind* out) {
  if (std::strcmp(name, "stored") == 0) {
    *out = RegionBackendKind::kStored;
  } else if (std::strcmp(name, "matrixfree") == 0) {
    *out = RegionBackendKind::kMatrixFree;
  } else if (std::strcmp(name, "sell") == 0) {
    *out = RegionBackendKind::kSell;
  } else {
    return false;
  }
  return true;
}

/// Decision files are shared by every simmpi rank (threads of one
/// process): the first writer truncates, later ranks append; replay only
/// triggers for files that existed BEFORE this process started writing
/// them. Under real MPI this would be a rank-0 write + broadcast.
std::mutex& decision_file_mutex() {
  static std::mutex m;
  return m;
}
std::set<std::string>& decision_files_created() {
  static std::set<std::string> s;
  return s;
}

}  // namespace

AdaptiveOperator::AdaptiveOperator(simmpi::Comm& comm,
                                   const mesh::MeshPartition& part,
                                   const fem::ElementOperator& op,
                                   AdaptiveOptions options)
    : options_(std::move(options)),
      comm_rank_(comm.rank()),
      hymv_(std::make_unique<HymvOperator>(comm, part, op, options_.hymv)),
      op_(&op),
      elem_coords_(part.elem_coords) {
  HYMV_TRACE_SCOPE("setup", "adaptive");

  const DofMaps& maps = hymv_->maps();
  region_of_.assign(static_cast<std::size_t>(maps.num_elements()), 0);
  for (const std::int64_t e : maps.dependent_elements()) {
    region_of_[static_cast<std::size_t>(e)] = 1;
  }

  const bool threaded = threading_active();
  for (int r = 0; r < 2; ++r) {
    const std::vector<std::int64_t>& elems =
        r == 0 ? maps.independent_elements() : maps.dependent_elements();
    const auto ri = static_cast<std::size_t>(r);
    matrixfree_[ri] = std::make_unique<MatrixFreeRegionBackend>(
        maps, op, elem_coords_, elems, hymv_->skeleton_.schedule(r),
        threads_element_loops(options_.hymv), comm_rank_);
    sell_[ri] = std::make_unique<SellRegionBackend>(
        maps, hymv_->store(), elems, options_.sell_c, options_.sell_sigma,
        threaded);
  }

  {
    HYMV_TRACE_SCOPE("autotune", "adaptive");
    tune_region(0, maps.independent_elements());
    tune_region(1, maps.dependent_elements());
  }

  // Record freshly tuned decisions (replayed runs leave the file as-is).
  if (!options_.replay_path.empty() && !decisions_[0].replayed) {
    std::lock_guard<std::mutex> lock(decision_file_mutex());
    const bool first =
        decision_files_created().insert(options_.replay_path).second;
    std::ofstream out(options_.replay_path,
                      first ? std::ios::trunc : std::ios::app);
    HYMV_CHECK_MSG(out.is_open(), "adaptive: cannot write decision file");
    if (first) {
      out << "# hymv adaptive decisions v1: rank region backend\n";
    }
    for (const RegionDecision& d : decisions_) {
      out << comm_rank_ << ' ' << d.region << ' ' << to_string(d.choice)
          << '\n';
    }
  }

  publish_metrics();
}

bool AdaptiveOperator::threading_active() const {
#ifdef _OPENMP
  return threads_element_loops(options_.hymv) && omp_get_max_threads() > 1;
#else
  return false;
#endif
}

RegionBackend* AdaptiveOperator::backend(int region, RegionBackendKind kind) {
  const auto r = static_cast<std::size_t>(region);
  switch (kind) {
    case RegionBackendKind::kStored:
      return &hymv_->regions_[r];
    case RegionBackendKind::kMatrixFree:
      return matrixfree_[r].get();
    case RegionBackendKind::kSell:
      return sell_[r].get();
  }
  return nullptr;
}

const RegionBackend* AdaptiveOperator::backend(int region,
                                               RegionBackendKind kind) const {
  return const_cast<AdaptiveOperator*>(this)->backend(region, kind);
}

void AdaptiveOperator::tune_region(int region,
                                   const std::vector<std::int64_t>& elements) {
  (void)elements;
  RegionDecision& d = decisions_[static_cast<std::size_t>(region)];
  d.region = region == 0 ? "independent" : "dependent";

  // Model every candidate regardless of how the choice is made — the
  // scores are published for observability either way.
  for (int i = 0; i < kNumKinds; ++i) {
    const RegionBackend* b =
        backend(region, static_cast<RegionBackendKind>(i));
    d.model_s[static_cast<std::size_t>(i)] = perf::modeled_apply_s(
        options_.cpu, b->apply_flops(), b->apply_bytes());
  }

  // Priority 1: a forced backend pins the choice (ablations, the bitwise
  // equivalence tests).
  if (!options_.force.empty()) {
    const bool ok = kind_from_name(options_.force.c_str(), &d.choice);
    HYMV_CHECK_MSG(ok, "adaptive: invalid forced backend name");
    d.forced = true;
    return;
  }

  // Priority 2: replay a pre-recorded decision file — the deterministic
  // twin of a probe-tuned run.
  if (!options_.replay_path.empty()) {
    std::lock_guard<std::mutex> lock(decision_file_mutex());
    if (decision_files_created().count(options_.replay_path) == 0) {
      std::ifstream in(options_.replay_path);
      if (in.is_open()) {
        std::string line;
        while (std::getline(in, line)) {
          if (line.empty() || line[0] == '#') {
            continue;
          }
          std::istringstream fields(line);
          int rank = -1;
          std::string region_name;
          std::string backend_name;
          fields >> rank >> region_name >> backend_name;
          RegionBackendKind kind;
          if (rank == comm_rank_ && region_name == d.region &&
              kind_from_name(backend_name.c_str(), &kind)) {
            d.choice = kind;
            d.replayed = true;
            return;
          }
        }
        std::fprintf(stderr,
                     "hymv: decision file has no entry for rank %d region "
                     "%s; autotuning\n",
                     comm_rank_, d.region.c_str());
      }
    }
  }

  // Priority 3: autotune. Short measured probes on deterministic synthetic
  // input break the model's ties with reality; model-only when probes are
  // disabled.
  int best = 0;
  if (options_.probes > 0) {
    DistributedArray u_da(maps()), v_da(maps());
    const std::span<double> u = u_da.all();
    for (std::size_t i = 0; i < u.size(); ++i) {
      u[i] = 1.0 + 0.001 * static_cast<double>(i % 17);
    }
    for (int i = 0; i < kNumKinds; ++i) {
      RegionBackend* b = backend(region, static_cast<RegionBackendKind>(i));
      b->apply(u_da.all(), v_da.all(), 0);  // warm caches / page in
      double min_s = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < options_.probes; ++rep) {
        Timer timer;
        b->apply(u_da.all(), v_da.all(), 0);
        min_s = std::min(min_s, timer.elapsed_s());
      }
      d.probe_s[static_cast<std::size_t>(i)] = min_s;
      if (min_s < d.probe_s[static_cast<std::size_t>(best)]) {
        best = i;
      }
    }
  } else {
    for (int i = 1; i < kNumKinds; ++i) {
      if (d.model_s[static_cast<std::size_t>(i)] <
          d.model_s[static_cast<std::size_t>(best)]) {
        best = i;
      }
    }
  }
  d.choice = static_cast<RegionBackendKind>(best);
}

void AdaptiveOperator::publish_metrics() {
  for (const RegionDecision& d : decisions_) {
    const std::string prefix = "adaptive." + d.region + ".";
    for (int i = 0; i < kNumKinds; ++i) {
      const char* kind = to_string(static_cast<RegionBackendKind>(i));
      metrics_.gauge(prefix + "model_" + kind + "_s")
          .set(d.model_s[static_cast<std::size_t>(i)]);
      metrics_.gauge(prefix + "probe_" + kind + "_s")
          .set(d.probe_s[static_cast<std::size_t>(i)]);
    }
    metrics_.gauge(prefix + "choice").set(static_cast<double>(d.choice));
    if (d.forced) {
      metrics_.counter("adaptive.decisions_forced").inc();
    }
    if (d.replayed) {
      metrics_.counter("adaptive.decisions_replayed").inc();
    }
  }
  metrics_.gauge("adaptive.sell.c").set(options_.sell_c);
  metrics_.gauge("adaptive.sell.sigma").set(options_.sell_sigma);
  metrics_.gauge("adaptive.sell.assembly_s")
      .set(sell_[0]->last_assembly_s() + sell_[1]->last_assembly_s());
}

void AdaptiveOperator::apply(simmpi::Comm& comm, const pla::DistVector& x,
                             pla::DistVector& y) {
  HYMV_TRACE_SCOPE("apply", "adaptive");
  hymv_->skeleton_.apply(comm, x, y, *chosen(0), *chosen(1));
}

void AdaptiveOperator::apply_multi(simmpi::Comm& comm,
                                   const pla::DistMultiVector& x,
                                   pla::DistMultiVector& y) {
  HYMV_TRACE_SCOPE("apply_multi", "adaptive");
  hymv_->skeleton_.apply_multi(comm, x, y, *chosen(0), *chosen(1));
}

std::vector<double> AdaptiveOperator::diagonal(simmpi::Comm& comm) {
  return hymv_->skeleton_.diagonal(comm, [&](std::span<double> v) {
    chosen(0)->add_diagonal(v);
    chosen(1)->add_diagonal(v);
  });
}

pla::CsrMatrix AdaptiveOperator::owned_block(simmpi::Comm& comm) {
  return hymv_->owned_block(comm);
}

void AdaptiveOperator::update_elements(
    std::span<const std::int64_t> local_elements,
    const fem::ElementOperator& op) {
  // Store update first (validates, recomputes in place, no communication).
  hymv_->update_elements(local_elements, op);
  op_ = &op;
  matrixfree_[0]->set_element_op(op);
  matrixfree_[1]->set_element_op(op);

  // Only dirty regions re-assemble — the adaptive fast path.
  std::array<std::vector<std::int64_t>, 2> dirty;
  for (const std::int64_t e : local_elements) {
    dirty[region_of_[static_cast<std::size_t>(e)]].push_back(e);
  }
  for (int r = 0; r < 2; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    if (!dirty[ri].empty()) {
      sell_[ri]->update_elements(dirty[ri]);
      hymv_->regions_[ri].update_elements(dirty[ri]);  // no-op by contract
      matrixfree_[ri]->update_elements(dirty[ri]);     // no-op by contract
    }
  }
  metrics_.gauge("adaptive.sell.assembly_s")
      .set(sell_[0]->last_assembly_s() + sell_[1]->last_assembly_s());
  metrics_.counter("adaptive.updates").inc();
}

std::int64_t AdaptiveOperator::apply_flops() const {
  const std::int64_t r0 = backend(0, decisions_[0].choice)->apply_flops();
  const std::int64_t r1 = backend(1, decisions_[1].choice)->apply_flops();
  return r0 + r1;
}

std::int64_t AdaptiveOperator::apply_bytes() const {
  // Region kernels + the shared DA staging term, charged once (the
  // HymvOperator::apply_bytes convention).
  const std::int64_t r0 = backend(0, decisions_[0].choice)->apply_bytes();
  const std::int64_t r1 = backend(1, decisions_[1].choice)->apply_bytes();
  return r0 + r1 + maps().da_size() * 16;
}

std::int64_t AdaptiveOperator::apply_flops_multi(int nrhs) const {
  return backend(0, decisions_[0].choice)->apply_flops_multi(nrhs) +
         backend(1, decisions_[1].choice)->apply_flops_multi(nrhs);
}

std::int64_t AdaptiveOperator::apply_bytes_multi(int nrhs) const {
  return backend(0, decisions_[0].choice)->apply_bytes_multi(nrhs) +
         backend(1, decisions_[1].choice)->apply_bytes_multi(nrhs) +
         maps().da_size() * 16 * nrhs;
}

}  // namespace hymv::core
