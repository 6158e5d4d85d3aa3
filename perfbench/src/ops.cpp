#include <algorithm>
#include <cstdio>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench.hpp"
#include "hymv/common/isa.hpp"

namespace perfbench {

OpTotals run_timed_ops(simmpi::Comm& comm, TraceLane* lane,
                       const hymv::core::HymvOperator& hymv, double seconds,
                       int cycle, const std::function<void(std::int64_t)>& op,
                       const std::function<std::string(std::int64_t)>& check) {
  OpTotals totals;
  hymv::obs::Counter& allreduces = comm.metrics().counter("cg.allreduces");
  comm.barrier();
  const Clock::time_point start = Clock::now();
  std::int64_t failures = 0;
  for (std::int64_t i = 0;; ++i) {
    comm.barrier();
    const simmpi::TrafficCounters c0 = comm.counters();
    const std::int64_t a0 = allreduces.value();
    const hymv::core::ApplyBreakdown b0 = hymv.apply_breakdown();
    if (lane != nullptr) {
      lane->set_phase(i, -1);
    }
    const Clock::time_point t0 = Clock::now();
    {
      Span span(lane, "op");
      op(i);
      comm.barrier();
    }
    const Clock::time_point t1 = Clock::now();
    const simmpi::TrafficCounters c1 = comm.counters();
    const hymv::core::ApplyBreakdown b1 = hymv.apply_breakdown();
    totals.messages += c1.messages_sent - c0.messages_sent;
    totals.bytes += c1.bytes_sent - c0.bytes_sent;
    totals.allreduces += allreduces.value() - a0;
    totals.apply.lnsm_s += b1.lnsm_s - b0.lnsm_s;
    totals.apply.emv_s += b1.emv_s - b0.emv_s;
    totals.apply.gngm_s += b1.gngm_s - b0.gngm_s;
    totals.op_ms.push_back(ms_between(t0, t1));

    const std::string why = check(i);
    totals.failed.push_back(why.empty() ? 0 : 1);
    if (!why.empty() && ++failures <= 5) {
      std::fprintf(stderr, "perfbench: rank %d op %lld failed: %s\n",
                   comm.rank(), static_cast<long long>(i), why.c_str());
    }
    const int stop = comm.rank() == 0 && (i + 1) % cycle == 0 &&
                     ms_between(start, Clock::now()) >= 1e3 * seconds;
    if (comm.allreduce(stop, simmpi::ReduceOp::kMax) != 0) {
      break;
    }
  }
  if (lane != nullptr) {
    lane->set_phase(-1, -1);
  }
  return totals;
}

void reduce_op_totals(simmpi::Comm& comm, const OpTotals& mine,
                      Result& out) {
  using simmpi::ReduceOp;
  const std::size_t n = mine.op_ms.size();
  std::vector<double> op_ms(n);
  comm.allreduce(std::span<const double>(mine.op_ms), std::span<double>(op_ms),
                 ReduceOp::kMax);
  std::vector<int> failed(n);
  comm.allreduce(std::span<const int>(mine.failed), std::span<int>(failed),
                 ReduceOp::kMax);
  const double sums_in[] = {static_cast<double>(mine.messages),
                            static_cast<double>(mine.bytes), mine.apply.lnsm_s,
                            mine.apply.emv_s, mine.apply.gngm_s};
  double sums[std::size(sums_in)];
  comm.allreduce(std::span<const double>(sums_in), std::span<double>(sums),
                 ReduceOp::kSum);
  if (comm.rank() != 0) {
    return;
  }
  const double ops = static_cast<double>(n);
  const double rank_ops = ops * comm.size();
  out.op_ms = op_ms;
  out.attempted = static_cast<std::int64_t>(n);
  out.failed = std::count(failed.begin(), failed.end(), 1);
  double wall_ms = 0.0;
  for (const double ms : op_ms) {
    wall_ms += ms;
  }
  out.timed_wall_s = wall_ms / 1e3;
  out.layers.num("simmpi.messages_per_op", sums[0] / ops)
      .num("simmpi.bytes_per_op", sums[1] / ops)
      .num("pla.allreduces_per_op", static_cast<double>(mine.allreduces) / ops)
      .num("core.lnsm_s", sums[2] / rank_ops)
      .num("core.emv_s", sums[3] / rank_ops)
      .num("core.gngm_s", sums[4] / rank_ops);
}

void sample_setup(simmpi::Comm& comm,
                  const hymv::driver::SetupReport& report,
                  const hymv::core::HymvOperator& hymv, SetupSamples& samples) {
  const double in[] = {report.emat_compute_s, report.maps_s,
                       report.local_copy_s,
                       static_cast<double>(hymv.store().bytes())};
  double sums[std::size(in)];
  comm.allreduce(std::span<const double>(in), std::span<double>(sums),
                 simmpi::ReduceOp::kSum);
  if (comm.rank() == 0) {
    const double ranks = comm.size();
    samples.emat_compute_s.push_back(sums[0] / ranks);
    samples.maps_s.push_back(sums[1] / ranks);
    samples.local_copy_s.push_back(sums[2] / ranks);
    samples.store_mb = sums[3] / (1024.0 * 1024.0);
  }
}

void report_setup(simmpi::Comm& comm, const SetupSamples& samples,
                  const hymv::pla::LinearOperator& a, Result& out) {
  const double in[] = {static_cast<double>(a.apply_flops()),
                       static_cast<double>(a.apply_bytes())};
  double sums[std::size(in)];
  comm.allreduce(std::span<const double>(in), std::span<double>(sums),
                 simmpi::ReduceOp::kSum);
  if (comm.rank() == 0) {
    out.layers.num("core.emat_compute_s", median(samples.emat_compute_s))
        .num("core.maps_s", median(samples.maps_s))
        .num("core.local_copy_s", median(samples.local_copy_s))
        .num("core.store_mb", samples.store_mb)
        .num("apply_flops_per_call", sums[0])
        .num("apply_bytes_per_call", sums[1]);
  }
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

Json base_config(const Args& args) {
  Json config;
  config.str("workload", args.workload)
      .integer("seed", static_cast<std::int64_t>(args.seed))
      .num("seconds", args.seconds)
      .integer("omp_threads", omp_threads())
      .str("isa_detected", std::string(hymv::isa::to_string(hymv::isa::detected())))
      .str("isa_active", std::string(hymv::isa::to_string(hymv::isa::active())))
      .integer("traced", args.trace_file.empty() ? 0 : 1);
  return config;
}

}  // namespace perfbench
