// Ablation study of HYMV's design choices (DESIGN.md §5):
//   1. communication/computation overlap (Algorithm 2) ON vs OFF,
//   2. EMV kernel: the scalar row-dot reference vs the register-resident
//      column sweep (the §IV-E vectorization claim), against a plain read
//      of the same store — the bandwidth floor the sweep is measured by,
//   3. element-matrix store padding: the padded leading dimension's memory
//      cost vs the aligned-load benefit (reported as store bytes),
//   4. adaptive update (update_elements) vs full re-setup as the fraction
//      of "cracked" elements grows (the §III XFEM/AMR claim),
//   5. thread schedule for the EMV scatter-add: colored conflict-free
//      scheduling vs the legacy per-thread buffer-and-reduce scheme
//      (DESIGN.md §6), with the per-apply phase breakdown,
//   6. element-matrix store layout: padded vs entry-interleaved batches vs
//      packed-symmetric vs fp32-compressed (DESIGN.md §5c) — the apply
//      phase is bandwidth-bound on the store, so streamed bytes per
//      element translate directly into apply time,
//   7. multi-RHS panel apply: k right-hand sides per matrix stream
//      (DESIGN.md §5d) — the store is read once per panel, so analytic
//      arithmetic intensity grows with k and wall time per lane drops,
//   8. resilience overhead (DESIGN.md §5e): the checksummed ghost
//      exchange's trailer + ACK round on the apply path, and the CG
//      true-residual-replacement / checkpoint features on the solve path
//      — what the fault-free run pays for the recovery machinery,
//   9. observability overhead (DESIGN.md §5f): the armed tracer's span
//      recording on the apply path vs the default disarmed state — the
//      acceptance bar is < 5% apply-wall overhead when armed,
//  10. asynchrony (DESIGN.md §5g): the task-graph dependent phase vs the
//      two-phase forward_end barrier (exchange-wait share of the apply),
//      and pipelined CG's one fused allreduce per iteration vs standard
//      CG's three,
//  11. per-region adaptive backend selection (DESIGN.md §5h): each single
//      backend (and the composite pinned to each candidate) vs the
//      autotuned AdaptiveOperator on a structured hex box and a jittered,
//      renumbered tet mesh — the autotuned pick must land within 5% of the
//      best single backend,
//  12. hardware-adaptive kernel layer (DESIGN.md §5i): forced ISA level
//      (scalar / avx2 / avx512 / auto) × NUMA first-touch on/off on the
//      Fig. 4 Poisson box and a Fig. 5-family elasticity box — every level
//      is bitwise-identical by construction, only wall time moves, and the
//      auto (runtime-dispatched) row must land within 2% of the explicitly
//      forced detected level.
//
// With --json <path>, every table row is also appended to a flat JSON
// document (schema: EXPERIMENTS.md "BENCH_ablation.json").

#include "bench_common.hpp"

#include <cstdint>
#include <limits>
#include <span>

#include "emv_reference.hpp"
#include "hymv/common/isa.hpp"
#include "hymv/common/numa.hpp"
#include "hymv/driver/env_options.hpp"
#include "hymv/obs/trace.hpp"
#include "hymv/pla/cg.hpp"
#include "hymv/pla/dist_csr.hpp"
#include "hymv/pla/preconditioner.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

/// The row-dot reference over one colored schedule of an operator's maps
/// and store: gather u_e, v_e by row dots, scatter-add v_e, in the
/// color-major block order and thread team an apply uses. A padded store
/// is dotted in place; other layouts (HYMV_STORE_LAYOUT) through at().
void rowdot_loop(const hymv::core::DofMaps& maps,
                 const hymv::core::ElementMatrixStore& store,
                 const hymv::core::ElementSchedule& sched,
                 std::span<const double> u, std::span<double> v) {
  namespace ref = hymv::reference;
  const bool padded = store.layout() == hymv::core::StoreLayout::kPadded;
  const auto n = static_cast<std::size_t>(store.ndofs());
  const auto ld = static_cast<std::size_t>(store.leading_dim());
  const std::span<const std::int64_t> order = sched.order();
#pragma omp parallel
  {
    std::vector<double> ue(n), ve(n);
    for (int c = 0; c < sched.num_colors(); ++c) {
      const auto blocks = sched.blocks(c);
#pragma omp for schedule(dynamic, 1)
      for (std::int64_t b = 0; b < static_cast<std::int64_t>(blocks.size());
           ++b) {
        const auto& blk = blocks[static_cast<std::size_t>(b)];
        for (std::int64_t i = blk.begin; i < blk.end; ++i) {
          const std::int64_t e = order[static_cast<std::size_t>(i)];
          const auto e2l = maps.e2l(e);
          for (std::size_t a = 0; a < n; ++a) {
            ue[a] = u[static_cast<std::size_t>(e2l[a])];
          }
          if (padded) {
            ref::emv_rowdot(store.data(e), ld, n, ue.data(), ve.data());
          } else {
            ref::emv_rowdot(store, e, ue.data(), ve.data());
          }
          for (std::size_t a = 0; a < n; ++a) {
            v[static_cast<std::size_t>(e2l[a])] += ve[a];
          }
        }
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bench;
  const int napplies = 10;

  const char* json_path = parse_json_arg(argc, argv);
  JsonDoc json("ablation");
  // The environment's operator knobs, resolved once; an ablation that
  // sweeps one of them sets its own value on top.
  const core::HymvOptions env_options = driver::hymv_options_from_env();

  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kElasticity;
  spec.element = mesh::ElementType::kHex20;
  spec.box = {.nx = scaled(7), .ny = scaled(7), .nz = scaled(14), .lx = 1.0,
              .ly = 1.0, .lz = 1.0, .origin = {-0.5, -0.5, 0.0}};
  spec.partitioner = mesh::Partitioner::kSlab;

  std::printf("=== Ablation 1: overlap of communication and computation "
              "(4 ranks) ===\n");
  {
    const driver::ProblemSetup setup = driver::ProblemSetup::build(spec, 4);
    for (const bool overlap : {true, false}) {
      const AggResult r = run_backend(
          setup,
          {.backend = driver::Backend::kHymv, .hymv = {.overlap = overlap}},
          napplies);
      std::printf("  overlap=%-5s spmv=%.4f s (modeled)\n",
                  overlap ? "on" : "off", r.spmv_modeled_s);
      json.add("\"ablation\": \"overlap\", \"overlap\": %s, "
               "\"spmv_modeled_s\": %.6g",
               overlap ? "true" : "false", r.spmv_modeled_s);
    }
    std::printf("  (gains grow with the comm/compute ratio; identical "
                "results verified by tests)\n\n");
  }

  std::printf("=== Ablation 2: EMV kernel vs a plain store read (1 rank, "
              "raw wall) ===\n");
  {
    const driver::ProblemSetup setup = driver::ProblemSetup::build(spec, 1);
    const AggResult sweep =
        run_backend(setup, {.backend = driver::Backend::kHymv}, napplies);
    const auto flops = static_cast<double>(sweep.flops);
    const auto kernel_row = [&](const char* name, double wall_s) {
      std::printf("  %-14s spmv=%.4f s  (%.2f GFLOP/s)\n", name, wall_s,
                  flops / wall_s / 1e9);
      json.add("\"ablation\": \"kernel\", \"kernel\": \"%s\", "
               "\"spmv_wall_s\": %.6g, \"gflops\": %.6g",
               name, wall_s, flops / wall_s / 1e9);
    };
    simmpi::run(1, [&](simmpi::Comm& comm) {
      driver::RankContext ctx(comm, setup);
      core::HymvOperator op(comm, ctx.part(), ctx.element_op(), env_options);
      // The row-dot reference: napplies sweeps of both element schedules
      // (one rank, so no ghosts to exchange) with the apply's thread team,
      // fastest of 3 rounds like the applies.
      core::DistributedArray u(op.maps()), v(op.maps());
      u.fill(1.0);
      double rowdot_s = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < 3; ++rep) {
        hymv::Timer t;
        for (int a = 0; a < napplies; ++a) {
          v.fill(0.0);
          rowdot_loop(op.maps(), op.store(), op.independent_schedule(),
                      u.all(), v.all());
          rowdot_loop(op.maps(), op.store(), op.dependent_schedule(),
                      u.all(), v.all());
        }
        rowdot_s = std::min(rowdot_s, t.elapsed_s());
      }
      kernel_row("scalar-rows", rowdot_s);
      kernel_row("register-sweep", sweep.spmv_wall_s);
      // The floor: stream the same store's bytes napplies times with the
      // same thread team (integer words, so the reduction vectorizes
      // exactly), fastest of 3 rounds like the applies above.
      const std::span<const std::byte> raw = op.store().raw_bytes();
      const std::byte* bytes = raw.data();
      const auto words = static_cast<std::int64_t>(raw.size() / 8);
      volatile std::uint64_t sink = 0;  // keeps the reads observable
      double read_s = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < 3; ++rep) {
        hymv::Timer t;
        for (int a = 0; a < napplies; ++a) {
          std::uint64_t acc = 0;
#pragma omp parallel for simd reduction(+ : acc) schedule(static)
          for (std::int64_t w = 0; w < words; ++w) {
            std::uint64_t word = 0;
            std::memcpy(&word, bytes + w * 8, 8);
            acc += word;
          }
          sink = sink + acc;
        }
        read_s = std::min(read_s, t.elapsed_s());
      }
      const double gbps = static_cast<double>(raw.size()) * napplies /
                          read_s / 1e9;
      std::printf("  %-14s read=%.4f s  (%.2f GB/s over %.2f MB; "
                  "register-sweep = %.2fx the read)\n",
                  "store-read", read_s, gbps,
                  static_cast<double>(raw.size()) / 1e6,
                  sweep.spmv_wall_s / read_s);
      json.add("\"ablation\": \"kernel\", \"kernel\": \"store-read\", "
               "\"read_wall_s\": %.6g, \"gbps\": %.6g, "
               "\"store_mb\": %.6g",
               read_s, gbps, static_cast<double>(raw.size()) / 1e6);
    });
    std::printf("  (paper §IV-E: column-major storage + SIMD is the point "
                "of storing Ke densely)\n\n");
  }

  std::printf("=== Ablation 3: store footprint (padding cost) ===\n");
  {
    const driver::ProblemSetup setup = driver::ProblemSetup::build(spec, 1);
    simmpi::run(1, [&](simmpi::Comm& comm) {
      driver::RankContext ctx(comm, setup);
      core::HymvOperator op(comm, ctx.part(), ctx.element_op(), env_options);
      const auto& store = op.store();
      const double padded_mb = static_cast<double>(store.bytes()) / 1e6;
      const double tight_mb =
          static_cast<double>(store.num_elements()) * store.ndofs() *
          store.ndofs() * 8.0 / 1e6;
      std::printf("  ndofs=%d ld=%d: store=%.2f MB vs unpadded %.2f MB "
                  "(+%.1f%% for aligned columns)\n\n",
                  store.ndofs(), store.leading_dim(), padded_mb, tight_mb,
                  100.0 * (padded_mb / tight_mb - 1.0));
      json.add("\"ablation\": \"padding\", \"ndofs\": %d, \"ld\": %d, "
               "\"store_mb\": %.6g, \"unpadded_mb\": %.6g",
               store.ndofs(), store.leading_dim(), padded_mb, tight_mb);
    });
  }

  std::printf("=== Ablation 4: adaptive update vs full re-setup (1 rank) "
              "===\n");
  {
    const driver::ProblemSetup setup = driver::ProblemSetup::build(spec, 1);
    simmpi::run(1, [&](simmpi::Comm& comm) {
      driver::RankContext ctx(comm, setup);
      core::HymvOperator op(comm, ctx.part(), ctx.element_op(), env_options);
      fem::ElasticityOperator softened(spec.element, spec.young,
                                       spec.poisson_ratio);
      softened.set_stiffness_scale(0.5);
      const std::int64_t ne = ctx.part().num_local_elements();
      std::printf("  %-12s %-14s %-16s %-10s\n", "updated", "update (s)",
                  "full setup (s)", "speedup");
      for (const double frac : {0.01, 0.05, 0.25, 1.0}) {
        std::vector<std::int64_t> targets;
        const auto count = static_cast<std::int64_t>(
            std::max(1.0, frac * static_cast<double>(ne)));
        for (std::int64_t e = 0; e < count; ++e) {
          targets.push_back(e);
        }
        hymv::Timer t_update;
        op.update_elements(targets, softened);
        const double update_s = t_update.elapsed_s();
        hymv::Timer t_full;
        core::HymvOperator rebuilt(comm, ctx.part(), ctx.element_op(),
                                   env_options);
        const double full_s = t_full.elapsed_s();
        std::printf("  %5.0f%%       %-14.5f %-16.5f %-10.1f\n",
                    100.0 * frac, update_s, full_s,
                    update_s > 0 ? full_s / update_s : 0.0);
        json.add("\"ablation\": \"adaptive_update\", \"fraction\": %.6g, "
                 "\"update_s\": %.6g, \"full_setup_s\": %.6g",
                 frac, update_s, full_s);
      }
      std::printf("  (update cost is proportional to the touched elements "
                  "only — the adaptive-matrix property)\n");
    });
  }

  std::printf("\n=== Ablation 5: thread schedule for the EMV scatter-add "
              "(1 rank, raw wall) ===\n");
#ifdef _OPENMP
  {
    // The Fig. 4 Poisson strong-scaling mesh at one rank. The colored
    // schedule at 1/2/4/8 threads against the one-thread kSerial
    // element-order loop; the colored scheme's per-apply overhead is one
    // barrier per color.
    driver::ProblemSpec pspec;
    pspec.pde = driver::Pde::kPoisson;
    pspec.element = mesh::ElementType::kHex8;
    pspec.box = {.nx = scaled(13), .ny = scaled(13), .nz = scaled(56)};
    pspec.partitioner = mesh::Partitioner::kSlab;
    const driver::ProblemSetup setup = driver::ProblemSetup::build(pspec, 1);
    const int save_threads = omp_get_max_threads();
    const int applies = 50;
    simmpi::run(1, [&](simmpi::Comm& comm) {
      driver::RankContext ctx(comm, setup);
      std::printf("  %-8s %-9s %-12s %-10s %-10s\n", "threads", "schedule",
                  "apply (ms)", "emv (ms)", "speedup");
      double serial_ms = 0.0;
      const auto time_schedule = [&](int nthreads,
                                     core::ThreadSchedule sched) {
        omp_set_num_threads(nthreads);
        core::HymvOptions options = env_options;
        options.schedule = sched;
        core::HymvOperator op(comm, ctx.part(), ctx.element_op(), options);
        pla::DistVector x(op.layout()), y(op.layout());
        for (std::int64_t i = 0; i < x.owned_size(); ++i) {
          x[i] = 1.0 + 0.25 * static_cast<double>(i % 7);
        }
        op.apply(comm, x, y);  // warm-up
        op.reset_apply_breakdown();
        hymv::Timer t;
        for (int a = 0; a < applies; ++a) {
          op.apply(comm, x, y);
        }
        const double ms = t.elapsed_s() * 1e3 / applies;
        const double emv_ms = op.apply_breakdown().emv_s * 1e3 / applies;
        if (sched == core::ThreadSchedule::kSerial) {
          serial_ms = ms;
        }
        std::printf("  %-8d %-9s %-12.4f %-10.4f %.2fx\n", nthreads,
                    core::to_string(sched), ms, emv_ms, serial_ms / ms);
        json.add("\"ablation\": \"schedule\", \"threads\": %d, "
                 "\"schedule\": \"%s\", \"apply_ms\": %.6g, "
                 "\"emv_ms\": %.6g, \"speedup_vs_serial\": %.6g",
                 nthreads, core::to_string(sched), ms, emv_ms,
                 serial_ms / ms);
      };
      time_schedule(1, core::ThreadSchedule::kSerial);
      for (const int nthreads : {1, 2, 4, 8}) {
        time_schedule(nthreads, core::ThreadSchedule::kColored);
      }
      std::printf("  (speedup against the one-thread serial element-order "
                  "loop; colored threads\n   scatter-add straight into the "
                  "shared vector with identical bits at every\n   thread "
                  "count — see tests/test_openmp.cpp)\n");
    });
    omp_set_num_threads(save_threads);
  }
#else
  std::printf("  (skipped: built without OpenMP)\n");
#endif

  std::printf("\n=== Ablation 6: element-matrix store layout (1 rank, "
              "8 threads, raw wall) ===\n");
  {
    // The Fig. 4 Poisson strong-scaling mesh again: hex8, n = 8, so the
    // padded layout carries no padding waste and the layouts differ purely
    // in streamed bytes (sympacked ~2x fewer, fp32 2x fewer) and access
    // pattern (interleaved: unit-stride across 8 elements per batch).
    driver::ProblemSpec pspec;
    pspec.pde = driver::Pde::kPoisson;
    pspec.element = mesh::ElementType::kHex8;
    pspec.box = {.nx = scaled(13), .ny = scaled(13), .nz = scaled(56)};
    pspec.partitioner = mesh::Partitioner::kSlab;
    const driver::ProblemSetup setup = driver::ProblemSetup::build(pspec, 1);
    const int applies = 50;
#ifdef _OPENMP
    const int save_threads = omp_get_max_threads();
    omp_set_num_threads(8);
#endif
    simmpi::run(1, [&](simmpi::Comm& comm) {
      driver::RankContext ctx(comm, setup);
      std::printf("  %-12s %-11s %-12s %-13s %-10s\n", "layout",
                  "store (MB)", "apply (ms)", "traffic (MB)", "speedup");
      double padded_ms = 0.0;
      for (const core::StoreLayout layout :
           {core::StoreLayout::kPadded, core::StoreLayout::kInterleaved,
            core::StoreLayout::kSymPacked, core::StoreLayout::kFp32}) {
        core::HymvOptions options = env_options;
        options.layout = layout;
        core::HymvOperator op(comm, ctx.part(), ctx.element_op(), options);
        pla::DistVector x(op.layout()), y(op.layout());
        for (std::int64_t i = 0; i < x.owned_size(); ++i) {
          x[i] = 1.0 + 0.25 * static_cast<double>(i % 7);
        }
        op.apply(comm, x, y);  // warm-up
        hymv::Timer t;
        for (int a = 0; a < applies; ++a) {
          op.apply(comm, x, y);
        }
        const double ms = t.elapsed_s() * 1e3 / applies;
        if (layout == core::StoreLayout::kPadded) padded_ms = ms;
        std::printf("  %-12s %-11.2f %-12.4f %-13.2f %.2fx\n",
                    core::to_string(layout),
                    static_cast<double>(op.store().bytes()) / 1e6, ms,
                    static_cast<double>(op.apply_bytes()) / 1e6,
                    padded_ms / ms);
        json.add("\"ablation\": \"layout\", \"layout\": \"%s\", "
                 "\"store_mb\": %.6g, \"apply_ms\": %.6g, "
                 "\"traffic_mb\": %.6g",
                 core::to_string(layout),
                 static_cast<double>(op.store().bytes()) / 1e6, ms,
                 static_cast<double>(op.apply_bytes()) / 1e6);
      }
      std::printf("  (apply streams the whole store: fewer stored bytes -> "
                  "faster SPMV; fp32 trades ~1e-7\n   relative accuracy, "
                  "sympacked requires symmetric operators — see DESIGN.md "
                  "§5c)\n");
    });
#ifdef _OPENMP
    omp_set_num_threads(save_threads);
#endif
  }

  std::printf("\n=== Ablation 7: multi-RHS panel apply (1 rank, 8 threads, "
              "raw wall) ===\n");
  {
    // The Fig. 4 Poisson strong-scaling mesh once more. apply_multi streams
    // the element-matrix store ONCE per k-lane panel, so the analytic
    // arithmetic intensity (flops/byte) grows with k toward the dense-EMV
    // roofline, and wall time per lane drops until the panel's vector
    // traffic catches up with the matrix traffic (DESIGN.md §5d).
    driver::ProblemSpec pspec;
    pspec.pde = driver::Pde::kPoisson;
    pspec.element = mesh::ElementType::kHex8;
    pspec.box = {.nx = scaled(13), .ny = scaled(13), .nz = scaled(56)};
    pspec.partitioner = mesh::Partitioner::kSlab;
    const driver::ProblemSetup setup = driver::ProblemSetup::build(pspec, 1);
    const int applies = 50;
#ifdef _OPENMP
    const int save_threads = omp_get_max_threads();
    omp_set_num_threads(8);
#endif
    simmpi::run(1, [&](simmpi::Comm& comm) {
      driver::RankContext ctx(comm, setup);
      std::printf("  %-4s %-15s %-12s %-11s %-10s\n", "k", "apply/lane (ms)",
                  "flops/byte", "AI vs k=1", "lane spdup");
      double lane1_ms = 0.0;
      double ai1 = 0.0;
      double ai8 = 0.0;
      for (const int k : {1, 2, 4, 8}) {
        core::HymvOperator op(comm, ctx.part(), ctx.element_op(),
                              env_options);
        pla::DistMultiVector x(op.layout(), k), y(op.layout(), k);
        for (std::int64_t i = 0; i < x.owned_size(); ++i) {
          for (int j = 0; j < k; ++j) {
            x.at(i, j) =
                1.0 + 0.25 * static_cast<double>((i + 3 * j) % 7);
          }
        }
        op.apply_multi(comm, x, y);  // warm-up
        hymv::Timer t;
        for (int a = 0; a < applies; ++a) {
          op.apply_multi(comm, x, y);
        }
        const double lane_ms =
            t.elapsed_s() * 1e3 / applies / static_cast<double>(k);
        const double ai = static_cast<double>(op.apply_flops_multi(k)) /
                          static_cast<double>(op.apply_bytes_multi(k));
        if (k == 1) {
          lane1_ms = lane_ms;
          ai1 = ai;
        }
        if (k == 8) ai8 = ai;
        std::printf("  %-4d %-15.4f %-12.3f %-11.2f %.2fx\n", k, lane_ms, ai,
                    ai / ai1, lane1_ms / lane_ms);
        json.add("\"ablation\": \"multirhs\", \"k\": %d, "
                 "\"apply_per_lane_ms\": %.6g, \"flops_per_byte\": %.6g",
                 k, lane_ms, ai);
      }
      std::printf("  k=8 arithmetic intensity is %.2fx k=1 (requirement: "
                  ">= 2x) — %s\n"
                  "  (the store is streamed once per panel; only the 40n "
                  "bytes/elem of panel gather/scatter\n   and the 16 "
                  "bytes/dof of panel vector traffic scale with k — "
                  "DESIGN.md §5d)\n",
                  ai8 / ai1, ai8 >= 2.0 * ai1 ? "PASS" : "FAIL");
    });
#ifdef _OPENMP
    omp_set_num_threads(save_threads);
#endif
  }

  std::printf("\n=== Ablation 8: resilience overhead, fault-free runs "
              "(DESIGN.md §5e) ===\n");
  {
    // What the recovery machinery costs when nothing goes wrong. Two
    // halves, both on the Fig. 4 box:
    //   (a) apply path — the checksummed ghost exchange's FNV-1a trailer
    //       and per-message ACK round, 4 slab ranks on the Poisson mesh;
    //   (b) solve path — CG true-residual replacement and in-memory
    //       checkpointing. Measured on the *elasticity* PDE on the same
    //       box: the manufactured Poisson solution is a discrete
    //       eigenvector of the preconditioned operator and converges in
    //       one iteration, so it cannot exercise per-iteration features.
    driver::ProblemSpec pspec;
    pspec.pde = driver::Pde::kPoisson;
    pspec.element = mesh::ElementType::kHex8;
    pspec.box = {.nx = scaled(13), .ny = scaled(13), .nz = scaled(56)};
    pspec.partitioner = mesh::Partitioner::kSlab;
    const driver::ProblemSetup psetup = driver::ProblemSetup::build(pspec, 4);

    std::printf("  %-18s %-11s %-11s %s\n", "mode", "wall (s)", "overhead",
                "events");
    double plain_apply_s = 0.0;
    const int apply_reps = 50;  // the per-apply wall is ~1 ms; average hard
    // Each mode's job arms its ghost exchanges or not; the rest of the
    // caller's drill stays.
    simmpi::RunOptions job = simmpi::RunOptions::from_env();
    for (const bool checksum : {false, true}) {
      job.protection.checksum = checksum;
      const AggResult r = run_backend(
          psetup, {.backend = driver::Backend::kHymv}, apply_reps, job);
      if (!checksum) plain_apply_s = r.spmv_wall_s;
      std::printf("  %-18s %-11.4f %-11s %s\n",
                  checksum ? "apply+checksum" : "apply", r.spmv_wall_s,
                  checksum
                      ? (std::to_string(static_cast<int>(
                             (r.spmv_wall_s / plain_apply_s - 1.0) * 100.0)) +
                         "%")
                            .c_str()
                      : "-",
                  "0 (no faults injected)");
      json.add("\"ablation\": \"resilience\", \"mode\": \"%s\", "
               "\"wall_s\": %.6g, \"iterations\": 0, \"events\": 0",
               checksum ? "apply_checksum" : "apply_plain", r.spmv_wall_s);
    }

    driver::ProblemSpec espec = pspec;
    espec.pde = driver::Pde::kElasticity;
    espec.box.lx = 1.0;
    espec.box.ly = 1.0;
    espec.box.lz = 1.0;
    espec.box.origin = {-0.5, -0.5, 0.0};
    const driver::ProblemSetup esetup = driver::ProblemSetup::build(espec, 1);
    simmpi::run(1, [&](simmpi::Comm& comm) {
      driver::RankContext ctx(comm, esetup);
      // true-residual replacement restarts the search direction (that is
      // what lets it repair *arbitrary* iterate drift, not just residual
      // drift), so a short interval trades CG iterations for robustness —
      // the 10 vs 50 rows price that trade. Checkpointing only copies
      // three vectors, so its cadence barely matters.
      const struct {
        const char* mode;
        std::int64_t true_residual_every;
        std::int64_t checkpoint_every;
      } modes[] = {
          {"cg_plain", 0, 0},
          {"cg_true_resid_10", 10, 0},
          {"cg_true_resid_50", 50, 0},
          {"cg_checkpoint_10", 0, 10},
      };
      double plain_solve_s = 0.0;
      for (const auto& m : modes) {
        driver::SolveOptions so;
        so.backend = driver::Backend::kHymv;
        so.true_residual_every = m.true_residual_every;
        so.checkpoint_every = m.checkpoint_every;
        const driver::SolveReport rep = driver::solve_problem(comm, ctx, so);
        if (m.true_residual_every == 0 && m.checkpoint_every == 0) {
          plain_solve_s = rep.solve_wall_s;
        }
        const std::int64_t events =
            rep.cg.residual_replacements + rep.cg.checkpoints_taken;
        char pct[32];
        std::snprintf(pct, sizeof pct, "%+.1f%%",
                      (rep.solve_wall_s / plain_solve_s - 1.0) * 100.0);
        std::printf("  %-18s %-11.4f %-11s %lld (in %lld iters)\n", m.mode,
                    rep.solve_wall_s, plain_solve_s == rep.solve_wall_s
                                          ? "-" : pct,
                    static_cast<long long>(events),
                    static_cast<long long>(rep.cg.iterations));
        json.add("\"ablation\": \"resilience\", \"mode\": \"%s\", "
                 "\"wall_s\": %.6g, \"iterations\": %lld, \"events\": %lld",
                 m.mode, rep.solve_wall_s,
                 static_cast<long long>(rep.cg.iterations),
                 static_cast<long long>(events));
      }
    });
    std::printf("  (both features replay exact arithmetic on the no-fault "
                "path — golden-hash tests\n   pin bitwise neutrality; this "
                "table prices the wall-clock cost alone)\n");
  }

  std::printf("\n=== Ablation 9: observability overhead, armed vs disarmed "
              "tracer (DESIGN.md §5f) ===\n");
  {
    // What HYMV_TRACE=1 costs on the apply path. The disarmed tracer is a
    // single relaxed atomic load per span site; armed, every span writes
    // one ring-buffer record (plus a thread-CPU clock read). The events
    // are dropped afterwards (clear()), so this prices recording alone,
    // not export. Legs alternate disarmed/armed over several short rounds:
    // a single long A then B measurement folds any machine-load drift
    // between the two legs straight into the reported overhead, which on a
    // shared host can dwarf the true cost.
    driver::ProblemSpec pspec;
    pspec.pde = driver::Pde::kPoisson;
    pspec.element = mesh::ElementType::kHex8;
    pspec.box = {.nx = scaled(13), .ny = scaled(13), .nz = scaled(56)};
    pspec.partitioner = mesh::Partitioner::kSlab;
    const driver::ProblemSetup psetup = driver::ProblemSetup::build(pspec, 4);
    const int apply_reps = 10;
    const int rounds = 5;
    std::printf("  %-10s %-11s %s\n", "tracer", "wall (s)", "overhead");
    double wall_s[2] = {0.0, 0.0};
    hymv::obs::Tracer& tracer = hymv::obs::Tracer::instance();
    const bool was_armed = tracer.armed();
    for (int round = 0; round < rounds; ++round) {
      for (const bool armed : {false, true}) {
        if (armed) {
          tracer.arm();
        } else {
          tracer.disarm();
        }
        const AggResult r = run_backend(
            psetup, {.backend = driver::Backend::kHymv}, apply_reps);
        wall_s[armed ? 1 : 0] += r.spmv_wall_s;
        tracer.clear();
      }
    }
    for (const bool armed : {false, true}) {
      const double pct = (wall_s[1] / wall_s[0] - 1.0) * 100.0;
      std::printf("  %-10s %-11.4f %s\n", armed ? "armed" : "disarmed",
                  wall_s[armed ? 1 : 0],
                  armed ? (std::to_string(pct).substr(0, 5) + "%").c_str()
                        : "-");
      json.add("\"ablation\": \"observability\", \"tracer\": \"%s\", "
               "\"spmv_wall_s\": %.6g, \"overhead_pct\": %.6g",
               armed ? "armed" : "disarmed", wall_s[armed ? 1 : 0],
               armed ? pct : 0.0);
    }
    if (was_armed) {
      tracer.arm();
    } else {
      tracer.disarm();
    }
    tracer.clear();
    std::printf("  (requirement: armed overhead < 5%% at default scale — "
                "spans live on the per-apply path,\n   not per-element, so "
                "their fixed cost inflates the ratio on scaled-down "
                "meshes)\n");
  }

  std::printf("\n=== Ablation 10: async task-graph apply + pipelined CG "
              "(DESIGN.md §5g) ===\n");
  {
    // (a) Apply path, 4 slab ranks on the Fig. 4 Poisson box: the
    //     exchange-wait share of the apply — lnsm_s (forward_begin +
    //     forward_end barrier for two-phase; begin + send retirement for
    //     the task graph) plus taskgraph_wait_s (the traversal's residual
    //     blocked-on-neighbor time) over total apply wall. The task graph
    //     converts the all-neighbors barrier into per-peer unlocks, so the
    //     wait share drops as thread count grows and the dependent phase
    //     shrinks. Results are bitwise identical (tests/test_taskgraph.cpp).
    driver::ProblemSpec pspec;
    pspec.pde = driver::Pde::kPoisson;
    pspec.element = mesh::ElementType::kHex8;
    pspec.box = {.nx = scaled(13), .ny = scaled(13), .nz = scaled(56)};
    pspec.partitioner = mesh::Partitioner::kSlab;
    const driver::ProblemSetup psetup = driver::ProblemSetup::build(pspec, 4);
    const int applies = 50;
#ifdef _OPENMP
    const int save_threads = omp_get_max_threads();
    omp_set_num_threads(8);
#endif
    std::printf("  %-10s %-12s %-14s %s\n", "mode", "apply (ms)",
                "exch-wait (ms)", "wait share");
    simmpi::run(4, [&](simmpi::Comm& comm) {
      driver::RankContext ctx(comm, psetup);
      for (const bool taskgraph : {false, true}) {
        core::HymvOptions options = env_options;
        options.taskgraph = taskgraph;
        core::HymvOperator op(comm, ctx.part(), ctx.element_op(), options);
        pla::DistVector x(op.layout()), y(op.layout());
        for (std::int64_t i = 0; i < x.owned_size(); ++i) {
          x[i] = 1.0 + 0.25 * static_cast<double>(i % 7);
        }
        op.apply(comm, x, y);  // warm-up
        op.reset_apply_breakdown();
        hymv::Timer t;
        for (int a = 0; a < applies; ++a) {
          op.apply(comm, x, y);
        }
        const double wall_s = comm.allreduce(t.elapsed_s(),
                                             simmpi::ReduceOp::kMax);
        const double wait_s = comm.allreduce(
            op.apply_breakdown().lnsm_s +
                op.metrics().gauge("apply.taskgraph_wait_s").value(),
            simmpi::ReduceOp::kMax);
        if (comm.rank() == 0) {
          const double share = wait_s / wall_s * 100.0;
          std::printf("  %-10s %-12.4f %-14.4f %.1f%%\n",
                      taskgraph ? "taskgraph" : "two-phase",
                      wall_s * 1e3 / applies, wait_s * 1e3 / applies, share);
          json.add("\"ablation\": \"taskgraph\", \"mode\": \"%s\", "
                   "\"apply_ms\": %.6g, \"exchange_wait_ms\": %.6g, "
                   "\"wait_share_pct\": %.6g",
                   taskgraph ? "taskgraph" : "two_phase",
                   wall_s * 1e3 / applies, wait_s * 1e3 / applies, share);
        }
      }
    });
#ifdef _OPENMP
    omp_set_num_threads(save_threads);
#endif

    // (b) Solve path, 4 ranks on a 1D shifted Laplacian big enough that
    //     the reductions matter: allreduces per iteration, counted by the
    //     cg.allreduces counter — standard CG performs three (p.q, the
    //     fused axpy_dot, r.z), pipelined CG fuses them into ONE whose
    //     communication overlaps the next M+A apply.
    std::printf("  %-10s %-6s %-12s %-11s %s\n", "cg", "iters", "allreduces",
                "per iter", "solve (s)");
    simmpi::run(4, [&](simmpi::Comm& comm) {
      const pla::Layout layout =
          pla::Layout::from_owned_count(comm, scaled(30000));
      const std::int64_t n = layout.global_size;
      pla::DistCsrMatrix a(layout);
      for (std::int64_t g = layout.begin; g < layout.end_excl; ++g) {
        a.add_value(g, g, 2.5);
        if (g > 0) a.add_value(g, g - 1, -1.0);
        if (g < n - 1) a.add_value(g, g + 1, -1.0);
      }
      a.assemble(comm);
      pla::DistVector b(layout);
      for (std::int64_t i = 0; i < layout.owned(); ++i) {
        b[i] = std::sin(static_cast<double>(layout.begin + i) * 0.01);
      }
      pla::IdentityPreconditioner ident;
      for (const bool pipelined : {false, true}) {
        pla::DistVector x(layout);
        hymv::obs::Counter& reds = comm.metrics().counter("cg.allreduces");
        const std::int64_t before = reds.value();
        hymv::Timer t;
        const pla::CgResult r =
            pla::cg_solve(comm, a, ident, b, x,
                          {.rtol = 1e-8, .max_iters = 500,
                           .pipelined = pipelined});
        const double solve_s = t.elapsed_s();
        const std::int64_t delta = reds.value() - before;
        if (comm.rank() == 0) {
          const double per_iter =
              static_cast<double>(delta) /
              static_cast<double>(std::max<std::int64_t>(r.iterations, 1));
          std::printf("  %-10s %-6lld %-12lld %-11.2f %.4f\n",
                      pipelined ? "pipelined" : "standard",
                      static_cast<long long>(r.iterations),
                      static_cast<long long>(delta), per_iter, solve_s);
          json.add("\"ablation\": \"pipelined_cg\", \"cg\": \"%s\", "
                   "\"iterations\": %lld, \"allreduces\": %lld, "
                   "\"allreduces_per_iter\": %.6g, \"solve_wall_s\": %.6g",
                   pipelined ? "pipelined" : "standard",
                   static_cast<long long>(r.iterations),
                   static_cast<long long>(delta), per_iter, solve_s);
        }
      }
    });
    std::printf("  (same Krylov space, different rounding: iteration "
                "counts may differ by a few;\n   simmpi's split allreduce "
                "keeps the combine order rank-deterministic)\n");
  }

  std::printf("\n=== Ablation 11: per-region adaptive backend selection "
              "(DESIGN.md §5h, 8 threads) ===\n");
  {
    // Single-backend runs (plus the adaptive composite pinned to each of
    // its candidates through HYMV_ADAPTIVE_FORCE) against the autotuned
    // composite, on the two mesh regimes the choice actually flips
    // between: the Fig. 4 structured Poisson box (assembled SPMV keeps
    // locality) and the Fig. 7 jittered, renumbered tet mesh (locality
    // destroyed — the stored-EMV stream wins). Acceptance: the autotuned
    // composite within 5% of the best single backend.
    // `candidate` rows force the composite to one backend — the
    // best-single-backend bar the autotuned pick must land within 5% of
    // (same skeleton, only the per-region choice differs, so the
    // comparison isolates the tuner's decision quality). The plain
    // assembled/hymv/matrix-free rows are external reference points: they
    // run their own code paths with different fixed costs.
    struct Mode {
      const char* name;
      driver::Backend backend;
      const char* force;  ///< HYMV_ADAPTIVE_FORCE, nullptr = unset
      bool candidate;     ///< counts toward the best-single-backend bar
    };
    const Mode modes[] = {
        {"assembled", driver::Backend::kAssembled, nullptr, false},
        {"hymv", driver::Backend::kHymv, nullptr, false},
        {"matrix-free", driver::Backend::kMatrixFree, nullptr, false},
        {"adaptive:stored", driver::Backend::kAdaptive, "stored", true},
        {"adaptive:matrixfree", driver::Backend::kAdaptive, "matrixfree",
         true},
        {"adaptive:sell", driver::Backend::kAdaptive, "sell", true},
        {"adaptive", driver::Backend::kAdaptive, nullptr, false},
    };

    driver::ProblemSpec structured;
    structured.pde = driver::Pde::kPoisson;
    structured.element = mesh::ElementType::kHex8;
    structured.box = {.nx = scaled(13), .ny = scaled(13), .nz = scaled(26)};
    structured.partitioner = mesh::Partitioner::kSlab;

    driver::ProblemSpec unstructured;
    unstructured.pde = driver::Pde::kPoisson;
    unstructured.element = mesh::ElementType::kTet4;
    unstructured.box = {.nx = scaled(9), .ny = scaled(9), .nz = scaled(9)};
    unstructured.unstructured = true;
    unstructured.jitter = 0.25;
    unstructured.seed = 77;
    unstructured.partitioner = mesh::Partitioner::kSlab;

    const struct {
      const char* name;
      const driver::ProblemSpec* spec;
    } cases[] = {{"structured", &structured}, {"unstructured", &unstructured}};

#ifdef _OPENMP
    const int save_threads = omp_get_max_threads();
    omp_set_num_threads(8);
#endif
    for (const auto& c : cases) {
      const driver::ProblemSetup setup =
          driver::ProblemSetup::build(*c.spec, 4);
      std::printf("  --- %s (%lld elements, 4 ranks) ---\n", c.name,
                  static_cast<long long>(setup.total_elements));
      double best_single_s = 0.0;
      double adaptive_s = 0.0;
      for (const Mode& mode : modes) {
        if (mode.force != nullptr) {
          setenv("HYMV_ADAPTIVE_FORCE", mode.force, 1);
        }
        const AggResult r =
            run_backend(setup, {.backend = mode.backend}, 4 * napplies);
        if (mode.force != nullptr) {
          unsetenv("HYMV_ADAPTIVE_FORCE");
        }
        std::printf("  %-20s spmv=%.4f s  (%.2f GFLOP/s analytic)\n",
                    mode.name, r.spmv_wall_s,
                    static_cast<double>(r.flops) / r.spmv_wall_s / 1e9);
        json.add("\"ablation\": \"adaptive\", \"mesh\": \"%s\", "
                 "\"mode\": \"%s\", \"spmv_wall_s\": %.6g",
                 c.name, mode.name, r.spmv_wall_s);
        if (mode.candidate &&
            (best_single_s == 0.0 || r.spmv_wall_s < best_single_s)) {
          best_single_s = r.spmv_wall_s;
        }
        if (mode.backend == driver::Backend::kAdaptive &&
            mode.force == nullptr) {
          adaptive_s = r.spmv_wall_s;
        }
      }
      const double ratio = adaptive_s / best_single_s;
      std::printf("  adaptive/best-single = %.3f  (acceptance: <= 1.05)\n",
                  ratio);
      json.add("\"ablation\": \"adaptive_summary\", \"mesh\": \"%s\", "
               "\"adaptive_vs_best\": %.6g, \"best_single_s\": %.6g",
               c.name, ratio, best_single_s);
    }
#ifdef _OPENMP
    omp_set_num_threads(save_threads);
#endif
    std::printf("  (per-region choices and model/probe scores are published "
                "under adaptive.* —\n   HYMV_ADAPTIVE_REPLAY records them "
                "for deterministic replay)\n");
  }

  std::printf("\n=== Ablation 12: runtime ISA dispatch x NUMA first-touch "
              "(DESIGN.md §5i, 8 threads) ===\n");
  {
    // The hardware-adaptive layer's two knobs swept independently. The EMV
    // and assembled-SPMV kernels dispatch through per-ISA function tables,
    // and every level produces bitwise-identical results (tests/test_isa
    // pins that) — so only wall time may move across rows. First-touch
    // changes WHERE container pages land, never what they contain. "auto"
    // rows leave the dispatch at the detected level; the acceptance bar is
    // auto within 2% of the explicitly forced detected level, i.e. the
    // runtime table indirection costs nothing against a compile-time pick.
    driver::ProblemSpec poisson;
    poisson.pde = driver::Pde::kPoisson;
    poisson.element = mesh::ElementType::kHex8;
    poisson.box = {.nx = scaled(13), .ny = scaled(13), .nz = scaled(26)};
    poisson.partitioner = mesh::Partitioner::kSlab;

    driver::ProblemSpec elasticity;
    elasticity.pde = driver::Pde::kElasticity;
    elasticity.element = mesh::ElementType::kHex8;
    elasticity.box = {.nx = scaled(9), .ny = scaled(9), .nz = scaled(22)};
    elasticity.partitioner = mesh::Partitioner::kSlab;

    // The Poisson box runs the stored-EMV stream (the per-ISA register
    // sweep; the panel microkernels under HYMV_NRHS > 1), the elasticity
    // box the assembled CSR path (the cross-row block kernels) — together
    // they cover both table families.
    const struct {
      const char* name;
      const driver::ProblemSpec* spec;
      driver::Backend backend;
      const char* backend_name;
    } cases[] = {
        {"poisson-fig4", &poisson, driver::Backend::kHymv, "hymv"},
        {"elasticity-fig5", &elasticity, driver::Backend::kAssembled,
         "assembled"},
    };

#ifdef _OPENMP
    const int save_threads = omp_get_max_threads();
    omp_set_num_threads(8);
#endif
    const bool save_ft = numa::first_touch_enabled();
    const int detected = static_cast<int>(isa::detected());
    for (const auto& c : cases) {
      const driver::ProblemSetup setup =
          driver::ProblemSetup::build(*c.spec, 4);
      std::printf("  --- %s (%lld elements, 4 ranks, %s backend) ---\n",
                  c.name, static_cast<long long>(setup.total_elements),
                  c.backend_name);
      double forced_detected_s = 0.0;
      double auto_ft_on_s = 0.0;
      double auto_ft_off_s = 0.0;
      for (const bool ft : {true, false}) {
        numa::set_first_touch(ft);
        // Forced levels in ascending order, then the runtime default.
        for (int li = 0; li <= detected + 1; ++li) {
          const bool is_auto = li > detected;
          if (is_auto) {
            isa::reset();  // back to the detect-or-HYMV_ISA default
          } else {
            isa::force(static_cast<isa::IsaLevel>(li));
          }
          const char* isa_name =
              is_auto ? "auto" : isa::to_string(isa::active()).data();
          // Min of two measurements per cell: the 2% acceptance bar is
          // tighter than single-shot wall noise on a shared host, and
          // noise is strictly additive (same reasoning as the CI gate's
          // min-combining in tools/bench_compare.py).
          AggResult r =
              run_backend(setup, {.backend = c.backend}, 4 * napplies);
          const AggResult r2 =
              run_backend(setup, {.backend = c.backend}, 4 * napplies);
          if (r2.spmv_wall_s < r.spmv_wall_s) {
            r = r2;
          }
          std::printf("  isa=%-7s first_touch=%-3s spmv=%.4f s  "
                      "(%.2f GFLOP/s analytic)\n",
                      isa_name, ft ? "on" : "off", r.spmv_wall_s,
                      static_cast<double>(r.flops) / r.spmv_wall_s / 1e9);
          json.add("\"ablation\": \"isa_numa\", \"mesh\": \"%s\", "
                   "\"backend\": \"%s\", \"isa\": \"%s\", "
                   "\"first_touch\": %d, \"spmv_wall_s\": %.6g",
                   c.name, c.backend_name, isa_name, ft ? 1 : 0,
                   r.spmv_wall_s);
          if (ft) {
            if (is_auto) {
              auto_ft_on_s = r.spmv_wall_s;
            } else if (li == detected) {
              forced_detected_s = r.spmv_wall_s;
            }
          } else if (is_auto) {
            auto_ft_off_s = r.spmv_wall_s;
          }
        }
      }
      isa::reset();
      const double auto_vs_forced = auto_ft_on_s / forced_detected_s;
      const double ft_speedup = auto_ft_off_s / auto_ft_on_s;
      std::printf("  auto/forced-%s = %.3f  (acceptance: <= 1.02)   "
                  "first-touch speedup = %.3fx\n",
                  isa::to_string(static_cast<isa::IsaLevel>(detected)).data(),
                  auto_vs_forced, ft_speedup);
      json.add("\"ablation\": \"isa_numa_summary\", \"mesh\": \"%s\", "
               "\"auto_vs_forced\": %.6g, \"first_touch_speedup\": %.6g",
               c.name, auto_vs_forced, ft_speedup);
    }
    numa::set_first_touch(save_ft);
#ifdef _OPENMP
    omp_set_num_threads(save_threads);
#endif
    std::printf("  (the active level and NUMA decisions are published "
                "under isa.* / numa.* metrics;\n   HYMV_ISA / "
                "HYMV_FIRST_TOUCH / HYMV_PIN_THREADS set them per run)\n");
  }

  return json.finish(json_path) ? 0 : 1;
}
