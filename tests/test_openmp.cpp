// Exercises the threaded element loop of HymvOperator across its two
// scatter strategies (see schedule.hpp):
//   * kColored (default) — conflict-free coloring, direct scatter-add into
//     the shared v-DA: threaded apply must be BITWISE identical to serial
//     apply, for any thread count, ISA level, element type, and dof count;
//   * kSerial — the plain element-order loop, never threaded: it sums in
//     element order, so it matches the colored result only to roundoff.
// Also covers the colored schedule's structural invariants, the threaded
// diagonal()/update_elements() paths, and the HYMV_THREAD_SCHEDULE env
// override. These tests carry the ctest label `threading` so a HYMV_TSAN
// build can prove the colored scatter path race-free (`ctest -L threading`).

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include "hymv/common/isa.hpp"
#include "hymv/common/timer.hpp"
#include "hymv/core/hymv_operator.hpp"
#include "hymv/core/matrix_free_operator.hpp"
#include "hymv/core/schedule.hpp"
#include "hymv/driver/env_options.hpp"
#include "hymv/fem/operators.hpp"
#include "hymv/mesh/partition.hpp"
#include "hymv/mesh/structured.hpp"
#include "hymv/mesh/tet.hpp"

namespace {

using namespace hymv;

/// Build the 2-rank partition of a small hex or tet mesh.
mesh::DistributedMesh build_dist(bool tet) {
  const mesh::Mesh m =
      tet ? mesh::build_unstructured_tet(
                {.box = {.nx = 3, .ny = 3, .nz = 3}, .jitter = 0.2, .seed = 7},
                mesh::ElementType::kTet4)
          : mesh::build_structured_hex({.nx = 4, .ny = 3, .nz = 4},
                                       mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 2, mesh::Partitioner::kGreedy);
  return mesh::distribute_mesh(m, ids, 2);
}

mesh::ElementType element_type(bool tet) {
  return tet ? mesh::ElementType::kTet4 : mesh::ElementType::kHex8;
}

/// The element operator for the requested dof count (1 = Poisson,
/// 3 = elasticity).
std::unique_ptr<fem::ElementOperator> make_op(bool tet, int ndof) {
  if (ndof == 1) {
    return std::make_unique<fem::PoissonOperator>(element_type(tet));
  }
  return std::make_unique<fem::ElasticityOperator>(element_type(tet), 100.0,
                                                   0.3);
}

pla::DistVector seeded_input(const pla::Layout& layout) {
  pla::DistVector x(layout);
  for (std::int64_t i = 0; i < x.owned_size(); ++i) {
    x[i] = std::sin(0.7 * static_cast<double>(layout.begin + i));
  }
  return x;
}

// ---------------------------------------------------------------------------
// Colored schedule invariants
// ---------------------------------------------------------------------------

TEST(ElementScheduleTest, ColoringIsConflictFreeAndComplete) {
  for (const bool tet : {false, true}) {
    const auto dist = build_dist(tet);
    simmpi::run(2, [&](simmpi::Comm& comm) {
      const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
      core::DofMaps maps(comm, part, 3);
      for (const auto* subset :
           {&maps.independent_elements(), &maps.dependent_elements()}) {
        const core::ElementSchedule sched(maps, *subset);
        ASSERT_EQ(sched.num_elements(),
                  static_cast<std::int64_t>(subset->size()));
        // order() is a permutation of the subset.
        std::multiset<std::int64_t> in(subset->begin(), subset->end());
        std::multiset<std::int64_t> out(sched.order().begin(),
                                        sched.order().end());
        ASSERT_EQ(in, out);
        // No two BLOCKS of one color touch a common DoF (a block runs on
        // one thread, so sharing inside a block is fine).
        for (int c = 0; c < sched.num_colors(); ++c) {
          std::map<std::int64_t, std::size_t> owner;  // dof -> block index
          const auto blocks = sched.blocks(c);
          for (std::size_t b = 0; b < blocks.size(); ++b) {
            for (std::int64_t i = blocks[b].begin; i < blocks[b].end; ++i) {
              const std::int64_t e =
                  sched.order()[static_cast<std::size_t>(i)];
              for (const std::int64_t dof : maps.e2l(e)) {
                const auto [it, inserted] = owner.emplace(dof, b);
                ASSERT_TRUE(inserted || it->second == b)
                    << "color " << c << ": blocks " << it->second << " and "
                    << b << " share dof " << dof;
              }
            }
          }
        }
        // Blocks exactly tile each color's range of order().
        for (int c = 0; c < sched.num_colors(); ++c) {
          std::int64_t covered = 0;
          std::int64_t expect_begin = -1;
          for (const auto& blk : sched.blocks(c)) {
            if (expect_begin >= 0) {
              ASSERT_EQ(blk.begin, expect_begin);
            }
            ASSERT_LT(blk.begin, blk.end);
            covered += blk.end - blk.begin;
            expect_begin = blk.end;
          }
          ASSERT_EQ(covered,
                    static_cast<std::int64_t>(sched.color(c).size()));
        }
      }
    });
  }
}

// Exercises the schedule's safety invariant under a threading runtime
// ThreadSanitizer fully understands (std::thread + std::barrier, unlike
// libgomp with GCC): workers scatter-add into one shared vector, grabbing
// blocks of the current color from an atomic counter, with a barrier
// between colors. Any coloring bug is a TSan-visible data race here, and
// the result must still be bitwise equal to the serial color-major order.
TEST(ElementScheduleTest, StdThreadScatterAddIsRaceFreeAndBitwise) {
  const auto dist = build_dist(true);
  simmpi::run(2, [&](simmpi::Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    core::DofMaps maps(comm, part, 1);
    std::vector<std::int64_t> elems(
        static_cast<std::size_t>(maps.num_elements()));
    std::iota(elems.begin(), elems.end(), std::int64_t{0});
    // Tiny blocks force many same-color candidates → a weak coloring
    // would actually collide.
    const core::ElementSchedule sched(maps, elems, 4);

    const auto contribution = [](std::int64_t e, std::size_t a) {
      return std::sin(static_cast<double>(e) + 0.3 * static_cast<double>(a));
    };
    const std::span<const std::int64_t> order = sched.order();

    // Serial reference in color-major order.
    std::vector<double> ref(static_cast<std::size_t>(maps.da_size()), 0.0);
    for (const std::int64_t e : order) {
      const auto e2l = maps.e2l(e);
      for (std::size_t a = 0; a < e2l.size(); ++a) {
        ref[static_cast<std::size_t>(e2l[a])] += contribution(e, a);
      }
    }

    const int nworkers = 4;
    std::vector<double> shared(static_cast<std::size_t>(maps.da_size()), 0.0);
    std::atomic<std::int64_t> next{0};
    std::barrier color_fence(nworkers, [&next]() noexcept {
      next.store(0, std::memory_order_relaxed);
    });
    std::vector<std::thread> workers;
    for (int w = 0; w < nworkers; ++w) {
      workers.emplace_back([&]() {
        for (int c = 0; c < sched.num_colors(); ++c) {
          const auto blocks = sched.blocks(c);
          for (;;) {
            const std::int64_t b = next.fetch_add(1);
            if (b >= static_cast<std::int64_t>(blocks.size())) {
              break;
            }
            const auto& blk = blocks[static_cast<std::size_t>(b)];
            for (std::int64_t i = blk.begin; i < blk.end; ++i) {
              const std::int64_t e = order[static_cast<std::size_t>(i)];
              const auto e2l = maps.e2l(e);
              for (std::size_t a = 0; a < e2l.size(); ++a) {
                shared[static_cast<std::size_t>(e2l[a])] += contribution(e, a);
              }
            }
          }
          color_fence.arrive_and_wait();
        }
      });
    }
    for (std::thread& t : workers) {
      t.join();
    }
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(shared[i], ref[i]) << "dof " << i;
    }
  });
}

// PhaseTimers::phase() is documented as safe for concurrent first-touch of
// DIFFERENT phase names (the creation path mutates the shared map, which is
// why it is mutex-guarded — the bug this regression pins was unguarded
// operator[] insertion racing node rebalancing). std::thread + std::barrier
// so ThreadSanitizer sees the synchronization (`ctest -L threading` under
// HYMV_TSAN). Each thread drives only its OWN CumulativeTimer: the
// per-timer start/stop state is documented owner-thread-only.
TEST(PhaseTimersTest, ConcurrentPhaseCreationIsRaceFree) {
  hymv::PhaseTimers timers;
  constexpr int kThreads = 8;
  constexpr int kPhasesPerThread = 32;
  std::barrier start_fence(kThreads);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&timers, &start_fence, w]() {
      start_fence.arrive_and_wait();  // maximize creation overlap
      for (int i = 0; i < kPhasesPerThread; ++i) {
        // Unique name per (thread, i): every call takes the creation path.
        hymv::CumulativeTimer& t = timers.phase(
            "phase_" + std::to_string(w) + "_" + std::to_string(i));
        t.start();
        t.stop();
        // A shared name too: get-or-create must return the same node.
        timers.phase("shared");
      }
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  int count = 0;
  for (const auto& [name, timer] : timers.phases()) {
    (void)name;
    EXPECT_GE(timer.total_s(), 0.0);
    ++count;
  }
  EXPECT_EQ(count, kThreads * kPhasesPerThread + 1);
  EXPECT_EQ(timers.total_s("missing"), 0.0);
  timers.reset();
  EXPECT_EQ(timers.total_s("shared"), 0.0);
}

TEST(ThreadScheduleTest, EnvOverrideParses) {
  using core::ThreadSchedule;
  const auto schedule_from_env = [](ThreadSchedule fallback) {
    return driver::hymv_options_from_env({.schedule = fallback}).schedule;
  };
  // The buffer-reduce strategy is gone: its name warns like any unknown
  // value and keeps the fallback.
  ::setenv("HYMV_THREAD_SCHEDULE", "buffer", 1);
  EXPECT_EQ(schedule_from_env(ThreadSchedule::kColored),
            ThreadSchedule::kColored);
  EXPECT_EQ(schedule_from_env(ThreadSchedule::kSerial),
            ThreadSchedule::kSerial);
  ::setenv("HYMV_THREAD_SCHEDULE", "serial", 1);
  EXPECT_EQ(schedule_from_env(ThreadSchedule::kColored),
            ThreadSchedule::kSerial);
  ::setenv("HYMV_THREAD_SCHEDULE", "colored", 1);
  EXPECT_EQ(schedule_from_env(ThreadSchedule::kSerial),
            ThreadSchedule::kColored);
  ::setenv("HYMV_THREAD_SCHEDULE", "bogus", 1);  // warns, keeps fallback
  EXPECT_EQ(schedule_from_env(ThreadSchedule::kColored),
            ThreadSchedule::kColored);
  ::unsetenv("HYMV_THREAD_SCHEDULE");
  EXPECT_EQ(schedule_from_env(ThreadSchedule::kSerial),
            ThreadSchedule::kSerial);
}

#ifdef _OPENMP

// ---------------------------------------------------------------------------
// Determinism + equivalence sweep:
// {scalar, avx2, avx512 forced ISA level} × {hex8, tet4} × {1, 3 dof/node}
// ---------------------------------------------------------------------------

// ctest names each case after the raw bytes of its parameter, so the
// bytes between `tet` and `ndof` are spelled out rather than left as
// padding; kEquivCases says what they hold. `level` has the int size and
// the 0/1/2 values of the kernel axis the cases were registered under.
struct EquivCase {
  isa::IsaLevel level;  // forced; clamped to what the CPU runs
  bool tet;
  std::uint8_t name_bytes[3];  // no meaning to the test; names only
  int ndof;
};
static_assert(sizeof(EquivCase) == 12, "every byte of a case is set");

class ColoredEquivalenceTest : public ::testing::TestWithParam<EquivCase> {
 protected:
  void TearDown() override { isa::reset(); }
};

TEST_P(ColoredEquivalenceTest, ThreadedApplyBitwiseEqualsSerial) {
  const EquivCase c = GetParam();
  isa::force(c.level);
  const auto dist = build_dist(c.tet);
  simmpi::run(2, [&](simmpi::Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const auto op = make_op(c.tet, c.ndof);

    // Serial reference: colored order executed on one thread.
    omp_set_num_threads(1);
    core::HymvOperator serial(comm, part, *op, {.use_openmp = false});
    const pla::DistVector x = seeded_input(serial.layout());
    pla::DistVector y_serial(serial.layout());
    serial.apply(comm, x, y_serial);

    // Threaded colored runs (oversubscribed on this 1-core machine): the
    // conflict-free schedule must reproduce the serial result BITWISE for
    // every thread count.
    for (const int threads : {2, 4}) {
      omp_set_num_threads(threads);
      core::HymvOperator colored(comm, part, *op, {.use_openmp = true});
      pla::DistVector y(colored.layout());
      colored.apply(comm, x, y);
      for (std::int64_t i = 0; i < y_serial.owned_size(); ++i) {
        ASSERT_EQ(y[i], y_serial[i])
            << "threads=" << threads << " dof=" << i;
      }
    }

    // kSerial never opens a team, even with OpenMP allowed and 4 threads
    // available; it sums in element order, so it agrees with the colored
    // result to roundoff only.
    omp_set_num_threads(4);
    core::HymvOperator plain(
        comm, part, *op,
        {.use_openmp = true, .schedule = core::ThreadSchedule::kSerial});
    pla::DistVector y_plain(plain.layout());
    plain.apply(comm, x, y_plain);
    omp_set_num_threads(1);
    for (std::int64_t i = 0; i < y_serial.owned_size(); ++i) {
      ASSERT_NEAR(y_plain[i], y_serial[i],
                  1e-13 * (1.0 + std::abs(y_serial[i])))
          << "dof " << i;
    }
  });
}

// The name bytes fix every ctest name on every discovery (as padding of
// stack temporaries they held whatever the stack did) and keep the names
// the cases were first registered under. Two of those carried non-zero
// bytes there, which also set the avx2 1- and 3-dof names apart before
// the ndof bytes.
const EquivCase kEquivCases[] = {
    {isa::IsaLevel::kScalar, false, {0x00, 0x00, 0x00}, 1},
    {isa::IsaLevel::kScalar, true, {0x00, 0x00, 0x00}, 3},
    {isa::IsaLevel::kAvx2, false, {0x00, 0x00, 0x00}, 1},
    {isa::IsaLevel::kAvx2, false, {0x00, 0x04, 0x00}, 3},
    {isa::IsaLevel::kAvx2, true, {0x00, 0xD0, 0xCA}, 1},
    {isa::IsaLevel::kAvx2, true, {0x00, 0x00, 0x00}, 3},
    {isa::IsaLevel::kAvx512, false, {0x00, 0x00, 0x00}, 3},
    {isa::IsaLevel::kAvx512, true, {0x00, 0x00, 0x00}, 1},
};

INSTANTIATE_TEST_SUITE_P(Sweep, ColoredEquivalenceTest,
                         ::testing::ValuesIn(kEquivCases));

TEST(ColoredDeterminismTest, RepeatedThreadedAppliesStayConsistent) {
  const mesh::Mesh m = mesh::build_structured_hex({.nx = 3, .ny = 3, .nz = 3},
                                                  mesh::ElementType::kHex20);
  const std::vector<int> ids(static_cast<std::size_t>(m.num_elements()), 0);
  const auto dist = mesh::distribute_mesh(m, ids, 1);
  simmpi::run(1, [&](simmpi::Comm& comm) {
    const fem::PoissonOperator op(mesh::ElementType::kHex20);
    omp_set_num_threads(3);
    core::HymvOperator a(comm, dist.parts[0], op, {.use_openmp = true});
    pla::DistVector x(a.layout()), y1(a.layout()), y2(a.layout());
    x.set_all(1.0);
    a.apply(comm, x, y1);
    a.apply(comm, x, y2);
    omp_set_num_threads(1);
    for (std::int64_t i = 0; i < y1.owned_size(); ++i) {
      ASSERT_EQ(y1[i], y2[i]);  // deterministic across applies
    }
  });
}

TEST(ColoredDeterminismTest, MatrixFreeThreadedBitwiseEqualsSerial) {
  const auto dist = build_dist(/*tet=*/false);
  simmpi::run(2, [&](simmpi::Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::ElasticityOperator op(mesh::ElementType::kHex8, 100.0, 0.3);
    omp_set_num_threads(1);
    core::MatrixFreeOperator serial(comm, part, op, {.use_openmp = false});
    const pla::DistVector x = seeded_input(serial.layout());
    pla::DistVector y_serial(serial.layout());
    serial.apply(comm, x, y_serial);

    omp_set_num_threads(4);
    core::MatrixFreeOperator threaded(comm, part, op);
    pla::DistVector y(threaded.layout());
    threaded.apply(comm, x, y);
    omp_set_num_threads(1);
    for (std::int64_t i = 0; i < y_serial.owned_size(); ++i) {
      ASSERT_EQ(y[i], y_serial[i]) << "dof " << i;
    }
  });
}

// ---------------------------------------------------------------------------
// Threaded diagonal() / update_elements() (restart + XFEM paths)
// ---------------------------------------------------------------------------

TEST(ColoredDeterminismTest, DiagonalThreadedBitwiseEqualsSerial) {
  const auto dist = build_dist(/*tet=*/true);
  simmpi::run(2, [&](simmpi::Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::ElasticityOperator op(mesh::ElementType::kTet4, 100.0, 0.3);
    omp_set_num_threads(1);
    core::HymvOperator serial(comm, part, op, {.use_openmp = false});
    const std::vector<double> d_serial = serial.diagonal(comm);

    omp_set_num_threads(4);
    core::HymvOperator threaded(comm, part, op, {.use_openmp = true});
    const std::vector<double> d = threaded.diagonal(comm);
    omp_set_num_threads(1);
    ASSERT_EQ(d.size(), d_serial.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
      ASSERT_EQ(d[i], d_serial[i]) << "dof " << i;
    }
  });
}

TEST(ColoredDeterminismTest, UpdateElementsThreadedMatchesSerial) {
  const auto dist = build_dist(/*tet=*/false);
  simmpi::run(2, [&](simmpi::Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::ElasticityOperator op(mesh::ElementType::kHex8, 100.0, 0.3);
    fem::ElasticityOperator softened(mesh::ElementType::kHex8, 100.0, 0.3);
    softened.set_stiffness_scale(0.5);

    // Update the first half of the local elements on both operators.
    std::vector<std::int64_t> targets;
    for (std::int64_t e = 0; e < part.num_local_elements() / 2; ++e) {
      targets.push_back(e);
    }

    omp_set_num_threads(1);
    core::HymvOperator serial(comm, part, op, {.use_openmp = false});
    serial.update_elements(targets, softened);
    const pla::DistVector x = seeded_input(serial.layout());
    pla::DistVector y_serial(serial.layout());
    serial.apply(comm, x, y_serial);

    omp_set_num_threads(4);
    core::HymvOperator threaded(comm, part, op, {.use_openmp = true});
    threaded.update_elements(targets, softened);
    pla::DistVector y(threaded.layout());
    threaded.apply(comm, x, y);
    omp_set_num_threads(1);
    for (std::int64_t i = 0; i < y_serial.owned_size(); ++i) {
      ASSERT_EQ(y[i], y_serial[i]) << "dof " << i;
    }
  });
}

// ---------------------------------------------------------------------------
// ApplyBreakdown bookkeeping
// ---------------------------------------------------------------------------

TEST(ApplyBreakdownTest, PhasesAccumulateAndReset) {
  const auto dist = build_dist(/*tet=*/false);
  simmpi::run(2, [&](simmpi::Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::PoissonOperator op(mesh::ElementType::kHex8);

    omp_set_num_threads(2);
    core::HymvOperator colored(comm, part, op, {.use_openmp = true});
    const pla::DistVector x = seeded_input(colored.layout());
    pla::DistVector y(colored.layout());
    colored.apply(comm, x, y);
    colored.apply(comm, x, y);
    EXPECT_EQ(colored.apply_breakdown().applies, 2);
    EXPECT_GT(colored.apply_breakdown().emv_s, 0.0);
    // The phases are the whole apply: exchange, element work, reduce.
    const core::ApplyBreakdown bd = colored.apply_breakdown();
    EXPECT_EQ(bd.total_s(), bd.lnsm_s + bd.emv_s + bd.gngm_s);
    colored.reset_apply_breakdown();
    EXPECT_EQ(colored.apply_breakdown().applies, 0);
    EXPECT_EQ(colored.apply_breakdown().total_s(), 0.0);

    // The kSerial loop reports into the same phases.
    core::HymvOperator plain(
        comm, part, op,
        {.use_openmp = true, .schedule = core::ThreadSchedule::kSerial});
    plain.apply(comm, x, y);
    EXPECT_EQ(plain.apply_breakdown().applies, 1);
    EXPECT_GT(plain.apply_breakdown().emv_s, 0.0);
    omp_set_num_threads(1);
  });
}

#else
TEST(OpenMpEmvTest, SkippedWithoutOpenMp) { GTEST_SKIP(); }
#endif

}  // namespace
