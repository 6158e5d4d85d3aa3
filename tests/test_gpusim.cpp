// Tests for the GPU device simulator: functional correctness (bit-exact
// eager execution), virtual-clock semantics (stream pipelining, engine
// serialization), and the GPU-backed SPMV operators against their CPU
// counterparts.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <ostream>
#include <string>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "hymv/common/rng.hpp"
#include "hymv/core/assembly.hpp"
#include "hymv/core/dense_kernels.hpp"
#include "hymv/core/gpu_operator.hpp"
#include "hymv/core/hymv_operator.hpp"
#include "hymv/gpusim/gpusim.hpp"
#include "hymv/mesh/partition.hpp"
#include "hymv/mesh/structured.hpp"
#include "hymv/mesh/tet.hpp"
#include "hymv/pla/csr.hpp"

namespace {

using namespace hymv;
using gpu::Device;
using gpu::DeviceBuffer;
using gpu::DeviceSpec;
using gpu::Engine;
using simmpi::Comm;

TEST(GpuSimTest, CopyRoundTrip) {
  Device dev;
  DeviceBuffer buf = dev.alloc(64);
  std::vector<double> in{1, 2, 3, 4, 5, 6, 7, 8}, out(8, 0.0);
  dev.memcpy_h2d(0, buf, in.data(), 64);
  dev.memcpy_d2h(0, out.data(), buf, 64);
  EXPECT_EQ(in, out);
  EXPECT_EQ(dev.bytes_allocated(), 64);
}

TEST(GpuSimTest, OffsetCopies) {
  Device dev;
  DeviceBuffer buf = dev.alloc(32);
  const double a = 1.5, b = 2.5;
  dev.memcpy_h2d(0, buf, &a, 8, 0);
  dev.memcpy_h2d(0, buf, &b, 8, 24);
  double out = 0.0;
  dev.memcpy_d2h(0, &out, buf, 8, 24);
  EXPECT_EQ(out, 2.5);
  EXPECT_THROW(dev.memcpy_h2d(0, buf, &a, 8, 32), hymv::Error);
}

TEST(GpuSimTest, BatchedEmvMatchesHostKernel) {
  Device dev;
  const std::size_t n = 12, ld = 16, nbatch = 7;
  hymv::Xoshiro256 rng(5);
  hymv::aligned_vector<double> ke(nbatch * ld * n), u(nbatch * n),
      v(nbatch * n), v_ref(nbatch * n);
  for (double& x : ke) x = rng.uniform(-1, 1);
  for (double& x : u) x = rng.uniform(-1, 1);
  for (std::size_t b = 0; b < nbatch; ++b) {
    core::emv_simd(ke.data() + b * ld * n, ld, n, u.data() + b * n,
                   v_ref.data() + b * n);
  }
  DeviceBuffer d_ke = dev.alloc(ke.size() * 8);
  DeviceBuffer d_u = dev.alloc(u.size() * 8);
  DeviceBuffer d_v = dev.alloc(v.size() * 8);
  dev.memcpy_h2d(0, d_ke, ke.data(), ke.size() * 8);
  dev.memcpy_h2d(0, d_u, u.data(), u.size() * 8);
  dev.batched_emv(0, d_ke, ld, n, nbatch, d_u, d_v);
  dev.memcpy_d2h(0, v.data(), d_v, v.size() * 8);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i], v_ref[i], 1e-13);
  }
}

TEST(GpuSimTest, BatchedEmvWithOffsetComputesSubBatch) {
  Device dev;
  const std::size_t n = 4, ld = 8, nbatch = 3;
  hymv::aligned_vector<double> ke(nbatch * ld * n, 0.0), u(nbatch * n, 1.0),
      v(nbatch * n, -7.0);
  // Identity matrices.
  for (std::size_t b = 0; b < nbatch; ++b) {
    for (std::size_t i = 0; i < n; ++i) {
      ke[b * ld * n + i * ld + i] = static_cast<double>(b + 1);
    }
  }
  DeviceBuffer d_ke = dev.alloc(ke.size() * 8);
  DeviceBuffer d_u = dev.alloc(u.size() * 8);
  DeviceBuffer d_v = dev.alloc(v.size() * 8);
  dev.memcpy_h2d(0, d_ke, ke.data(), ke.size() * 8);
  dev.memcpy_h2d(0, d_u, u.data(), u.size() * 8);
  dev.memcpy_h2d(0, d_v, v.data(), v.size() * 8);
  dev.batched_emv(0, d_ke, ld, n, 1, d_u, d_v, /*elem_offset=*/1);
  dev.memcpy_d2h(0, v.data(), d_v, v.size() * 8);
  // Only batch slot 1 recomputed: scale 2.
  EXPECT_EQ(v[0], -7.0);
  EXPECT_EQ(v[n], 2.0);
  EXPECT_EQ(v[2 * n], -7.0);
}

TEST(GpuSimTest, CsrSpmvMatchesHost) {
  Device dev;
  const pla::CsrMatrix m = pla::CsrMatrix::from_triplets(
      3, 4, {{0, 0, 2}, {0, 3, 1}, {1, 1, -1}, {2, 2, 4}, {2, 0, 0.5}});
  const gpu::CsrHandle h =
      dev.upload_csr(0, m.row_ptr(), m.col_idx(), m.values(), m.num_cols());
  const std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y(3), y_ref(3);
  m.spmv(x, y_ref);
  DeviceBuffer d_x = dev.alloc(32), d_y = dev.alloc(24);
  dev.memcpy_h2d(0, d_x, x.data(), 32);
  dev.csr_spmv(0, h, d_x, d_y);
  dev.memcpy_d2h(0, y.data(), d_y, 24);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(y[static_cast<std::size_t>(i)],
                     y_ref[static_cast<std::size_t>(i)]);
  }
}

TEST(GpuSimTest, VirtualClockAdvances) {
  Device dev;
  EXPECT_EQ(dev.virtual_time(), 0.0);
  DeviceBuffer buf = dev.alloc(1 << 20);
  std::vector<std::byte> host(1 << 20);
  dev.memcpy_h2d(0, buf, host.data(), host.size());
  const double t = dev.synchronize();
  // 1 MiB over 12 GB/s + 10 µs latency ≈ 97 µs.
  EXPECT_GT(t, 5e-5);
  EXPECT_LT(t, 5e-4);
}

TEST(GpuSimTest, StreamsPipelineCopiesAndKernels) {
  // Two chunks: with one stream, h2d→kernel→d2h strictly serialize. With
  // two streams the copies of chunk 2 overlap the kernel of chunk 1, so the
  // makespan shrinks.
  const auto run_with_streams = [](int nstreams) {
    DeviceSpec spec;
    spec.gemv_gflops = 1.0;      // slow kernels and slow copies of similar
    spec.pcie_gb_per_s = 0.1;    // magnitude, so pipelining is visible
    Device dev(spec);
    for (int s = 1; s < nstreams; ++s) {
      dev.create_stream();
    }
    const std::size_t n = 32, ld = 32, nbatch = 512;
    hymv::aligned_vector<double> ke(nbatch * ld * n, 0.1), u(nbatch * n, 1.0),
        v(nbatch * n);
    DeviceBuffer d_ke = dev.alloc(ke.size() * 8);
    DeviceBuffer d_u = dev.alloc(u.size() * 8);
    DeviceBuffer d_v = dev.alloc(v.size() * 8);
    dev.memcpy_h2d(0, d_ke, ke.data(), ke.size() * 8);
    dev.synchronize();
    const double t0 = dev.virtual_time();
    const std::size_t half = nbatch / 2;
    for (int c = 0; c < 2; ++c) {
      const int s = c % nstreams;
      const std::size_t off = static_cast<std::size_t>(c) * half;
      dev.memcpy_h2d(s, d_u, u.data() + off * n, half * n * 8, off * n * 8);
      dev.batched_emv(s, d_ke, ld, n, half, d_u, d_v, off);
      dev.memcpy_d2h(s, v.data() + off * n, d_v, half * n * 8, off * n * 8);
    }
    dev.synchronize();
    return dev.virtual_time() - t0;
  };
  const double serial = run_with_streams(1);
  const double pipelined = run_with_streams(2);
  EXPECT_LT(pipelined, serial * 0.95);
}

TEST(GpuSimTest, CopyEngineSerializesAcrossStreams) {
  // Two H2D copies on different streams still share the single H2D engine:
  // total time ≈ sum of durations, not max.
  Device dev;
  dev.create_stream();
  DeviceBuffer a = dev.alloc(1 << 22), b = dev.alloc(1 << 22);
  std::vector<std::byte> host(1 << 22);
  const double t0 = dev.virtual_time();
  dev.memcpy_h2d(0, a, host.data(), host.size());
  const double one = dev.virtual_time() - t0;
  dev.memcpy_h2d(1, b, host.data(), host.size());
  const double two = dev.virtual_time() - t0;
  EXPECT_NEAR(two, 2.0 * one, 0.05 * one);
}

TEST(GpuSimTest, EventsOrderAcrossStreams) {
  // Stream 1 must not start its kernel before stream 0's copy completes
  // when ordered through a recorded event (cudaStreamWaitEvent semantics).
  Device dev;
  dev.create_stream();
  DeviceBuffer buf = dev.alloc(1 << 22);
  std::vector<std::byte> host(1 << 22);
  dev.memcpy_h2d(0, buf, host.data(), host.size());
  const gpu::Event ev = dev.record_event(0);
  EXPECT_GT(ev.ready_s, 0.0);
  // Without the wait, stream 1 would start at t=0; with it, at ev.ready_s.
  dev.stream_wait_event(1, ev);
  const std::size_t n = 8, ld = 8;
  hymv::aligned_vector<double> ke(ld * n, 1.0), u(n, 1.0);
  DeviceBuffer d_ke = dev.alloc(ke.size() * 8);
  DeviceBuffer d_u = dev.alloc(u.size() * 8);
  DeviceBuffer d_v = dev.alloc(u.size() * 8);
  dev.memcpy_h2d(1, d_ke, ke.data(), ke.size() * 8);
  dev.batched_emv(1, d_ke, ld, n, 1, d_u, d_v);
  const auto& timeline = dev.timeline();
  // The first command on stream 1 starts no earlier than the event time.
  for (const auto& entry : timeline) {
    if (entry.stream == 1) {
      EXPECT_GE(entry.start_s, ev.ready_s - 1e-15);
      break;
    }
  }
}

TEST(GpuSimTest, WaitOnFiredEventIsFree) {
  Device dev;
  dev.create_stream();
  const gpu::Event early = dev.record_event(0);  // nothing enqueued: t = 0
  dev.stream_wait_event(1, early);
  DeviceBuffer buf = dev.alloc(8);
  const double x = 1.0;
  dev.memcpy_h2d(1, buf, &x, 8);
  EXPECT_DOUBLE_EQ(dev.timeline().back().start_s, 0.0);
}

TEST(GpuSimTest, EventOnInvalidStreamThrows) {
  Device dev;
  EXPECT_THROW((void)dev.record_event(3), hymv::Error);
  EXPECT_THROW(dev.stream_wait_event(-1, gpu::Event{}), hymv::Error);
}

TEST(GpuSimTest, TimelineRecordsEntries) {
  Device dev;
  DeviceBuffer buf = dev.alloc(8);
  const double x = 3.0;
  dev.memcpy_h2d(0, buf, &x, 8);
  ASSERT_EQ(dev.timeline().size(), 1u);
  EXPECT_EQ(dev.timeline()[0].engine, Engine::kH2D);
  EXPECT_EQ(dev.timeline()[0].label, "h2d");
  dev.clear_timeline();
  EXPECT_TRUE(dev.timeline().empty());
}

TEST(GpuSimTest, CalibratedSpecScalesHostRate) {
  const DeviceSpec spec = DeviceSpec::calibrated(10.0, 8.0);
  EXPECT_DOUBLE_EQ(spec.gemv_gflops, 80.0);
  EXPECT_GT(spec.csr_gflops, 0.0);
  EXPECT_THROW(DeviceSpec::calibrated(-1.0, 8.0), hymv::Error);
}

TEST(GpuSimTest, HostExecSecondsAccumulates) {
  Device dev;
  const std::size_t n = 48, ld = 48, nbatch = 100;
  hymv::aligned_vector<double> ke(nbatch * ld * n, 0.5), u(nbatch * n, 1.0);
  DeviceBuffer d_ke = dev.alloc(ke.size() * 8);
  DeviceBuffer d_u = dev.alloc(u.size() * 8);
  DeviceBuffer d_v = dev.alloc(u.size() * 8);
  dev.memcpy_h2d(0, d_ke, ke.data(), ke.size() * 8);
  dev.memcpy_h2d(0, d_u, u.data(), u.size() * 8);
  dev.batched_emv(0, d_ke, ld, n, nbatch, d_u, d_v);
  EXPECT_GT(dev.host_exec_seconds(), 0.0);
}

// ---------------------------------------------------------------------------
// GPU operators vs CPU counterparts
// ---------------------------------------------------------------------------

class GpuOperatorTest
    : public ::testing::TestWithParam<std::tuple<core::GpuOverlapMode, int>> {
};

TEST_P(GpuOperatorTest, MatchesCpuHymvAcrossModesAndStreams) {
  const auto [mode, nstreams] = GetParam();
  const mesh::Mesh m = mesh::build_structured_hex({.nx = 3, .ny = 3, .nz = 4},
                                                  mesh::ElementType::kHex8);
  const auto part_ids =
      mesh::partition_elements(m, 3, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, part_ids, 3);
  simmpi::run(3, [&, mode, nstreams](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::ElasticityOperator op(mesh::ElementType::kHex8, 200.0, 0.3);
    core::HymvOperator cpu_op(comm, part, op);
    gpu::Device device;
    core::HymvGpuOperator gpu_op(
        comm, part, op, device,
        {.num_streams = nstreams, .mode = mode});
    pla::DistVector x(cpu_op.layout()), y_cpu(cpu_op.layout()),
        y_gpu(cpu_op.layout());
    for (std::int64_t i = 0; i < x.owned_size(); ++i) {
      x[i] = std::sin(0.3 * static_cast<double>(cpu_op.layout().begin + i));
    }
    cpu_op.apply(comm, x, y_cpu);
    gpu_op.apply(comm, x, y_gpu);
    for (std::int64_t i = 0; i < y_cpu.owned_size(); ++i) {
      ASSERT_NEAR(y_gpu[i], y_cpu[i], 1e-11 + 1e-11 * std::abs(y_cpu[i]))
          << "i=" << i;
    }
    EXPECT_EQ(gpu_op.timings().applies, 1);
    // In GPU/CPU(O) mode the device only sees independent elements; a rank
    // whose elements all touch ghosts legitimately leaves it idle.
    const bool device_has_work =
        mode != core::GpuOverlapMode::kGpuCpu ||
        !gpu_op.host_op().maps().independent_elements().empty();
    if (device_has_work) {
      EXPECT_GT(gpu_op.timings().device_virtual_s, 0.0);
    }
    EXPECT_GT(gpu_op.setup_upload_virtual_s(), 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GpuOperatorTest,
    ::testing::Combine(::testing::Values(core::GpuOverlapMode::kNone,
                                         core::GpuOverlapMode::kGpuCpu,
                                         core::GpuOverlapMode::kGpuGpu),
                       ::testing::Values(1, 4, 8)));

TEST(GpuCsrOperatorTest, MatchesCpuCsr) {
  const mesh::Mesh m = mesh::build_unstructured_tet(
      {.box = {.nx = 2, .ny = 2, .nz = 2}, .jitter = 0.2, .seed = 3},
      mesh::ElementType::kTet4);
  const auto part_ids =
      mesh::partition_elements(m, 2, mesh::Partitioner::kGreedy);
  const auto dist = mesh::distribute_mesh(m, part_ids, 2);
  simmpi::run(2, [&](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::PoissonOperator op(mesh::ElementType::kTet4);
    auto setup = core::build_assembled_matrix(comm, part, op);
    gpu::Device device;
    core::GpuCsrOperator gpu_op(comm, *setup.matrix, device);
    pla::DistVector x(gpu_op.layout()), y_cpu(gpu_op.layout()),
        y_gpu(gpu_op.layout());
    for (std::int64_t i = 0; i < x.owned_size(); ++i) {
      x[i] = std::cos(static_cast<double>(gpu_op.layout().begin + i));
    }
    setup.matrix->apply(comm, x, y_cpu);
    gpu_op.apply(comm, x, y_gpu);
    for (std::int64_t i = 0; i < y_cpu.owned_size(); ++i) {
      ASSERT_NEAR(y_gpu[i], y_cpu[i], 1e-12 + 1e-12 * std::abs(y_cpu[i]));
    }
    EXPECT_GT(gpu_op.setup_upload_virtual_s(), 0.0);
  });
}

TEST(GpuOperatorTest2, RepeatedAppliesStayConsistent) {
  // Pipelined repeated SPMVs (as inside CG) must not corrupt state.
  const mesh::Mesh m = mesh::build_structured_hex({.nx = 2, .ny = 2, .nz = 2},
                                                  mesh::ElementType::kHex20);
  const std::vector<int> ids(static_cast<std::size_t>(m.num_elements()), 0);
  const auto dist = mesh::distribute_mesh(m, ids, 1);
  simmpi::run(1, [&](Comm& comm) {
    const fem::PoissonOperator op(mesh::ElementType::kHex20);
    core::HymvOperator cpu_op(comm, dist.parts[0], op);
    gpu::Device device;
    core::HymvGpuOperator gpu_op(comm, dist.parts[0], op, device,
                                 {.num_streams = 4});
    pla::DistVector x(cpu_op.layout()), y_cpu(cpu_op.layout()),
        y_gpu(cpu_op.layout());
    for (int pass = 0; pass < 5; ++pass) {
      for (std::int64_t i = 0; i < x.owned_size(); ++i) {
        x[i] = std::sin(static_cast<double>(i + pass));
      }
      cpu_op.apply(comm, x, y_cpu);
      gpu_op.apply(comm, x, y_gpu);
      for (std::int64_t i = 0; i < y_cpu.owned_size(); ++i) {
        ASSERT_NEAR(y_gpu[i], y_cpu[i], 1e-11 + 1e-11 * std::abs(y_cpu[i]));
      }
    }
    EXPECT_EQ(gpu_op.timings().applies, 5);
  });
}

// ---------------------------------------------------------------------------
// golden bits and device timelines of HymvGpuOperator
// ---------------------------------------------------------------------------

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

std::uint64_t fnv1a(const double* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    unsigned char b[8];
    std::memcpy(b, &p[i], 8);
    for (int k = 0; k < 8; ++k) {
      h ^= b[k];
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// The entry points a GpuGoldenCase pins, in the order they run on one
/// operator: apply(), then apply_multi() at k = 1 and at k = 8.
constexpr int kGoldenEntries = 3;
constexpr int kGoldenLanes[kGoldenEntries] = {0, 1, 8};  // 0: apply()

struct GpuGoldenCase {
  core::GpuOverlapMode mode;
  int streams;
  core::StoreLayout layout;  ///< host store; kInterleaved keeps its batches
                             ///< on the device, kPadded uses padded slots
  /// Per entry point: FNV-1a of y with the ranks concatenated, the device
  /// commands the call enqueued (summed over ranks), and FNV-1a of each
  /// rank's device_virtual_s delta (rank order).
  std::uint64_t y_hash[kGoldenEntries];
  int commands[kGoldenEntries];
  std::uint64_t virtual_hash[kGoldenEntries];
};

const char* mode_name(core::GpuOverlapMode mode) {
  switch (mode) {
    case core::GpuOverlapMode::kNone:
      return "none";
    case core::GpuOverlapMode::kGpuCpu:
      return "gpucpu";
    case core::GpuOverlapMode::kGpuGpu:
      return "gpugpu";
  }
  return "unknown";
}

std::string case_name(const GpuGoldenCase& c) {
  return std::string(mode_name(c.mode)) + "_s" + std::to_string(c.streams) +
         "_" + core::to_string(c.layout);
}

/// gtest prints this in the test's listing instead of a byte dump of the
/// struct, whose padding would rename the ctest entry per build.
void PrintTo(const GpuGoldenCase& c, std::ostream* os) { *os << case_name(c); }

class GpuGoldenTest : public ::testing::TestWithParam<GpuGoldenCase> {
 protected:
  void TearDown() override { set_threads(1); }
};

/// Every overlap mode at 1 and 8 streams, over a padded and an interleaved
/// host store, must reproduce the y bits, the device command count and the
/// device's virtual-clock delta of apply() and apply_multi() at k = 1 and
/// k = 8, at 1 and 4 threads and with the host's task graph off and on,
/// on 2 ranks under the default DeviceSpec. A chunk floor of 2 elements
/// lets 8 streams split this small mesh. Inputs are exact binary
/// fractions, as in test_layout's goldens.
TEST_P(GpuGoldenTest, ApplyPanelAndTimelineHold) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "golden bits are defined for uninstrumented builds";
#endif
  const GpuGoldenCase c = GetParam();
  constexpr int kRanks = 2;
  const mesh::Mesh m = mesh::build_structured_hex({.nx = 3, .ny = 3, .nz = 4},
                                                  mesh::ElementType::kHex8);
  const auto ids =
      mesh::partition_elements(m, kRanks, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, kRanks);
  const fem::ElasticityOperator op(mesh::ElementType::kHex8, 200.0, 0.3);

  // The task graph only reaches GPU/CPU(O)'s host region, which keeps its
  // bits with it on and off.
  for (const auto& [threads, taskgraph] :
       {std::pair{1, false}, std::pair{4, false}, std::pair{1, true},
        std::pair{4, true}}) {
    std::array<std::array<std::vector<double>, kRanks>, kGoldenEntries> y;
    std::array<std::array<std::size_t, kRanks>, kGoldenEntries> commands{};
    std::array<std::array<double, kRanks>, kGoldenEntries> virtual_s{};
    simmpi::run(kRanks, [&](Comm& comm) {
      set_threads(threads);
      const auto r = static_cast<std::size_t>(comm.rank());
      gpu::Device device;
      core::HymvGpuOperator gpu_op(comm, dist.parts[r], op, device,
                                   {.num_streams = c.streams,
                                    .mode = c.mode,
                                    .host = {.layout = c.layout,
                                             .taskgraph = taskgraph},
                                    .min_chunk_elements = 2});
      const pla::Layout& lay = gpu_op.layout();
      for (int e = 0; e < kGoldenEntries; ++e) {
        const int k = kGoldenLanes[e];
        const auto eu = static_cast<std::size_t>(e);
        const std::size_t before = device.timeline().size();
        gpu_op.reset_timings();
        pla::DistMultiVector xm(lay, std::max(k, 1)), ym(lay, std::max(k, 1));
        for (std::int64_t i = 0; i < xm.owned_size(); ++i) {
          const std::int64_t g = lay.begin + i;
          for (int l = 0; l < xm.width(); ++l) {
            xm.at(i, l) =
                static_cast<double>((g * 13 + l * 7) % 64 - 32) * 0.03125 +
                static_cast<double>(i % 5) * 0.25;
          }
        }
        if (k == 0) {
          pla::DistVector x(lay), yv(lay);
          std::copy(xm.values().begin(), xm.values().end(),
                    x.values().begin());
          gpu_op.apply(comm, x, yv);
          y[eu][r].assign(yv.values().begin(),
                          yv.values().begin() + yv.owned_size());
        } else {
          gpu_op.apply_multi(comm, xm, ym);
          y[eu][r].assign(ym.values().begin(), ym.values().end());
        }
        commands[eu][r] = device.timeline().size() - before;
        virtual_s[eu][r] = gpu_op.timings().device_virtual_s;
      }
    });
    for (std::size_t e = 0; e < kGoldenEntries; ++e) {
      std::vector<double> all;
      std::size_t total_commands = 0;
      for (std::size_t r = 0; r < kRanks; ++r) {
        all.insert(all.end(), y[e][r].begin(), y[e][r].end());
        total_commands += commands[e][r];
      }
      const std::uint64_t y_hash = fnv1a(all.data(), all.size());
      const std::uint64_t v_hash = fnv1a(virtual_s[e].data(), kRanks);
      const std::string where = std::string(e == 0 ? "apply" : "apply_multi") +
                                " k=" + std::to_string(kGoldenLanes[e]) +
                                " threads=" + std::to_string(threads) +
                                " taskgraph=" + std::to_string(taskgraph);
      EXPECT_EQ(y_hash, c.y_hash[e])
          << where << ": y got 0x" << std::hex << y_hash;
      EXPECT_EQ(total_commands, static_cast<std::size_t>(c.commands[e]))
          << where << ": commands";
      EXPECT_EQ(v_hash, c.virtual_hash[e])
          << where << ": device_virtual_s got 0x" << std::hex << v_hash
          << std::dec << " (" << virtual_s[e][0] << ", " << virtual_s[e][1]
          << ")";
    }
  }
}

// Captured from the operator's own copy of the apply skeleton, before it
// ran on ApplySkeleton, in the default -march=native build.
const GpuGoldenCase kGpuGoldenCases[] = {
    {core::GpuOverlapMode::kNone, 1, core::StoreLayout::kPadded,
     {0x758e29d9a99729e0ULL, 0x758e29d9a99729e0ULL, 0xc79910e7a076993fULL},
     {6, 6, 6},
     {0x4d81947d0d4fc2efULL, 0x109b565bf95f7e23ULL, 0x9a892ed2eb48660fULL}},
    {core::GpuOverlapMode::kNone, 8, core::StoreLayout::kPadded,
     {0x758e29d9a99729e0ULL, 0x758e29d9a99729e0ULL, 0xc79910e7a076993fULL},
     {36, 36, 36},
     {0x1f04316f3c5e7c27ULL, 0xaa42dcb839646d53ULL, 0xdb364eda5b553337ULL}},
    {core::GpuOverlapMode::kNone, 1, core::StoreLayout::kInterleaved,
     {0x73a562a23b949d1dULL, 0x758e29d9a99729e0ULL, 0xc79910e7a076993fULL},
     {6, 6, 6},
     {0x109b565bf95f7e23ULL, 0x109b565bf95f7e23ULL, 0x9a892ed2eb48660fULL}},
    {core::GpuOverlapMode::kNone, 8, core::StoreLayout::kInterleaved,
     {0x73a562a23b949d1dULL, 0x758e29d9a99729e0ULL, 0xc79910e7a076993fULL},
     {36, 36, 36},
     {0x1f04316f3c5e7c27ULL, 0x0a203335de3d0693ULL, 0xdb364eda5b553337ULL}},
    {core::GpuOverlapMode::kGpuCpu, 1, core::StoreLayout::kPadded,
     {0x28036dd517d7643eULL, 0x28036dd517d7643eULL, 0x3a459a51032b45a6ULL},
     {6, 6, 6},
     {0x4ddde6f218c7ace9ULL, 0x653b83bfcc4c73bdULL, 0x71cec31f288a2421ULL}},
    {core::GpuOverlapMode::kGpuCpu, 8, core::StoreLayout::kPadded,
     {0x28036dd517d7643eULL, 0x28036dd517d7643eULL, 0x3a459a51032b45a6ULL},
     {27, 27, 27},
     {0x9513dbd7cb2700f3ULL, 0xa932dbb8387d3870ULL, 0xb094691640d4b7aeULL}},
    {core::GpuOverlapMode::kGpuCpu, 1, core::StoreLayout::kInterleaved,
     {0x5839b7feeba83867ULL, 0x28036dd517d7643eULL, 0x3a459a51032b45a6ULL},
     {6, 6, 6},
     {0x621f69a056476e27ULL, 0x621f69a056476e27ULL, 0x71cec31f288a2421ULL}},
    {core::GpuOverlapMode::kGpuCpu, 8, core::StoreLayout::kInterleaved,
     {0x5839b7feeba83867ULL, 0x28036dd517d7643eULL, 0x3a459a51032b45a6ULL},
     {27, 27, 27},
     {0x9513dbd7cb2700f3ULL, 0x40f17b322192d19eULL, 0x6720d2c374c3ac98ULL}},
    {core::GpuOverlapMode::kGpuGpu, 1, core::StoreLayout::kPadded,
     {0x758e29d9a99729e0ULL, 0x758e29d9a99729e0ULL, 0xc79910e7a076993fULL},
     {9, 9, 9},
     {0xbd97677d303e849bULL, 0x5eef68a05391d2e4ULL, 0x6664b67c79661d04ULL}},
    {core::GpuOverlapMode::kGpuGpu, 8, core::StoreLayout::kPadded,
     {0x758e29d9a99729e0ULL, 0x758e29d9a99729e0ULL, 0xc79910e7a076993fULL},
     {36, 36, 36},
     {0x1f04316f3c5e7c27ULL, 0xaa42dcb839646d53ULL, 0xdb364eda5b553337ULL}},
    {core::GpuOverlapMode::kGpuGpu, 1, core::StoreLayout::kInterleaved,
     {0x73a562a23b949d1dULL, 0x758e29d9a99729e0ULL, 0xc79910e7a076993fULL},
     {9, 9, 9},
     {0x5eef68a05391d2e4ULL, 0x5eef68a05391d2e4ULL, 0x6664b67c79661d04ULL}},
    {core::GpuOverlapMode::kGpuGpu, 8, core::StoreLayout::kInterleaved,
     {0x73a562a23b949d1dULL, 0x758e29d9a99729e0ULL, 0xc79910e7a076993fULL},
     {36, 36, 36},
     {0x1f04316f3c5e7c27ULL, 0x0a203335de3d0693ULL, 0xdb364eda5b553337ULL}},
};

INSTANTIATE_TEST_SUITE_P(
    Golden, GpuGoldenTest, ::testing::ValuesIn(kGpuGoldenCases),
    [](const ::testing::TestParamInfo<GpuGoldenCase>& info) {
      return case_name(info.param);
    });

}  // namespace
