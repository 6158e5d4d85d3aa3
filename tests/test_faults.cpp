// Fault-injection and self-healing coverage (ctest label `faults`).
//
// Exercises the full resilience stack end to end: the simmpi FaultPlan
// (seeded bit-flips, drops, delays, crashes), the checksummed ghost
// exchange with bounded resend, element-store checksums + scrubbing, CG
// checkpoint/rollback and true-residual replacement, the driver's
// solve-with-retry policy, and the durable (atomic-rename) store save.
// The no-fault configuration must stay bitwise identical to the
// pre-resilience code paths — the golden-hash test at the bottom pins that.

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "hymv/common/rng.hpp"
#include "hymv/core/element_store.hpp"
#include "hymv/driver/driver.hpp"
#include "hymv/io/store_io.hpp"
#include "hymv/mesh/distributed.hpp"
#include "hymv/pla/dist_csr.hpp"
#include "hymv/pla/preconditioner.hpp"

namespace {

using namespace hymv;
using core::ElementMatrixStore;
using core::HymvOperator;
using core::StoreLayout;
using pla::GhostExchange;
using pla::Layout;
using simmpi::Comm;

constexpr StoreLayout kAllLayouts[] = {
    StoreLayout::kPadded, StoreLayout::kInterleaved, StoreLayout::kSymPacked,
    StoreLayout::kFp32};

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Scoped environment override (restores the previous value on exit).
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<double> random_symmetric(int n, std::uint64_t seed) {
  hymv::Xoshiro256 rng(seed);
  std::vector<double> ke(static_cast<std::size_t>(n) * n);
  for (int c = 0; c < n; ++c) {
    for (int r = 0; r <= c; ++r) {
      const double v = rng.uniform(-1.0, 1.0);
      ke[static_cast<std::size_t>(c) * n + r] = v;
      ke[static_cast<std::size_t>(r) * n + c] = v;
    }
  }
  return ke;
}

void fill_store(ElementMatrixStore& store, std::uint64_t seed) {
  for (std::int64_t e = 0; e < store.num_elements(); ++e) {
    store.set(e, random_symmetric(store.ndofs(),
                                  seed + static_cast<std::uint64_t>(e)));
  }
}

/// A two-rank line layout with one ghost on each side of the owned range —
/// the smallest mesh-like exchange pattern.
std::vector<std::int64_t> straddle_ghosts(const Layout& layout) {
  std::vector<std::int64_t> ghosts;
  if (layout.begin > 0) {
    ghosts.push_back(layout.begin - 1);
  }
  if (layout.end_excl < layout.global_size) {
    ghosts.push_back(layout.end_excl);
  }
  return ghosts;
}

driver::ProblemSpec small_poisson(int nz = 6) {
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kPoisson;
  spec.element = mesh::ElementType::kHex8;
  spec.box = {.nx = 6, .ny = 6, .nz = nz};
  return spec;
}

/// The Timoshenko bar (paper §V-B). Unlike the manufactured Poisson
/// problem — whose solution is a discrete Laplacian eigenvector on a
/// uniform box, so Jacobi-CG converges in ONE iteration — this takes
/// 10–15 iterations at tight tolerances, enough room for mid-solve
/// fault injection and checkpoint/rollback to exercise real recovery.
driver::ProblemSpec small_elasticity() {
  driver::ProblemSpec spec;
  spec.pde = driver::Pde::kElasticity;
  spec.element = mesh::ElementType::kHex8;
  spec.box = {.nx = 4, .ny = 4, .nz = 4, .lx = 1.0, .ly = 1.0, .lz = 1.0,
              .origin = {-0.5, -0.5, 0.0}};
  return spec;
}

// ---------------------------------------------------------------------------
// FaultPlan parsing and env resolution
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ParsesFullGrammar) {
  const auto plan = simmpi::FaultPlan::parse(
      "flip:src=0,dest=1,tag=1001,nth=2,bit=12;"
      "drop:src=1,dest=0,tag=1002;"
      "delay:src=0,ms=3.5;"
      "crash:rank=1,op=100;",
      42);
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.faults.size(), 4u);
  EXPECT_EQ(plan.faults[0].type, simmpi::FaultType::kBitFlip);
  EXPECT_EQ(plan.faults[0].src, 0);
  EXPECT_EQ(plan.faults[0].dest, 1);
  EXPECT_EQ(plan.faults[0].tag, 1001);
  EXPECT_EQ(plan.faults[0].nth, 2);
  EXPECT_EQ(plan.faults[0].bit, 12);
  EXPECT_EQ(plan.faults[1].type, simmpi::FaultType::kDrop);
  EXPECT_EQ(plan.faults[2].type, simmpi::FaultType::kDelay);
  EXPECT_DOUBLE_EQ(plan.faults[2].delay_ms, 3.5);
  EXPECT_EQ(plan.faults[3].type, simmpi::FaultType::kCrash);
  EXPECT_EQ(plan.faults[3].rank, 1);
  EXPECT_EQ(plan.faults[3].at_op, 100);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(simmpi::FaultPlan::parse("zap:src=0"), hymv::Error);
  EXPECT_THROW(simmpi::FaultPlan::parse("flip:src=0,nth=abc"), hymv::Error);
  EXPECT_THROW(simmpi::FaultPlan::parse("flip:src=0,nth=3junk"), hymv::Error);
  EXPECT_THROW(simmpi::FaultPlan::parse("flip:dest=1"), hymv::Error);  // no src
  EXPECT_THROW(simmpi::FaultPlan::parse("flip:src=0,wat=1"), hymv::Error);
  EXPECT_THROW(simmpi::FaultPlan::parse("crash:rank=1"), hymv::Error);  // no op
  EXPECT_THROW(simmpi::FaultPlan::parse("drop:src=0,nth=0"), hymv::Error);
}

TEST(FaultPlanTest, FromEnvRoundTrips) {
  EnvGuard spec("HYMV_FAULT_SPEC", "flip:src=0,dest=1,nth=3");
  {
    EnvGuard seed("HYMV_FAULT_SEED", "7");
    const auto plan = simmpi::FaultPlan::from_env();
    EXPECT_EQ(plan.seed, 7u);
    ASSERT_EQ(plan.faults.size(), 1u);
    EXPECT_EQ(plan.faults[0].nth, 3);
  }
  // The seed is a uint: a negative one warns once and keeps 0 instead of
  // wrapping to 2^64 - 1.
  EnvGuard seed("HYMV_FAULT_SEED", "-1");
  ::testing::internal::CaptureStderr();
  const auto plan = simmpi::FaultPlan::from_env();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(plan.seed, 0u);
  EXPECT_EQ(err,
            "hymv: ignoring HYMV_FAULT_SEED='-1' (expected an integer in "
            "[0, 9223372036854775807]); using fallback\n");
}

TEST(FaultPlanTest, EmptyEnvMeansEmptyPlan) {
  ::unsetenv("HYMV_FAULT_SPEC");
  EXPECT_TRUE(simmpi::FaultPlan::from_env().empty());
}

TEST(ExchangeProtectionTest, EnvValidationKeepsDefaultsOnGarbage) {
  EnvGuard retries("HYMV_FAULT_MAX_RETRIES", "garbage");
  EnvGuard timeout("HYMV_FAULT_TIMEOUT_MS", "-5");
  EnvGuard checksum("HYMV_FAULT_CHECKSUM", "2");
  ::testing::internal::CaptureStderr();
  const auto prot = simmpi::RunOptions::from_env().protection;
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(prot.checksum);
  EXPECT_EQ(prot.max_retries, 2);
  EXPECT_DOUBLE_EQ(prot.recv_timeout_s, 0.25);
  EXPECT_NE(err.find("hymv: ignoring HYMV_FAULT_TIMEOUT_MS='-5' (expected a "
                     "number > 0); using fallback\n"),
            std::string::npos)
      << err;
}

TEST(ExchangeProtectionTest, EnvValidationAcceptsGoodValues) {
  EnvGuard retries("HYMV_FAULT_MAX_RETRIES", "5");
  EnvGuard timeout("HYMV_FAULT_TIMEOUT_MS", "50");
  EnvGuard checksum("HYMV_FAULT_CHECKSUM", "1");
  const auto prot = simmpi::RunOptions::from_env().protection;
  EXPECT_TRUE(prot.checksum);
  EXPECT_EQ(prot.max_retries, 5);
  EXPECT_DOUBLE_EQ(prot.recv_timeout_s, 0.05);
}

// ---------------------------------------------------------------------------
// Raw injection semantics: determinism, drops as timeouts, delays, crashes
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, SeededBitFlipIsDeterministic) {
  // Same seed → the corrupted payload is byte-identical across runs and
  // differs from the original in exactly one bit.
  const std::vector<double> payload = {1.0, -2.5, 3.25, 0.0};
  const auto run_once = [&](std::uint64_t seed) {
    std::vector<double> received(payload.size());
    simmpi::RunOptions options;
    options.faults = simmpi::FaultPlan::parse("flip:src=0,dest=1,tag=7", seed);
    simmpi::run(
        2,
        [&](Comm& comm) {
          if (comm.rank() == 0) {
            comm.send(1, 7, std::span<const double>(payload));
          } else {
            comm.recv(0, 7, std::span<double>(received));
          }
        },
        options);
    return received;
  };
  const auto a = run_once(99);
  const auto b = run_once(99);
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
  int diff_bits = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    std::uint64_t xa = 0;
    std::uint64_t xb = 0;
    std::memcpy(&xa, &a[i], 8);
    std::memcpy(&xb, &payload[i], 8);
    diff_bits += __builtin_popcountll(xa ^ xb);
  }
  EXPECT_EQ(diff_bits, 1);
}

TEST(FaultInjectionTest, PinnedBitFlipHitsRequestedBit) {
  std::vector<double> received(1);
  simmpi::RunOptions options;
  options.faults = simmpi::FaultPlan::parse("flip:src=0,dest=1,bit=0");
  simmpi::run(
      2,
      [&](Comm& comm) {
        const double one = 1.0;
        if (comm.rank() == 0) {
          comm.send_value(1, 3, one);
        } else {
          received[0] = comm.recv_value<double>(0, 3);
        }
      },
      options);
  std::uint64_t got = 0;
  std::uint64_t want = 0;
  const double one = 1.0;
  std::memcpy(&got, received.data(), 8);
  std::memcpy(&want, &one, 8);
  EXPECT_EQ(got ^ want, 1u);
}

TEST(FaultInjectionTest, DropSurfacesAsTimeoutError) {
  simmpi::RunOptions options;
  options.faults = simmpi::FaultPlan::parse("drop:src=0,dest=1");
  options.recv_timeout_s = 0.05;
  EXPECT_THROW(
      simmpi::run(
          2,
          [&](Comm& comm) {
            if (comm.rank() == 0) {
              comm.send_value(1, 5, 1.0);
            } else {
              (void)comm.recv_value<double>(0, 5);
            }
          },
          options),
      hymv::TimeoutError);
}

TEST(FaultInjectionTest, DelayStillDelivers) {
  simmpi::RunOptions options;
  options.faults = simmpi::FaultPlan::parse("delay:src=0,dest=1,ms=20");
  double received = 0.0;
  simmpi::run(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_value(1, 9, 4.5);
        } else {
          received = comm.recv_value<double>(0, 9);
        }
      },
      options);
  EXPECT_DOUBLE_EQ(received, 4.5);
}

TEST(FaultInjectionTest, ScheduledCrashAbortsTheJobWithoutDeadlock) {
  simmpi::RunOptions options;
  options.faults = simmpi::FaultPlan::parse("crash:rank=1,op=1");
  try {
    simmpi::run(
        2,
        [&](Comm& comm) {
          if (comm.rank() == 0) {
            // Blocks forever unless the abort wakes it.
            (void)comm.recv_value<double>(1, 11);
          } else {
            comm.send_value(0, 11, 1.0);  // 1st p2p op → injected crash
          }
        },
        options);
    FAIL() << "expected the injected crash to propagate";
  } catch (const hymv::Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected crash"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// AbortError deadlock-freedom inside split ghost exchanges
// ---------------------------------------------------------------------------

TEST(AbortPropagationTest, ThrowBetweenForwardBeginAndEndDoesNotDeadlock) {
  try {
    simmpi::run(2, [](Comm& comm) {
      const Layout layout = Layout::from_owned_count(comm, 4);
      GhostExchange ex(comm, layout, straddle_ghosts(layout));
      std::vector<double> owned(4, 1.0);
      ex.forward_begin(comm, owned);
      if (comm.rank() == 1) {
        throw hymv::Error("boom-forward");
      }
      ex.forward_end(comm);
      // Rank 0 then waits on a reverse exchange rank 1 never enters; the
      // abort broadcast must wake it instead of deadlocking.
      std::vector<double> contrib(ex.ghost_ids().size(), 1.0);
      ex.reverse_begin(comm, contrib);
      ex.reverse_end(comm, owned);
    });
    FAIL() << "expected the rank-1 failure to propagate";
  } catch (const hymv::Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom-forward"), std::string::npos);
  }
}

TEST(AbortPropagationTest, ThrowBetweenReverseBeginAndEndDoesNotDeadlock) {
  try {
    simmpi::run(2, [](Comm& comm) {
      const Layout layout = Layout::from_owned_count(comm, 4);
      GhostExchange ex(comm, layout, straddle_ghosts(layout));
      std::vector<double> owned(4, 1.0);
      std::vector<double> contrib(ex.ghost_ids().size(), 1.0);
      ex.reverse_begin(comm, contrib);
      if (comm.rank() == 0) {
        throw hymv::Error("boom-reverse");
      }
      ex.reverse_end(comm, owned);
      ex.forward_begin(comm, owned);
      ex.forward_end(comm);
    });
    FAIL() << "expected the rank-0 failure to propagate";
  } catch (const hymv::Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom-reverse"), std::string::npos);
  }
}

TEST(AbortPropagationTest, PanelPathThrowBetweenBeginAndEndDoesNotDeadlock) {
  constexpr int kWidth = 3;
  try {
    simmpi::run(2, [](Comm& comm) {
      const Layout layout = Layout::from_owned_count(comm, 4);
      GhostExchange ex(comm, layout, straddle_ghosts(layout));
      std::vector<double> owned(4 * kWidth, 1.0);
      ex.forward_begin(comm, owned, kWidth);
      if (comm.rank() == 1) {
        throw hymv::Error("boom-panel");
      }
      ex.forward_end(comm);
      std::vector<double> contrib(ex.ghost_ids().size() * kWidth, 1.0);
      ex.reverse_begin(comm, contrib, kWidth);
      ex.reverse_end(comm, owned);
    });
    FAIL() << "expected the rank-1 failure to propagate";
  } catch (const hymv::Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom-panel"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Checksummed exchange: detection and bounded recovery
// ---------------------------------------------------------------------------

/// A job whose ghost exchanges run the checksummed protocol with a short
/// receive bound.
simmpi::RunOptions protected_job() {
  simmpi::RunOptions options;
  options.protection.checksum = true;
  options.protection.max_retries = 2;
  options.protection.recv_timeout_s = 0.05;
  return options;
}

TEST(ChecksumExchangeTest, RecoversFromBitFlip) {
  simmpi::RunOptions options = protected_job();
  options.faults =
      simmpi::FaultPlan::parse("flip:src=0,dest=1,tag=1001,nth=1,bit=9", 5);
  std::int64_t resent_total = 0;
  simmpi::run(
      2,
      [&](Comm& comm) {
        const Layout layout = Layout::from_owned_count(comm, 4);
        GhostExchange ex(comm, layout, straddle_ghosts(layout));
        std::vector<double> owned(4);
        for (int i = 0; i < 4; ++i) {
          owned[static_cast<std::size_t>(i)] =
              static_cast<double>(layout.begin + i) * 10.0;
        }
        ex.forward_begin(comm, owned);
        ex.forward_end(comm);
        const auto vals = ex.ghost_values();
        for (std::size_t g = 0; g < ex.ghost_ids().size(); ++g) {
          EXPECT_DOUBLE_EQ(vals[g],
                           static_cast<double>(ex.ghost_ids()[g]) * 10.0);
        }
        if (comm.rank() == 0) {
          EXPECT_EQ(ex.resends(), 1);
        } else {
          EXPECT_EQ(ex.checksum_failures(), 1);
        }
        resent_total = comm.allreduce<std::int64_t>(
            comm.counters().messages_resent, simmpi::ReduceOp::kSum);
      },
      options);
  EXPECT_EQ(resent_total, 1);
}

TEST(ChecksumExchangeTest, RecoversFromDrop) {
  simmpi::RunOptions options = protected_job();
  options.faults =
      simmpi::FaultPlan::parse("drop:src=1,dest=0,tag=1001,nth=1");
  simmpi::run(
      2,
      [&](Comm& comm) {
        const Layout layout = Layout::from_owned_count(comm, 4);
        GhostExchange ex(comm, layout, straddle_ghosts(layout));
        std::vector<double> owned(4);
        for (int i = 0; i < 4; ++i) {
          owned[static_cast<std::size_t>(i)] =
              static_cast<double>(layout.begin + i) + 0.5;
        }
        ex.forward_begin(comm, owned);
        ex.forward_end(comm);
        const auto vals = ex.ghost_values();
        for (std::size_t g = 0; g < ex.ghost_ids().size(); ++g) {
          EXPECT_DOUBLE_EQ(vals[g],
                           static_cast<double>(ex.ghost_ids()[g]) + 0.5);
        }
        if (comm.rank() == 0) {
          EXPECT_EQ(ex.timeouts_recovered(), 1);  // NACKed the silence
        }
        if (comm.rank() == 1) {
          EXPECT_EQ(ex.resends(), 1);
        }
      },
      options);
}

TEST(ChecksumExchangeTest, PanelPathRecoversFromBitFlip) {
  constexpr int kWidth = 4;
  simmpi::RunOptions options = protected_job();
  options.faults =
      simmpi::FaultPlan::parse("flip:src=0,dest=1,tag=1001,nth=1,bit=17", 11);
  simmpi::run(
      2,
      [&](Comm& comm) {
        const Layout layout = Layout::from_owned_count(comm, 4);
        GhostExchange ex(comm, layout, straddle_ghosts(layout));
        std::vector<double> owned(4 * kWidth);
        for (std::size_t i = 0; i < owned.size(); ++i) {
          owned[i] = static_cast<double>(layout.begin) +
                     static_cast<double>(i) * 0.25;
        }
        ex.forward_begin(comm, owned, kWidth);
        ex.forward_end(comm);
        const auto panel = ex.ghost_values();
        for (std::size_t g = 0; g < ex.ghost_ids().size(); ++g) {
          // The ghost id's owner filled lane values from ITS owned array.
          const std::int64_t gid = ex.ghost_ids()[g];
          const Layout owner_layout = layout;  // uniform 4-per-rank split
          const std::int64_t owner = gid / 4;
          const std::int64_t local = gid - owner * 4;
          (void)owner_layout;
          for (int j = 0; j < kWidth; ++j) {
            const double want =
                static_cast<double>(owner * 4) +
                static_cast<double>(local * kWidth + j) * 0.25;
            EXPECT_DOUBLE_EQ(panel[g * kWidth + static_cast<std::size_t>(j)],
                             want);
          }
        }
      },
      options);
}

TEST(ChecksumExchangeTest, StaleWiderDuplicateIsDiscarded) {
  // Every width shares the forward stream, so a late retransmission of a
  // wider message can meet the receive of a narrower one. The protected
  // receive is sized for the widest width the stream has carried, and a
  // message of any other size than the current one is discarded, not
  // delivered into a buffer it overflows.
  constexpr int kWide = 4;
  simmpi::run(2, [](Comm& comm) {
    const Layout layout = Layout::from_owned_count(comm, 4);
    GhostExchange ex(comm, layout, straddle_ghosts(layout));
    // Lane j of global id g carries base + g·width + j.
    const auto forward_lands = [&](int width, double base) {
      const auto w = static_cast<std::size_t>(width);
      std::vector<double> owned(4 * w);
      for (std::size_t i = 0; i < owned.size(); ++i) {
        owned[i] = base + static_cast<double>(
                              static_cast<std::size_t>(layout.begin) * w + i);
      }
      ex.forward_begin(comm, owned, width);
      ex.forward_end(comm);
      const auto vals = ex.ghost_values();
      ASSERT_EQ(vals.size(), ex.ghost_ids().size() * w);
      for (std::size_t g = 0; g < ex.ghost_ids().size(); ++g) {
        for (std::size_t j = 0; j < w; ++j) {
          EXPECT_EQ(vals[g * w + j],
                    base + static_cast<double>(
                               static_cast<std::size_t>(ex.ghost_ids()[g]) *
                                   w +
                               j))
              << "width " << width << ", ghost " << g << ", lane " << j;
        }
      }
    };
    forward_lands(kWide, 100.0);
    if (comm.rank() == 0) {
      // What a late retransmission of that width-4 message would leave in
      // rank 1's queue: rank 1 takes one ghost from rank 0, so the wire is
      // kWide doubles plus the 16-byte {epoch, checksum} trailer.
      const std::vector<std::byte> stale(kWide * sizeof(double) + 16,
                                         std::byte{0xFF});
      comm.isend_bytes(1, pla::tags::kForward, stale.data(), stale.size());
    }
    forward_lands(1, 200.0);
    forward_lands(kWide, 300.0);
  }, protected_job());
}

TEST(ChecksumExchangeTest, ReversePathSumsCorrectlyUnderDrop) {
  simmpi::RunOptions options = protected_job();
  options.faults =
      simmpi::FaultPlan::parse("drop:src=0,dest=1,tag=1002,nth=1");
  simmpi::run(
      2,
      [&](Comm& comm) {
        const Layout layout = Layout::from_owned_count(comm, 3);
        GhostExchange ex(comm, layout, straddle_ghosts(layout));
        std::vector<double> contrib(ex.ghost_ids().size(), 1.0);
        std::vector<double> owned(3, 100.0);
        ex.reverse_begin(comm, contrib);
        ex.reverse_end(comm, owned);
        const bool has_lower = comm.rank() > 0;
        const bool has_upper = comm.rank() < comm.size() - 1;
        EXPECT_DOUBLE_EQ(owned[0], has_lower ? 101.0 : 100.0);
        EXPECT_DOUBLE_EQ(owned[2], has_upper ? 101.0 : 100.0);
        EXPECT_DOUBLE_EQ(owned[1], 100.0);
      },
      options);
}

TEST(ChecksumExchangeTest, PersistentCorruptionExhaustsRetries) {
  // Every (re)transmission of the first message is flipped; with
  // max_retries = 1 the receiver must give up with IntegrityError.
  // bit=3 pins every flip into the payload (a random bit could land in the
  // trailer's epoch field, which the receiver discards silently as a stale
  // duplicate — a timeout, not a checksum failure).
  simmpi::RunOptions options = protected_job();
  options.protection.max_retries = 1;
  options.faults = simmpi::FaultPlan::parse(
      "flip:src=0,dest=1,tag=1001,nth=1,bit=3;"
      "flip:src=0,dest=1,tag=1001,nth=2,bit=3;"
      "flip:src=0,dest=1,tag=1001,nth=3,bit=3",
      21);
  EXPECT_THROW(
      simmpi::run(
          2,
          [&](Comm& comm) {
            const Layout layout = Layout::from_owned_count(comm, 4);
            GhostExchange ex(comm, layout, straddle_ghosts(layout));
            std::vector<double> owned(4, 2.0);
            ex.forward_begin(comm, owned);
            ex.forward_end(comm);
          },
          options),
      hymv::IntegrityError);
}

TEST(ChecksumExchangeTest, ProtectionOffIsByteIdentical) {
  // With protection off the exchange must not touch the wire format: the
  // per-message byte count equals the unprotected payload exactly.
  simmpi::run(2, [](Comm& comm) {
    const Layout layout = Layout::from_owned_count(comm, 4);
    const auto before = comm.counters();
    GhostExchange ex(comm, layout, straddle_ghosts(layout));
    const auto setup = comm.counters();
    std::vector<double> owned(4, 1.0);
    ex.forward_begin(comm, owned);
    ex.forward_end(comm);
    const auto after = comm.counters();
    (void)before;
    // One neighbor, one message of exactly count*8 bytes, no ctrl traffic.
    EXPECT_EQ(after.messages_sent - setup.messages_sent, 1);
    EXPECT_EQ(after.bytes_sent - setup.bytes_sent, 8);
    EXPECT_EQ(after.messages_resent, 0);
  });
}

TEST(ChecksumExchangeTest, ProtectionComesFromTheJobNotTheEnvironment) {
  // The variable arms only jobs whose options were resolved from it: a job
  // run with default options sends the unprotected bytes, and the same job
  // with RunOptions::protection.checksum set sends each payload with its
  // 16-byte trailer and answers each with a one-byte ACK.
  EnvGuard checksum("HYMV_FAULT_CHECKSUM", "1");
  const auto forward_traffic = [](const simmpi::RunOptions& options) {
    simmpi::TrafficCounters sent;
    simmpi::run(
        2,
        [&](Comm& comm) {
          const Layout layout = Layout::from_owned_count(comm, 4);
          GhostExchange ex(comm, layout, straddle_ghosts(layout));
          const auto setup = comm.counters();
          std::vector<double> owned(4, 1.0);
          ex.forward_begin(comm, owned);
          ex.forward_end(comm);
          const auto after = comm.counters();
          if (comm.rank() == 0) {
            sent.messages_sent = after.messages_sent - setup.messages_sent;
            sent.bytes_sent = after.bytes_sent - setup.bytes_sent;
          }
        },
        options);
    return sent;
  };
  const simmpi::TrafficCounters plain = forward_traffic({});
  EXPECT_EQ(plain.messages_sent, 1);
  EXPECT_EQ(plain.bytes_sent, 8);

  simmpi::RunOptions armed;
  armed.protection.checksum = true;
  const simmpi::TrafficCounters guarded = forward_traffic(armed);
  EXPECT_EQ(guarded.messages_sent, 2);
  EXPECT_EQ(guarded.bytes_sent, 8 + 16 + 1);
}

// ---------------------------------------------------------------------------
// Element-store checksums: verify + scrub across every layout
// ---------------------------------------------------------------------------

TEST(StoreScrubTest, DetectsAndRepairsEveryLayout) {
  const int n = 12;
  const std::int64_t ne = 9;
  for (const StoreLayout layout : kAllLayouts) {
    ElementMatrixStore store(ne, n, layout);
    fill_store(store, 33);
    store.enable_checksums();
    EXPECT_TRUE(store.checksums_enabled());
    EXPECT_TRUE(store.verify().empty()) << to_string(layout);

    // Flip one bit of element 0's first stored scalar.
    auto bytes = store.raw_bytes();
    bytes[0] ^= std::byte{0x10};
    const auto corrupted = store.verify();
    ASSERT_EQ(corrupted.size(), 1u) << to_string(layout);
    EXPECT_EQ(corrupted[0], 0) << to_string(layout);

    const std::int64_t repaired =
        store.scrub([&](std::int64_t e, std::span<double> ke) {
          const auto truth = random_symmetric(
              n, 33 + static_cast<std::uint64_t>(e));
          std::copy(truth.begin(), truth.end(), ke.begin());
        });
    EXPECT_EQ(repaired, 1) << to_string(layout);
    EXPECT_TRUE(store.verify().empty()) << to_string(layout);

    // Contents restored exactly (fp32 reproduces its own rounding).
    const auto truth = random_symmetric(n, 33);
    for (int c = 0; c < n; ++c) {
      for (int r = 0; r < n; ++r) {
        const double want =
            layout == StoreLayout::kFp32
                ? static_cast<double>(static_cast<float>(
                      truth[static_cast<std::size_t>(c) * n + r]))
                : truth[static_cast<std::size_t>(c) * n + r];
        ASSERT_EQ(store.at(0, r, c), want) << to_string(layout);
      }
    }
  }
}

TEST(StoreScrubTest, SetRefreshesChecksum) {
  ElementMatrixStore store(4, 8, StoreLayout::kPadded);
  fill_store(store, 5);
  store.enable_checksums();
  store.set(2, random_symmetric(8, 999));  // legitimate update, not a fault
  EXPECT_TRUE(store.verify().empty());
}

TEST(StoreScrubTest, OperatorScrubRestoresApplyBitwise) {
  // Corrupt the HYMV store mid-life, scrub against the element operator
  // (the matrix-free recompute path), and require the apply to return to
  // its pre-corruption bits — for every layout × serial/threaded schedule.
  const auto setup = driver::ProblemSetup::build(small_poisson(), 1);
  for (const StoreLayout layout : kAllLayouts) {
    for (const int threads : {1, 4}) {
      set_threads(threads);
      simmpi::run(1, [&](Comm& comm) {
        driver::RankContext ctx(comm, setup);
        core::HymvOptions options;
        options.layout = layout;
        HymvOperator op(comm, ctx.part(), ctx.element_op(), options);
        op.enable_store_checksums();

        pla::DistVector x(op.layout()), y_ref(op.layout()), y(op.layout());
        for (std::int64_t i = 0; i < x.owned_size(); ++i) {
          x[i] = static_cast<double>(i % 7) * 0.125 - 0.375;
        }
        op.apply(comm, x, y_ref);

        auto bytes = op.mutable_store().raw_bytes();
        bytes[8] ^= std::byte{0x40};
        bytes[bytes.size() / 2] ^= std::byte{0x01};
        const auto corrupted = op.verify_store();
        EXPECT_GE(corrupted.size(), 1u) << to_string(layout);

        const std::int64_t repaired = op.scrub_store(ctx.element_op());
        EXPECT_EQ(repaired, static_cast<std::int64_t>(corrupted.size()));
        EXPECT_TRUE(op.verify_store().empty());

        op.apply(comm, x, y);
        for (std::int64_t i = 0; i < y.owned_size(); ++i) {
          ASSERT_EQ(y[i], y_ref[i])
              << to_string(layout) << " threads=" << threads << " i=" << i;
        }
      });
      set_threads(1);
    }
  }
}

TEST(StoreScrubTest, ScrubbedHymvMatchesMatrixFree) {
  // Graceful degradation: a scrubbed store reproduces what the matrix-free
  // backend computes from the same mesh (same quadrature, same element
  // loops), so corruption never forces abandoning the stored-matrix path.
  const auto setup = driver::ProblemSetup::build(small_poisson(), 1);
  simmpi::run(1, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    HymvOperator op(comm, ctx.part(), ctx.element_op());
    core::MatrixFreeOperator mf(comm, ctx.part(), ctx.element_op());
    op.enable_store_checksums();
    auto bytes = op.mutable_store().raw_bytes();
    bytes[16] ^= std::byte{0x20};
    EXPECT_GE(op.scrub_store(ctx.element_op()), 1);

    pla::DistVector x(op.layout()), y_hymv(op.layout()), y_mf(op.layout());
    for (std::int64_t i = 0; i < x.owned_size(); ++i) {
      x[i] = std::sin(0.05 * static_cast<double>(i));
    }
    op.apply(comm, x, y_hymv);
    mf.apply(comm, x, y_mf);
    for (std::int64_t i = 0; i < y_hymv.owned_size(); ++i) {
      ASSERT_NEAR(y_hymv[i], y_mf[i], 1e-11);
    }
  });
}

// ---------------------------------------------------------------------------
// CG rollback / true-residual replacement
// ---------------------------------------------------------------------------

TEST(CgRecoveryTest, RollbackRecoversFromInjectedNan) {
  const auto setup = driver::ProblemSetup::build(small_elasticity(), 2);
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    HymvOperator a(comm, ctx.part(), ctx.element_op());
    pla::ConstrainedOperator ac(a, ctx.constraints());
    pla::DistVector b = ctx.assemble_rhs(comm);
    pla::apply_constraints_to_rhs(comm, a, ctx.constraints(), b);
    pla::JacobiPreconditioner m(comm, ac);

    pla::DistVector u(a.layout());
    bool fired = false;
    pla::CgOptions options;
    options.rtol = 1e-8;
    options.checkpoint_every = 4;
    options.fault_hook = [&](std::int64_t it, pla::DistVector& /*x*/,
                             pla::DistVector& r) {
      if (it == 6 && !fired) {
        fired = true;
        r[0] = std::numeric_limits<double>::quiet_NaN();
      }
    };
    const auto result = pla::cg_solve(comm, ac, m, b, u, options);
    EXPECT_TRUE(result.converged);
    EXPECT_GE(result.rollbacks, 1);
    EXPECT_GE(result.checkpoints_taken, 1);
    EXPECT_LE(ctx.error_inf(comm, u), 1e-6);
  });
}

TEST(CgRecoveryTest, RollbackBudgetBoundsPersistentFaults) {
  const auto setup = driver::ProblemSetup::build(small_elasticity(), 1);
  simmpi::run(1, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    HymvOperator a(comm, ctx.part(), ctx.element_op());
    pla::ConstrainedOperator ac(a, ctx.constraints());
    pla::DistVector b = ctx.assemble_rhs(comm);
    pla::apply_constraints_to_rhs(comm, a, ctx.constraints(), b);
    pla::JacobiPreconditioner m(comm, ac);

    pla::DistVector u(a.layout());
    pla::CgOptions options;
    options.rtol = 1e-8;
    options.checkpoint_every = 4;
    options.max_rollbacks = 2;
    options.fault_hook = [&](std::int64_t it, pla::DistVector& /*x*/,
                             pla::DistVector& r) {
      if (it == 6) {  // persistent: fires on every visit of iteration 6
        r[0] = std::numeric_limits<double>::quiet_NaN();
      }
    };
    const auto result = pla::cg_solve(comm, ac, m, b, u, options);
    EXPECT_FALSE(result.converged);
    EXPECT_TRUE(result.breakdown);
    EXPECT_EQ(result.rollbacks, 2);
    EXPECT_NE(std::string(result.breakdown_reason).find("rollback budget"),
              std::string::npos);
  });
}

TEST(CgRecoveryTest, TrueResidualReplacementRepairsDriftedIterate) {
  const auto setup = driver::ProblemSetup::build(small_elasticity(), 1);
  simmpi::run(1, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    HymvOperator a(comm, ctx.part(), ctx.element_op());
    pla::ConstrainedOperator ac(a, ctx.constraints());
    pla::DistVector b = ctx.assemble_rhs(comm);
    pla::apply_constraints_to_rhs(comm, a, ctx.constraints(), b);
    pla::JacobiPreconditioner m(comm, ac);

    // Reference solve for the clean discretization error.
    pla::DistVector u_ref(a.layout());
    const auto clean = pla::cg_solve(comm, ac, m, b, u_ref, {.rtol = 1e-10});
    ASSERT_TRUE(clean.converged);
    const double err_ref = ctx.error_inf(comm, u_ref);

    // Corrupt x silently: the CG recurrence never sees it (r is tracked
    // separately), so only a true-residual replacement can detect and
    // repair the drift.
    pla::DistVector u(a.layout());
    bool fired = false;
    pla::CgOptions options;
    options.rtol = 1e-10;
    options.true_residual_every = 5;
    options.fault_hook = [&](std::int64_t it, pla::DistVector& x,
                             pla::DistVector& /*r*/) {
      if (it == 6 && !fired) {
        fired = true;
        x[0] += 1000.0;
      }
    };
    const auto result = pla::cg_solve(comm, ac, m, b, u, options);
    EXPECT_TRUE(result.converged);
    EXPECT_GE(result.residual_replacements, 1);
    EXPECT_LE(ctx.error_inf(comm, u), err_ref + 1e-6);
  });
}

TEST(CgRecoveryTest, MultiRhsRollbackRecoversAllLanes) {
  const auto setup = driver::ProblemSetup::build(small_elasticity(), 2);
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    HymvOperator a(comm, ctx.part(), ctx.element_op());
    pla::ConstrainedOperator ac(a, ctx.constraints());
    pla::DistVector b1 = ctx.assemble_rhs(comm);
    pla::apply_constraints_to_rhs(comm, a, ctx.constraints(), b1);
    pla::JacobiPreconditioner m(comm, ac);

    constexpr int kWidth = 3;
    pla::DistMultiVector b(a.layout(), kWidth), u(a.layout(), kWidth);
    for (std::int64_t i = 0; i < b.owned_size(); ++i) {
      for (int j = 0; j < kWidth; ++j) {
        b.at(i, j) = b1[i] * (1.0 + 0.25 * static_cast<double>(j));
      }
    }
    bool fired = false;
    pla::CgOptions options;
    options.rtol = 1e-8;
    options.checkpoint_every = 4;
    options.fault_hook_multi = [&](std::int64_t it,
                                   pla::DistMultiVector& /*x*/,
                                   pla::DistMultiVector& r) {
      if (it == 6 && !fired) {
        fired = true;
        r.at(0, 1) = std::numeric_limits<double>::quiet_NaN();
      }
    };
    const auto results = pla::cg_solve_multi(comm, ac, m, b, u, options);
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kWidth));
    for (int j = 0; j < kWidth; ++j) {
      EXPECT_TRUE(results[static_cast<std::size_t>(j)].converged)
          << "lane " << j;
    }
    EXPECT_GE(results[0].rollbacks, 1);
    EXPECT_GE(results[0].checkpoints_taken, 1);
    // Lane scaling is linear in b, so every lane's solution is a scaled
    // lane-0 solution; spot-check lane 2 against lane 0.
    pla::DistVector u0(a.layout()), u2(a.layout());
    u.get_lane(0, u0);
    u.get_lane(2, u2);
    for (std::int64_t i = 0; i < u0.owned_size(); ++i) {
      ASSERT_NEAR(u2[i], 1.5 * u0[i], 1e-6);
    }
  });
}

/// A NaN written into x reaches the recurrence only through a true-residual
/// replacement. When that replacement lands on a checkpoint iteration, the
/// panel solve must roll back to the last finite checkpoint, as cg_solve
/// does, instead of checkpointing the non-finite state and restoring it on
/// every later rollback until the budget runs out.
TEST(CgRecoveryTest, MultiRhsNonFiniteReplacementRollsBack) {
  constexpr int kWidth = 2;
  constexpr double kRtol = 1e-10;
  for (const int ranks : {1, 2}) {
    simmpi::run(ranks, [&](Comm& comm) {
      // CgDetailTest's shifted 1D Laplacian, 48 rows in all.
      const Layout layout = Layout::from_owned_count(comm, 48 / ranks);
      const std::int64_t n = layout.global_size;
      pla::DistCsrMatrix a(layout);
      for (std::int64_t g = layout.begin; g < layout.end_excl; ++g) {
        a.add_value(g, g, 2.5);
        if (g > 0) a.add_value(g, g - 1, -1.0);
        if (g < n - 1) a.add_value(g, g + 1, -1.0);
      }
      a.assemble(comm);
      pla::IdentityPreconditioner ident;
      pla::DistMultiVector b(layout, kWidth), x(layout, kWidth),
          x_ref(layout, kWidth);
      for (std::int64_t i = 0; i < layout.owned(); ++i) {
        const auto g = static_cast<double>(layout.begin + i);
        b.at(i, 0) = std::sin(g + 1.0);
        b.at(i, 1) = std::cos(0.3 * g);
      }
      const auto clean =
          pla::cg_solve_multi(comm, a, ident, b, x_ref, {.rtol = kRtol});

      bool fired = false;
      pla::CgOptions options{.rtol = kRtol,
                             .true_residual_every = 5,
                             .checkpoint_every = 5};
      options.fault_hook_multi = [&](std::int64_t it, pla::DistMultiVector& xm,
                                     pla::DistMultiVector& /*r*/) {
        if (it == 7 && !fired) {
          fired = true;
          xm.at(0, 1) = std::numeric_limits<double>::quiet_NaN();
        }
      };
      const auto results = pla::cg_solve_multi(comm, a, ident, b, x, options);
      EXPECT_TRUE(fired);
      ASSERT_EQ(results.size(), static_cast<std::size_t>(kWidth));
      for (int j = 0; j < kWidth; ++j) {
        const pla::CgResult& r = results[static_cast<std::size_t>(j)];
        EXPECT_TRUE(clean[static_cast<std::size_t>(j)].converged);
        EXPECT_TRUE(r.converged) << "lane " << j << " ranks=" << ranks << ": "
                                 << r.breakdown_reason;
        EXPECT_GE(r.rollbacks, 1) << "lane " << j;
        // ‖A⁻¹‖ ≤ 2 for this operator, so two iterates whose residuals are
        // within rtol·‖b‖ (‖b‖ < 7) agree to 4·rtol·‖b‖ < 3e-9.
        for (std::int64_t i = 0; i < layout.owned(); ++i) {
          ASSERT_NEAR(x.at(i, j), x_ref.at(i, j), 3e-9)
              << "lane " << j << " i=" << i << " ranks=" << ranks;
        }
      }
    });
  }
}

TEST(CgRecoveryTest, CheckpointingAloneIsBitwiseNeutral) {
  // A clean problem solved with checkpoints enabled must walk the exact
  // same trajectory: identical iteration count and bitwise-identical x.
  const auto setup = driver::ProblemSetup::build(small_elasticity(), 1);
  simmpi::run(1, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    HymvOperator a(comm, ctx.part(), ctx.element_op());
    pla::ConstrainedOperator ac(a, ctx.constraints());
    pla::DistVector b = ctx.assemble_rhs(comm);
    pla::apply_constraints_to_rhs(comm, a, ctx.constraints(), b);
    pla::JacobiPreconditioner m(comm, ac);

    pla::DistVector u_plain(a.layout()), u_ck(a.layout());
    const auto plain = pla::cg_solve(comm, ac, m, b, u_plain, {.rtol = 1e-9});
    pla::CgOptions ck_options;
    ck_options.rtol = 1e-9;
    ck_options.checkpoint_every = 8;
    const auto ck = pla::cg_solve(comm, ac, m, b, u_ck, ck_options);
    EXPECT_TRUE(plain.converged);
    EXPECT_TRUE(ck.converged);
    EXPECT_EQ(plain.iterations, ck.iterations);
    EXPECT_GE(ck.checkpoints_taken, 1);
    EXPECT_EQ(plain.rollbacks, 0);
    EXPECT_EQ(ck.rollbacks, 0);
    for (std::int64_t i = 0; i < u_plain.owned_size(); ++i) {
      ASSERT_EQ(u_plain[i], u_ck[i]) << "i=" << i;
    }
  });
}

// ---------------------------------------------------------------------------
// Driver solve-with-retry
// ---------------------------------------------------------------------------

TEST(SolveRetryTest, RetryScrubsStoreAndConverges) {
  const auto setup = driver::ProblemSetup::build(small_elasticity(), 2);
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    driver::SolveOptions options;
    options.backend = driver::Backend::kHymv;
    options.max_iters = 400;
    options.store_checksums = true;
    options.max_solve_attempts = 2;
    options.checkpoint_every = 4;
    options.attempt_hook = [&](pla::LinearOperator& op, int attempt) {
      if (attempt != 1 || comm.rank() != 0) {
        return;
      }
      auto* hymv = dynamic_cast<HymvOperator*>(&op);
      ASSERT_NE(hymv, nullptr);
      // Trash rank 0's whole store (all-ones bytes = NaNs): attempt 1 must
      // fail fast (the rollback budget trips on the persistent NaN pq),
      // then the retry path scrubs every block and attempt 2 converges.
      const auto bytes = hymv->mutable_store().raw_bytes();
      std::memset(bytes.data(), 0xFF, bytes.size());
    };
    const auto report = driver::solve_problem(comm, ctx, options);
    EXPECT_EQ(report.attempts, 2);
    EXPECT_TRUE(report.cg.converged);
    const std::int64_t scrubbed = comm.allreduce<std::int64_t>(
        report.scrubbed_blocks, simmpi::ReduceOp::kSum);
    EXPECT_GE(scrubbed, 1);
    EXPECT_LE(report.err_inf, 1e-3);
  });
}

// ---------------------------------------------------------------------------
// store_io durability (atomic-rename save + kill-point)
// ---------------------------------------------------------------------------

TEST(StoreIoDurabilityTest, CrashMidSaveLeavesPreviousFileIntact) {
  const std::string path = temp_path("hymv_faults_durable.bin");
  const std::string tmp = path + ".tmp";
  std::filesystem::remove(path);
  std::filesystem::remove(tmp);

  ElementMatrixStore v1(6, 8, StoreLayout::kPadded);
  fill_store(v1, 71);
  io::save_store(path, v1);
  ASSERT_FALSE(std::filesystem::exists(tmp));  // temp moved into place

  // Simulated crash halfway through the payload of the NEXT save.
  ElementMatrixStore v2(6, 8, StoreLayout::kPadded);
  fill_store(v2, 72);
  io::testing::set_save_kill_after(64);
  EXPECT_THROW(io::save_store(path, v2), hymv::Error);
  EXPECT_TRUE(std::filesystem::exists(tmp));  // partial temp left behind

  // The file under the final name is still the COMPLETE previous save.
  const ElementMatrixStore loaded = io::load_store(path);
  EXPECT_EQ(loaded.num_elements(), 6);
  std::vector<double> want(64), got(64);
  for (std::int64_t e = 0; e < 6; ++e) {
    v1.get(e, want);
    loaded.get(e, got);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]);
    }
  }

  // The kill-point is one-shot: the next save succeeds and replaces both
  // the file and the stale temp.
  io::save_store(path, v2);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  const ElementMatrixStore reloaded = io::load_store(path);
  v2.get(3, want);
  reloaded.get(3, got);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]);
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// No-fault golden: the fault layer compiled in but disabled moves no bits
// ---------------------------------------------------------------------------

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

TEST(NoFaultGoldenTest, PaddedApplyBitwiseUnchanged) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "golden bits are defined for uninstrumented builds";
#endif
  // Same fixture as the layout golden test: with every HYMV_FAULT_* knob
  // unset, the operator must reproduce the pre-fault-layer hash exactly.
  const mesh::Mesh m = mesh::build_structured_hex(
      {.nx = 4, .ny = 3, .nz = 5}, mesh::ElementType::kHex8);
  const auto ids = mesh::partition_elements(m, 1, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, ids, 1);
  simmpi::run(1, [&](Comm& comm) {
    const auto& part = dist.parts[0];
    fem::PoissonOperator op(mesh::ElementType::kHex8);
    HymvOperator hop(comm, part, op);
    pla::DistVector x(hop.layout()), y(hop.layout());
    for (std::int64_t i = 0; i < x.owned_size(); ++i) {
      const std::int64_t g = hop.layout().begin + i;
      x[i] = static_cast<double>(g * 13 % 64 - 32) * 0.03125 +
             static_cast<double>(i % 5) * 0.25;
    }
    hop.apply(comm, x, y);
    ASSERT_EQ(y.owned_size(), 120);
    EXPECT_EQ(fnv1a(y.values().data(),
                    static_cast<std::size_t>(y.owned_size())),
              0xf0783812668c8ab6ULL);
  });
}

// ---------------------------------------------------------------------------
// Acceptance campaign: every fault class in one seeded run
// ---------------------------------------------------------------------------

TEST(FaultCampaignTest, SeededCampaignConvergesLikeFaultFree) {
  const auto setup = driver::ProblemSetup::build(small_elasticity(), 2);

  // Fault-free reference.
  driver::SolveOptions clean_options;
  clean_options.backend = driver::Backend::kHymv;
  double err_clean = 0.0;
  bool clean_converged = false;
  simmpi::run(2, [&](Comm& comm) {
    driver::RankContext ctx(comm, setup);
    const auto report = driver::solve_problem(comm, ctx, clean_options);
    clean_converged = report.cg.converged;
    err_clean = report.err_inf;
  });
  ASSERT_TRUE(clean_converged);

  // The campaign: arm the checksummed exchange through the job's options
  // (as RunOptions::from_env does for a production fault drill), corrupt
  // one ghost message, drop one, flip a bit in one stored element block,
  // and NaN one CG iterate mid-stream.
  simmpi::RunOptions run_options;
  run_options.protection.checksum = true;
  run_options.protection.recv_timeout_s = 0.1;
  // The slab partition gives interface nodes to the LOWER rank, so forward
  // (tag 1001) data flows 0→1 and reverse (tag 1002) contributions flow
  // 1→0 — the two faults hit one real message on each edge.
  run_options.faults = simmpi::FaultPlan::parse(
      "flip:src=0,dest=1,tag=1001,nth=3,bit=5;"
      "drop:src=1,dest=0,tag=1002,nth=4",
      2026);

  double err_faulted = 0.0;
  pla::CgResult cg;
  std::int64_t resent_total = 0;
  std::int64_t scrubbed_total = 0;
  int attempts = 0;
  simmpi::run(
      2,
      [&](Comm& comm) {
        driver::RankContext ctx(comm, setup);
        driver::SolveOptions options;
        options.backend = driver::Backend::kHymv;
        options.max_iters = 400;
        options.store_checksums = true;
        options.max_solve_attempts = 2;
        options.checkpoint_every = 4;
        options.attempt_hook = [&](pla::LinearOperator& op, int attempt) {
          if (attempt != 1 || comm.rank() != 0) {
            return;
          }
          auto* hymv = dynamic_cast<HymvOperator*>(&op);
          ASSERT_NE(hymv, nullptr);
          const auto bytes = hymv->mutable_store().raw_bytes();
          std::memset(bytes.data(), 0xFF, bytes.size());
        };
        bool fired = false;
        options.cg_fault_hook = [&](std::int64_t it, pla::DistVector& /*x*/,
                                    pla::DistVector& r) {
          if (it == 6 && !fired && r.owned_size() > 0) {
            fired = true;
            r[0] = std::numeric_limits<double>::quiet_NaN();
          }
        };
        const auto report = driver::solve_problem(comm, ctx, options);
        cg = report.cg;
        attempts = report.attempts;
        err_faulted = report.err_inf;
        resent_total = comm.allreduce<std::int64_t>(
            comm.counters().messages_resent, simmpi::ReduceOp::kSum);
        scrubbed_total = comm.allreduce<std::int64_t>(
            report.scrubbed_blocks, simmpi::ReduceOp::kSum);
      },
      run_options);

  // Converged to the same tolerance as the fault-free run …
  EXPECT_TRUE(cg.converged);
  EXPECT_LE(cg.relative_residual, clean_options.rtol);
  EXPECT_NEAR(err_faulted, err_clean, 1e-6);
  // … with every detection/recovery event visible in the counters.
  EXPECT_EQ(attempts, 2);            // store fault forced one retry
  EXPECT_GE(scrubbed_total, 1);      // the poisoned block was scrubbed
  EXPECT_GE(resent_total, 2);        // the flipped AND the dropped message
  EXPECT_GE(cg.rollbacks, 1);        // the NaN'd iterate was rolled back
  EXPECT_GE(cg.checkpoints_taken, 1);
}

}  // namespace
