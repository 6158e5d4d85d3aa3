// Unit tests for the common utility module: error macros, timers, aligned
// allocation, RNG determinism, and summary statistics.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hymv/common/aligned.hpp"
#include "hymv/common/env.hpp"
#include "hymv/common/error.hpp"
#include "hymv/common/rng.hpp"
#include "hymv/common/stats.hpp"
#include "hymv/common/timer.hpp"

namespace {

TEST(Error, CheckPassesOnTrue) { EXPECT_NO_THROW(HYMV_CHECK(1 + 1 == 2)); }

TEST(Error, CheckThrowsOnFalse) {
  EXPECT_THROW(HYMV_CHECK(1 + 1 == 3), hymv::Error);
}

TEST(Error, CheckMsgCarriesMessage) {
  try {
    HYMV_CHECK_MSG(false, "the answer is 42");
    FAIL() << "expected throw";
  } catch (const hymv::Error& e) {
    EXPECT_NE(std::string(e.what()).find("the answer is 42"),
              std::string::npos);
  }
}

TEST(Error, ThrowMacroThrows) { EXPECT_THROW(HYMV_THROW("boom"), hymv::Error); }

TEST(Error, MessageContainsFileAndExpr) {
  try {
    HYMV_CHECK(2 < 1);
    FAIL() << "expected throw";
  } catch (const hymv::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Timer, ElapsedIsMonotone) {
  hymv::Timer t;
  const double a = t.elapsed_s();
  const double b = t.elapsed_s();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(Timer, RestartResetsOrigin) {
  hymv::Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.restart();
  EXPECT_LT(t.elapsed_s(), 0.005);
}

TEST(CumulativeTimer, AccumulatesIntervals) {
  hymv::CumulativeTimer t;
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  t.stop();
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  t.stop();
  EXPECT_GE(t.total_s(), 0.004 * 0.5);  // generous slack for CI jitter
  EXPECT_EQ(t.count(), 2);
}

TEST(CumulativeTimer, DoubleStartThrows) {
  hymv::CumulativeTimer t;
  t.start();
  EXPECT_THROW(t.start(), hymv::Error);
  t.stop();
}

TEST(CumulativeTimer, StopWithoutStartThrows) {
  hymv::CumulativeTimer t;
  EXPECT_THROW(t.stop(), hymv::Error);
}

TEST(CumulativeTimer, ResetClearsTotals) {
  hymv::CumulativeTimer t;
  t.start();
  t.stop();
  t.reset();
  EXPECT_EQ(t.total_s(), 0.0);
  EXPECT_EQ(t.count(), 0);
}

TEST(ScopedTimer, StopsOnScopeExit) {
  hymv::CumulativeTimer t;
  {
    hymv::ScopedTimer guard(t);
    EXPECT_TRUE(t.running());
  }
  EXPECT_FALSE(t.running());
  EXPECT_EQ(t.count(), 1);
}

TEST(PhaseTimers, UnknownPhaseIsZero) {
  hymv::PhaseTimers timers;
  EXPECT_EQ(timers.total_s("never_ran"), 0.0);
}

TEST(PhaseTimers, TracksNamedPhases) {
  hymv::PhaseTimers timers;
  timers.phase("compute").start();
  timers.phase("compute").stop();
  EXPECT_EQ(timers.phases().size(), 1u);
  EXPECT_GE(timers.total_s("compute"), 0.0);
}

TEST(Aligned, VectorDataIsAligned) {
  hymv::aligned_vector<double> v(37);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % hymv::kSimdAlign, 0u);
}

TEST(Aligned, EmptyVectorWorks) {
  hymv::aligned_vector<double> v;
  EXPECT_TRUE(v.empty());
  v.resize(4, 1.5);
  EXPECT_EQ(v[3], 1.5);
}

TEST(Aligned, RoundUpTo) {
  EXPECT_EQ(hymv::round_up_to(0, 8), 0u);
  EXPECT_EQ(hymv::round_up_to(1, 8), 8u);
  EXPECT_EQ(hymv::round_up_to(8, 8), 8u);
  EXPECT_EQ(hymv::round_up_to(9, 8), 16u);
}

TEST(Rng, SplitMixIsDeterministic) {
  hymv::SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, XoshiroUniformInRange) {
  hymv::Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, XoshiroUniformIntervalRespectsBounds) {
  hymv::Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  hymv::Xoshiro256 a(1), b(2);
  std::set<std::uint64_t> xs;
  bool all_equal = true;
  for (int i = 0; i < 16; ++i) {
    all_equal = all_equal && (a.next() == b.next());
  }
  EXPECT_FALSE(all_equal);
}

TEST(Rng, UniformIntBelowBound) {
  hymv::Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_int(17), 17u);
  }
}

TEST(Stats, EmptySampleIsZero) {
  const hymv::Summary s = hymv::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, SingleSample) {
  const std::vector<double> xs{3.0};
  const hymv::Summary s = hymv::summarize(xs);
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, 3.0);
  EXPECT_EQ(s.max, 3.0);
  EXPECT_EQ(s.median, 3.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Stats, OddMedian) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_EQ(hymv::summarize(xs).median, 3.0);
}

TEST(Stats, EvenMedian) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_EQ(hymv::summarize(xs).median, 2.5);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const hymv::Summary s = hymv::summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.13809, 1e-4);  // sample stddev
}

TEST(Stats, RelDiff) {
  EXPECT_EQ(hymv::rel_diff(1.0, 1.0), 0.0);
  EXPECT_NEAR(hymv::rel_diff(1.0, 1.1), 0.1 / 1.1, 1e-12);
  EXPECT_EQ(hymv::rel_diff(0.0, 0.0), 0.0);
}

TEST(Env, FallbackWhenUnset) {
  EXPECT_EQ(hymv::env_int("HYMV_TEST_UNSET_VAR_XYZ", 42), 42);
  EXPECT_EQ(hymv::env_double("HYMV_TEST_UNSET_VAR_XYZ", 1.5), 1.5);
}

TEST(Env, ParsesSetValues) {
  ::setenv("HYMV_TEST_SET_VAR", "17", 1);
  EXPECT_EQ(hymv::env_int("HYMV_TEST_SET_VAR", 0), 17);
  ::setenv("HYMV_TEST_SET_VAR_D", "2.25", 1);
  EXPECT_EQ(hymv::env_double("HYMV_TEST_SET_VAR_D", 0.0), 2.25);
  ::unsetenv("HYMV_TEST_SET_VAR");
  ::unsetenv("HYMV_TEST_SET_VAR_D");
}

TEST(Env, FallbackOnGarbage) {
  ::setenv("HYMV_TEST_GARBAGE", "not_a_number", 1);
  EXPECT_EQ(hymv::env_int("HYMV_TEST_GARBAGE", 9), 9);
  ::unsetenv("HYMV_TEST_GARBAGE");
}

TEST(Env, RejectsTrailingGarbage) {
  // "8abc" must not silently parse as 8.
  ::setenv("HYMV_TEST_TRAIL", "8abc", 1);
  EXPECT_EQ(hymv::env_int("HYMV_TEST_TRAIL", 3), 3);
  ::setenv("HYMV_TEST_TRAIL", "2.5x", 1);
  EXPECT_EQ(hymv::env_double("HYMV_TEST_TRAIL", 0.5), 0.5);
  ::setenv("HYMV_TEST_TRAIL", "1e3 junk", 1);
  EXPECT_EQ(hymv::env_double("HYMV_TEST_TRAIL", 0.5), 0.5);
  ::unsetenv("HYMV_TEST_TRAIL");
}

TEST(Env, AcceptsSurroundingWhitespace) {
  ::setenv("HYMV_TEST_WS", "  8  ", 1);
  EXPECT_EQ(hymv::env_int("HYMV_TEST_WS", 3), 8);
  ::setenv("HYMV_TEST_WS", " 2.25\t", 1);
  EXPECT_EQ(hymv::env_double("HYMV_TEST_WS", 0.0), 2.25);
  ::unsetenv("HYMV_TEST_WS");
}

TEST(Env, RejectsOutOfRange) {
  // strtoll saturates on overflow; env_int must reject, not saturate.
  ::setenv("HYMV_TEST_RANGE", "999999999999999999999999999", 1);
  EXPECT_EQ(hymv::env_int("HYMV_TEST_RANGE", 7), 7);
  ::setenv("HYMV_TEST_RANGE", "-999999999999999999999999999", 1);
  EXPECT_EQ(hymv::env_int("HYMV_TEST_RANGE", -7), -7);
  ::setenv("HYMV_TEST_RANGE", "1e999", 1);
  EXPECT_EQ(hymv::env_double("HYMV_TEST_RANGE", 1.25), 1.25);
  ::unsetenv("HYMV_TEST_RANGE");
}

TEST(Env, FlagReadsZeroAndOneAndKeepsFallbackOtherwise) {
  // Returns the flag's value and how many "hymv:" warnings the read printed.
  const auto read = [](bool fallback) {
    ::testing::internal::CaptureStderr();
    const bool value = hymv::env_flag("HYMV_TEST_FLAG", fallback);
    const std::string err = ::testing::internal::GetCapturedStderr();
    int warnings = 0;
    for (std::size_t at = err.find("hymv:"); at != std::string::npos;
         at = err.find("hymv:", at + 1)) {
      ++warnings;
    }
    return std::pair<bool, int>(value, warnings);
  };
  ::unsetenv("HYMV_TEST_FLAG");
  EXPECT_EQ(read(true), std::make_pair(true, 0));
  EXPECT_EQ(read(false), std::make_pair(false, 0));
  ::setenv("HYMV_TEST_FLAG", "0", 1);
  EXPECT_EQ(read(true), std::make_pair(false, 0));
  ::setenv("HYMV_TEST_FLAG", "1", 1);
  EXPECT_EQ(read(false), std::make_pair(true, 0));
  // A value like 2 must not silently switch the feature either way.
  ::setenv("HYMV_TEST_FLAG", "2", 1);
  EXPECT_EQ(read(true), std::make_pair(true, 1));
  EXPECT_EQ(read(false), std::make_pair(false, 1));
  ::setenv("HYMV_TEST_FLAG", "yes", 1);
  EXPECT_EQ(read(true), std::make_pair(true, 1));
  EXPECT_EQ(read(false), std::make_pair(false, 1));
  ::unsetenv("HYMV_TEST_FLAG");
}

/// The value `read` returns and the stderr lines it printed.
template <typename Read>
auto read_and_capture(Read read) {
  ::testing::internal::CaptureStderr();
  const auto value = read();
  return std::make_pair(value, ::testing::internal::GetCapturedStderr());
}

TEST(Env, IntInRangeKeepsFallbackOutsideTheRange) {
  const auto read = [](std::int64_t fallback) {
    return read_and_capture([&] {
      return hymv::env_int_in_range("HYMV_TEST_BOUNDED", fallback, 1, 64);
    });
  };
  ::unsetenv("HYMV_TEST_BOUNDED");
  EXPECT_EQ(read(3), std::make_pair(std::int64_t{3}, std::string()));
  EXPECT_EQ(read(0).first, 0);  // an unset variable never checks the fallback
  for (const char* ok : {"1", "64", " 8 "}) {
    ::setenv("HYMV_TEST_BOUNDED", ok, 1);
    EXPECT_EQ(read(3), std::make_pair(std::int64_t{std::atoi(ok)},
                                      std::string()))
        << ok;
  }
  for (const char* bad : {"0", "65", "-2", "8abc", "", "2147483648",
                          "99999999999999999999"}) {
    ::setenv("HYMV_TEST_BOUNDED", bad, 1);
    const auto [value, err] = read(3);
    EXPECT_EQ(value, 3) << bad;
    EXPECT_EQ(err, "hymv: ignoring HYMV_TEST_BOUNDED='" + std::string(bad) +
                       "' (expected an integer in [1, 64]); using fallback\n");
  }
  ::unsetenv("HYMV_TEST_BOUNDED");
}

TEST(Env, DoubleAboveKeepsFallbackAtOrBelowTheBound) {
  const auto read = [](double fallback) {
    return read_and_capture([&] {
      return hymv::env_double_above("HYMV_TEST_ABOVE", fallback, 1.0);
    });
  };
  ::unsetenv("HYMV_TEST_ABOVE");
  EXPECT_EQ(read(0.5), std::make_pair(0.5, std::string()));
  for (const char* ok : {"1.5", " 2e3 ", "inf"}) {
    ::setenv("HYMV_TEST_ABOVE", ok, 1);
    EXPECT_EQ(read(3.0), std::make_pair(std::strtod(ok, nullptr),
                                        std::string()))
        << ok;
  }
  for (const char* bad : {"1", "0.5", "-2", "nan", "2.5x", "", "1e999"}) {
    ::setenv("HYMV_TEST_ABOVE", bad, 1);
    const auto [value, err] = read(3.0);
    EXPECT_EQ(value, 3.0) << bad;
    EXPECT_EQ(err, "hymv: ignoring HYMV_TEST_ABOVE='" + std::string(bad) +
                       "' (expected a number > 1); using fallback\n");
  }
  ::unsetenv("HYMV_TEST_ABOVE");
}

TEST(Env, EnumReadsNamesAndKeepsFallbackOtherwise) {
  enum class Fruit { kApple, kPear, kNone };
  const auto name_of = [](Fruit f) {
    return f == Fruit::kApple ? "apple" : f == Fruit::kPear ? "pear" : "";
  };
  const auto read = [&](Fruit fallback) {
    return read_and_capture([&] {
      return hymv::env_enum("HYMV_TEST_ENUM", fallback,
                            std::array{Fruit::kApple, Fruit::kPear,
                                       Fruit::kNone},
                            name_of);
    });
  };
  ::unsetenv("HYMV_TEST_ENUM");
  EXPECT_EQ(read(Fruit::kPear), std::make_pair(Fruit::kPear, std::string()));
  ::setenv("HYMV_TEST_ENUM", "apple", 1);
  EXPECT_EQ(read(Fruit::kPear), std::make_pair(Fruit::kApple, std::string()));
  ::setenv("HYMV_TEST_ENUM", "", 1);  // a listed empty name is a value
  EXPECT_EQ(read(Fruit::kPear), std::make_pair(Fruit::kNone, std::string()));
  for (const char* bad : {"Apple", "pear ", "banana"}) {
    ::setenv("HYMV_TEST_ENUM", bad, 1);
    const auto [value, err] = read(Fruit::kPear);
    EXPECT_EQ(value, Fruit::kPear) << bad;
    EXPECT_EQ(err, "hymv: ignoring HYMV_TEST_ENUM='" + std::string(bad) +
                       "' (expected apple|pear|''); using fallback\n");
  }
  ::unsetenv("HYMV_TEST_ENUM");
}

TEST(Env, RejectsEmptyValue) {
  ::setenv("HYMV_TEST_EMPTY", "", 1);
  EXPECT_EQ(hymv::env_int("HYMV_TEST_EMPTY", 5), 5);
  EXPECT_EQ(hymv::env_double("HYMV_TEST_EMPTY", 5.5), 5.5);
  ::unsetenv("HYMV_TEST_EMPTY");
}

TEST(Env, DurationParsesUnits) {
  EXPECT_DOUBLE_EQ(hymv::env_duration_ms("HYMV_TEST_UNSET_VAR_XYZ", 7.5), 7.5);
  ::setenv("HYMV_TEST_DUR", "250", 1);
  EXPECT_DOUBLE_EQ(hymv::env_duration_ms("HYMV_TEST_DUR", 0.0), 250.0);
  ::setenv("HYMV_TEST_DUR", "250ms", 1);
  EXPECT_DOUBLE_EQ(hymv::env_duration_ms("HYMV_TEST_DUR", 0.0), 250.0);
  ::setenv("HYMV_TEST_DUR", "1.5s", 1);
  EXPECT_DOUBLE_EQ(hymv::env_duration_ms("HYMV_TEST_DUR", 0.0), 1500.0);
  ::setenv("HYMV_TEST_DUR", "2m", 1);
  EXPECT_DOUBLE_EQ(hymv::env_duration_ms("HYMV_TEST_DUR", 0.0), 120000.0);
  ::setenv("HYMV_TEST_DUR", "0.25S", 1);  // suffixes are case-insensitive
  EXPECT_DOUBLE_EQ(hymv::env_duration_ms("HYMV_TEST_DUR", 0.0), 250.0);
  ::setenv("HYMV_TEST_DUR", "10ms \t", 1);  // trailing whitespace is fine
  EXPECT_DOUBLE_EQ(hymv::env_duration_ms("HYMV_TEST_DUR", 0.0), 10.0);
  ::unsetenv("HYMV_TEST_DUR");
}

TEST(Env, DurationRejectsGarbageNegativeAndUnknownUnits) {
  ::setenv("HYMV_TEST_DUR", "250xs", 1);
  EXPECT_DOUBLE_EQ(hymv::env_duration_ms("HYMV_TEST_DUR", 9.0), 9.0);
  ::setenv("HYMV_TEST_DUR", "250ms junk", 1);
  EXPECT_DOUBLE_EQ(hymv::env_duration_ms("HYMV_TEST_DUR", 9.0), 9.0);
  ::setenv("HYMV_TEST_DUR", "-5s", 1);
  EXPECT_DOUBLE_EQ(hymv::env_duration_ms("HYMV_TEST_DUR", 9.0), 9.0);
  ::setenv("HYMV_TEST_DUR", "ms", 1);  // no number at all
  EXPECT_DOUBLE_EQ(hymv::env_duration_ms("HYMV_TEST_DUR", 9.0), 9.0);
  ::setenv("HYMV_TEST_DUR", "1e400s", 1);  // overflows double
  EXPECT_DOUBLE_EQ(hymv::env_duration_ms("HYMV_TEST_DUR", 9.0), 9.0);
  ::setenv("HYMV_TEST_DUR", "", 1);
  EXPECT_DOUBLE_EQ(hymv::env_duration_ms("HYMV_TEST_DUR", 9.0), 9.0);
  ::unsetenv("HYMV_TEST_DUR");
}

TEST(Env, SizeParsesBinarySuffixes) {
  EXPECT_EQ(hymv::env_size_bytes("HYMV_TEST_UNSET_VAR_XYZ", 77), 77);
  ::setenv("HYMV_TEST_SIZE", "4096", 1);
  EXPECT_EQ(hymv::env_size_bytes("HYMV_TEST_SIZE", 0), 4096);
  ::setenv("HYMV_TEST_SIZE", "4096B", 1);
  EXPECT_EQ(hymv::env_size_bytes("HYMV_TEST_SIZE", 0), 4096);
  ::setenv("HYMV_TEST_SIZE", "16K", 1);
  EXPECT_EQ(hymv::env_size_bytes("HYMV_TEST_SIZE", 0), 16384);
  ::setenv("HYMV_TEST_SIZE", "256M", 1);
  EXPECT_EQ(hymv::env_size_bytes("HYMV_TEST_SIZE", 0),
            std::int64_t{256} << 20);
  ::setenv("HYMV_TEST_SIZE", "2GiB", 1);
  EXPECT_EQ(hymv::env_size_bytes("HYMV_TEST_SIZE", 0), std::int64_t{2} << 30);
  ::setenv("HYMV_TEST_SIZE", "1gb", 1);  // case-insensitive
  EXPECT_EQ(hymv::env_size_bytes("HYMV_TEST_SIZE", 0), std::int64_t{1} << 30);
  ::unsetenv("HYMV_TEST_SIZE");
}

TEST(Env, SizeRejectsGarbageNegativeFractionalAndOverflow) {
  ::setenv("HYMV_TEST_SIZE", "256X", 1);
  EXPECT_EQ(hymv::env_size_bytes("HYMV_TEST_SIZE", 5), 5);
  ::setenv("HYMV_TEST_SIZE", "256M extra", 1);
  EXPECT_EQ(hymv::env_size_bytes("HYMV_TEST_SIZE", 5), 5);
  ::setenv("HYMV_TEST_SIZE", "-1G", 1);
  EXPECT_EQ(hymv::env_size_bytes("HYMV_TEST_SIZE", 5), 5);
  ::setenv("HYMV_TEST_SIZE", "1.5G", 1);  // integers only
  EXPECT_EQ(hymv::env_size_bytes("HYMV_TEST_SIZE", 5), 5);
  ::setenv("HYMV_TEST_SIZE", "99999999999999999999G", 1);
  EXPECT_EQ(hymv::env_size_bytes("HYMV_TEST_SIZE", 5), 5);
  ::setenv("HYMV_TEST_SIZE", "9999999999G", 1);  // scale overflow
  EXPECT_EQ(hymv::env_size_bytes("HYMV_TEST_SIZE", 5), 5);
  ::setenv("HYMV_TEST_SIZE", "G", 1);  // no number at all
  EXPECT_EQ(hymv::env_size_bytes("HYMV_TEST_SIZE", 5), 5);
  ::unsetenv("HYMV_TEST_SIZE");
}

}  // namespace
