#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/config.h"
#include "util/stats.h"
#include "util/table.h"

namespace hetero {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs = {1.5, -2.0, 3.25, 0.0, 7.75, -1.25};
  RunningStats s;
  for (double x : xs) s.add(x);
  EXPECT_NEAR(s.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(s.variance(), variance(xs), 1e-12);
  EXPECT_NEAR(s.stddev(), stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.75);
}

TEST(RunningStats, SampleVarianceUsesNMinusOne) {
  RunningStats s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);         // population
  EXPECT_DOUBLE_EQ(s.sample_variance(), 2.0);  // sample
}

TEST(RunningStats, NumericallyStableForLargeOffsets) {
  RunningStats s;
  for (int i = 0; i < 1000; ++i) s.add(1e9 + (i % 2));
  EXPECT_NEAR(s.variance(), 0.25, 1e-3);
}

TEST(Ema, UninitializedIsInfinite) {
  Ema ema(0.9);
  EXPECT_FALSE(ema.initialized());
  EXPECT_TRUE(std::isinf(ema.value()));
}

TEST(Ema, FirstUpdateSetsValue) {
  Ema ema(0.9);
  ema.update(2.5);
  EXPECT_TRUE(ema.initialized());
  EXPECT_DOUBLE_EQ(ema.value(), 2.5);
}

TEST(Ema, FollowsEquationOne) {
  // Paper eq. 1: L_{EMA,t+1} = alpha * L_cur + (1 - alpha) * L_{EMA,t}.
  Ema ema(0.9);
  ema.update(1.0);
  ema.update(2.0);
  EXPECT_NEAR(ema.value(), 0.9 * 2.0 + 0.1 * 1.0, 1e-12);
  ema.update(0.0);
  EXPECT_NEAR(ema.value(), 0.1 * 1.9, 1e-12);
}

TEST(Ema, AlphaOneTracksLastValue) {
  Ema ema(1.0);
  ema.update(3.0);
  ema.update(7.0);
  EXPECT_DOUBLE_EQ(ema.value(), 7.0);
}

TEST(Ema, SmallAlphaIsSlow) {
  Ema ema(0.01);
  ema.update(0.0);
  for (int i = 0; i < 10; ++i) ema.update(1.0);
  EXPECT_LT(ema.value(), 0.2);
  EXPECT_GT(ema.value(), 0.05);
}

TEST(Ema, ResetClears) {
  Ema ema(0.5);
  ema.update(1.0);
  ema.reset();
  EXPECT_FALSE(ema.initialized());
  EXPECT_TRUE(std::isinf(ema.value()));
}

TEST(Ema, ConvergesToConstantInput) {
  Ema ema(0.9);
  ema.update(10.0);
  for (int i = 0; i < 100; ++i) ema.update(3.0);
  EXPECT_NEAR(ema.value(), 3.0, 1e-6);
}

TEST(VectorStats, EmptyVectors) {
  const std::vector<double> v;
  EXPECT_DOUBLE_EQ(mean(v), 0.0);
  EXPECT_DOUBLE_EQ(variance(v), 0.0);
  EXPECT_DOUBLE_EQ(min_value(v), 0.0);
  EXPECT_DOUBLE_EQ(max_value(v), 0.0);
}

TEST(VectorStats, KnownValues) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_DOUBLE_EQ(variance(v), 4.0);
  EXPECT_DOUBLE_EQ(stddev(v), 2.0);
  EXPECT_DOUBLE_EQ(min_value(v), 2.0);
  EXPECT_DOUBLE_EQ(max_value(v), 9.0);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(3.14159, 0), "3");
  EXPECT_EQ(Table::pct(0.235, 1), "23.5%");
  EXPECT_EQ(Table::pct(1.0, 0), "100%");
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"x"});  // short row padded
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\nx,\n");
}

TEST(Table, PrintAlignsColumns) {
  Table t({"name", "v"});
  t.add_row({"long-name", "1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, RowCount) {
  Table t({"x"});
  EXPECT_EQ(t.num_rows(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Config, ParseUintAcceptsDigitsOnly) {
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("0042"), 42u);
  EXPECT_EQ(parse_uint("18446744073709551615"), 18446744073709551615ull);
  EXPECT_FALSE(parse_uint(""));
  EXPECT_FALSE(parse_uint("-1"));
  EXPECT_FALSE(parse_uint("+1"));
  EXPECT_FALSE(parse_uint(" 3"));
  EXPECT_FALSE(parse_uint("3 "));
  EXPECT_FALSE(parse_uint("5x"));
  EXPECT_FALSE(parse_uint("abc"));
  EXPECT_FALSE(parse_uint("18446744073709551616"));   // 2^64
  EXPECT_FALSE(parse_uint("184467440737095516160"));  // 21 digits
}

TEST(Config, BenchConfigPickRounds) {
  BenchConfig cfg;
  cfg.scale = 0;
  cfg.rounds = -1;
  EXPECT_EQ(cfg.pick_rounds(10, 1000), 10);
  cfg.scale = 1;
  EXPECT_EQ(cfg.pick_rounds(10, 1000), 1000);
  cfg.rounds = 77;
  EXPECT_EQ(cfg.pick_rounds(10, 1000), 77);
}

TEST(Config, BenchConfigFromEnv) {
  setenv("HS_SCALE", "1", 1);
  setenv("HS_SEED", "99", 1);
  setenv("HS_ROUNDS", "55", 1);
  const BenchConfig cfg = BenchConfig::from_env();
  EXPECT_EQ(cfg.scale, 1);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.rounds, 55);
  unsetenv("HS_SCALE");
  unsetenv("HS_SEED");
  unsetenv("HS_ROUNDS");

  // A malformed numeric knob throws, naming the variable and its value,
  // instead of falling back to the default (or wrapping, for "-1").
  for (const char* name : {"HS_SCALE", "HS_SEED", "HS_ROUNDS", "HS_REPEATS",
                           "HS_THREADS", "HS_TRACE_TIMINGS"}) {
    for (const char* value :
         {"abc", "-1", "4x", "184467440737095516160" /* 21 digits */}) {
      setenv(name, value, 1);
      try {
        (void)BenchConfig::from_env();
        ADD_FAILURE() << name << "=" << value << " was accepted";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(name), std::string::npos) << what;
        EXPECT_NE(what.find(std::string("'") + value + "'"),
                  std::string::npos)
            << what;
      }
    }
    unsetenv(name);
  }
  // Digits that do not fit the field are refused too, not truncated.
  setenv("HS_SCALE", "2147483648", 1);  // INT_MAX + 1
  EXPECT_THROW(BenchConfig::from_env(), std::invalid_argument);
  unsetenv("HS_SCALE");
  setenv("HS_ROUNDS", "9223372036854775808", 1);  // INT64_MAX + 1
  EXPECT_THROW(BenchConfig::from_env(), std::invalid_argument);
  unsetenv("HS_ROUNDS");
}

}  // namespace
}  // namespace hetero

#include "util/logging.h"
#include "util/timer.h"

namespace hetero {
namespace {

TEST(Logging, LevelFilterRoundTrip) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold messages are dropped (no crash, no output assertion
  // possible on stderr here; exercised for coverage).
  HS_LOG_DEBUG << "dropped";
  HS_LOG_ERROR << "emitted";
  set_log_level(before);
}

TEST(Timer, MeasuresElapsedMonotonically) {
  Timer t;
  const double a = t.elapsed_s();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double b = t.elapsed_s();
  EXPECT_GE(b, a);
  EXPECT_GE(t.elapsed_ms(), b * 1000.0 * 0.5);
  t.reset();
  EXPECT_LT(t.elapsed_s(), b + 1.0);
}

}  // namespace
}  // namespace hetero
