// Unit tests for src/util: RNG determinism/quality, options parsing,
// summary statistics and the table printer.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "src/util/options.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "src/util/table.hpp"

namespace {

using acic::util::Options;
using acic::util::SplitMix64;
using acic::util::Table;
using acic::util::Xoshiro256;

TEST(SplitMix64, DeterministicSequence) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, KnownFirstValue) {
  // Reference value of splitmix64(seed=0) from the published algorithm.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro256, NextBelowInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Xoshiro256, NextBelowCoversAllResidues) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro256, DoubleInHalfOpenUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Xoshiro256, DoubleRangeRespectsBounds) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double(2.5, 9.75);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 9.75);
  }
}

TEST(Xoshiro256, MeanOfUniformIsCentered) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(DeriveSeed, StreamsAreIndependent) {
  const auto s0 = acic::util::derive_seed(99, 0);
  const auto s1 = acic::util::derive_seed(99, 1);
  EXPECT_NE(s0, s1);
  EXPECT_EQ(s0, acic::util::derive_seed(99, 0));
}

TEST(Options, ParsesKeyValueForms) {
  // Note: `--key value` consumes the next token as the value, so bare
  // flags must come last or use `--flag=1`; positionals precede options.
  const char* argv[] = {"prog", "pos", "--scale", "18", "--p-tram=0.5",
                        "--flag"};
  Options opts(6, const_cast<char**>(argv));
  EXPECT_EQ(opts.get_int("scale", 0), 18);
  EXPECT_DOUBLE_EQ(opts.get_double("p-tram", 0.0), 0.5);
  EXPECT_TRUE(opts.get_bool("flag", false));
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "pos");
}

TEST(Options, FallbackWhenMissing) {
  Options opts;
  EXPECT_EQ(opts.get_int("nope", -7), -7);
  EXPECT_EQ(opts.get("nope", "x"), "x");
  EXPECT_FALSE(opts.has("nope"));
}

TEST(Options, EnvironmentProvidesDefault) {
  ::setenv("ACIC_UT_ENV_KEY", "123", 1);
  Options opts;
  EXPECT_EQ(opts.get_int("ut-env-key", 0), 123);
  ::unsetenv("ACIC_UT_ENV_KEY");
}

TEST(Options, CommandLineOverridesEnvironment) {
  ::setenv("ACIC_UT_ENV_KEY2", "123", 1);
  const char* argv[] = {"prog", "--ut-env-key2", "456"};
  Options opts(3, const_cast<char**>(argv));
  EXPECT_EQ(opts.get_int("ut-env-key2", 0), 456);
  ::unsetenv("ACIC_UT_ENV_KEY2");
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(acic::util::mean(xs), 5.0);
  EXPECT_NEAR(acic::util::stddev(xs), 2.138, 1e-3);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(acic::util::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(acic::util::percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(acic::util::percentile(xs, 50.0), 2.5);
}

TEST(Stats, GeomeanOfPowers) {
  EXPECT_NEAR(acic::util::geomean({1.0, 100.0}), 10.0, 1e-9);
}

TEST(Table, FormatsAndCountsRows) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, WritesCsv) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  const std::string path = ::testing::TempDir() + "/acic_table_test.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64];
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
  EXPECT_STREQ(buf, "x,y\n");
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
  EXPECT_STREQ(buf, "1,2\n");
  std::fclose(f);
  std::remove(path.c_str());
  // Every write to /dev/full fails with ENOSPC once the buffer flushes.
  EXPECT_FALSE(t.write_csv("/dev/full"));
}

TEST(Strformat, ProducesFormattedString) {
  EXPECT_EQ(acic::util::strformat("%d-%s", 7, "x"), "7-x");
}

}  // namespace
