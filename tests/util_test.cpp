// Unit tests for the util substrate: units, strings, rng.
#include <gtest/gtest.h>

#include <set>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace bbsim::util {
namespace {

// ------------------------------------------------------------------- units

TEST(Units, ParseSizePlainNumberIsBytes) {
  EXPECT_DOUBLE_EQ(parse_size("512"), 512.0);
  EXPECT_DOUBLE_EQ(parse_size("0"), 0.0);
}

TEST(Units, ParseSizeSiSuffixes) {
  EXPECT_DOUBLE_EQ(parse_size("1kB"), 1e3);
  EXPECT_DOUBLE_EQ(parse_size("2MB"), 2e6);
  EXPECT_DOUBLE_EQ(parse_size("1.5 GB"), 1.5e9);
  EXPECT_DOUBLE_EQ(parse_size("3TB"), 3e12);
}

TEST(Units, ParseSizeIecSuffixes) {
  EXPECT_DOUBLE_EQ(parse_size("1KiB"), 1024.0);
  EXPECT_DOUBLE_EQ(parse_size("32MiB"), 32.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(parse_size("2 GiB"), 2.0 * 1024 * 1024 * 1024);
}

TEST(Units, ParseSizeScientificNotation) {
  EXPECT_DOUBLE_EQ(parse_size("1e6"), 1e6);
  EXPECT_DOUBLE_EQ(parse_size("2.5e3 MB"), 2.5e9);
}

TEST(Units, ParseSizeRejectsGarbage) {
  EXPECT_THROW(parse_size("abc"), ParseError);
  EXPECT_THROW(parse_size("12 XB"), ParseError);
  EXPECT_THROW(parse_size(""), ParseError);
  EXPECT_THROW(parse_size("-5 MB"), ParseError);
  // The numeric prefix must be one whole number.
  EXPECT_THROW(parse_size("1.2.3GB"), ParseError);
  EXPECT_THROW(parse_size("1e5e3GB"), ParseError);
  EXPECT_THROW(parse_size("1e"), ParseError);
  EXPECT_THROW(parse_size("1e999"), ParseError);
}

TEST(Units, ParseBandwidthVariants) {
  EXPECT_DOUBLE_EQ(parse_bandwidth("800MB/s"), 800e6);
  EXPECT_DOUBLE_EQ(parse_bandwidth("6.5 GB/s"), 6.5e9);
  EXPECT_DOUBLE_EQ(parse_bandwidth("950 MBps"), 950e6);
  EXPECT_DOUBLE_EQ(parse_bandwidth("100"), 100.0);
}

TEST(Units, ParseBandwidthRejectsGarbage) {
  EXPECT_THROW(parse_bandwidth("1.5.5 GB/s"), ParseError);
  EXPECT_THROW(parse_bandwidth("GB/s"), ParseError);
  EXPECT_THROW(parse_bandwidth("5 XB/s"), ParseError);
}

TEST(Units, FormatRoundTripMagnitudes) {
  EXPECT_EQ(format_size(1.5e9), "1.50 GB");
  EXPECT_EQ(format_bandwidth(6.5e9), "6.50 GB/s");
  EXPECT_EQ(format_time(0.0), "0 s");
  EXPECT_EQ(format_time(12.345), "12.35 s");
  EXPECT_EQ(format_time(0.0032), "3.20 ms");
  EXPECT_EQ(format_time(1200.0), "20.00 min");
}

// ----------------------------------------------------------------- strings

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
}

TEST(Strings, JoinInverseOfSplit) {
  const std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(join(parts, ","), "a,b,c");
  EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(Strings, PrefixSuffixChecks) {
  EXPECT_TRUE(starts_with("resample_001", "resample"));
  EXPECT_FALSE(starts_with("re", "resample"));
  EXPECT_TRUE(ends_with("a.fits", ".fits"));
  EXPECT_FALSE(ends_with("x", ".fits"));
}

TEST(Strings, FormatPrintfStyle) {
  EXPECT_EQ(format("%s=%d", "cores", 32), "cores=32");
  EXPECT_EQ(format("%.2f", 1.0 / 3.0), "0.33");
}

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng base(42);
  Rng f1 = base.fork(1);
  Rng f1b = Rng(42).fork(1);
  Rng f2 = base.fork(2);
  EXPECT_DOUBLE_EQ(f1.uniform(0, 1), f1b.uniform(0, 1));
  // Different salts give different streams (overwhelmingly likely).
  EXPECT_NE(Rng(42).fork(1).next_u64(), Rng(42).fork(2).next_u64());
  (void)f2;
}

TEST(Rng, ForkByLabelStable) {
  EXPECT_EQ(Rng(1).fork("bb").next_u64(), Rng(1).fork("bb").next_u64());
  EXPECT_NE(Rng(1).fork("bb").next_u64(), Rng(1).fork("pfs").next_u64());
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_int(0, 3));
  EXPECT_EQ(seen, (std::set<std::int64_t>{0, 1, 2, 3}));
}

TEST(Rng, TruncatedNormalStaysInRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.truncated_normal(1.0, 0.5, 0.8, 1.2);
    EXPECT_GE(x, 0.8);
    EXPECT_LE(x, 1.2);
  }
}

TEST(Rng, TruncatedNormalZeroSigmaClamps) {
  Rng r(9);
  EXPECT_DOUBLE_EQ(r.truncated_normal(5.0, 0.0, 0.0, 1.0), 1.0);
}

TEST(Rng, LognormalMeanMatchesTarget) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.lognormal_mean(2.0, 0.4);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, LognormalZeroSigmaIsExact) {
  Rng r(1);
  EXPECT_DOUBLE_EQ(r.lognormal_mean(3.0, 0.0), 3.0);
}

TEST(Rng, ChanceExtremes) {
  Rng r(5);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng r(13);
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) {
    counts[r.weighted_index({1.0, 9.0})]++;
  }
  EXPECT_GT(counts[1], counts[0] * 5);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  Rng r(1);
  EXPECT_THROW(r.weighted_index({}), InvariantError);
  EXPECT_THROW(r.weighted_index({0.0, 0.0}), InvariantError);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

}  // namespace
}  // namespace bbsim::util
