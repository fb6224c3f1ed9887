// Unit tests for the common utilities: PRNG, half-float, the sample ring,
// tables, CLI parsing and contract checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "common/chart.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/half.hpp"
#include "common/prng.hpp"
#include "common/sample_ring.hpp"
#include "common/table.hpp"

namespace gaurast {
namespace {

// ---------------------------------------------------------------- PRNG --

TEST(Pcg32, DeterministicForSameSeed) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Pcg32, DifferentSeedsDiverge) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u32() == b.next_u32());
  EXPECT_LT(same, 3);
}

TEST(Pcg32, UniformInUnitInterval) {
  Pcg32 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Pcg32, UniformRangeRespectsBounds) {
  Pcg32 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Pcg32, NextBelowUnbiasedSmallBound) {
  Pcg32 rng(11);
  int counts[5] = {0, 0, 0, 0, 0};
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.02);
  }
}

TEST(Pcg32, NextBelowRejectsZero) {
  Pcg32 rng(1);
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(Pcg32, NormalMomentsMatch) {
  Pcg32 rng(13);
  constexpr int kN = 50000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(sum_sq / kN - mean * mean), 3.0, 0.1);
}

TEST(Pcg32, LognormalIsPositive) {
  Pcg32 rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(-1.0, 0.8), 0.0);
}

TEST(Pcg32, ExponentialMeanMatchesRate) {
  Pcg32 rng(19);
  constexpr int kN = 50000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / kN, 0.25, 0.01);
}

TEST(Pcg32, ExponentialRejectsNonPositiveRate) {
  Pcg32 rng(1);
  EXPECT_THROW(rng.exponential(0.0), Error);
  EXPECT_THROW(rng.exponential(-1.0), Error);
}

TEST(SplitMix64, KnownSequenceIsStable) {
  SplitMix64 mix(0);
  const std::uint64_t a = mix.next();
  const std::uint64_t b = mix.next();
  EXPECT_NE(a, b);
  SplitMix64 mix2(0);
  EXPECT_EQ(mix2.next(), a);
  EXPECT_EQ(mix2.next(), b);
}

// ---------------------------------------------------------------- Half --

TEST(Half, RoundTripExactForRepresentableValues) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, -0.25f, 65504.0f}) {
    EXPECT_EQ(round_to_half(v), v) << v;
  }
}

TEST(Half, OverflowGoesToInfinity) {
  const Half h(1e6f);
  EXPECT_TRUE(h.is_inf());
  EXPECT_GT(h.to_float(), 0.0f);
  const Half n(-1e6f);
  EXPECT_TRUE(n.is_inf());
  EXPECT_LT(n.to_float(), 0.0f);
}

TEST(Half, NanPropagates) {
  const Half h(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(h.is_nan());
  EXPECT_TRUE(std::isnan(h.to_float()));
}

TEST(Half, SubnormalsRepresented) {
  const float tiny = 1e-7f;  // below half's normal minimum (~6.1e-5)
  const float r = round_to_half(tiny);
  EXPECT_GE(r, 0.0f);
  EXPECT_LT(r, 1e-4f);
  // Smallest half subnormal is 2^-24 ~ 5.96e-8; tiny rounds to a multiple.
  EXPECT_NEAR(r, tiny, 6e-8f);
}

TEST(Half, UnderflowToZero) {
  EXPECT_EQ(round_to_half(1e-12f), 0.0f);
}

TEST(Half, RoundToNearestEven) {
  // 2049 is halfway between representable 2048 and 2050 -> rounds to 2048.
  EXPECT_EQ(round_to_half(2049.0f), 2048.0f);
  EXPECT_EQ(round_to_half(2051.0f), 2052.0f);
}

TEST(Half, ArithmeticRoundsThroughBinary16) {
  const Half a(0.1f), b(0.2f);
  const Half sum = a + b;
  EXPECT_NEAR(sum.to_float(), 0.3f, 1e-3f);
  EXPECT_EQ(sum.bits(), float_to_half_bits(a.to_float() + b.to_float()));
}

TEST(Half, SignedZeroPreserved) {
  EXPECT_EQ(float_to_half_bits(-0.0f), 0x8000u);
  EXPECT_EQ(float_to_half_bits(0.0f), 0x0000u);
}

class HalfRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(HalfRoundTripTest, BitPatternRoundTripsThroughFloat) {
  // Every finite half value converts to float and back to the same bits.
  const auto start = static_cast<std::uint16_t>(GetParam() * 4096);
  for (std::uint32_t i = 0; i < 4096; ++i) {
    const auto bits = static_cast<std::uint16_t>(start + i);
    if ((bits & 0x7C00u) == 0x7C00u && (bits & 0x3FFu) != 0) continue;  // NaN
    const float f = half_bits_to_float(bits);
    EXPECT_EQ(float_to_half_bits(f), bits) << "bits=" << bits;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBlocks, HalfRoundTripTest,
                         ::testing::Range(0, 16));

// ---------------------------------------------------------- SampleRing --

TEST(SampleRing, WrapsAtTheBoundKeepingTheNewestSamples) {
  constexpr auto kCap = static_cast<int>(common::SampleRing::kCapacity);
  common::SampleRing ring;
  for (int i = 0; i < kCap; ++i) ring.push(i);
  ASSERT_EQ(ring.samples().size(), common::SampleRing::kCapacity);
  EXPECT_EQ(ring.samples().front(), 0.0);
  EXPECT_EQ(ring.samples().back(), kCap - 1.0);
  // Past the bound each push replaces the oldest sample; the size stays put.
  for (int i = kCap; i < kCap + 10; ++i) ring.push(i);
  std::vector<double> kept = ring.samples();
  ASSERT_EQ(kept.size(), common::SampleRing::kCapacity);
  std::sort(kept.begin(), kept.end());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    ASSERT_EQ(kept[i], static_cast<double>(i + 10)) << i;
  }
}

// --------------------------------------------------------------- Table --

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"a", "long_header"});
  t.add_row({"xxxx", "1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("xxxx"), std::string::npos);
}

TEST(TablePrinter, RejectsMismatchedRow) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TablePrinter, CsvQuotesSpecialCells) {
  TablePrinter t({"name", "value"});
  t.add_row({"has,comma", "has\"quote"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"has,comma\""), std::string::npos);
  EXPECT_NE(os.str().find("\"has\"\"quote\""), std::string::npos);
}

TEST(Format, FixedAndRatio) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_ratio(23.44), "23.4x");
}

TEST(Format, AdaptiveTimeUnits) {
  EXPECT_EQ(format_time_ms(0.01), "10.0 us");
  EXPECT_EQ(format_time_ms(5.0), "5.00 ms");
  EXPECT_EQ(format_time_ms(1500.0), "1.50 s");
}

TEST(Format, Percent) { EXPECT_EQ(format_percent(0.803), "80.3%"); }

// ----------------------------------------------------------------- CLI --

TEST(CliParser, ParsesEqualsAndSpaceForms) {
  CliParser cli("test");
  cli.add_flag("alpha", "1", "an int");
  cli.add_flag("beta", "x", "a string");
  const char* argv[] = {"prog", "--alpha=42", "--beta", "hello"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("alpha"), 42);
  EXPECT_EQ(cli.get_string("beta"), "hello");
}

TEST(CliParser, DefaultsApplyWhenAbsent) {
  CliParser cli("test");
  cli.add_flag("gamma", "2.5", "a double");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("gamma"), 2.5);
}

TEST(CliParser, BooleanSwitchWithoutValue) {
  CliParser cli("test");
  cli.add_flag("verbose", "false", "a bool");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(CliParser, UnknownFlagThrows) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(cli.parse(2, argv), Error);
}

TEST(CliParser, MalformedNumberThrows) {
  CliParser cli("test");
  cli.add_flag("n", "0", "int");
  const char* argv[] = {"prog", "--n=abc"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_THROW(cli.get_int("n"), Error);
}

TEST(CliParser, Uint64FullRangeAndRejections) {
  CliParser cli("test");
  cli.add_flag("seed", "42", "uint64");
  {
    const char* argv[] = {"prog", "--seed=18446744073709551615"};
    ASSERT_TRUE(cli.parse(2, argv));
    EXPECT_EQ(cli.get_uint64("seed"), 18446744073709551615ull);
  }
  for (const char* bad :
       {"-1", " -1", "+3", "abc", "18446744073709551616", ""}) {
    CliParser p("test");
    p.add_flag("seed", bad, "uint64");
    const char* argv[] = {"prog"};
    ASSERT_TRUE(p.parse(1, argv));
    EXPECT_THROW(p.get_uint64("seed"), CliParseError) << "value: " << bad;
  }
  CliParser zero("test");
  zero.add_flag("seed", "0", "uint64");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(zero.parse(1, argv));
  EXPECT_EQ(zero.get_uint64("seed"), 0u);  // 0 is a valid PRNG seed
}

TEST(CliParser, PositionalArgsCollected) {
  CliParser cli("test");
  const char* argv[] = {"prog", "file1", "file2"};
  ASSERT_TRUE(cli.parse(3, argv));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "file1");
}

// --------------------------------------------------------------- Chart --

TEST(BarChart, RendersScaledBars) {
  BarChart chart("demo", "ms");
  chart.add_bar("a", 10.0);
  chart.add_bar("bb", 5.0);
  std::ostringstream os;
  chart.print(os, 20);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo [ms]"), std::string::npos);
  // The max bar fills the full width; the half bar roughly half.
  EXPECT_NE(out.find(std::string(20, '#')), std::string::npos);
  EXPECT_NE(out.find(std::string(10, '#')), std::string::npos);
}

TEST(BarChart, DatBlockIsPlottable) {
  BarChart chart("series");
  chart.add_bar("x", 1.5);
  std::ostringstream os;
  chart.print_dat(os);
  EXPECT_NE(os.str().find("x 1.5"), std::string::npos);
  EXPECT_EQ(os.str().rfind("# series", 0), 0u);
}

TEST(BarChart, RejectsNegativeValues) {
  BarChart chart("bad");
  EXPECT_THROW(chart.add_bar("neg", -1.0), Error);
}

TEST(BarChart, EmptyAndZeroSafe) {
  BarChart chart("empty");
  std::ostringstream os;
  EXPECT_NO_THROW(chart.print(os));
  chart.add_bar("zero", 0.0);
  EXPECT_NO_THROW(chart.print(os));
}

// --------------------------------------------------------------- Error --

TEST(Check, ThrowsWithExpressionText) {
  try {
    GAURAST_CHECK_MSG(1 == 2, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Check, PassesQuietly) {
  EXPECT_NO_THROW(GAURAST_CHECK(2 + 2 == 4));
}

}  // namespace
}  // namespace gaurast
