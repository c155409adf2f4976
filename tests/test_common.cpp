// Unit tests for src/common: vector algebra, RNG, statistics, histograms,
// table rendering, env helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "common/ascii_table.hpp"
#include "common/env.hpp"
#include "common/histogram.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "common/vec3.hpp"

namespace gshe {
namespace {

// ---- Vec3 -------------------------------------------------------------------

TEST(Vec3, ArithmeticBasics) {
    const Vec3 a{1, 2, 3}, b{4, 5, 6};
    EXPECT_EQ(a + b, Vec3(5, 7, 9));
    EXPECT_EQ(b - a, Vec3(3, 3, 3));
    EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
    EXPECT_EQ(2.0 * a, a * 2.0);
    EXPECT_EQ(-a, Vec3(-1, -2, -3));
    EXPECT_EQ(a / 2.0, Vec3(0.5, 1, 1.5));
}

TEST(Vec3, DotAndNorm) {
    const Vec3 a{1, 2, 3}, b{4, 5, 6};
    EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
    EXPECT_DOUBLE_EQ(norm2(a), 14.0);
    EXPECT_DOUBLE_EQ(norm(Vec3(3, 4, 0)), 5.0);
}

TEST(Vec3, CrossProductIsOrthogonalAndAnticommutative) {
    const Vec3 a{1, 2, 3}, b{-2, 0.5, 4};
    const Vec3 c = cross(a, b);
    EXPECT_NEAR(dot(c, a), 0.0, 1e-12);
    EXPECT_NEAR(dot(c, b), 0.0, 1e-12);
    EXPECT_EQ(cross(b, a), -c);
}

TEST(Vec3, CrossOfBasisVectors) {
    EXPECT_EQ(cross(Vec3(1, 0, 0), Vec3(0, 1, 0)), Vec3(0, 0, 1));
    EXPECT_EQ(cross(Vec3(0, 1, 0), Vec3(0, 0, 1)), Vec3(1, 0, 0));
    EXPECT_EQ(cross(Vec3(0, 0, 1), Vec3(1, 0, 0)), Vec3(0, 1, 0));
}

TEST(Vec3, NormalizedHasUnitLength) {
    const Vec3 v = normalized(Vec3(3, -4, 12));
    EXPECT_NEAR(norm(v), 1.0, 1e-14);
}

TEST(Vec3, HadamardIsComponentwise) {
    EXPECT_EQ(hadamard(Vec3(1, 2, 3), Vec3(4, 5, 6)), Vec3(4, 10, 18));
}

TEST(Vec3, CompoundAssignment) {
    Vec3 v{1, 1, 1};
    v += Vec3(1, 2, 3);
    v -= Vec3(0, 1, 0);
    v *= 2.0;
    v /= 4.0;
    EXPECT_EQ(v, Vec3(1, 1, 2));
}

// ---- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (a() == b()) ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsHalf) {
    Rng rng(11);
    RunningStats s;
    for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
    EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, BelowStaysInRange) {
    Rng rng(13);
    for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues) {
    Rng rng(17);
    std::vector<int> counts(8, 0);
    for (int i = 0; i < 8000; ++i) ++counts[rng.below(8)];
    for (int c : counts) EXPECT_GT(c, 800);  // each within ~20% of 1000
}

TEST(Rng, GaussianMoments) {
    Rng rng(19);
    RunningStats s;
    for (int i = 0; i < 200000; ++i) s.add(rng.gaussian());
    EXPECT_NEAR(s.mean(), 0.0, 0.02);
    EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, GaussianWithParameters) {
    Rng rng(23);
    RunningStats s;
    for (int i = 0; i < 100000; ++i) s.add(rng.gaussian(5.0, 2.0));
    EXPECT_NEAR(s.mean(), 5.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
    Rng rng(29);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        if (rng.bernoulli(0.3)) ++hits;
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
    Rng a(31);
    Rng child = a.fork();
    // The child stream should not reproduce the parent's next outputs.
    Rng b(31);
    (void)b.fork();
    EXPECT_EQ(a(), b());  // parent streams stay in lockstep after forking
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (child() == a()) ++equal;
    EXPECT_LT(equal, 2);
}

// ---- RunningStats / quantile --------------------------------------------------

TEST(RunningStats, KnownSequence) {
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
    RunningStats s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(Quantile, MedianAndExtremes) {
    const std::vector<double> data{5, 1, 4, 2, 3};
    EXPECT_DOUBLE_EQ(quantile(data, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(quantile(data, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(data, 1.0), 5.0);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
    EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.25), 2.5);
}

TEST(Quantile, RejectsBadArguments) {
    EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
    EXPECT_THROW(quantile({1.0}, 1.5), std::invalid_argument);
}

// ---- Histogram ----------------------------------------------------------------

TEST(Histogram, BinsAndCounts) {
    Histogram h(0.0, 10.0, 10);
    for (double x : {0.5, 1.5, 1.7, 9.9}) h.add(x);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(9), 1u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, UnderflowOverflowTracked) {
    Histogram h(0.0, 1.0, 4);
    h.add(-0.1);
    h.add(1.0);  // hi is exclusive
    h.add(0.5);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, FractionNormalizes) {
    Histogram h(0.0, 1.0, 2);
    h.add(0.1);
    h.add(0.2);
    h.add(0.7);
    EXPECT_NEAR(h.fraction(0), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(h.fraction(1), 1.0 / 3.0, 1e-12);
}

TEST(Histogram, BinCenters) {
    Histogram h(0.0, 10.0, 10);
    EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
    EXPECT_DOUBLE_EQ(h.bin_center(9), 9.5);
    EXPECT_DOUBLE_EQ(h.bin_width(), 1.0);
}

TEST(Histogram, WeightedAdd) {
    Histogram h(0.0, 1.0, 1);
    h.add(0.5, 10);
    EXPECT_EQ(h.count(0), 10u);
    EXPECT_EQ(h.total(), 10u);
}

TEST(Histogram, RejectsDegenerateRanges) {
    EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, AsciiRendersOneRowPerBin) {
    Histogram h(0.0, 2.0, 2);
    h.add(0.5);
    h.add(1.5);
    const std::string art = h.ascii(10);
    EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 2);
    EXPECT_NE(art.find('#'), std::string::npos);
}

// ---- AsciiTable -----------------------------------------------------------------

TEST(AsciiTable, RendersHeaderAndRows) {
    AsciiTable t("Title");
    t.header({"a", "bb"});
    t.row({"1", "2"});
    const std::string s = t.render();
    EXPECT_NE(s.find("Title"), std::string::npos);
    EXPECT_NE(s.find("| a "), std::string::npos);
    EXPECT_NE(s.find("| 1 "), std::string::npos);
}

TEST(AsciiTable, PadsShortRows) {
    AsciiTable t;
    t.header({"x", "y", "z"});
    t.row({"only"});
    EXPECT_NO_THROW(t.render());
}

TEST(AsciiTable, NumberFormatting) {
    EXPECT_EQ(AsciiTable::num(1.5, 3), "1.5");
    EXPECT_EQ(AsciiTable::runtime(0.5, false), "0.500");
    EXPECT_EQ(AsciiTable::runtime(12.0, true), "t-o");
}

// ---- env helpers -----------------------------------------------------------------

TEST(Env, LongFallbackAndParse) {
    ::unsetenv("GSHE_TEST_ENV_VAR");
    EXPECT_EQ(env_long("GSHE_TEST_ENV_VAR", 7), 7);
    ::setenv("GSHE_TEST_ENV_VAR", "42", 1);
    EXPECT_EQ(env_long("GSHE_TEST_ENV_VAR", 7), 42);
    ::setenv("GSHE_TEST_ENV_VAR", "bogus", 1);
    EXPECT_EQ(env_long("GSHE_TEST_ENV_VAR", 7), 7);
    ::unsetenv("GSHE_TEST_ENV_VAR");
}

TEST(Env, DoubleFallbackAndParse) {
    ::setenv("GSHE_TEST_ENV_VAR", "2.5", 1);
    EXPECT_DOUBLE_EQ(env_double("GSHE_TEST_ENV_VAR", 1.0), 2.5);
    ::unsetenv("GSHE_TEST_ENV_VAR");
    EXPECT_DOUBLE_EQ(env_double("GSHE_TEST_ENV_VAR", 1.0), 1.0);
}

TEST(Timer, MeasuresNonNegativeMonotonicTime) {
    Timer t;
    const double a = t.seconds();
    const double b = t.seconds();
    EXPECT_GE(a, 0.0);
    EXPECT_GE(b, a);
    t.reset();
    EXPECT_LT(t.seconds(), 1.0);
}

// ---- strict numeric parsing (CLI flag values) -------------------------------

TEST(Parse, U64AcceptsOnlyCompleteDecimalNumbers) {
    EXPECT_EQ(parse_u64("0"), 0u);
    EXPECT_EQ(parse_u64("42"), 42u);
    EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
    for (const char* bad : {"", "abc", "12abc", "abc12", " 12", "12 ", "-1",
                            "+1", "1.5", "0x10", "18446744073709551616",
                            "99999999999999999999"})
        EXPECT_FALSE(parse_u64(bad).has_value()) << bad;
}

TEST(Parse, SeedAcceptsDecimalAndPrefixedHex) {
    EXPECT_EQ(parse_seed("1779130093"), 0x6a0b5eedu);
    EXPECT_EQ(parse_seed("0x6a0b5eed"), 0x6a0b5eedu);
    EXPECT_EQ(parse_seed("0X6A0B5EED"), 0x6a0b5eedu);
    EXPECT_EQ(parse_seed("0"), 0u);
    EXPECT_EQ(parse_seed("0x0"), 0u);
    EXPECT_EQ(parse_seed("0xffffffffffffffff"), UINT64_MAX);
    EXPECT_EQ(parse_seed("0x00000000000000001"), 1u);  // leading zeros fit
    for (const char* bad : {"", "0x", "0X", "0xg", "0x12g", "x10", "0x-1",
                            " 0x1", "0x1 ", "-1", "0x10000000000000000",
                            "18446744073709551616", "1.5"})
        EXPECT_FALSE(parse_seed(bad).has_value()) << bad;
}

TEST(Parse, I64HandlesTheFullRangeIncludingMin) {
    EXPECT_EQ(parse_i64("0"), 0);
    EXPECT_EQ(parse_i64("-1"), -1);
    EXPECT_EQ(parse_i64("9223372036854775807"), INT64_MAX);
    EXPECT_EQ(parse_i64("-9223372036854775808"), INT64_MIN);
    for (const char* bad : {"", "-", "--1", "9223372036854775808",
                            "-9223372036854775809", "1e3", "two"})
        EXPECT_FALSE(parse_i64(bad).has_value()) << bad;
}

TEST(Parse, DoubleAcceptsFiniteNumbersOnly) {
    EXPECT_DOUBLE_EQ(*parse_double("0.5"), 0.5);
    EXPECT_DOUBLE_EQ(*parse_double("-2"), -2.0);
    EXPECT_DOUBLE_EQ(*parse_double("1e-3"), 1e-3);
    EXPECT_DOUBLE_EQ(*parse_double(".25"), 0.25);
    for (const char* bad : {"", "abc", "1.5x", " 1.5", "1.5 ", "inf", "-inf",
                            "nan", "1e999", "e5", "0x10", "-0X1p3"})
        EXPECT_FALSE(parse_double(bad).has_value()) << bad;
}

}  // namespace
}  // namespace gshe
