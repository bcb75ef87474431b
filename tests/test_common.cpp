/**
 * @file
 * Unit tests for the common utilities: bit operations, deterministic
 * RNG, statistics, the table printer and strict number parsing.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/bitops.hh"
#include "common/parse.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace pth
{
namespace
{

TEST(Bitops, BitsExtractsInclusiveRange)
{
    EXPECT_EQ(bits(0xff00ull, 15, 8), 0xffull);
    EXPECT_EQ(bits(0xdeadbeefull, 7, 0), 0xefull);
    EXPECT_EQ(bits(0xdeadbeefull, 31, 28), 0xdull);
    EXPECT_EQ(bits(~0ull, 63, 0), ~0ull);
}

TEST(Bitops, SingleBit)
{
    EXPECT_EQ(bit(0b1010, 1), 1u);
    EXPECT_EQ(bit(0b1010, 0), 0u);
    EXPECT_EQ(bit(1ull << 63, 63), 1u);
}

TEST(Bitops, InsertBitsRoundTrips)
{
    std::uint64_t v = insertBits(0, 19, 12, 0xabull);
    EXPECT_EQ(bits(v, 19, 12), 0xabull);
    EXPECT_EQ(bits(v, 11, 0), 0ull);
    v = insertBits(~0ull, 19, 12, 0);
    EXPECT_EQ(bits(v, 19, 12), 0ull);
    EXPECT_EQ(bits(v, 11, 0), 0xfffull);
}

TEST(Bitops, MaskedParity)
{
    EXPECT_EQ(maskedParity(0b1011, 0b1111), 1u);
    EXPECT_EQ(maskedParity(0b1011, 0b1000), 1u);
    EXPECT_EQ(maskedParity(0b1011, 0b0100), 0u);
}

TEST(Bitops, Pow2Helpers)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(4096));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(12));
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(4096), 12u);
}

TEST(Random, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Random, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Random, ChanceApproximatesProbability)
{
    Rng rng(9);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        if (rng.chance(0.25))
            ++hits;
    double rate = static_cast<double>(hits) / trials;
    EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(Random, Mix64ChangesEveryInput)
{
    EXPECT_NE(mix64(0), mix64(1));
    EXPECT_NE(mix64(42), mix64(43));
    EXPECT_NE(hashCombine(1, 2, 3), hashCombine(1, 3, 2));
}

TEST(RunningStat, TracksMinMeanMax)
{
    RunningStat s;
    s.sample(1.0);
    s.sample(2.0);
    s.sample(6.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, BucketsAndQuantiles)
{
    Histogram h(0, 100, 10);
    for (int i = 0; i < 100; ++i)
        h.sample(i + 0.5);
    EXPECT_EQ(h.total(), 100u);
    EXPECT_EQ(h.bucketCount(0), 10u);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
    EXPECT_NEAR(h.fractionBelow(25.0), 0.25, 0.02);
}

TEST(Histogram, OutOfRangeClampsToEdges)
{
    Histogram h(0, 10, 5);
    h.sample(-5);
    h.sample(100);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
}

TEST(Median, OddAndEven)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"long-name", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("long-name"), std::string::npos);
    EXPECT_NE(out.find("| name"), std::string::npos);
}

TEST(Table, StrfmtFormats)
{
    EXPECT_EQ(strfmt("%d-%s", 5, "x"), "5-x");
}

TEST(Parse, NonNegativeRealAcceptsPlainDecimals)
{
    double value = -1.0;
    EXPECT_TRUE(parseNonNegativeReal("10", value));
    EXPECT_DOUBLE_EQ(value, 10.0);
    EXPECT_TRUE(parseNonNegativeReal("2.5", value));
    EXPECT_DOUBLE_EQ(value, 2.5);
    EXPECT_TRUE(parseNonNegativeReal(".5", value));
    EXPECT_DOUBLE_EQ(value, 0.5);
    EXPECT_TRUE(parseNonNegativeReal("0", value));
    EXPECT_DOUBLE_EQ(value, 0.0);
}

TEST(Parse, NonNegativeRealRejectsEverythingElse)
{
    for (const char *bad : {"abc", "nan", "inf", "-1", "5x", "", ".",
                            "1.2.3", " 3", "+3", "1e3", "0x10"}) {
        double value = 7.0;
        EXPECT_FALSE(parseNonNegativeReal(bad, value)) << bad;
        EXPECT_EQ(value, 7.0) << bad; // untouched on failure
    }
    double value = 7.0;
    EXPECT_FALSE(parseNonNegativeReal(nullptr, value));
    // Finite only: a digit string too long for a double overflows.
    EXPECT_FALSE(parseNonNegativeReal(std::string(400, '9').c_str(),
                                      value));
}

} // namespace
} // namespace pth
