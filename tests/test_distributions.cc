/**
 * @file
 * Unit and property tests for the sampling distributions.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "sim/distributions.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace tpp {

/** Reaches the Zipf attempt functions, to compare the table's attempt
 *  with the exact one on chosen variates. */
class ZipfDistributionTestPeer
{
  public:
    static void buildTable(ZipfDistribution &zipf) { zipf.buildTable(); }
    static bool hasTable(const ZipfDistribution &zipf)
    {
        return !zipf.table_.empty();
    }
    static double hIntegral(const ZipfDistribution &zipf, double x)
    {
        return zipf.hIntegral(x);
    }
    static double squeeze(const ZipfDistribution &zipf) { return zipf.s_; }
    static double gridStart(const ZipfDistribution &zipf)
    {
        return zipf.hIntegralX1_;
    }
    static double gridEnd(const ZipfDistribution &zipf)
    {
        return zipf.hIntegralNumberOfElements_;
    }
    static std::uint64_t attemptExact(const ZipfDistribution &zipf, double u)
    {
        return zipf.attemptExact(u);
    }
    static std::uint64_t attemptTable(const ZipfDistribution &zipf, double u)
    {
        return zipf.attemptTable(u);
    }
};

namespace {

using Peer = ZipfDistributionTestPeer;

TEST(Zipf, StaysInRange)
{
    Rng rng(1);
    ZipfDistribution zipf(100, 0.99);
    for (int i = 0; i < 20000; ++i)
        EXPECT_LT(zipf(rng), 100u);
}

TEST(Zipf, SingleElement)
{
    Rng rng(2);
    ZipfDistribution zipf(1, 0.99);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(zipf(rng), 0u);
}

TEST(Zipf, RankZeroMostPopular)
{
    Rng rng(3);
    ZipfDistribution zipf(1000, 0.99);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 100000; ++i)
        counts[zipf(rng)]++;
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[1], counts[100]);
}

TEST(Zipf, FrequencyMatchesTheory)
{
    Rng rng(4);
    const double theta = 0.99;
    ZipfDistribution zipf(1000, theta);
    std::vector<int> counts(1000, 0);
    const int n = 500000;
    for (int i = 0; i < n; ++i)
        counts[zipf(rng)]++;
    // P(0)/P(9) should be close to 10^theta.
    const double expected = std::pow(10.0, theta);
    const double observed =
        static_cast<double>(counts[0]) / static_cast<double>(counts[9]);
    EXPECT_NEAR(observed, expected, expected * 0.15);
}

TEST(Zipf, ZeroThetaIsUniform)
{
    Rng rng(5);
    ZipfDistribution zipf(16, 0.0);
    std::vector<int> counts(16, 0);
    const int n = 160000;
    for (int i = 0; i < n; ++i)
        counts[zipf(rng)]++;
    for (int c : counts)
        EXPECT_NEAR(c, n / 16, n / 16 * 0.1);
}

/** Property sweep: every (n, theta) combination stays in range and
 *  keeps rank-0 the mode. */
class ZipfSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>>
{
};

TEST_P(ZipfSweep, RangeAndMode)
{
    const auto [n, theta] = GetParam();
    Rng rng(n * 31 + static_cast<std::uint64_t>(theta * 100));
    ZipfDistribution zipf(n, theta);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 30000; ++i) {
        const std::uint64_t v = zipf(rng);
        ASSERT_LT(v, n);
        counts[v]++;
    }
    if (theta > 0.3 && n > 4) {
        // Rank 0 must be sampled at least as often as any deep rank.
        int deep_max = 0;
        for (const auto &[rank, c] : counts) {
            if (rank >= n / 2)
                deep_max = std::max(deep_max, c);
        }
        EXPECT_GE(counts[0], deep_max);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZipfSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(2, 16, 1024,
                                                        1048576),
                       ::testing::Values(0.0, 0.1, 0.2, 0.5, 0.7, 0.8, 0.9,
                                         0.99, 1.2)));

TEST_P(ZipfSweep, TablePathMatchesExact)
{
    // Long enough to build the table and then draw mostly from it.
    const auto [n, theta] = GetParam();
    const std::uint64_t seed = n * 37 + static_cast<std::uint64_t>(theta * 100);
    Rng a(seed), b(seed);
    ZipfDistribution zipf(n, theta);
    for (int i = 0; i < 100000; ++i)
        ASSERT_EQ(zipf(a), zipf.sampleExact(b)) << "draw " << i;
    EXPECT_TRUE(Peer::hasTable(zipf));
    EXPECT_EQ(a.next(), b.next());
}

TEST(Zipf, TableAttemptMatchesExactAtEveryBoundary)
{
    // The variates where an attempt's outcome flips: x = k +- 0.5, where
    // the rounded rank changes, and x = k - s, the squeeze; with their
    // neighbours up to 8 ULPs away and both ends of the grid.
    for (const std::uint64_t n :
         {std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{1024},
          std::uint64_t{6412}, std::uint64_t{1} << 20}) {
        for (const double theta : {0.1, 0.7, 0.99, 1.0, 1.2}) {
            ZipfDistribution zipf(n, theta);
            Peer::buildTable(zipf);
            const double s = Peer::squeeze(zipf);
            std::vector<std::uint64_t> ks;
            for (std::uint64_t k = 1; k <= std::min<std::uint64_t>(n, 64);
                 ++k)
                ks.push_back(k);
            for (int i = 0; i < 64; ++i)
                ks.push_back(std::max<std::uint64_t>(
                    1, std::llround(std::pow(static_cast<double>(n),
                                             i / 63.0))));
            std::vector<double> us = {Peer::gridStart(zipf),
                                      Peer::gridEnd(zipf)};
            for (const std::uint64_t k : ks) {
                const double kd = static_cast<double>(k);
                for (const double x : {kd - 0.5, kd - s, kd + 0.5})
                    us.push_back(Peer::hIntegral(zipf, x));
            }
            for (const double u0 : us) {
                double down = u0, up = u0;
                for (int ulp = 0; ulp <= 8; ++ulp) {
                    for (const double u : {down, up}) {
                        ASSERT_EQ(Peer::attemptTable(zipf, u),
                                  Peer::attemptExact(zipf, u))
                            << "n=" << n << " theta=" << theta
                            << " u=" << u;
                    }
                    down = std::nextafter(down, -HUGE_VAL);
                    up = std::nextafter(up, HUGE_VAL);
                }
            }
        }
    }
}

TEST(ZipfDeathTest, NanThetaIsFatal)
{
    setLogVerbose(false);
    EXPECT_DEATH({ ZipfDistribution zipf(100, std::nan("")); },
                 "finite theta, got nan");
}

TEST(ZipfDeathTest, InfiniteThetaIsFatal)
{
    setLogVerbose(false);
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_DEATH({ ZipfDistribution zipf(100, inf); },
                 "finite theta, got inf");
}

} // namespace
} // namespace tpp
