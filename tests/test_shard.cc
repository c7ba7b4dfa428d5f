/**
 * @file
 * Determinism anchors for multi-region runs of the run engine
 * (harness/experiment.cc) and its admission-budget split
 * (harness/shard.hh).
 *
 * The shard engine's core contract: the region decomposition
 * (`shardRegions`) is the only thing that changes simulated results —
 * the worker count (`shards`) decides *when* a region computes, never
 * *what*. These tests pin that by running the same config with the
 * region count held fixed and the worker count varied, and demanding
 * bit-identical results (throughput and latency to the last bit, every
 * vmstat counter, traffic shares, residency, the merged sample series
 * and the epoch-synchroniser's own accounting).
 *
 * A second anchor pins the one-region case: `shards = shardRegions =
 * 1` is the same single region as a config that never set either, so
 * it reproduces a plain config's results exactly and steps no epochs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "harness/experiment.hh"
#include "harness/shard.hh"
#include "mm/vmstat.hh"

namespace tpp {
namespace {

/** Hash of every vmstat counter (not just the seed-era prefix). */
std::uint64_t
vmHash(const VmStat &vmstat)
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kNumVmCounters; ++i)
        sum = sum * 1000003u + vmstat.get(static_cast<Vm>(i));
    return sum;
}

struct ShardCase {
    const char *tag;
    const char *policy;
    double rateLimitMBps; //!< machine-wide admission budget; 0 = off
};

// Without a printer gtest shows the case as raw bytes, and the tag
// pointer would put a load address into every discovered test name.
void
PrintTo(const ShardCase &c, std::ostream *os)
{
    *os << '"' << c.tag << '"';
}

const ShardCase kCases[] = {
    {"tpp", "tpp", 0.0},
    {"linux", "linux", 0.0},
    {"hotness", "hotness", 0.0},
    {"tpp_admission", "tpp", 50.0},
};

ExperimentConfig
shardConfig(const ShardCase &c, std::uint32_t shards,
            std::uint32_t regions)
{
    ExperimentConfig cfg;
    cfg.workload = "cache1";
    cfg.policy = c.policy;
    cfg.wssPages = 8192;
    // Not a multiple of sampleEvery, so the final (partial) epoch is
    // exercised too.
    cfg.runUntil = 4 * kSecond + 37 * kMillisecond;
    cfg.measureFrom = 2 * kSecond;
    cfg.seed = 7;
    cfg.migration = MigrationConfig::compat();
    cfg.migration.rateLimitMBps = c.rateLimitMBps;
    cfg.shards = shards;
    cfg.shardRegions = regions;
    return cfg;
}

/** Field-for-field bit equality of two results. */
void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b,
                const char *tag)
{
    EXPECT_EQ(a.throughput, b.throughput) << tag;
    EXPECT_EQ(a.meanAccessLatencyNs, b.meanAccessLatencyNs) << tag;
    EXPECT_EQ(a.localTrafficShare, b.localTrafficShare) << tag;
    EXPECT_EQ(a.cxlTrafficShare, b.cxlTrafficShare) << tag;
    EXPECT_EQ(a.anonLocalResidency, b.anonLocalResidency) << tag;
    EXPECT_EQ(a.fileLocalResidency, b.fileLocalResidency) << tag;
    EXPECT_EQ(vmHash(a.vmstat), vmHash(b.vmstat)) << tag;
    EXPECT_EQ(a.meminfo.totalPages, b.meminfo.totalPages) << tag;
    EXPECT_EQ(a.meminfo.totalFree, b.meminfo.totalFree) << tag;
    EXPECT_EQ(a.meminfo.swapUsedSlots, b.meminfo.swapUsedSlots) << tag;
    ASSERT_EQ(a.samples.size(), b.samples.size()) << tag;
    for (std::size_t k = 0; k < a.samples.size(); ++k) {
        EXPECT_EQ(a.samples[k].tick, b.samples[k].tick) << tag;
        EXPECT_EQ(a.samples[k].throughput, b.samples[k].throughput)
            << tag;
        EXPECT_EQ(a.samples[k].localShare, b.samples[k].localShare)
            << tag;
        EXPECT_EQ(a.samples[k].localFree, b.samples[k].localFree) << tag;
        EXPECT_EQ(a.samples[k].promotionRate, b.samples[k].promotionRate)
            << tag;
        EXPECT_EQ(a.samples[k].demotionRate, b.samples[k].demotionRate)
            << tag;
        EXPECT_EQ(a.samples[k].anonResident, b.samples[k].anonResident)
            << tag;
        EXPECT_EQ(a.samples[k].fileResident, b.samples[k].fileResident)
            << tag;
    }
    // Epoch-synchroniser bookkeeping must match too: same epochs, same
    // pressure observations, same admission traffic moved.
    EXPECT_EQ(a.shard.regions, b.shard.regions) << tag;
    EXPECT_EQ(a.shard.epochs, b.shard.epochs) << tag;
    EXPECT_EQ(a.shard.regionLowWatermarkEpochs,
              b.shard.regionLowWatermarkEpochs)
        << tag;
    EXPECT_EQ(a.shard.pressureEpochs, b.shard.pressureEpochs) << tag;
    EXPECT_EQ(a.shard.rebalancedMBps, b.shard.rebalancedMBps) << tag;
}

class ShardDeterminism : public ::testing::TestWithParam<ShardCase> {};

TEST_P(ShardDeterminism, WorkerCountNeverChangesResults)
{
    const ShardCase &c = GetParam();
    // Region decomposition pinned at 4; only the worker count varies.
    const ExperimentResult serial =
        runExperiment(shardConfig(c, /*shards=*/1, /*regions=*/4));
    const ExperimentResult parallel =
        runExperiment(shardConfig(c, /*shards=*/4, /*regions=*/4));

    EXPECT_EQ(serial.shard.regions, 4u);
    EXPECT_EQ(serial.shard.workers, 1u);
    EXPECT_EQ(parallel.shard.workers, 4u);
    EXPECT_GT(serial.shard.epochs, 0u);
    EXPECT_GT(serial.throughput, 0.0);
    expectIdentical(serial, parallel, c.tag);

    // Oversubscription clamps to the region count and still matches.
    const ExperimentResult oversubscribed =
        runExperiment(shardConfig(c, /*shards=*/8, /*regions=*/4));
    EXPECT_EQ(oversubscribed.shard.workers, 4u);
    expectIdentical(serial, oversubscribed, c.tag);
}

INSTANTIATE_TEST_SUITE_P(Golden, ShardDeterminism,
                         ::testing::ValuesIn(kCases),
                         [](const auto &info) {
                             return std::string(info.param.tag);
                         });

TEST(ShardDispatch, OneRegionIsTheLegacyEngineBitForBit)
{
    // shards=1 (effective regions 1) is one region stepped without
    // epochs: identical fields to a config that never heard of shards,
    // and no shard accounting.
    ShardCase plain{"legacy", "tpp", 0.0};
    ExperimentConfig base = shardConfig(plain, 1, 0);
    const ExperimentResult unsharded = runExperiment(base);

    ExperimentConfig pinned = base;
    pinned.shards = 1;
    pinned.shardRegions = 1;
    const ExperimentResult single = runExperiment(pinned);

    EXPECT_EQ(unsharded.shard.regions, 0u);
    EXPECT_EQ(single.shard.regions, 0u);
    EXPECT_EQ(unsharded.throughput, single.throughput);
    EXPECT_EQ(unsharded.meanAccessLatencyNs, single.meanAccessLatencyNs);
    EXPECT_EQ(vmHash(unsharded.vmstat), vmHash(single.vmstat));
    EXPECT_EQ(unsharded.localTrafficShare, single.localTrafficShare);
    ASSERT_EQ(unsharded.samples.size(), single.samples.size());
}

/** Exact sum of the returned shares, in submission order. */
double
sharesSum(const std::vector<double> &shares)
{
    return std::accumulate(shares.begin(), shares.end(), 0.0);
}

TEST(ShardBudget, SharesConserveTheMachineBudgetExactly)
{
    // Failing-pre-fix: the old redistribution rounded each region's
    // floor + pool*weight slice independently, so the sum drifted off
    // the machine-wide vm.migration_rate_limit_mbps by a few ulps per
    // epoch (compounded by a %.9g sysctl round-trip). Three-way split
    // of a budget whose thirds are not representable is the canonical
    // leak: 0.1*100/3 and 0.9*100*(1/3) both round.
    const double budget = 100.0;
    const std::vector<double> demand = {1.0, 1.0, 1.0};
    const std::vector<double> shares = shardBudgetShares(demand, budget);
    ASSERT_EQ(shares.size(), 3u);
    EXPECT_EQ(sharesSum(shares), budget);

    // Adversarial weights: demands whose normalised weights cannot sum
    // to exactly 1.0 in floating point.
    const std::vector<double> skewed = {1e-9, 3.7, 1e9, 42.123456789,
                                        0.0, 7.0 / 13.0, 1e-300};
    const std::vector<double> skewed_shares =
        shardBudgetShares(skewed, 12.75);
    ASSERT_EQ(skewed_shares.size(), skewed.size());
    EXPECT_EQ(sharesSum(skewed_shares), 12.75);
    // Every region keeps at least its 10% floor (minus the one ulp the
    // remainder region may absorb).
    const double floor =
        0.1 * 12.75 / static_cast<double>(skewed.size());
    for (const double share : skewed_shares)
        EXPECT_GE(share, floor * 0.99);
}

TEST(ShardBudget, AllIdleRegionsSplitEquallyAndExactly)
{
    // All-idle corner: zero demand everywhere must fall back to the
    // equal split and still sum to exactly the budget — seven equal
    // slices of 50 MB/s are not representable individually.
    const std::vector<double> idle(7, 0.0);
    const std::vector<double> shares = shardBudgetShares(idle, 50.0);
    ASSERT_EQ(shares.size(), 7u);
    EXPECT_EQ(sharesSum(shares), 50.0);
    for (std::size_t r = 0; r + 1 < shares.size(); ++r)
        EXPECT_NEAR(shares[r], 50.0 / 7.0, 1e-12);
}

TEST(ShardBudget, SingleRegionKeepsTheWholeBudget)
{
    // Single-region corner: no pool/floor split at all — the one
    // region owns the budget bit-for-bit.
    const std::vector<double> shares =
        shardBudgetShares({123.0}, 0.1 + 0.2);
    ASSERT_EQ(shares.size(), 1u);
    EXPECT_EQ(shares[0], 0.1 + 0.2);
}

TEST(ShardBudget, DegenerateInputsYieldZeros)
{
    EXPECT_TRUE(shardBudgetShares({}, 10.0).empty());
    const std::vector<double> off = shardBudgetShares({1.0, 2.0}, 0.0);
    ASSERT_EQ(off.size(), 2u);
    EXPECT_EQ(off[0], 0.0);
    EXPECT_EQ(off[1], 0.0);
}

TEST(ShardBudget, AdmissionBudgetSurvivesTheSysctlRoundTrip)
{
    // The shares only conserve the budget if the sysctl string
    // round-trip each kernel sees preserves them exactly; %.17g does,
    // %.9g (the pre-fix format) does not for this value.
    const double mbps = 50.0 / 3.0;
    char wide[64];
    std::snprintf(wide, sizeof(wide), "%.17g", mbps);
    EXPECT_EQ(std::strtod(wide, nullptr), mbps);
    char narrow[64];
    std::snprintf(narrow, sizeof(narrow), "%.9g", mbps);
    EXPECT_NE(std::strtod(narrow, nullptr), mbps);
}

TEST(ShardDispatch, RegionCountChangesTheMachineWorkersDoNot)
{
    // Sanity that the test above is not vacuous: different region
    // decompositions really do simulate different machines, so the
    // worker-invariance checks are comparing something that could have
    // diverged.
    ShardCase c{"tpp", "tpp", 0.0};
    const ExperimentResult two =
        runExperiment(shardConfig(c, 1, 2));
    const ExperimentResult four =
        runExperiment(shardConfig(c, 1, 4));
    EXPECT_EQ(two.shard.regions, 2u);
    EXPECT_EQ(four.shard.regions, 4u);
    EXPECT_NE(vmHash(two.vmstat), vmHash(four.vmstat));
}

} // namespace
} // namespace tpp
