/**
 * @file
 * The explicit tier hierarchy end to end: --topology spec parsing and
 * its distance rule, TierHierarchy ranks and demotion chains on parsed
 * machines, multi-socket residency accounting, chained CXL -> CXL-far
 * demotion in a full 3-tier run, and golden fingerprints pinning the
 * 3-tier and dual-socket configs under linux and tpp.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "mm/vmstat.hh"

namespace tpp {
namespace {

constexpr const char *kThreeTier =
    "local:pages=2048;cxl:pages=2048:lat=150;cxl-far:pages=8192:lat=300:"
    "bw=32";
constexpr const char *kDualSocket =
    "socket0:pages=2048;socket1:pages=4096;cxl:pages=4096:lat=150";

TEST(TierTopologySpec, ParsesThreeTierMachine)
{
    const SpecResult<MemoryConfig> topo = parseTopology(kThreeTier);
    ASSERT_TRUE(topo);
    ASSERT_EQ(topo->nodes.size(), 3u);
    EXPECT_EQ(topo->nodes[0].profile.name, "local");
    EXPECT_FALSE(topo->nodes[0].profile.cpuLess);
    EXPECT_EQ(topo->nodes[1].profile.name, "cxl");
    EXPECT_TRUE(topo->nodes[1].profile.cpuLess);
    EXPECT_EQ(topo->nodes[1].profile.idleLatencyNs, 150.0);
    EXPECT_EQ(topo->nodes[2].profile.bandwidthGBps, 32.0);

    // Distance rule: diagonal 10, one extra hop per latency class.
    EXPECT_EQ(topo->distances[0][0], 10u);
    EXPECT_EQ(topo->distances[0][1], 20u);
    EXPECT_EQ(topo->distances[0][2], 30u);
    EXPECT_EQ(topo->distances[1][2], 30u);

    const MemorySystem mem(*topo);
    EXPECT_EQ(mem.tiers().numTiers(), 3u);
    EXPECT_EQ(mem.tiers().rank(0), 0u);
    EXPECT_EQ(mem.tiers().rank(1), 1u);
    EXPECT_EQ(mem.tiers().rank(2), 2u);
    EXPECT_EQ(mem.demotionOrder(0), (std::vector<NodeId>{1, 2}));
    EXPECT_EQ(mem.demotionOrder(1), (std::vector<NodeId>{2}));
    EXPECT_TRUE(mem.demotionOrder(2).empty());
}

TEST(TierTopologySpec, SlowSocketWithCpuStaysToptier)
{
    // lat= alone marks a lower tier, but cpu=1 overrides: a slow
    // socket is still toptier and never a demotion target.
    const SpecResult<MemoryConfig> topo = parseTopology(
        "s0:pages=64;s1:pages=64:lat=120:cpu=1;cxl:pages=64:lat=150");
    ASSERT_TRUE(topo);
    EXPECT_FALSE(topo->nodes[1].profile.cpuLess);

    const MemorySystem mem(*topo);
    EXPECT_EQ(mem.tiers().numTiers(), 2u);
    EXPECT_TRUE(mem.tiers().isToptier(1));
    EXPECT_EQ(mem.tiers().toptierNodes(),
              (std::vector<NodeId>{0, 1}));
    EXPECT_EQ(mem.demotionOrder(1), (std::vector<NodeId>{2}));
}

TEST(TierTopologySpec, RejectsMalformedSpecs)
{
    // Every rejection names the offending token.
    auto fails_with = [](const char *spec, const char *token) {
        const SpecResult<MemoryConfig> topo = parseTopology(spec);
        ASSERT_FALSE(topo) << spec;
        EXPECT_NE(topo.error().render().find(token), std::string::npos)
            << topo.error().render();
    };
    fails_with("", "");
    fails_with("local", "local");                     // no pages
    fails_with("local:pages=0", "pages");             // below minimum
    fails_with("local:pages=4;local:pages=4", "local"); // duplicate
    fails_with("local:pages=4:color=red", "color");   // unknown key
    fails_with("cxl:pages=4:lat=150", "cxl");         // no CPU node
}

TEST(TierTopologySpec, ValidateRejectsConflictingModes)
{
    ExperimentConfig cfg;
    cfg.topology = kThreeTier;
    cfg.allLocal = true;
    EXPECT_FALSE(cfg.validate());

    cfg.allLocal = false;
    ASSERT_TRUE(cfg.validate());
    cfg.shardRegions = 2;
    EXPECT_FALSE(cfg.validate());
}

ExperimentConfig
tierConfig(const char *topology, const char *policy)
{
    ExperimentConfig cfg;
    cfg.workload = "web";
    cfg.policy = policy;
    cfg.topology = topology;
    cfg.wssPages = 8192;
    cfg.runUntil = 10 * kSecond;
    cfg.measureFrom = 6 * kSecond;
    cfg.seed = 1;
    return cfg;
}

TEST(TierTopology, MultiSocketResidencyCountsEverySocket)
{
    // Regression: residency accounting used to treat cpuNodes().front()
    // as the only local node, so pages spilled to socket 1 vanished
    // from the numerator. socket0 is too small for the working set, so
    // a correct run must show socket-1 residency that agrees with the
    // per-node rows.
    ExperimentConfig cfg = tierConfig(kDualSocket, "linux");
    cfg.runUntil = 3 * kSecond;
    cfg.measureFrom = 1 * kSecond;
    const ExperimentResult r = runExperiment(cfg);

    ASSERT_EQ(r.nodes.size(), 3u);
    EXPECT_EQ(r.nodes[0].name, "socket0");
    EXPECT_EQ(r.nodes[1].name, "socket1");
    EXPECT_EQ(r.nodes[0].tierRank, 0u);
    EXPECT_EQ(r.nodes[1].tierRank, 0u);
    EXPECT_EQ(r.nodes[2].tierRank, 1u);
    EXPECT_GT(r.nodes[1].anonPages, 0u);

    std::uint64_t local_anon = 0;
    std::uint64_t total_anon = 0;
    for (const NodeResult &node : r.nodes) {
        total_anon += node.anonPages;
        if (node.tierRank == 0)
            local_anon += node.anonPages;
    }
    ASSERT_GT(total_anon, 0u);
    const double expect = static_cast<double>(local_anon) /
                          static_cast<double>(total_anon);
    EXPECT_NEAR(r.anonLocalResidency, expect, 1e-12);
}

TEST(TierTopology, ThreeTierRunChainsDemotionsDownward)
{
    // Oversubscribed toptier (2k of an 8k working set) with a middle
    // CXL tier too small to absorb the overflow: TPP must demote
    // local -> cxl and chain cxl -> cxl-far rather than swapping the
    // middle tier out.
    ExperimentConfig cfg = tierConfig(kThreeTier, "tpp");
    cfg.traceEnabled = true;
    const ExperimentResult r = runExperiment(cfg);

    std::uint64_t chained = 0;
    std::uint64_t to_middle = 0;
    for (const TraceRecord &rec : r.trace) {
        if (rec.event != TraceEvent::Demote)
            continue;
        if (rec.node == 1 && rec.aux == 2)
            chained++;
        if (rec.node == 0 && rec.aux == 1)
            to_middle++;
    }
    EXPECT_GT(to_middle, 0u);
    EXPECT_GT(chained, 0u);
    // The chain keeps the middle tier off the swap device entirely.
    EXPECT_EQ(r.vmstat.get(Vm::PswpOut), 0u);
}

// ---------------------------------------------------------------------
// Golden fingerprints: the multi-tier topologies must stay as
// deterministic as the canned two-node machines. Captured from the
// tree that introduced the tier hierarchy; a change here means
// multi-tier behaviour diverged.

/** Counter count covered by the historical fingerprint hash. */
constexpr std::size_t kSeedVmCounters = 35;

std::uint64_t
seedVmHash(const VmStat &vmstat)
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kSeedVmCounters; ++i)
        sum = sum * 1000003u + vmstat.get(static_cast<Vm>(i));
    return sum;
}

struct TierGoldenCase {
    const char *tag;
    const char *topology;
    const char *policy;
    double throughput;
    double meanLatencyNs;
    std::uint64_t vmsum;
};

// Without a printer gtest shows the case as raw bytes, and the tag
// pointer would put a load address into every discovered test name.
void
PrintTo(const TierGoldenCase &c, std::ostream *os)
{
    *os << '"' << c.tag << '"';
}

const TierGoldenCase kTierGolden[] = {
    {"three_tier_linux", kThreeTier, "linux",
     622207.88568627601, 166.94136752960515, 3235183705022800817ull},
    {"three_tier_tpp", kThreeTier, "tpp",
     772102.93216927908, 89.555046479960282, 8102812937963595728ull},
    {"dual_socket_linux", kDualSocket, "linux",
     741071.02862659865, 103.2713631037433, 14576798485097781451ull},
    {"dual_socket_tpp", kDualSocket, "tpp",
     781817.74948714487, 85.628501935122983, 4176142575668096305ull},
};

class TierTopologyGolden
    : public ::testing::TestWithParam<TierGoldenCase> {};

TEST_P(TierTopologyGolden, FingerprintIsStable)
{
    const TierGoldenCase &c = GetParam();
    const ExperimentResult r =
        runExperiment(tierConfig(c.topology, c.policy));
    EXPECT_EQ(r.throughput, c.throughput) << c.tag;
    EXPECT_EQ(r.meanAccessLatencyNs, c.meanLatencyNs) << c.tag;
    EXPECT_EQ(seedVmHash(r.vmstat), c.vmsum) << c.tag;
}

INSTANTIATE_TEST_SUITE_P(Golden, TierTopologyGolden,
                         ::testing::ValuesIn(kTierGolden),
                         [](const auto &info) {
                             return std::string(info.param.tag);
                         });

} // namespace
} // namespace tpp
