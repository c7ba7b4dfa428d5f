/**
 * @file
 * Tests for the YCSB workload generator and the meminfo reporting.
 */

#include "mm/meminfo.hh"
#include "test_common.hh"
#include "workloads/ycsb.hh"

namespace tpp {
namespace {

using test::TestMachine;

TEST(Ycsb, CannedMixes)
{
    EXPECT_DOUBLE_EQ(YcsbConfig::workloadA(100).readShare, 0.5);
    EXPECT_DOUBLE_EQ(YcsbConfig::workloadB(100).readShare, 0.95);
    EXPECT_DOUBLE_EQ(YcsbConfig::workloadC(100).readShare, 1.0);
    EXPECT_EQ(YcsbConfig::workloadD(100).distribution,
              YcsbDistribution::Latest);
}

TEST(Ycsb, BatchIssuesOps)
{
    TestMachine m(4096, 4096);
    YcsbConfig cfg = YcsbConfig::workloadB(512);
    cfg.opsPerBatch = 100;
    YcsbWorkload wl(cfg);
    wl.init(m.kernel);
    const BatchResult res = wl.runBatch(m.kernel);
    EXPECT_EQ(res.ops, 100u);
    EXPECT_EQ(res.accesses, 200u); // pagesPerOp = 2
    EXPECT_GT(res.durationNs, 0.0);
}

TEST(Ycsb, TapSeesThePageEachAccessTouched)
{
    // An op's second access touches a random populated page, not the
    // op's key: each event must name the page its frame maps.
    TestMachine m(4096, 4096);
    YcsbConfig cfg = YcsbConfig::workloadB(512);
    cfg.opsPerBatch = 100;
    YcsbWorkload wl(cfg);
    wl.init(m.kernel);
    std::uint64_t events = 0;
    test::ScopedTap tap(m.kernel, [&](const AccessEvent &event) {
        events++;
        ASSERT_NE(event.pfn, kInvalidPfn);
        EXPECT_EQ(m.mem.frameCold(event.pfn).ownerAsid, event.asid);
        EXPECT_EQ(m.mem.frameCold(event.pfn).ownerVpn, event.vpn);
    });
    const BatchResult res = wl.runBatch(m.kernel);
    EXPECT_EQ(events, res.accesses);
    EXPECT_EQ(events, 200u);
}

TEST(Ycsb, ReadOnlyMixNeverDirties)
{
    TestMachine m(4096, 4096);
    YcsbConfig cfg = YcsbConfig::workloadC(256);
    cfg.opsPerBatch = 500;
    YcsbWorkload wl(cfg);
    wl.init(m.kernel);
    wl.runBatch(m.kernel);
    // Anon pages are born dirty; reads never touch more state. Mostly a
    // smoke check that the mix plumbing works and nothing faults oddly.
    EXPECT_GT(m.kernel.vmstat().get(Vm::PgFault), 0u);
}

TEST(Ycsb, ZipfSkewsTraffic)
{
    // Same op budget, zipfian vs uniform: the skewed mix must touch
    // fewer distinct pages.
    auto distinct = [](YcsbDistribution dist) {
        TestMachine m(8192, 8192);
        YcsbConfig cfg = YcsbConfig::workloadC(2048);
        cfg.opsPerBatch = 2000;
        cfg.pagesPerOp = 1;
        cfg.distribution = dist;
        YcsbWorkload wl(cfg);
        wl.init(m.kernel);
        wl.runBatch(m.kernel);
        return m.kernel.addressSpace(wl.asid()).residentPages();
    };
    EXPECT_LT(distinct(YcsbDistribution::Zipfian),
              distinct(YcsbDistribution::Uniform));
}

TEST(Ycsb, InsertsGrowKeyspace)
{
    TestMachine m(4096, 4096);
    YcsbConfig cfg = YcsbConfig::workloadD(256);
    cfg.opsPerBatch = 2000;
    YcsbWorkload wl(cfg);
    wl.init(m.kernel);
    const std::uint64_t before = wl.populatedRecords();
    wl.runBatch(m.kernel);
    EXPECT_GT(wl.populatedRecords(), before);
}

TEST(Ycsb, DeterministicReplay)
{
    TestMachine m1(4096, 4096), m2(4096, 4096);
    YcsbWorkload a(YcsbConfig::workloadA(512));
    YcsbWorkload b(YcsbConfig::workloadA(512));
    a.init(m1.kernel);
    b.init(m2.kernel);
    for (int i = 0; i < 3; ++i) {
        const BatchResult ra = a.runBatch(m1.kernel);
        const BatchResult rb = b.runBatch(m2.kernel);
        EXPECT_DOUBLE_EQ(ra.durationNs, rb.durationNs);
    }
}

TEST(YcsbDeathTest, BadMixIsFatal)
{
    setLogVerbose(false);
    YcsbConfig cfg;
    cfg.readShare = 0.9;
    cfg.insertShare = 0.2;
    EXPECT_DEATH({ YcsbWorkload wl(cfg); }, "mix");
}

TEST(MemInfo, SnapshotMatchesState)
{
    TestMachine m(1024, 512);
    m.populate(100, PageType::Anon);
    const MemInfo info = collectMemInfo(m.kernel);
    ASSERT_EQ(info.nodes.size(), 2u);
    EXPECT_EQ(info.totalPages, 1536u);
    EXPECT_EQ(info.totalFree, 1536u - 100u);
    EXPECT_EQ(info.totalUsed(), 100u);
    EXPECT_EQ(info.nodes[0].capacityPages, 1024u);
    EXPECT_EQ(info.nodes[0].inactiveAnon, 100u);
    EXPECT_FALSE(info.nodes[0].cpuLess);
    EXPECT_TRUE(info.nodes[1].cpuLess);
    EXPECT_EQ(info.nodes[0].lruTotal(), 100u);
    EXPECT_EQ(info.swapUsedSlots, 0u);
}

TEST(MemInfo, WatermarksReported)
{
    TestMachine m(10000, 10000);
    const MemInfo info = collectMemInfo(m.kernel);
    const NodeMemInfo &n = info.nodes[0];
    EXPECT_EQ(n.min, m.mem.node(0).watermarks().min);
    EXPECT_LT(n.min, n.low);
    EXPECT_LT(n.low, n.high);
    EXPECT_LT(n.high, n.demoteTrigger);
}

TEST(MemInfo, RenderContainsKeyLines)
{
    TestMachine m(1024, 512);
    m.populate(10, PageType::File);
    const std::string text = renderMemInfo(collectMemInfo(m.kernel));
    EXPECT_NE(text.find("MemTotal:  1536 pages"), std::string::npos);
    EXPECT_NE(text.find("Node 0"), std::string::npos);
    EXPECT_NE(text.find("inactive_file  10"), std::string::npos);
}

} // namespace
} // namespace tpp
