/**
 * @file
 * Tests for NUMA-mode resolution (§5.3 auto-downgrade), the dual-socket
 * topology, workingset refault detection, export writers, and trace
 * record/replay round-trips.
 */

#include <sstream>

#include "core/tpp_policy.hh"
#include "harness/export.hh"
#include "test_common.hh"
#include "workloads/trace_io.hh"

namespace tpp {
namespace {

using test::TestMachine;

TEST(NumaMode, AutoDetectPicksTieredWithCxl)
{
    TestMachine m(256, 256, std::make_unique<TppPolicy>());
    const auto &policy = static_cast<TppPolicy &>(m.kernel.policy());
    EXPECT_EQ(policy.effectiveMode(), NumaMode::Tiered);
}

TEST(NumaMode, AutoDetectPicksClassicWithoutCxl)
{
    EventQueue eq;
    MemorySystem mem(TopologyBuilder::allLocal(256));
    Kernel kernel(mem, eq, std::make_unique<TppPolicy>());
    const auto &policy = static_cast<TppPolicy &>(kernel.policy());
    EXPECT_EQ(policy.effectiveMode(), NumaMode::Classic);
}

TEST(NumaMode, ClassicDowngradesOnSingleLocalNode)
{
    // §5.3: a system started in the default NUMA_BALANCING mode with a
    // single local node online is auto-downgraded to TIERED.
    TppConfig cfg;
    cfg.mode = NumaMode::Classic;
    TestMachine m(256, 256, std::make_unique<TppPolicy>(cfg));
    const auto &policy = static_cast<TppPolicy &>(m.kernel.policy());
    EXPECT_EQ(policy.effectiveMode(), NumaMode::Tiered);
    EXPECT_FALSE(policy.scanNode(m.local()));
}

TEST(NumaMode, ClassicStaysClassicOnDualSocket)
{
    TppConfig cfg;
    cfg.mode = NumaMode::Classic;
    EventQueue eq;
    MemorySystem mem(TopologyBuilder::dualSocketCxl(256, 256));
    Kernel kernel(mem, eq, std::make_unique<TppPolicy>(cfg));
    const auto &policy = static_cast<TppPolicy &>(kernel.policy());
    EXPECT_EQ(policy.effectiveMode(), NumaMode::Classic);
    EXPECT_TRUE(policy.scanNode(0));
    EXPECT_TRUE(policy.scanNode(1));
}

TEST(DualSocket, TopologyShape)
{
    MemorySystem mem(TopologyBuilder::dualSocketCxl(512, 1024));
    EXPECT_EQ(mem.cpuNodes().size(), 2u);
    EXPECT_EQ(mem.cxlNodes().size(), 1u);
    // Both sockets demote to the shared CXL node.
    EXPECT_EQ(mem.demotionOrder(0), std::vector<NodeId>{2});
    EXPECT_EQ(mem.demotionOrder(1), std::vector<NodeId>{2});
    // Cross-socket is closer than CXL in the fallback order.
    EXPECT_EQ(mem.fallbackOrder(0)[1], 1);
}

TEST(DualSocket, PromotionTargetsTaskNode)
{
    EventQueue eq;
    MemorySystem mem(TopologyBuilder::dualSocketCxl(512, 1024));
    Kernel kernel(mem, eq, std::make_unique<TppPolicy>());
    kernel.start();
    const Asid asid = kernel.createProcess();
    const Vpn vpn = kernel.mmap(asid, 1, PageType::Anon, "a");
    // Fault in on the CXL node, then fault from socket 1.
    kernel.access(asid, vpn, AccessKind::Store, 2);
    ASSERT_EQ(mem.frame(kernel.addressSpace(asid).pte(vpn).pfn).nid, 2);
    for (int round = 0; round < 2; ++round) {
        kernel.sampleNode(2, 4);
        kernel.access(asid, vpn, AccessKind::Load, 1);
    }
    EXPECT_EQ(mem.frame(kernel.addressSpace(asid).pte(vpn).pfn).nid, 1);
}

TEST(Workingset, QuickRefaultActivates)
{
    TestMachine m;
    const Vpn f = m.kernel.mmap(m.asid, 1, PageType::File, "f", true);
    m.kernel.access(m.asid, f, AccessKind::Load, 0);
    m.frameOf(f).clearFlag(PageFrame::FlagReferenced);
    m.kernel.directReclaim(0, 1);
    ASSERT_FALSE(m.pte(f).present());
    // Refault within the workingset window: page re-enters active.
    m.kernel.access(m.asid, f, AccessKind::Load, 0);
    EXPECT_EQ(m.frameOf(f).lru, LruListId::ActiveFile);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::WorkingsetRefault), 1u);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::WorkingsetActivate), 1u);
}

TEST(Workingset, SlowRefaultStaysInactive)
{
    TestMachine m;
    const Vpn f = m.kernel.mmap(m.asid, 1, PageType::File, "f", true);
    m.kernel.access(m.asid, f, AccessKind::Load, 0);
    m.frameOf(f).clearFlag(PageFrame::FlagReferenced);
    m.kernel.directReclaim(0, 1);
    // Let far more than the workingset window pass.
    m.eq.run(m.eq.now() + m.kernel.costs().workingsetWindow * 3);
    m.kernel.access(m.asid, f, AccessKind::Load, 0);
    EXPECT_EQ(m.frameOf(f).lru, LruListId::InactiveFile);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::WorkingsetRefault), 1u);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::WorkingsetActivate), 0u);
}

TEST(Workingset, SwapRefaultAlsoDetected)
{
    TestMachine m;
    const Vpn a = m.populate(1, PageType::Anon);
    m.frameOf(a).clearFlag(PageFrame::FlagReferenced);
    m.kernel.directReclaim(0, 1);
    ASSERT_TRUE(m.pte(a).swapped());
    m.kernel.access(m.asid, a, AccessKind::Load, 0);
    EXPECT_EQ(m.frameOf(a).lru, LruListId::ActiveAnon);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::WorkingsetActivate), 1u);
}

TEST(Export, ResultsCsvShape)
{
    ExperimentResult r;
    r.workload = "web";
    r.policy = "tpp";
    r.throughput = 1000.0;
    r.localTrafficShare = 0.9;
    r.cxlTrafficShare = 0.1;
    std::ostringstream out;
    writeResultsCsv(out, {r});
    const std::string text = out.str();
    EXPECT_NE(text.find("workload,policy"), std::string::npos);
    EXPECT_NE(text.find("web,tpp,1000.000"), std::string::npos);
    // Exactly one header + one data line.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(Export, SamplesCsvShape)
{
    ExperimentResult r;
    IntervalSample s;
    s.tick = 5 * kSecond;
    s.localShare = 0.75;
    s.throughput = 123.0;
    r.samples.push_back(s);
    std::ostringstream out;
    writeSamplesCsv(out, r);
    EXPECT_NE(out.str().find("5000000000,0.7500"), std::string::npos);
}

TEST(Export, JsonContainsCountersAndSamples)
{
    ExperimentResult r;
    r.workload = "cache1";
    r.policy = "linux";
    r.vmstat.inc(Vm::PgFault, 7);
    IntervalSample s;
    s.tick = 1;
    r.samples.push_back(s);
    std::ostringstream out;
    writeResultJson(out, r);
    const std::string text = out.str();
    EXPECT_NE(text.find("\"pgfault\": 7"), std::string::npos);
    EXPECT_NE(text.find("\"samples\": ["), std::string::npos);
    EXPECT_NE(text.find("\"workload\": \"cache1\""), std::string::npos);
}

TEST(TraceIo, RecorderCapturesStream)
{
    TestMachine m;
    TraceRecorder recorder(m.kernel, 100);
    const auto access = [&recorder](Vpn vpn, AccessKind kind) {
        recorder.onKernelAccess({0, vpn, kind, 0, kInvalidPfn, kInvalidNode});
    };
    access(105, AccessKind::Load);
    access(100, AccessKind::Store);
    access(50, AccessKind::Load); // below base
    ASSERT_EQ(recorder.entries().size(), 2u);
    EXPECT_EQ(recorder.entries()[0].pageIndex, 5u);
    EXPECT_EQ(recorder.entries()[1].pageIndex, 0u);
    EXPECT_EQ(recorder.regionPages(), 6u);
}

TEST(TraceIo, CapDropsExtras)
{
    TestMachine m;
    TraceRecorder recorder(m.kernel, 0, 2);
    for (Vpn vpn = 0; vpn < 5; ++vpn) {
        recorder.onKernelAccess(
            {0, vpn, AccessKind::Load, 0, kInvalidPfn, kInvalidNode});
    }
    EXPECT_EQ(recorder.entries().size(), 2u);
    EXPECT_EQ(recorder.dropped(), 3u);
}

TEST(TraceIo, SaveLoadRoundTrip)
{
    std::vector<TraceEntry> entries = {
        {0, AccessKind::Load}, {3, AccessKind::Store},
        {1, AccessKind::Load}};
    std::stringstream buf;
    saveTrace(buf, 4, entries);
    auto [pages, loaded] = loadTrace(buf);
    EXPECT_EQ(pages, 4u);
    ASSERT_EQ(loaded.size(), 3u);
    EXPECT_EQ(loaded[1].pageIndex, 3u);
    EXPECT_EQ(loaded[1].kind, AccessKind::Store);
}

TEST(TraceIo, RecordedRunReplaysIdentically)
{
    // Record a trace from one machine...
    TestMachine src(512, 512);
    TraceRecorder recorder(src.kernel);
    std::vector<TraceEntry> script;
    for (int i = 0; i < 200; ++i)
        script.push_back({static_cast<std::uint64_t>((i * 7) % 32),
                          i % 3 ? AccessKind::Load : AccessKind::Store});
    TraceWorkload original(32, script);
    original.init(src.kernel);
    while (!original.done())
        original.runBatch(src.kernel);

    // ...persist it, reload it, replay on a fresh machine.
    std::stringstream buf;
    saveTrace(buf, recorder.regionPages(), recorder.entries());
    auto [pages, entries] = loadTrace(buf);
    TestMachine dst(512, 512);
    TraceWorkload replay(pages, entries);
    replay.init(dst.kernel);
    while (!replay.done())
        replay.runBatch(dst.kernel);

    EXPECT_EQ(src.kernel.vmstat().get(Vm::PgFault),
              dst.kernel.vmstat().get(Vm::PgFault));
    EXPECT_EQ(src.kernel.traffic(0).accesses,
              dst.kernel.traffic(0).accesses);
}

TEST(TraceIoDeathTest, MalformedHeaderIsFatal)
{
    setLogVerbose(false);
    std::stringstream buf("bogus v9 1 1\n0 L\n");
    EXPECT_DEATH(loadTrace(buf), "tpp-trace");
}

TEST(TraceIoDeathTest, TruncatedBodyIsFatal)
{
    setLogVerbose(false);
    std::stringstream buf("tpp-trace v1 4 3\n0 L\n");
    EXPECT_DEATH(loadTrace(buf), "truncated");
}

} // namespace
} // namespace tpp
