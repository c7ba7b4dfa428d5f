/**
 * @file
 * Unit tests for the Chameleon profiler: sampling cadence, duty
 * cycling, bitmap history and the interval statistics.
 */

#include "chameleon/chameleon.hh"
#include "test_common.hh"
#include "workloads/trace.hh"

namespace tpp {
namespace {

using test::TestMachine;

/** A load of `vpn` at `tick`; the profiler reads no frame field. */
AccessEvent
load(const TestMachine &m, Vpn vpn, Tick tick = 0)
{
    return {m.asid, vpn, AccessKind::Load, tick, kInvalidPfn, kInvalidNode};
}

ChameleonConfig
everyAccess()
{
    ChameleonConfig cfg;
    cfg.samplePeriod = 1;
    cfg.dutyCycle = false;
    cfg.interval = 100 * kMillisecond;
    return cfg;
}

TEST(Chameleon, SamplePeriodThinsRecords)
{
    TestMachine m;
    ChameleonConfig cfg = everyAccess();
    cfg.samplePeriod = 10;
    const Vpn base = m.populate(1, PageType::Anon);
    Chameleon cham(m.kernel, cfg);
    for (int i = 0; i < 100; ++i)
        cham.onKernelAccess(load(m, base));
    EXPECT_EQ(cham.totalEvents(), 100u);
    EXPECT_EQ(cham.totalSamples(), 10u);
}

TEST(Chameleon, DutyCyclingDropsOffSlices)
{
    TestMachine m;
    ChameleonConfig cfg;
    cfg.samplePeriod = 1;
    cfg.numCoreGroups = 4;
    cfg.miniInterval = 10 * kMillisecond;
    const Vpn base = m.populate(1, PageType::Anon);
    Chameleon cham(m.kernel, cfg);
    // One access in every mini-interval over 40 of them.
    for (int slice = 0; slice < 40; ++slice)
        cham.onKernelAccess(load(m, base, slice * cfg.miniInterval));
    // Only one in four slices is live.
    EXPECT_EQ(cham.totalSamples(), 10u);
}

TEST(Chameleon, IntervalStatsCountTouchedByType)
{
    TestMachine m;
    const Vpn anon = m.populate(4, PageType::Anon);
    const Vpn file = m.kernel.mmap(m.asid, 4, PageType::File, "f");
    for (int i = 0; i < 4; ++i)
        m.kernel.access(m.asid, file + i, AccessKind::Load, 0);
    Chameleon cham(m.kernel, everyAccess());
    cham.start();

    for (int i = 0; i < 3; ++i)
        m.kernel.access(m.asid, anon + i, AccessKind::Load, 0);
    m.kernel.access(m.asid, file, AccessKind::Load, 0);

    m.eq.run(150 * kMillisecond); // one interval boundary
    ASSERT_GE(cham.intervals().size(), 1u);
    const auto &iv = cham.intervals().front();
    EXPECT_EQ(iv.touchedByType[0], 3u);
    EXPECT_EQ(iv.touchedByType[1], 1u);
    EXPECT_EQ(iv.touchedTotal, 4u);
    EXPECT_EQ(iv.residentTotal, 8u);
    EXPECT_EQ(iv.residentByType[0], 4u);
}

TEST(Chameleon, ReaccessGapRecorded)
{
    TestMachine m;
    const Vpn base = m.populate(1, PageType::Anon);
    Chameleon cham(m.kernel, everyAccess());
    cham.start();

    // Touch in interval 0, stay cold for two intervals, touch again in
    // interval 3.
    m.kernel.access(m.asid, base, AccessKind::Load, 0);
    m.eq.run(310 * kMillisecond); // intervals 0,1,2 complete
    m.kernel.access(m.asid, base, AccessKind::Load, 0);
    m.eq.run(410 * kMillisecond);

    ASSERT_GE(cham.intervals().size(), 4u);
    const auto &iv = cham.intervals()[3];
    EXPECT_EQ(iv.reaccessGap[3], 1u);
    EXPECT_DOUBLE_EQ(cham.reaccessCdf(2), 0.0);
    EXPECT_DOUBLE_EQ(cham.reaccessCdf(3), 1.0);
}

TEST(Chameleon, AdjacentIntervalGapIsOne)
{
    TestMachine m;
    const Vpn base = m.populate(1, PageType::Anon);
    Chameleon cham(m.kernel, everyAccess());
    cham.start();
    m.kernel.access(m.asid, base, AccessKind::Load, 0);
    m.eq.run(110 * kMillisecond);
    m.kernel.access(m.asid, base, AccessKind::Load, 0);
    m.eq.run(210 * kMillisecond);
    EXPECT_DOUBLE_EQ(cham.reaccessCdf(1), 1.0);
}

TEST(Chameleon, HotFractionAveragesIntervals)
{
    TestMachine m;
    const Vpn base = m.populate(10, PageType::Anon);
    Chameleon cham(m.kernel, everyAccess());
    cham.start();
    // Touch 5 of 10 resident pages each interval.
    for (int interval = 0; interval < 3; ++interval) {
        for (int i = 0; i < 5; ++i)
            m.kernel.access(m.asid, base + i, AccessKind::Load, 0);
        m.eq.run(m.eq.now() + 100 * kMillisecond);
    }
    EXPECT_NEAR(cham.meanHotFraction(PageType::Anon), 0.5, 0.01);
    EXPECT_NEAR(cham.meanHotFraction(), 0.5, 0.01);
    EXPECT_DOUBLE_EQ(cham.meanHotFraction(PageType::File), 0.0);
}

TEST(Chameleon, WorksAttachedToWorkload)
{
    TestMachine m(4096, 4096);
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 5000; ++i)
        trace.push_back({static_cast<std::uint64_t>(i % 64),
                         AccessKind::Load});
    TraceWorkload wl(64, trace, PageType::Anon, 500);
    ChameleonConfig cfg;
    cfg.samplePeriod = 4;
    cfg.dutyCycle = false;
    cfg.interval = 50 * kMillisecond;
    Chameleon cham(m.kernel, cfg);
    cham.start();
    wl.init(m.kernel);
    while (!wl.done())
        wl.runBatch(m.kernel);
    m.eq.run(m.eq.now() + 60 * kMillisecond);
    EXPECT_EQ(cham.totalEvents(), 5000u);
    EXPECT_EQ(cham.totalSamples(), 1250u);
    ASSERT_GE(cham.intervals().size(), 1u);
    EXPECT_GT(cham.intervals().front().touchedTotal, 0u);
}

TEST(ChameleonDeathTest, ZeroPeriodIsFatal)
{
    TestMachine m;
    ChameleonConfig cfg;
    cfg.samplePeriod = 0;
    EXPECT_DEATH({ Chameleon cham(m.kernel, cfg); }, "period");
}

} // namespace
} // namespace tpp
