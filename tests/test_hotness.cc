/**
 * @file
 * Tests for the unified page-hotness subsystem (src/hotness): the
 * source factory, each of the four HotnessSource implementations, and
 * the HotnessPolicy that drives epoch-batched promotion from them.
 */

#include "hotness/chameleon_source.hh"
#include "hotness/damon_source.hh"
#include "hotness/hint_fault_source.hh"
#include "hotness/hotness_policy.hh"
#include "hotness/neoprof_source.hh"
#include "mm/policy_registry.hh"
#include "test_common.hh"

namespace tpp {
namespace {

using test::TestMachine;

std::unique_ptr<HotnessPolicy>
makeHotnessPolicy(HotnessConfig hot, TppConfig tpp = {})
{
    PolicyParams params;
    params.hotness = hot;
    params.tpp = tpp;
    return std::make_unique<HotnessPolicy>(params);
}

/** A fast-epoch config for event-loop tests. */
HotnessConfig
fastConfig(const std::string &source)
{
    HotnessConfig cfg;
    cfg.source = source;
    cfg.epochPeriod = 20 * kMillisecond;
    cfg.hotWindow = 200 * kMillisecond;
    return cfg;
}

// ---------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------

TEST(HotnessFactory, KnowsAllFourSources)
{
    const std::vector<std::string> names = hotnessSourceNames();
    ASSERT_EQ(names.size(), 4u);
    // std::map order: sorted.
    EXPECT_EQ(names[0], "chameleon");
    EXPECT_EQ(names[1], "damon");
    EXPECT_EQ(names[2], "hintfault");
    EXPECT_EQ(names[3], "neoprof");
    for (const std::string &name : names) {
        HotnessConfig cfg;
        cfg.source = name;
        EXPECT_EQ(makeHotnessSource(cfg)->name(), name);
    }
}

TEST(HotnessFactoryDeathTest, UnknownSourceIsFatal)
{
    HotnessConfig cfg;
    cfg.source = "clairvoyance";
    EXPECT_DEATH({ auto src = makeHotnessSource(cfg); },
                 "unknown hotness source");
}

TEST(HotnessFactory, PolicyRegisteredAsHotness)
{
    PolicyParams params;
    auto policy = PolicyRegistry::instance().make("hotness", params);
    EXPECT_EQ(policy->name(), "hotness");
}

// ---------------------------------------------------------------------
// HintFaultSource
// ---------------------------------------------------------------------

TEST(HintFaultSource, CountsFaultsWithinWindow)
{
    TestMachine m(512, 512);
    HotnessConfig cfg = fastConfig("hintfault");
    HintFaultSource source(cfg);
    source.attach(m.kernel);
    EXPECT_TRUE(source.wantsHintFaults());

    const Vpn vpn = m.kernel.mmap(m.asid, 1, PageType::Anon, "a");
    m.kernel.access(m.asid, vpn, AccessKind::Store, m.cxl());
    const Pfn pfn = m.pte(vpn).pfn;

    source.noteHintFault(pfn, 0);
    source.noteHintFault(pfn, 0);
    EXPECT_DOUBLE_EQ(source.temperature(pfn), 2.0);

    // Past the window the stale count no longer reads as hot...
    m.eq.run(m.eq.now() + cfg.hotWindow + kMillisecond);
    EXPECT_DOUBLE_EQ(source.temperature(pfn), 0.0);
    // ...and the epoch sweep garbage-collects the entry.
    source.advanceEpoch();
    EXPECT_EQ(source.trackedPages(), 0u);
}

TEST(HintFaultSource, ExtractIsSortedThresholdedAndConsuming)
{
    TestMachine m(512, 512);
    HotnessConfig cfg = fastConfig("hintfault");
    cfg.hotThreshold = 2;
    HintFaultSource source(cfg);
    source.attach(m.kernel);

    const Vpn base = m.kernel.mmap(m.asid, 3, PageType::Anon, "a");
    for (int i = 0; i < 3; ++i)
        m.kernel.access(m.asid, base + i, AccessKind::Store, m.cxl());

    // Page 0: 3 faults, page 1: 2 faults, page 2: 1 fault (below
    // threshold).
    for (int f = 0; f < 3; ++f)
        source.noteHintFault(m.pte(base).pfn, 0);
    for (int f = 0; f < 2; ++f)
        source.noteHintFault(m.pte(base + 1).pfn, 0);
    source.noteHintFault(m.pte(base + 2).pfn, 0);

    const std::vector<HotPage> hot = source.extractHot(16);
    ASSERT_EQ(hot.size(), 2u);
    EXPECT_EQ(hot[0].pfn, m.pte(base).pfn);
    EXPECT_DOUBLE_EQ(hot[0].temperature, 3.0);
    EXPECT_EQ(hot[1].pfn, m.pte(base + 1).pfn);

    // Extraction consumed the state: the same pages are cold now.
    EXPECT_DOUBLE_EQ(source.temperature(m.pte(base).pfn), 0.0);
    EXPECT_TRUE(source.extractHot(16).empty());
}

TEST(HintFaultSource, ExtractSkipsLocalPages)
{
    TestMachine m(512, 512);
    HotnessConfig cfg = fastConfig("hintfault");
    cfg.hotThreshold = 1;
    HintFaultSource source(cfg);
    source.attach(m.kernel);

    const Vpn local_vpn = m.populate(1, PageType::Anon);
    for (int f = 0; f < 4; ++f)
        source.noteHintFault(m.pte(local_vpn).pfn, 0);
    // Hot by count, but resident locally: not a promotion candidate.
    EXPECT_TRUE(source.extractHot(16).empty());
}

// ---------------------------------------------------------------------
// NeoProfSource
// ---------------------------------------------------------------------

TEST(NeoProf, CountsOnlyCxlTraffic)
{
    TestMachine m(512, 512);
    HotnessConfig cfg = fastConfig("neoprof");
    NeoProfSource source(cfg);
    source.attach(m.kernel);
    EXPECT_FALSE(source.wantsHintFaults());

    const Vpn local_vpn = m.populate(1, PageType::Anon);
    const Vpn cxl_vpn = m.kernel.mmap(m.asid, 1, PageType::Anon, "c");
    m.kernel.access(m.asid, cxl_vpn, AccessKind::Store, m.cxl());

    // The tap is installed: subsequent accesses feed the counters.
    for (int i = 0; i < 3; ++i) {
        m.kernel.access(m.asid, local_vpn, AccessKind::Load, 0);
        m.kernel.access(m.asid, cxl_vpn, AccessKind::Load, 0);
    }
    EXPECT_DOUBLE_EQ(source.temperature(m.pte(local_vpn).pfn), 0.0);
    // 1 store + 3 loads, all on the CXL link.
    EXPECT_DOUBLE_EQ(source.temperature(m.pte(cxl_vpn).pfn), 4.0);
}

TEST(NeoProf, BoundedTableEvictsLru)
{
    TestMachine m(512, 512);
    HotnessConfig cfg = fastConfig("neoprof");
    cfg.counterTableSize = 4;
    NeoProfSource source(cfg);
    source.attach(m.kernel);

    const Vpn base = m.kernel.mmap(m.asid, 5, PageType::Anon, "a");
    for (int i = 0; i < 5; ++i)
        m.kernel.access(m.asid, base + i, AccessKind::Store, m.cxl());

    // 5 distinct pages through a 4-entry table: the coldest (first
    // touched, never again) entry is evicted.
    EXPECT_EQ(source.trackedPages(), 4u);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::HotnessCounterEvict), 1u);
    EXPECT_DOUBLE_EQ(source.temperature(m.pte(base).pfn), 0.0);
    EXPECT_GT(source.temperature(m.pte(base + 4).pfn), 0.0);
}

TEST(NeoProf, LruTouchProtectsHotEntries)
{
    TestMachine m(512, 512);
    HotnessConfig cfg = fastConfig("neoprof");
    cfg.counterTableSize = 2;
    NeoProfSource source(cfg);
    source.attach(m.kernel);

    const Vpn base = m.kernel.mmap(m.asid, 3, PageType::Anon, "a");
    m.kernel.access(m.asid, base + 0, AccessKind::Store, m.cxl());
    m.kernel.access(m.asid, base + 1, AccessKind::Store, m.cxl());
    // Re-touch page 0: it becomes MRU, so page 1 is the victim when
    // page 2 arrives.
    m.kernel.access(m.asid, base + 0, AccessKind::Load, 0);
    m.kernel.access(m.asid, base + 2, AccessKind::Store, m.cxl());

    EXPECT_GT(source.temperature(m.pte(base + 0).pfn), 0.0);
    EXPECT_DOUBLE_EQ(source.temperature(m.pte(base + 1).pfn), 0.0);
    EXPECT_GT(source.temperature(m.pte(base + 2).pfn), 0.0);
}

TEST(NeoProf, DecayForgetsColdPages)
{
    TestMachine m(512, 512);
    HotnessConfig cfg = fastConfig("neoprof");
    cfg.decayHalfLife = cfg.epochPeriod; // halve every epoch
    NeoProfSource source(cfg);
    source.attach(m.kernel);

    const Vpn vpn = m.kernel.mmap(m.asid, 1, PageType::Anon, "a");
    m.kernel.access(m.asid, vpn, AccessKind::Store, m.cxl());
    const Pfn pfn = m.pte(vpn).pfn;
    ASSERT_DOUBLE_EQ(source.temperature(pfn), 1.0);

    // 1.0 -> 0.5 (still tracked) -> 0.25 (dropped as noise).
    source.advanceEpoch();
    EXPECT_DOUBLE_EQ(source.temperature(pfn), 0.5);
    source.advanceEpoch();
    EXPECT_EQ(source.trackedPages(), 0u);
}

TEST(NeoProf, HistogramAndThresholdTrackHeadroom)
{
    // Plenty of local headroom and a small hot population: the tuned
    // threshold must admit the whole population (drop to 1), and the
    // retune is counted + visible in the histogram.
    TestMachine m(4096, 4096);
    HotnessConfig cfg = fastConfig("neoprof");
    cfg.hotThreshold = 8;    // deliberately strict initial threshold
    cfg.targetQuantile = 0.0; // pure headroom-driven retune
    NeoProfSource source(cfg);
    source.attach(m.kernel);
    ASSERT_DOUBLE_EQ(source.hotThreshold(), 8.0);

    const Vpn base = m.kernel.mmap(m.asid, 8, PageType::Anon, "a");
    for (int i = 0; i < 8; ++i)
        m.kernel.access(m.asid, base + i, AccessKind::Store, m.cxl());
    for (int round = 0; round < 2; ++round)
        for (int i = 0; i < 8; ++i)
            m.kernel.access(m.asid, base + i, AccessKind::Load, 0);

    source.advanceEpoch();
    // Count 3 per page -> bucket 2 ([2,4)); 8 tracked pages, headroom
    // far larger, so every bucket is consumed and the threshold lands
    // at the floor.
    EXPECT_DOUBLE_EQ(source.hotThreshold(), 1.0);
    EXPECT_EQ(source.histogram()[2], 8u);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::HotnessThresholdLower), 1u);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::HotnessThresholdRaise), 0u);
}

TEST(NeoProf, QuantileCapRoundsConservatively)
{
    TestMachine m(4096, 4096);
    HotnessConfig cfg = fastConfig("neoprof");
    cfg.targetQuantile = 0.25; // target = ceil(0.75 * 4 tracked) = 3
    NeoProfSource source(cfg);
    source.attach(m.kernel);

    const Vpn base = m.kernel.mmap(m.asid, 4, PageType::Anon, "a");
    for (int i = 0; i < 4; ++i)
        m.kernel.access(m.asid, base + i, AccessKind::Store, m.cxl());
    // Two hot pages (count 9, bucket [8,16)) over two warm ones
    // (count 3, bucket [2,4)).
    for (int f = 0; f < 8; ++f) {
        m.kernel.access(m.asid, base + 0, AccessKind::Load, 0);
        m.kernel.access(m.asid, base + 1, AccessKind::Load, 0);
    }
    for (int f = 0; f < 2; ++f) {
        m.kernel.access(m.asid, base + 2, AccessKind::Load, 0);
        m.kernel.access(m.asid, base + 3, AccessKind::Load, 0);
    }

    source.advanceEpoch();
    // The warm bucket crosses the target (2 hot + 2 warm >= 3) but is
    // not admitted: the threshold rounds up to its upper bound so the
    // promoter never overshoots the target.
    EXPECT_DOUBLE_EQ(source.hotThreshold(), 4.0);

    // A top-heavy population must still flow: when the crossing bucket
    // has nothing above it, its lower bound applies instead.
    cfg.targetQuantile = 0.9; // target = ceil(0.1 * 4 tracked) = 1
    source.advanceEpoch();
    EXPECT_DOUBLE_EQ(source.hotThreshold(), 8.0);
}

TEST(NeoProf, ExtractConsumesAndHonoursThreshold)
{
    TestMachine m(4096, 4096);
    HotnessConfig cfg = fastConfig("neoprof");
    cfg.hotThreshold = 1; // every tracked page qualifies
    NeoProfSource source(cfg);
    source.attach(m.kernel);

    const Vpn base = m.kernel.mmap(m.asid, 4, PageType::Anon, "a");
    for (int i = 0; i < 4; ++i)
        m.kernel.access(m.asid, base + i, AccessKind::Store, m.cxl());
    // Page 0 hottest.
    for (int f = 0; f < 5; ++f)
        m.kernel.access(m.asid, base, AccessKind::Load, 0);

    const std::vector<HotPage> hot = source.extractHot(2);
    ASSERT_EQ(hot.size(), 2u);
    EXPECT_EQ(hot[0].pfn, m.pte(base).pfn);
    EXPECT_GT(hot[0].temperature, hot[1].temperature);
    // Consumed: the extracted pages are gone from the table.
    EXPECT_DOUBLE_EQ(source.temperature(m.pte(base).pfn), 0.0);
    EXPECT_EQ(source.trackedPages(), 2u);
}

// ---------------------------------------------------------------------
// ChameleonSource
// ---------------------------------------------------------------------

TEST(ChameleonSource, ScoreWeightsRecentIntervals)
{
    // 4-bit fields: value 3 now beats value 3 one interval ago beats
    // value 1 now.
    const double now3 = ChameleonSource::score(0x3, 4);
    const double prev3 = ChameleonSource::score(0x30, 4);
    const double now1 = ChameleonSource::score(0x1, 4);
    EXPECT_DOUBLE_EQ(now3, 3.0);
    EXPECT_DOUBLE_EQ(prev3, 1.5);
    EXPECT_DOUBLE_EQ(now1, 1.0);
    EXPECT_DOUBLE_EQ(ChameleonSource::score(0, 4), 0.0);
    // Full history still sums.
    EXPECT_DOUBLE_EQ(ChameleonSource::score(0x33, 4), 4.5);
}

TEST(ChameleonSource, ExtractsSampledCxlPages)
{
    TestMachine m(512, 512);
    HotnessConfig cfg = fastConfig("chameleon");
    ChameleonSource source(cfg);
    source.attach(m.kernel);
    source.start();

    const Vpn vpn = m.kernel.mmap(m.asid, 1, PageType::Anon, "c");
    m.kernel.access(m.asid, vpn, AccessKind::Store, m.cxl());

    // The source's profiler taps the kernel's access stream: enough
    // accesses to clear the 1-in-64 sampling period, then cross an
    // interval boundary to fold the collector table into activity
    // words.
    for (int i = 0; i < 256; ++i)
        m.kernel.access(m.asid, vpn, AccessKind::Load, m.cxl());
    ASSERT_EQ(source.chameleon().totalEvents(), 257u);
    m.eq.run(m.eq.now() + cfg.epochPeriod + kMillisecond);

    EXPECT_GT(source.temperature(m.pte(vpn).pfn), 0.0);
    const std::vector<HotPage> hot = source.extractHot(8);
    ASSERT_EQ(hot.size(), 1u);
    EXPECT_EQ(hot[0].pfn, m.pte(vpn).pfn);
    EXPECT_EQ(hot[0].nid, m.cxl());
}

// ---------------------------------------------------------------------
// DamonSource
// ---------------------------------------------------------------------

TEST(DamonSource, RegionTemperatureReachesPages)
{
    TestMachine m(2048, 2048);
    HotnessConfig cfg = fastConfig("damon");
    cfg.epochPeriod = 20 * kMillisecond;
    DamonSource source(cfg);
    source.attach(m.kernel);

    // A hot range on the CXL node, mapped before the monitor builds
    // its initial regions, then kept hot while it samples.
    const Vpn base = m.kernel.mmap(m.asid, 64, PageType::Anon, "a");
    for (int i = 0; i < 64; ++i)
        m.kernel.access(m.asid, base + i, AccessKind::Store, m.cxl());
    source.start();
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 64; ++i)
            m.kernel.access(m.asid, base + i, AccessKind::Load, 0);
        m.eq.run(m.eq.now() + 2 * kMillisecond);
    }
    ASSERT_GT(source.monitor().aggregationsDone(), 2u);

    const std::vector<HotPage> hot = source.extractHot(64);
    ASSERT_FALSE(hot.empty());
    for (const HotPage &page : hot) {
        EXPECT_EQ(page.nid, m.cxl());
        EXPECT_GT(page.temperature, 0.0);
        EXPECT_DOUBLE_EQ(source.temperature(page.pfn),
                         page.temperature);
    }
}

// ---------------------------------------------------------------------
// HotnessPolicy
// ---------------------------------------------------------------------

TEST(HotnessPolicy, NeoProfEpochLoopPromotesHotPages)
{
    TestMachine m(2048, 2048, makeHotnessPolicy(fastConfig("neoprof")));
    m.kernel.trace().enable();

    const Vpn base = m.kernel.mmap(m.asid, 32, PageType::Anon, "a");
    for (int i = 0; i < 32; ++i)
        m.kernel.access(m.asid, base + i, AccessKind::Store, m.cxl());

    // Keep the pages hot across several epochs.
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 32; ++i)
            m.kernel.access(m.asid, base + i, AccessKind::Load, 0);
        m.eq.run(m.eq.now() + 10 * kMillisecond);
    }

    auto &policy = static_cast<HotnessPolicy &>(m.kernel.policy());
    EXPECT_GT(policy.epochs(), 2u);
    EXPECT_GT(m.kernel.vmstat().get(Vm::PgPromoteSuccess), 0u);
    EXPECT_GT(m.kernel.vmstat().get(Vm::HotnessPromoteBatch), 0u);

    // The hot set ended up local.
    std::uint64_t moved = 0;
    for (int i = 0; i < 32; ++i)
        moved += (m.frameOf(base + i).nid == m.local());
    EXPECT_GT(moved, 16u);

    // The epoch tracepoint fired with the promoted count in aux.
    bool saw_epoch = false;
    for (const TraceRecord &r : m.kernel.trace().snapshot())
        if (r.event == TraceEvent::HotnessEpoch && r.aux > 0)
            saw_epoch = true;
    EXPECT_TRUE(saw_epoch);
}

TEST(HotnessPolicy, HintFaultSourceRunsTheScanner)
{
    TestMachine m(512, 512, makeHotnessPolicy(fastConfig("hintfault")));
    // The hintfault source needs NUMA sampling: CXL-only scanning stays
    // on, exactly like stock TPP.
    EXPECT_FALSE(m.kernel.policy().scanNode(m.local()));
    EXPECT_TRUE(m.kernel.policy().scanNode(m.cxl()));
}

TEST(HotnessPolicy, DeviceSourceDisablesTheScanner)
{
    TestMachine m(512, 512, makeHotnessPolicy(fastConfig("neoprof")));
    // Device counters need no prot_none faults: scanning is pure
    // overhead and must be off for every node.
    EXPECT_FALSE(m.kernel.policy().scanNode(m.local()));
    EXPECT_FALSE(m.kernel.policy().scanNode(m.cxl()));
    m.eq.run(m.eq.now() + 200 * kMillisecond);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::NumaPteUpdates), 0u);
}

TEST(HotnessPolicy, HintFaultsFeedSourceWithoutInlinePromotion)
{
    HotnessConfig cfg = fastConfig("hintfault");
    cfg.hotThreshold = 100; // never hot: isolates the inline path
    TestMachine m(512, 512, makeHotnessPolicy(cfg));

    const Vpn vpn = m.kernel.mmap(m.asid, 1, PageType::Anon, "a");
    m.kernel.access(m.asid, vpn, AccessKind::Store, m.cxl());
    for (int i = 0; i < 4; ++i) {
        m.kernel.sampleNode(m.cxl(), 1);
        m.kernel.access(m.asid, vpn, AccessKind::Load, 0);
    }
    // Stock TPP would have promoted by the second fault; the hotness
    // policy only records temperature and leaves the page in place.
    EXPECT_EQ(m.frameOf(vpn).nid, m.cxl());
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgPromoteTry), 0u);
    auto &policy = static_cast<HotnessPolicy &>(m.kernel.policy());
    EXPECT_GT(policy.source().temperature(m.pte(vpn).pfn), 0.0);
}

TEST(HotnessPolicy, SysctlSurface)
{
    TestMachine m(512, 512, makeHotnessPolicy(fastConfig("neoprof")));
    SysctlRegistry &sysctl = m.kernel.sysctl();

    EXPECT_EQ(sysctl.get("vm.hotness.source"), "neoprof");
    EXPECT_FALSE(sysctl.set("vm.hotness.source", "damon")); // read-only

    ASSERT_TRUE(sysctl.set("vm.hotness.counter_table_size", "64"));
    ASSERT_TRUE(sysctl.set("vm.hotness.decay_half_life_ns", "5000000"));
    ASSERT_TRUE(sysctl.set("vm.hotness.target_quantile", "0.75"));
    ASSERT_TRUE(sysctl.set("vm.hotness.promote_batch", "17"));
    ASSERT_TRUE(sysctl.set("vm.hotness.hot_threshold", "9"));

    auto &policy = static_cast<HotnessPolicy &>(m.kernel.policy());
    EXPECT_EQ(policy.hotnessConfig().counterTableSize, 64u);
    EXPECT_EQ(policy.hotnessConfig().decayHalfLife, 5 * kMillisecond);
    EXPECT_DOUBLE_EQ(policy.hotnessConfig().targetQuantile, 0.75);
    EXPECT_EQ(policy.hotnessConfig().promoteBatch, 17u);
    EXPECT_EQ(policy.hotnessConfig().hotThreshold, 9u);
    // TPP's knobs ride along unchanged (inheritance, not a fork).
    EXPECT_TRUE(sysctl.exists("vm.demote_scale_factor"));
}

TEST(HotnessPolicy, DemotionSideStillWorks)
{
    // The TPP demotion machinery is inherited: filling local memory
    // past the watermarks must demote to CXL, not swap.
    TestMachine m(256, 1024, makeHotnessPolicy(fastConfig("neoprof")));
    // Fill local past the demotion trigger with cold pages.
    const Vpn base = m.kernel.mmap(m.asid, 250, PageType::Anon, "a");
    for (int i = 0; i < 250; ++i)
        m.kernel.access(m.asid, base + i, AccessKind::Store, 0);
    for (int i = 0; i < 250; ++i)
        m.frameOf(base + i).clearFlag(PageFrame::FlagReferenced);
    m.kernel.wakeKswapd(m.local());
    m.eq.run(m.eq.now() + kSecond);
    EXPECT_GT(m.kernel.vmstat().get(Vm::PgDemoteAnon) +
                  m.kernel.vmstat().get(Vm::PgDemoteFile),
              0u);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PswpOut), 0u);
}

// ---------------------------------------------------------------------
// Telemetry plumbing
// ---------------------------------------------------------------------

TEST(HotnessTelemetry, CounterAndEventNames)
{
    EXPECT_STREQ(vmName(Vm::HotnessCounterEvict),
                 "hotness_counter_evict");
    EXPECT_STREQ(vmName(Vm::HotnessThresholdRaise),
                 "hotness_threshold_raise");
    EXPECT_STREQ(vmName(Vm::HotnessThresholdLower),
                 "hotness_threshold_lower");
    EXPECT_STREQ(vmName(Vm::HotnessPromoteBatch),
                 "hotness_promote_batch");
}

TEST(HotnessTelemetry, EvictionTracepointCarriesThePage)
{
    TestMachine m(512, 512);
    m.kernel.trace().enable();
    HotnessConfig cfg = fastConfig("neoprof");
    cfg.counterTableSize = 1;
    NeoProfSource source(cfg);
    source.attach(m.kernel);

    const Vpn base = m.kernel.mmap(m.asid, 2, PageType::Anon, "a");
    m.kernel.access(m.asid, base, AccessKind::Store, m.cxl());
    m.kernel.access(m.asid, base + 1, AccessKind::Store, m.cxl());

    bool saw_evict = false;
    for (const TraceRecord &r : m.kernel.trace().snapshot()) {
        if (r.event != TraceEvent::HotnessEvict)
            continue;
        saw_evict = true;
        EXPECT_TRUE(r.hasPage);
        EXPECT_EQ(r.vpn, base);
        EXPECT_EQ(r.asid, m.asid);
    }
    EXPECT_TRUE(saw_evict);
}

TEST(HotnessTelemetry, ThresholdTracepointOnRetune)
{
    TestMachine m(4096, 4096);
    m.kernel.trace().enable();
    HotnessConfig cfg = fastConfig("neoprof");
    cfg.hotThreshold = 8;
    NeoProfSource source(cfg);
    source.attach(m.kernel);

    const Vpn base = m.kernel.mmap(m.asid, 4, PageType::Anon, "a");
    for (int i = 0; i < 4; ++i)
        m.kernel.access(m.asid, base + i, AccessKind::Store, m.cxl());
    source.advanceEpoch();

    bool saw_threshold = false;
    for (const TraceRecord &r : m.kernel.trace().snapshot()) {
        if (r.event != TraceEvent::HotnessThreshold)
            continue;
        saw_threshold = true;
        EXPECT_EQ(r.aux, static_cast<std::uint32_t>(source.hotThreshold()));
    }
    EXPECT_TRUE(saw_threshold);
}

} // namespace
} // namespace tpp
