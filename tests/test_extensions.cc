/**
 * @file
 * Tests for the extension features beyond the paper's core mechanism:
 * the promotion rate limit (upstream follow-up knob) and Chameleon's
 * multi-bit frequency mode, plus failure-injection scenarios (swap
 * exhaustion, full machines, OOM behaviour).
 */

#include "chameleon/chameleon.hh"
#include "core/tpp_policy.hh"
#include "test_common.hh"

namespace tpp {
namespace {

using test::TestMachine;

TEST(PromoteRateLimit, DisabledByDefault)
{
    TppConfig cfg;
    TestMachine m(512, 512, std::make_unique<TppPolicy>(cfg));
    const Vpn base = m.kernel.mmap(m.asid, 8, PageType::Anon, "a");
    for (int i = 0; i < 8; ++i)
        m.kernel.access(m.asid, base + i, AccessKind::Store, m.cxl());
    for (int round = 0; round < 2; ++round) {
        m.kernel.sampleNode(m.cxl(), 8);
        for (int i = 0; i < 8; ++i)
            m.kernel.access(m.asid, base + i, AccessKind::Load, 0);
    }
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgPromoteSuccess), 8u);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgPromoteFailRateLimit), 0u);
}

TEST(PromoteRateLimit, CapsPromotionBurst)
{
    TppConfig cfg;
    // ~0.08 MB burst = 2 pages of burst allowance.
    cfg.promoteRateLimitMBps = 0.08;
    TestMachine m(512, 512, std::make_unique<TppPolicy>(cfg));
    const Vpn base = m.kernel.mmap(m.asid, 16, PageType::Anon, "a");
    for (int i = 0; i < 16; ++i)
        m.kernel.access(m.asid, base + i, AccessKind::Store, m.cxl());
    for (int round = 0; round < 2; ++round) {
        m.kernel.sampleNode(m.cxl(), 16);
        for (int i = 0; i < 16; ++i)
            m.kernel.access(m.asid, base + i, AccessKind::Load, 0);
    }
    // Burst allows only ~2 promotions at t=0; the rest are limited.
    EXPECT_LE(m.kernel.vmstat().get(Vm::PgPromoteSuccess), 3u);
    EXPECT_GT(m.kernel.vmstat().get(Vm::PgPromoteFailRateLimit), 0u);
}

TEST(PromoteRateLimit, TokensRefillOverTime)
{
    TppConfig cfg;
    cfg.promoteRateLimitMBps = 0.08; // ~20 pages/s
    TestMachine m(512, 512, std::make_unique<TppPolicy>(cfg));
    const Vpn base = m.kernel.mmap(m.asid, 4, PageType::Anon, "a");
    for (int i = 0; i < 4; ++i)
        m.kernel.access(m.asid, base + i, AccessKind::Store, m.cxl());
    // Activate all, then drain the bucket.
    m.kernel.sampleNode(m.cxl(), 4);
    for (int i = 0; i < 4; ++i)
        m.kernel.access(m.asid, base + i, AccessKind::Load, 0);
    m.kernel.sampleNode(m.cxl(), 4);
    for (int i = 0; i < 4; ++i)
        m.kernel.access(m.asid, base + i, AccessKind::Load, 0);
    const std::uint64_t early =
        m.kernel.vmstat().get(Vm::PgPromoteSuccess);
    // A second later the bucket has refilled for the stragglers.
    m.eq.run(m.eq.now() + kSecond);
    m.kernel.sampleNode(m.cxl(), 4);
    for (int i = 0; i < 4; ++i)
        m.kernel.access(m.asid, base + i, AccessKind::Load, 0);
    EXPECT_GT(m.kernel.vmstat().get(Vm::PgPromoteSuccess), early);
}

TEST(ChameleonMultiBit, FrequencyCountsSaturate)
{
    TestMachine m;
    ChameleonConfig cfg;
    cfg.samplePeriod = 1;
    cfg.dutyCycle = false;
    cfg.interval = 100 * kMillisecond;
    cfg.bitsPerInterval = 4;
    cfg.frequentThreshold = 3;
    const Vpn base = m.populate(4, PageType::Anon);
    Chameleon cham(m.kernel, cfg);
    EXPECT_EQ(cham.historyIntervals(), 16u);
    cham.start();

    // Page 0: 5 samples (frequent); page 1: 1 sample; others: none.
    for (int i = 0; i < 5; ++i)
        m.kernel.access(m.asid, base, AccessKind::Load, 0);
    m.kernel.access(m.asid, base + 1, AccessKind::Load, 0);
    m.eq.run(150 * kMillisecond);

    ASSERT_GE(cham.intervals().size(), 1u);
    const auto &iv = cham.intervals().front();
    EXPECT_EQ(iv.touchedTotal, 2u);
    EXPECT_EQ(iv.frequentTotal, 1u);
}

TEST(ChameleonMultiBit, GapUsesIntervalFields)
{
    TestMachine m;
    ChameleonConfig cfg;
    cfg.samplePeriod = 1;
    cfg.dutyCycle = false;
    cfg.interval = 100 * kMillisecond;
    cfg.bitsPerInterval = 2;
    const Vpn base = m.populate(1, PageType::Anon);
    Chameleon cham(m.kernel, cfg);
    cham.start();
    m.kernel.access(m.asid, base, AccessKind::Load, 0);
    m.eq.run(210 * kMillisecond); // two interval boundaries
    m.kernel.access(m.asid, base, AccessKind::Load, 0);
    m.eq.run(310 * kMillisecond);
    EXPECT_DOUBLE_EQ(cham.reaccessCdf(1), 0.0);
    EXPECT_DOUBLE_EQ(cham.reaccessCdf(2), 1.0);
}

TEST(ChameleonMultiBitDeathTest, BadBitsRejected)
{
    TestMachine m;
    ChameleonConfig cfg;
    cfg.bitsPerInterval = 3; // does not divide 64
    EXPECT_DEATH({ Chameleon cham(m.kernel, cfg); }, "bitsPerInterval");
}

TEST(FailureInjection, SwapExhaustionStopsReclaimNotTheKernel)
{
    SwapProfile swap;
    swap.capacityPages = 4;
    MemoryConfig mem_cfg = TopologyBuilder::allLocal(64);
    mem_cfg.swap = swap;
    EventQueue eq;
    MemorySystem mem(mem_cfg);
    Kernel kernel(mem, eq, std::make_unique<DefaultLinuxPolicy>());
    kernel.start();
    const Asid asid = kernel.createProcess();
    const Vpn base = kernel.mmap(asid, 32, PageType::Anon, "a");
    for (int i = 0; i < 32; ++i)
        kernel.access(asid, base + i, AccessKind::Store, 0);
    for (int i = 0; i < 32; ++i) {
        PageFrame &f = mem.frame(kernel.addressSpace(asid).pte(base + i).pfn);
        f.clearFlag(PageFrame::FlagReferenced);
    }
    auto [reclaimed, cost] = kernel.directReclaim(0, 16);
    // Only 4 swap slots exist: reclaim progress caps there.
    EXPECT_EQ(reclaimed, 4u);
    EXPECT_EQ(kernel.vmstat().get(Vm::PswpOut), 4u);
    // The kernel survives; accesses still work.
    const AccessResult res =
        kernel.access(asid, base, AccessKind::Load, 0);
    EXPECT_FALSE(res.oom);
}

TEST(FailureInjection, TrueOomReportsInsteadOfCrashing)
{
    SwapProfile swap;
    swap.capacityPages = 0; // unbounded...
    MemoryConfig mem_cfg = TopologyBuilder::allLocal(64);
    swap.capacityPages = 1; // ...no: nearly no swap at all
    mem_cfg.swap = swap;
    EventQueue eq;
    MemorySystem mem(mem_cfg);
    Kernel kernel(mem, eq, std::make_unique<DefaultLinuxPolicy>());
    kernel.start();
    const Asid asid = kernel.createProcess();
    // Map far more hot anon memory than the machine can hold.
    const Vpn base = kernel.mmap(asid, 128, PageType::Anon, "a");
    bool saw_oom = false;
    for (int i = 0; i < 128; ++i) {
        const AccessResult res =
            kernel.access(asid, base + i, AccessKind::Store, 0);
        if (res.oom) {
            saw_oom = true;
            break;
        }
    }
    EXPECT_TRUE(saw_oom);
}

TEST(FailureInjection, FullMachineStillServesResidentPages)
{
    TestMachine m(64, 64);
    const Vpn base = m.kernel.mmap(m.asid, 100, PageType::Anon, "a");
    for (int i = 0; i < 100; ++i)
        m.kernel.access(m.asid, base + i, AccessKind::Store, 0);
    // Machine is nearly full; resident pages keep serving at DRAM/CXL
    // latency regardless.
    for (int i = 0; i < 100; ++i) {
        const Pte &pte = m.pte(base + i);
        if (!pte.present())
            continue;
        const AccessResult res =
            m.kernel.access(m.asid, base + i, AccessKind::Load, 0);
        EXPECT_FALSE(res.oom);
        EXPECT_LT(res.latencyNs, 1000.0);
    }
}

} // namespace
} // namespace tpp
