/**
 * @file
 * Unit tests for the Kernel access/fault path: minor faults, major
 * faults (swap-in and disk refault), LRU placement, referenced/dirty
 * tracking, traffic accounting and teardown.
 */

#include <set>
#include <vector>

#include "mm/access_tap.hh"
#include "test_common.hh"

namespace tpp {
namespace {

using test::TestMachine;

TEST(KernelFault, MinorFaultMapsPage)
{
    TestMachine m;
    const Vpn base = m.kernel.mmap(m.asid, 4, PageType::Anon, "a");
    const AccessResult res =
        m.kernel.access(m.asid, base, AccessKind::Load, 0);
    EXPECT_TRUE(res.minorFault);
    EXPECT_FALSE(res.majorFault);
    EXPECT_EQ(res.servedBy, 0);
    EXPECT_TRUE(m.pte(base).present());
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgFault), 1u);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgAlloc), 1u);
    EXPECT_EQ(m.kernel.addressSpace(m.asid).residentPages(), 1u);
}

TEST(KernelFault, SecondAccessIsNotAFault)
{
    TestMachine m;
    const Vpn base = m.kernel.mmap(m.asid, 1, PageType::Anon, "a");
    m.kernel.access(m.asid, base, AccessKind::Load, 0);
    const AccessResult res =
        m.kernel.access(m.asid, base, AccessKind::Load, 0);
    EXPECT_FALSE(res.minorFault);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgFault), 1u);
    // A resident hit costs roughly the node's idle latency.
    EXPECT_NEAR(res.latencyNs, m.mem.node(0).profile().idleLatencyNs,
                5.0);
}

TEST(KernelFault, NewPagesStartInactive)
{
    TestMachine m;
    const Vpn a = m.kernel.mmap(m.asid, 1, PageType::Anon, "a");
    const Vpn f = m.kernel.mmap(m.asid, 1, PageType::File, "f");
    m.kernel.access(m.asid, a, AccessKind::Store, 0);
    m.kernel.access(m.asid, f, AccessKind::Load, 0);
    EXPECT_EQ(m.frameOf(a).lru, LruListId::InactiveAnon);
    EXPECT_EQ(m.frameOf(f).lru, LruListId::InactiveFile);
}

TEST(KernelFault, ReferencedAndDirtyTracking)
{
    TestMachine m;
    const Vpn base = m.kernel.mmap(m.asid, 2, PageType::File, "f");
    m.kernel.access(m.asid, base, AccessKind::Load, 0);
    EXPECT_TRUE(m.frameOf(base).referenced());
    EXPECT_FALSE(m.frameOf(base).dirty());
    m.kernel.access(m.asid, base + 1, AccessKind::Store, 0);
    EXPECT_TRUE(m.frameOf(base + 1).dirty());
    // Anon pages are born dirty.
    const Vpn a = m.kernel.mmap(m.asid, 1, PageType::Anon, "a");
    m.kernel.access(m.asid, a, AccessKind::Load, 0);
    EXPECT_TRUE(m.frameOf(a).dirty());
}

TEST(KernelFault, DiskBackedFirstTouchPaysDiskRead)
{
    TestMachine m;
    const Vpn f = m.kernel.mmap(m.asid, 1, PageType::File, "f", true);
    const Vpn t = m.kernel.mmap(m.asid, 1, PageType::File, "tmpfs");
    const AccessResult disk =
        m.kernel.access(m.asid, f, AccessKind::Load, 0);
    const AccessResult tmpfs =
        m.kernel.access(m.asid, t, AccessKind::Load, 0);
    EXPECT_GT(disk.latencyNs,
              tmpfs.latencyNs + m.kernel.costs().diskReadNs / 2);
}

TEST(KernelFault, SwapInIsMajorFault)
{
    TestMachine m;
    const Vpn base = m.kernel.mmap(m.asid, 1, PageType::Anon, "a");
    m.kernel.access(m.asid, base, AccessKind::Store, 0);
    // Manually page it out through the reclaim path.
    m.frameOf(base).clearFlag(PageFrame::FlagReferenced);
    auto [reclaimed, cost] = m.kernel.directReclaim(0, 1);
    ASSERT_EQ(reclaimed, 1u);
    ASSERT_TRUE(m.pte(base).swapped());
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PswpOut), 1u);

    const AccessResult res =
        m.kernel.access(m.asid, base, AccessKind::Load, 0);
    EXPECT_TRUE(res.majorFault);
    EXPECT_GT(res.latencyNs, 50000.0); // waits on the swap device
    EXPECT_FALSE(m.pte(base).swapped());
    EXPECT_TRUE(m.pte(base).present());
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PswpIn), 1u);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgMajFault), 1u);
}

TEST(KernelFault, DroppedFilePageRefaultsFromDisk)
{
    TestMachine m;
    const Vpn f = m.kernel.mmap(m.asid, 1, PageType::File, "f", true);
    m.kernel.access(m.asid, f, AccessKind::Load, 0);
    m.frameOf(f).clearFlag(PageFrame::FlagReferenced);
    auto [reclaimed, cost] = m.kernel.directReclaim(0, 1);
    ASSERT_EQ(reclaimed, 1u);
    EXPECT_FALSE(m.pte(f).present());
    EXPECT_FALSE(m.pte(f).swapped()); // dropped, not swapped

    const AccessResult res =
        m.kernel.access(m.asid, f, AccessKind::Load, 0);
    EXPECT_TRUE(res.majorFault);
    EXPECT_GT(res.latencyNs, m.kernel.costs().diskReadNs);
}

TEST(KernelFault, TrafficAccounting)
{
    TestMachine m;
    const Vpn a = m.kernel.mmap(m.asid, 2, PageType::Anon, "a");
    const Vpn f = m.kernel.mmap(m.asid, 2, PageType::File, "f");
    m.kernel.access(m.asid, a, AccessKind::Load, 0);
    m.kernel.access(m.asid, a, AccessKind::Load, 0);
    m.kernel.access(m.asid, f, AccessKind::Load, 0);
    const NodeTraffic &t = m.kernel.traffic(0);
    EXPECT_EQ(t.accesses, 3u);
    EXPECT_EQ(t.accessesByType[0], 2u); // anon
    EXPECT_EQ(t.accessesByType[1], 1u); // file
    EXPECT_DOUBLE_EQ(m.kernel.trafficShare(0), 1.0);
    m.kernel.resetTraffic();
    EXPECT_EQ(m.kernel.traffic(0).accesses, 0u);
}

/** Counts the accesses the kernel reports to its access taps. */
struct CountingTap : KernelAccessTap {
    std::uint64_t calls = 0;
    Pfn lastPfn = kInvalidPfn;

    void
    onKernelAccess(const AccessEvent &event) override
    {
        calls++;
        lastPfn = event.pfn;
    }
};

TEST(KernelFault, ResidentHitAccountsLikeAnyAccess)
{
    TestMachine m;
    CountingTap tap;
    m.kernel.addAccessTap(tap);
    const Vpn f = m.kernel.mmap(m.asid, 1, PageType::File, "f");
    m.kernel.access(m.asid, f, AccessKind::Load, 0);
    m.frameOf(f).clearFlag(PageFrame::FlagReferenced);
    const NodeTraffic before = m.kernel.traffic(0);
    const std::uint64_t taps_before = tap.calls;

    const AccessResult load = m.kernel.access(m.asid, f, AccessKind::Load, 0);
    EXPECT_EQ(load.servedBy, 0);
    EXPECT_TRUE(m.frameOf(f).referenced());
    EXPECT_FALSE(m.frameOf(f).dirty());
    m.kernel.access(m.asid, f, AccessKind::Store, 0);
    EXPECT_TRUE(m.frameOf(f).dirty());

    const NodeTraffic &after = m.kernel.traffic(0);
    EXPECT_EQ(after.accesses, before.accesses + 2);
    EXPECT_EQ(after.accessesByType[static_cast<int>(PageType::File)],
              before.accessesByType[static_cast<int>(PageType::File)] + 2);
    EXPECT_EQ(tap.calls, taps_before + 2);
    EXPECT_EQ(tap.lastPfn, m.pte(f).pfn);
    m.kernel.removeAccessTap(tap);
}

TEST(KernelFault, TapSeesEveryAccessOnceWithItsFrame)
{
    // 64 local frames and one swap slot: storing to 128 anon pages
    // runs the machine out of memory.
    MemoryConfig cfg = TopologyBuilder::allLocal(64);
    cfg.swap.capacityPages = 1;
    EventQueue eq;
    MemorySystem mem(cfg);
    Kernel kernel(mem, eq, std::make_unique<DefaultLinuxPolicy>());
    kernel.start();
    const Asid asid = kernel.createProcess();
    const Vpn base = kernel.mmap(asid, 128, PageType::Anon, "a");
    std::vector<AccessEvent> events;
    test::ScopedTap tap(kernel, [&events](const AccessEvent &event) {
        events.push_back(event);
    });

    // One store: exactly one event, naming the frame that served it,
    // and no frame only when the access found none.
    const auto store = [&](Vpn vpn) {
        const std::size_t before = events.size();
        const AccessResult res =
            kernel.access(asid, vpn, AccessKind::Store, 0);
        EXPECT_EQ(events.size(), before + 1);
        const AccessEvent &event = events.back();
        EXPECT_EQ(event.asid, asid);
        EXPECT_EQ(event.vpn, vpn);
        EXPECT_EQ(event.kind, AccessKind::Store);
        EXPECT_EQ(event.tick, eq.now());
        if (res.oom) {
            EXPECT_EQ(event.pfn, kInvalidPfn);
            EXPECT_EQ(event.nid, kInvalidNode);
        } else {
            EXPECT_EQ(event.pfn, kernel.addressSpace(asid).pte(vpn).pfn);
            EXPECT_EQ(event.nid, mem.frame(event.pfn).nid);
        }
        return res;
    };

    EXPECT_TRUE(store(base).minorFault);
    const AccessResult hit = store(base);
    EXPECT_FALSE(hit.minorFault || hit.majorFault || hit.hintFault);
    ASSERT_EQ(kernel.sampleNode(0, 1), 1u);
    EXPECT_TRUE(store(base).hintFault);
    bool oom = false;
    for (Vpn vpn = base + 1; vpn < base + 128 && !oom; ++vpn)
        oom = store(vpn).oom;
    EXPECT_TRUE(oom);
}

TEST(KernelFault, ResidentHitPaysTheModelLatencyInEveryWindow)
{
    TestMachine m;
    const Vpn local = m.populate(8, PageType::Anon, false, m.local());
    const Vpn cxl = m.populate(8, PageType::Anon, false, m.cxl());
    const LatencyModel &model = m.mem.latencyModel();
    std::set<double> seen;
    const auto expect_fresh = [&](Vpn vpn, NodeId nid) {
        const AccessResult res =
            m.kernel.access(m.asid, vpn, AccessKind::Load, 0);
        ASSERT_EQ(res.servedBy, nid);
        EXPECT_EQ(res.latencyNs,
                  model.accessLatencyNs(m.mem.node(nid), m.eq.now()));
        seen.insert(res.latencyNs);
    };
    const auto expect_all_fresh = [&] {
        for (Vpn i = 0; i < 8; ++i) {
            expect_fresh(local + i, m.local());
            expect_fresh(cxl + i, m.cxl());
        }
    };

    // Load both nodes by a different amount in each 1 ms EWMA window.
    // The migration-sized traffic lands at the tick of the accesses
    // around it; the utilisation it adds shows once the window rolls.
    for (int window = 0; window < 12; ++window) {
        expect_all_fresh();
        for (int i = 0; i < 6000 * (window % 4); ++i) {
            m.mem.node(m.local()).recordTraffic(m.eq.now(), kPageSize);
            m.mem.node(m.cxl()).recordTraffic(m.eq.now(), kPageSize);
        }
        expect_all_fresh();
        m.eq.run(m.eq.now() + kMillisecond);
    }
    EXPECT_GT(seen.size(), 8u); // the load really moved the latency

    // An idle gap past 64 windows resets the EWMA: back to idle cost.
    m.eq.run(m.eq.now() + 100 * kMillisecond);
    expect_all_fresh();
    EXPECT_EQ(m.kernel.access(m.asid, local, AccessKind::Load, 0).latencyNs,
              m.mem.node(m.local()).profile().idleLatencyNs);

    // A clock reset brings back a tick whose latency was taken under
    // another load; the node's EWMA, not the tick, decides the cost.
    const Tick revisit = m.eq.now();
    for (int i = 0; i < 20000; ++i) {
        m.mem.node(m.local()).recordTraffic(revisit, kPageSize);
        m.mem.node(m.cxl()).recordTraffic(revisit, kPageSize);
    }
    m.eq.run(revisit + 3 * kMillisecond);
    m.mem.node(m.local()).utilization(m.eq.now());
    m.mem.node(m.cxl()).utilization(m.eq.now());
    m.eq.reset();
    m.eq.run(revisit);
    expect_all_fresh();
    EXPECT_GT(m.kernel.access(m.asid, local, AccessKind::Load, 0).latencyNs,
              m.mem.node(m.local()).profile().idleLatencyNs);
}

TEST(KernelFault, MunmapFreesFramesAndSwap)
{
    TestMachine m;
    const Vpn base = m.kernel.mmap(m.asid, 4, PageType::Anon, "a");
    for (int i = 0; i < 4; ++i)
        m.kernel.access(m.asid, base + i, AccessKind::Store, 0);
    // Swap one page out first.
    m.frameOf(base).clearFlag(PageFrame::FlagReferenced);
    m.kernel.directReclaim(0, 1);
    ASSERT_TRUE(m.pte(base).swapped());
    const std::uint64_t free_before = m.mem.node(0).freePages();

    m.kernel.munmap(m.asid, base, 4);
    EXPECT_EQ(m.mem.node(0).freePages(), free_before + 3);
    EXPECT_EQ(m.mem.swapDevice().usedSlots(), 0u);
    EXPECT_EQ(m.kernel.addressSpace(m.asid).residentPages(), 0u);
    EXPECT_EQ(m.kernel.lru(0).countAll(), 0u);
}

TEST(KernelFault, TaskNodePreferenceDrivesPlacement)
{
    TestMachine m;
    const Vpn base = m.kernel.mmap(m.asid, 1, PageType::Anon, "a");
    // Fault from a task notionally on the CXL node: default policy
    // allocates local to the task.
    const AccessResult res =
        m.kernel.access(m.asid, base, AccessKind::Store, m.cxl());
    EXPECT_EQ(res.servedBy, m.cxl());
}

TEST(KernelFaultDeathTest, UnmappedAccessPanics)
{
    TestMachine m;
    m.kernel.mmap(m.asid, 1, PageType::Anon, "a");
    EXPECT_DEATH(m.kernel.access(m.asid, 99, AccessKind::Load, 0),
                 "unmapped");
}

TEST(KernelFaultDeathTest, BadAsidPanics)
{
    TestMachine m;
    EXPECT_DEATH(m.kernel.addressSpace(42), "bad asid");
}

} // namespace
} // namespace tpp
