/**
 * @file
 * Shared fixtures for the unit and integration tests: a small tiered
 * machine with a kernel, one process, and helpers to populate memory.
 */

#ifndef TPP_TESTS_TEST_COMMON_HH
#define TPP_TESTS_TEST_COMMON_HH

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "mm/kernel.hh"
#include "policy/default_linux.hh"
#include "sim/logging.hh"
#include "workloads/synthetic.hh"

namespace tpp {
namespace test {

/**
 * A machine with one local and one CXL node plus a kernel and process.
 */
struct TestMachine {
    EventQueue eq;
    MemorySystem mem;
    Kernel kernel;
    Asid asid;

    explicit TestMachine(std::uint64_t local_pages = 1024,
                         std::uint64_t cxl_pages = 1024,
                         std::unique_ptr<PlacementPolicy> policy =
                             std::make_unique<DefaultLinuxPolicy>(),
                         MigrationConfig migration = {})
        : mem(TopologyBuilder::cxlSystem(local_pages, cxl_pages)),
          kernel(mem, eq, std::move(policy), MmCosts{}, migration),
          asid(kernel.createProcess())
    {
        setLogVerbose(false);
        kernel.start();
    }

    /** Map a region and touch every page once. */
    Vpn
    populate(std::uint64_t pages, PageType type = PageType::Anon,
             bool disk_backed = false, NodeId task_nid = 0)
    {
        const Vpn base =
            kernel.mmap(asid, pages, type, "test", disk_backed);
        for (std::uint64_t i = 0; i < pages; ++i)
            kernel.access(asid, base + i, AccessKind::Store, task_nid);
        return base;
    }

    Pte &pte(Vpn vpn) { return kernel.addressSpace(asid).pte(vpn); }

    PageFrame &frameOf(Vpn vpn) { return mem.frame(pte(vpn).pfn); }

    NodeId local() const { return mem.cpuNodes().front(); }
    NodeId cxl() const { return mem.cxlNodes().front(); }
};

/**
 * A fake access tap: calls `fn` with every access `kernel` reports
 * while the tap lives.
 */
class ScopedTap : public KernelAccessTap
{
  public:
    using Fn = std::function<void(const AccessEvent &)>;

    ScopedTap(Kernel &kernel, Fn fn) : kernel_(kernel), fn_(std::move(fn))
    {
        kernel_.addAccessTap(*this);
    }
    ~ScopedTap() override { kernel_.removeAccessTap(*this); }

    void onKernelAccess(const AccessEvent &event) override { fn_(event); }

  private:
    Kernel &kernel_;
    Fn fn_;
};

/**
 * Sets which loop draws every synthetic workload's accesses while it
 * lives, then hands the choice back to the spare-CPU rule.
 */
class ScopedDrawAhead
{
  public:
    explicit ScopedDrawAhead(SyntheticWorkload::DrawAhead mode)
    {
        SyntheticWorkload::setDrawAheadForTest(mode);
    }
    ~ScopedDrawAhead()
    {
        SyntheticWorkload::setDrawAheadForTest(
            SyntheticWorkload::DrawAhead::Auto);
    }

    ScopedDrawAhead(const ScopedDrawAhead &) = delete;
    ScopedDrawAhead &operator=(const ScopedDrawAhead &) = delete;
};

/** The loops that can draw accesses, forced: inline, then drawn ahead. */
inline constexpr SyntheticWorkload::DrawAhead kBothLoops[] = {
    SyntheticWorkload::DrawAhead::Never,
    SyntheticWorkload::DrawAhead::Always,
};

/** "inline" or "drawn ahead", for a SCOPED_TRACE. */
inline const char *
loopName(SyntheticWorkload::DrawAhead mode)
{
    return mode == SyntheticWorkload::DrawAhead::Never ? "inline"
                                                       : "drawn ahead";
}

/** FNV-1a over the eight bytes of `word`, for golden stream hashes. */
inline std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (word >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/**
 * FNV-1a over every field of `r`, doubles by bit pattern and strings
 * by length and bytes, containers by size and then element by element.
 * Two results hash equal only if every number they carry is
 * bit-identical, so one value pins a whole run.
 */
inline std::uint64_t
resultFingerprint(const ExperimentResult &r)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto u = [&hash](std::uint64_t word) { hash = fnv1a(hash, word); };
    const auto d = [&u](double value) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        u(bits);
    };
    const auto s = [&u](const std::string &text) {
        u(text.size());
        for (const unsigned char c : text)
            u(c);
    };
    const auto open_loop = [&](const OpenLoopResult &ol) {
        u(ol.enabled);
        d(ol.offeredQps);
        s(ol.arrival);
        u(ol.requests);
        u(ol.dropped);
        for (double v : {ol.p50Ns, ol.p99Ns, ol.p999Ns, ol.maxNs, ol.meanNs,
                         ol.meanQueueDepth})
            d(v);
        u(ol.maxQueueDepth);
        d(ol.goodputQps);
        d(ol.sloP99Us);
        d(ol.sloAttainment);
    };

    s(r.workload);
    s(r.policy);
    for (double v : {r.throughput, r.meanAccessLatencyNs, r.localTrafficShare,
                     r.cxlTrafficShare, r.anonLocalResidency,
                     r.fileLocalResidency})
        d(v);
    for (std::size_t i = 0; i < kNumVmCounters; ++i)
        u(r.vmstat.get(static_cast<Vm>(i)));

    u(r.meminfo.totalPages);
    u(r.meminfo.totalFree);
    u(r.meminfo.swapUsedSlots);
    u(r.meminfo.nodes.size());
    for (const NodeMemInfo &n : r.meminfo.nodes) {
        u(n.nid);
        s(n.name);
        for (std::uint64_t v :
             {std::uint64_t{n.cpuLess}, n.capacityPages, n.freePages, n.min,
              n.low, n.high, n.demoteTrigger, n.demoteTarget, n.activeAnon,
              n.inactiveAnon, n.activeFile, n.inactiveFile})
            u(v);
    }

    u(r.samples.size());
    for (const IntervalSample &x : r.samples) {
        u(x.tick);
        for (double v : {x.localShare, x.promotionRate, x.demotionRate,
                         x.localAllocRate, x.throughput})
            d(v);
        for (std::uint64_t v : {x.localFree, x.queueDepth, x.anonResident,
                                x.fileResident, x.anonOnLocal, x.fileOnLocal})
            u(v);
    }

    u(r.trace.size());
    for (const TraceRecord &t : r.trace) {
        for (std::uint64_t v :
             {std::uint64_t{t.tick}, std::uint64_t{t.vpn},
              std::uint64_t{t.pfn}, std::uint64_t{t.asid},
              std::uint64_t{t.aux}, static_cast<std::uint64_t>(t.event),
              std::uint64_t{t.node}, std::uint64_t{t.type},
              std::uint64_t{t.hasPage}})
            u(v);
    }
    u(r.traceEmitted);
    u(r.traceDropped);

    u(r.series.size());
    for (const TimeSeriesPoint &p : r.series) {
        u(p.tick);
        u(p.windowNs);
        for (std::uint64_t v : p.vmDelta)
            u(v);
        u(p.nodes.size());
        for (const NodeUsagePoint &n : p.nodes) {
            for (std::uint64_t v :
                 {std::uint64_t{n.nid}, std::uint64_t{n.cpuLess},
                  n.freePages, n.activeAnon, n.inactiveAnon, n.activeFile,
                  n.inactiveFile})
                u(v);
        }
    }

    u(r.chameleonIntervals.size());
    for (const ChameleonIntervalStats &c : r.chameleonIntervals) {
        u(c.tick);
        for (std::uint64_t v :
             {c.touchedByType[0], c.touchedByType[1], c.touchedTotal,
              c.frequentTotal, c.residentByType[0], c.residentByType[1],
              c.residentTotal})
            u(v);
        for (std::uint64_t v : c.reaccessGap)
            u(v);
    }
    d(r.chameleonHotFraction);
    d(r.chameleonHotFractionAnon);
    d(r.chameleonHotFractionFile);
    d(r.hotSetRecall);
    u(r.hotSetPages);

    u(r.nodes.size());
    for (const NodeResult &n : r.nodes) {
        s(n.name);
        for (std::uint64_t v : {std::uint64_t{n.tierRank}, n.capacityPages,
                                n.anonPages, n.filePages, n.freePages})
            u(v);
        d(n.trafficShare);
    }

    u(r.tenants.size());
    for (const TenantResult &t : r.tenants) {
        s(t.name);
        s(t.workload);
        d(t.throughput);
        d(t.meanAccessLatencyNs);
        d(t.localResidency);
        u(t.pagesLocal);
        u(t.pagesTotal);
        d(t.hotSetRecall);
        u(t.hotSetPages);
        const MemcgStats &m = t.memcg;
        for (std::uint64_t v :
             {m.pagesCharged, m.pagesUncharged, m.promoteCandidates,
              m.promoteSuccess, m.demotions, m.reclaimProtected, m.reclaimLow,
              m.migrateThrottled, m.requestsTotal, m.requestsSloMet})
            u(v);
        open_loop(t.openLoop);
    }
    open_loop(r.openLoop);

    for (std::uint64_t v :
         {std::uint64_t{r.shard.regions}, std::uint64_t{r.shard.workers},
          r.shard.epochs, r.shard.regionLowWatermarkEpochs,
          r.shard.pressureEpochs})
        u(v);
    d(r.shard.rebalancedMBps);
    s(r.error);
    return hash;
}

} // namespace test
} // namespace tpp

#endif // TPP_TESTS_TEST_COMMON_HH
