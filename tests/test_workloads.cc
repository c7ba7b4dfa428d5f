/**
 * @file
 * Unit tests for the synthetic workload engine, the profile factories
 * and the trace-replay workload.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/tpp_policy.hh"
#include "test_common.hh"
#include "workloads/profiles.hh"
#include "workloads/synthetic.hh"
#include "workloads/trace.hh"

namespace tpp {
namespace {

using test::fnv1a;
using test::TestMachine;

WorkloadProfile
tinyProfile()
{
    WorkloadProfile p;
    p.name = "tiny";
    p.opsPerBatch = 50;
    p.accessesPerOp = 2;
    RegionSpec r;
    r.label = "heap";
    r.type = PageType::Anon;
    r.pages = 256;
    r.hotFraction = 0.25;
    r.hotAccessShare = 0.9;
    p.regions.push_back(r);
    return p;
}

TEST(SyntheticWorkload, InitReservesRegions)
{
    TestMachine m(2048, 2048);
    SyntheticWorkload wl(tinyProfile());
    wl.init(m.kernel);
    const AddressSpace &as = m.kernel.addressSpace(wl.asid());
    ASSERT_EQ(as.vmas().size(), 1u);
    EXPECT_EQ(as.vmas()[0].pages, 256u);
    EXPECT_EQ(wl.totalReservedPages(), 256u);
    EXPECT_TRUE(wl.warmedUp()); // no sequential warm-up region
}

TEST(SyntheticWorkload, BatchIssuesConfiguredAccesses)
{
    TestMachine m(2048, 2048);
    SyntheticWorkload wl(tinyProfile());
    wl.init(m.kernel);
    const BatchResult res = wl.runBatch(m.kernel);
    EXPECT_EQ(res.ops, 50u);
    EXPECT_EQ(res.accesses, 100u);
    EXPECT_GT(res.durationNs, 0.0);
    EXPECT_GT(res.memLatencyNs, 0.0);
}

TEST(SyntheticWorkload, WarmupTouchesSequentially)
{
    TestMachine m(2048, 2048);
    WorkloadProfile p = tinyProfile();
    p.regions[0].sequentialWarmup = true;
    p.warmupChunkPages = 64;
    SyntheticWorkload wl(p);
    wl.init(m.kernel);
    EXPECT_FALSE(wl.warmedUp());
    int chunks = 0;
    while (!wl.warmedUp()) {
        const BatchResult res = wl.runBatch(m.kernel);
        EXPECT_EQ(res.ops, 0u); // warm-up completes no operations
        chunks++;
        ASSERT_LT(chunks, 100);
    }
    EXPECT_EQ(chunks, 4); // 256 pages / 64 per chunk
    EXPECT_EQ(m.kernel.addressSpace(wl.asid()).residentPages(), 256u);
}

TEST(SyntheticWorkload, DeterministicAcrossSeeds)
{
    TestMachine m1(2048, 2048);
    TestMachine m2(2048, 2048);
    SyntheticWorkload a(tinyProfile()), b(tinyProfile());
    a.init(m1.kernel);
    b.init(m2.kernel);
    for (int i = 0; i < 5; ++i) {
        const BatchResult ra = a.runBatch(m1.kernel);
        const BatchResult rb = b.runBatch(m2.kernel);
        EXPECT_DOUBLE_EQ(ra.durationNs, rb.durationNs);
        EXPECT_EQ(ra.accesses, rb.accesses);
    }
    EXPECT_EQ(m1.kernel.vmstat().get(Vm::PgFault),
              m2.kernel.vmstat().get(Vm::PgFault));
}

TEST(SyntheticWorkload, GrowthExpandsActiveSet)
{
    TestMachine m(4096, 4096);
    WorkloadProfile p = tinyProfile();
    p.regions[0].pages = 1024;
    p.regions[0].initialActiveFraction = 0.1;
    p.regions[0].growthPagesPerSec = 4096.0;
    SyntheticWorkload wl(p);
    wl.init(m.kernel);
    wl.runBatch(m.kernel);
    const std::uint64_t early =
        m.kernel.addressSpace(wl.asid()).residentPages();
    m.eq.run(m.eq.now() + 200 * kMillisecond);
    for (int i = 0; i < 20; ++i)
        wl.runBatch(m.kernel);
    EXPECT_GT(m.kernel.addressSpace(wl.asid()).residentPages(), early);
}

TEST(SyntheticWorkload, TransientsAllocateAndRetire)
{
    TestMachine m(4096, 4096);
    WorkloadProfile p = tinyProfile();
    p.transient.regionsPerSecond = 1000.0;
    p.transient.regionPages = 8;
    p.transient.lifetime = 50 * kMillisecond;
    SyntheticWorkload wl(p);
    wl.init(m.kernel);
    // Advance time so the allocation credit accrues, then run batches.
    for (int round = 0; round < 10; ++round) {
        m.eq.run(m.eq.now() + 20 * kMillisecond);
        wl.runBatch(m.kernel);
    }
    const AddressSpace &as = m.kernel.addressSpace(wl.asid());
    // Transient VMAs exist but old ones must have been retired: with a
    // 50 ms lifetime at 1000 regions/s, far fewer than the ~200 created
    // can be live at once.
    EXPECT_GT(as.vmas().size(), 1u);
    EXPECT_LT(as.vmas().size(), 80u);
}

TEST(SyntheticWorkload, ChurnReplacesRegion)
{
    TestMachine m(4096, 4096);
    WorkloadProfile p = tinyProfile();
    p.regions[0].churnPeriod = 100 * kMillisecond;
    SyntheticWorkload wl(p);
    wl.init(m.kernel);
    wl.runBatch(m.kernel);
    const std::uint64_t faults_before =
        m.kernel.vmstat().get(Vm::PgFault);
    m.eq.run(m.eq.now() + 200 * kMillisecond);
    wl.runBatch(m.kernel);
    // The region was dropped and re-faulted.
    EXPECT_GT(m.kernel.vmstat().get(Vm::PgFault), faults_before);
}

TEST(SyntheticWorkload, ObserverSeesEveryAccess)
{
    TestMachine m(2048, 2048);
    SyntheticWorkload wl(tinyProfile());
    std::uint64_t observed = 0;
    test::ScopedTap tap(m.kernel, [&](const AccessEvent &) { observed++; });
    wl.init(m.kernel);
    const BatchResult res = wl.runBatch(m.kernel);
    EXPECT_EQ(observed, res.accesses);
}

// ---------------------------------------------------------------------
// Access-stream goldens: the (vpn, kind) stream a profile generates and
// its summed batch results, pinned bit for bit. Batches run on a 1:4 TPP
// machine with the clock stepped between them, so growth, rotation,
// churn, phase flips and transients all fall inside the pinned span,
// and the latency totals pin the kernel's access path too.
// ---------------------------------------------------------------------

struct StreamGolden {
    const char *name;
    std::uint64_t hash; //!< FNV-1a over every observed (vpn, kind)
    std::uint64_t ops;
    std::uint64_t accesses;
    double durationNs;
    double memLatencyNs;
};

/**
 * Run `profile` on a TPP machine with `wss_pages` / 4 local and
 * `wss_pages` CXL pages: at each tick of `ticks` (increasing), run the
 * event queue up to that tick, then one batch of `ops` operations.
 * Check the stream and batch totals against `golden`.
 */
void
expectStreamGoldenAt(const WorkloadProfile &profile,
                     std::uint64_t wss_pages,
                     const std::vector<Tick> &ticks, std::uint64_t ops,
                     const StreamGolden &golden)
{
    SCOPED_TRACE(golden.name);
    TestMachine m(wss_pages / 4, wss_pages, std::make_unique<TppPolicy>());
    SyntheticWorkload wl(profile);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    test::ScopedTap tap(m.kernel, [&hash](const AccessEvent &e) {
        hash = fnv1a(hash, e.vpn);
        hash = fnv1a(hash, static_cast<std::uint64_t>(e.kind));
    });
    wl.init(m.kernel);
    BatchResult totals;
    for (const Tick tick : ticks) {
        if (tick > m.eq.now())
            m.eq.run(tick);
        const BatchResult r = wl.runOps(m.kernel, ops);
        totals.ops += r.ops;
        totals.accesses += r.accesses;
        totals.durationNs += r.durationNs;
        totals.memLatencyNs += r.memLatencyNs;
    }
    EXPECT_EQ(hash, golden.hash);
    EXPECT_EQ(totals.ops, golden.ops);
    EXPECT_EQ(totals.accesses, golden.accesses);
    EXPECT_EQ(totals.durationNs, golden.durationNs);
    EXPECT_EQ(totals.memLatencyNs, golden.memLatencyNs);
}

/** The ticks of `batches` batches, one every 100 ms from tick 0. */
std::vector<Tick>
everyHundredMs(Tick batches)
{
    std::vector<Tick> ticks;
    for (Tick batch = 0; batch < batches; ++batch)
        ticks.push_back(batch * 100 * kMillisecond);
    return ticks;
}

/** Run `profile` for 100 batches of 50 operations, one every 100 ms. */
void
expectStreamGolden(const WorkloadProfile &profile, std::uint64_t wss_pages,
                   const StreamGolden &golden)
{
    expectStreamGoldenAt(profile, wss_pages, everyHundredMs(100), 50, golden);
}

TEST(AccessStreamGolden, NamedProfiles)
{
    const StreamGolden goldens[] = {
        {"web", 0x133b5746bd132f60ULL, 4950, 59618, 0x1.59e73a0153c2p+27,
         0x1.4dd9b54p+27},
        {"cache1", 0x3bce4133d0fad9cbULL, 4950, 42903, 0x1.765b8cp+24,
         0x1.39eeccp+24},
        {"cache2", 0x5f76da6d073ecd51ULL, 4950, 23669,
         0x1.000436745122ep+24, 0x1.621154p+23},
        {"dwh", 0x7995232cb481d85aULL, 4950, 33180, 0x1.8faf97p+25,
         0x1.395331p+25},
        {"churn", 0xf0b7d7ee72092e13ULL, 4950, 223466, 0x1.31d6533p+29,
         0x1.0cd2d27p+29},
        {"phased", 0x16328f3669b26c1eULL, 4900, 43726, 0x1.b87fa8p+26,
         0x1.a98b88p+26},
    };
    for (const StreamGolden &golden : goldens)
        expectStreamGolden(profiles::byName(golden.name, 4096), 4096, golden);
}

/**
 * A profile that takes every branch of the region sampler: a growing
 * region whose hot window follows the frontier and rotates, with an
 * echo zone and phase gating, drawn so rarely that some batches make no
 * hot draw from it; a stage churned and populated on churn; a one-page
 * hot window; a hot window wider than its active pages; transients;
 * and store shares of 0 and 1.
 */
WorkloadProfile
everyBranchProfile()
{
    WorkloadProfile p;
    p.name = "every-branch";
    p.seed = 7;
    p.warmupChunkPages = 256;

    RegionSpec grow;
    grow.label = "grow";
    grow.pages = 2048;
    grow.initialActiveFraction = 0.1;
    grow.growthPagesPerSec = 150.0;
    grow.hotFollowsGrowth = true;
    grow.hotFraction = 0.3;
    grow.hotAccessShare = 0.7;
    grow.echoShare = 0.2;
    grow.rotationPeriod = 250 * kMillisecond;
    grow.rotationStep = 0.1;
    grow.accessWeight = 0.01;
    grow.phasePeriod = 2 * kSecond;
    grow.phaseOffWeight = 0.2;
    p.regions.push_back(grow);

    RegionSpec stage;
    stage.label = "stage";
    stage.pages = 512;
    stage.sequentialWarmup = true;
    stage.hotAccessShare = 0.8;
    stage.echoShare = 0.1;
    stage.zipfTheta = 0.99;
    stage.rotationPeriod = 200 * kMillisecond;
    stage.rotationStep = 0.2;
    stage.churnPeriod = 1500 * kMillisecond;
    stage.churnPhase = 500 * kMillisecond;
    stage.populateOnChurn = true;
    stage.accessWeight = 0.6;
    stage.storeShare = 1.0;
    p.regions.push_back(stage);

    RegionSpec pin;
    pin.label = "pin";
    pin.type = PageType::File;
    pin.pages = 64;
    pin.hotFraction = 0.001; // rounds down to the one-page floor
    pin.hotAccessShare = 0.9;
    pin.echoShare = 0.05;
    pin.rotationPeriod = 100 * kMillisecond;
    pin.rotationStep = 0.5;
    pin.accessWeight = 0.3;
    pin.storeShare = 0.0;
    pin.phasePeriod = 1 * kSecond;
    pin.phaseOffset = 500 * kMillisecond;
    p.regions.push_back(pin);

    RegionSpec wide;
    wide.label = "wide";
    wide.pages = 256;
    wide.initialActiveFraction = 0.5;
    wide.growthPagesPerSec = 10.0;
    wide.hotFraction = 1.25;
    wide.hotAccessShare = 0.9;
    wide.echoShare = 0.05;
    wide.rotationPeriod = 300 * kMillisecond;
    wide.accessWeight = 0.2;
    p.regions.push_back(wide);

    p.transient.regionsPerSecond = 50.0;
    p.transient.regionPages = 8;
    p.transient.lifetime = 300 * kMillisecond;
    p.transient.touchesPerPage = 1.5;
    return p;
}

TEST(AccessStreamGolden, EveryBranchProfile)
{
    expectStreamGolden(everyBranchProfile(), 3072,
                       {"every-branch", 0xe3da628a529ba8e8ULL, 4900, 26052,
                        0x1.829dd4p+23, 0x1.b7074p+22});
}

/**
 * The ticks one before, onto and one after every rotation step and
 * phase edge of `profile` in (0, horizon]. Rotation steps are counted
 * from tick 0, which is a region's creation tick until it churns.
 */
std::vector<Tick>
edgeSchedule(const WorkloadProfile &profile, Tick horizon)
{
    std::vector<Tick> edges;
    for (const RegionSpec &spec : profile.regions) {
        if (spec.rotationPeriod != 0) {
            for (Tick t = spec.rotationPeriod; t <= horizon;
                 t += spec.rotationPeriod)
                edges.push_back(t);
        }
        if (spec.phasePeriod == 0)
            continue;
        // On while (t + offset) % period < duty * period.
        const Tick shift = spec.phaseOffset % spec.phasePeriod;
        const Tick on = static_cast<Tick>(std::ceil(
            spec.phaseDuty * static_cast<double>(spec.phasePeriod)));
        for (Tick cycle = 0; cycle <= horizon + shift;
             cycle += spec.phasePeriod) {
            for (const Tick edge : {cycle, cycle + on}) {
                if (edge > shift && edge - shift <= horizon)
                    edges.push_back(edge - shift);
            }
        }
    }
    std::vector<Tick> ticks;
    for (const Tick edge : edges) {
        ticks.push_back(edge - 1);
        ticks.push_back(edge);
        ticks.push_back(edge + 1);
    }
    std::sort(ticks.begin(), ticks.end());
    ticks.erase(std::unique(ticks.begin(), ticks.end()), ticks.end());
    return ticks;
}

TEST(AccessStreamGolden, StepsAcrossRotationAndPhaseEdges)
{
    // Batches land one tick before, onto and one after each edge, so a
    // cached geometry or weight table kept one tick too long shows
    // here. Odd phase periods and duties put the on/off threshold
    // between two ticks.
    WorkloadProfile p = everyBranchProfile();
    p.regions[0].phaseDuty = 0.45;
    p.regions[2].phasePeriod = kSecond + 7;
    p.regions[2].phaseDuty = 0.3;
    expectStreamGoldenAt(p, 3072, edgeSchedule(p, 4 * kSecond), 20,
                         {"every-branch edges", 0x3acf9e5e870d00b6ULL, 3320,
                          16192, 0x1.a7dd88p+22, 0x1.cc4d3p+21});
    // Nothing grows here, so between rotation steps only a churn can
    // make the geometry stale; the odd churn period lands it off-edge.
    WorkloadProfile still = p;
    still.regions[0].growthPagesPerSec = 0.0;
    still.regions[3].growthPagesPerSec = 0.0;
    still.regions[1].churnPeriod = 1500 * kMillisecond + 3;
    expectStreamGoldenAt(still, 3072, edgeSchedule(still, 4 * kSecond), 20,
                         {"churn off-edge", 0x88e18d8a74778509ULL, 3320,
                          16192, 0x1.825b8p+22, 0x1.bf431p+21});
    const WorkloadProfile phased = profiles::byName("phased", 4096);
    expectStreamGoldenAt(phased, 4096, edgeSchedule(phased, 7 * kSecond),
                         20,
                         {"phased edges", 0x4920f6c9be71ce3dULL, 1640, 25118,
                          0x1.1b35248000002p+26, 0x1.1633e48000002p+26});
}

TEST(AccessStreamGolden, RunBatchSizedBatches)
{
    // A full-size batch is drawn in many chunks and ends on a partial
    // one (2000 x 4, 1500 x 6 and 2000 x 6 accesses).
    const StreamGolden goldens[] = {
        {"cache1", 0xcb608034b40ca2d8ULL, 38000, 159743, 0x1.d1f9c9p+25,
         0x1.d41592p+24},
        {"dwh", 0x6546a9d153c15dd4ULL, 28500, 174480, 0x1.0a46e5p+26,
         0x1.0fa0eap+25},
        {"churn", 0xbf6169b0494725f1ULL, 38000, 268166, 0x1.8d743b8p+30,
         0x1.871cb28p+30},
    };
    for (const StreamGolden &golden : goldens) {
        const WorkloadProfile p = profiles::byName(golden.name, 4096);
        expectStreamGoldenAt(p, 4096, everyHundredMs(20), p.opsPerBatch,
                             golden);
    }
}

TEST(AccessStreamGolden, EveryBranchProfileOpSizes)
{
    // No access per op (think time and maintenance only), and one op
    // longer than a draw chunk.
    WorkloadProfile none = everyBranchProfile();
    none.accessesPerOp = 0;
    expectStreamGolden(none, 3072,
                       {"no accesses", 0x03ce63b08c851b28ULL, 4900, 6452,
                        0x1.1aba48p+23, 0x1.d056ap+21});
    WorkloadProfile wide = everyBranchProfile();
    wide.accessesPerOp = 300;
    expectStreamGolden(wide, 3072,
                       {"300 per op", 0xff25fc69aabdf2baULL, 4900, 1476452,
                        0x1.18b7e6cp+27, 0x1.0e3cdd4p+27});
}

TEST(AccessStreamGolden, GrowingAndShrinkingRegions)
{
    // Active pages move on every batch, up to the reservation and down
    // to one page, and most draws are uniform over them.
    WorkloadProfile p;
    p.name = "grow";
    p.seed = 11;
    RegionSpec grow;
    grow.label = "grow";
    grow.pages = 3000;
    grow.initialActiveFraction = 0.05;
    grow.growthPagesPerSec = 900.0;
    grow.hotAccessShare = 0.2;
    grow.echoShare = 0.1;
    p.regions.push_back(grow);
    RegionSpec shrink;
    shrink.label = "shrink";
    shrink.pages = 1000;
    shrink.growthPagesPerSec = -150.0;
    shrink.hotAccessShare = 0.3;
    shrink.accessWeight = 0.5;
    p.regions.push_back(shrink);
    expectStreamGolden(p, 4096,
                       {"grow", 0x73320e4084955e57ULL, 5000, 20000,
                        0x1.c79d6cp+23, 0x1.7b522cp+23});
}

TEST(PickWeighted, MatchesClampedLowerBound)
{
    const auto check = [](const std::vector<double> &prefix, double pick) {
        const auto bound = static_cast<std::size_t>(
            std::lower_bound(prefix.begin(), prefix.end(), pick) -
            prefix.begin());
        ASSERT_EQ(pickWeighted(prefix.data(), prefix.size(), pick),
                  std::min(bound, prefix.size() - 1))
            << prefix.size() << " entries, pick " << pick;
    };
    // Each prefix mixes zero weights (equal entries), the 1e-9 floor of
    // phase gating and ordinary weights. Picks: random ones, each entry
    // exactly and either side of it, and picks at or past either end.
    Rng rng(19);
    for (int trial = 0; trial < 3000; ++trial) {
        const std::size_t count = 1 + rng.nextBounded(64);
        const std::uint64_t mix = rng.nextBounded(4);
        std::vector<double> prefix;
        double acc = 0.0;
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t kind = mix == 0 ? 0 : rng.nextBounded(mix + 1);
            acc += kind == 0 ? 0.0 : kind == 1 ? 1e-9 : rng.nextDouble();
            prefix.push_back(acc);
        }
        for (int k = 0; k < 8; ++k)
            check(prefix, rng.nextDouble() * acc);
        for (const double entry : prefix) {
            check(prefix, entry);
            check(prefix, std::nextafter(entry, -1.0));
            check(prefix, std::nextafter(entry, 2.0 * entry + 1.0));
        }
        for (const double pick : {0.0, -1.0, acc, 2.0 * acc + 1.0})
            check(prefix, pick);
    }
}

TEST(Profiles, AllFourBuildAndSumNearWss)
{
    for (const char *name : {"web", "cache1", "cache2", "dwh"}) {
        const WorkloadProfile p = profiles::byName(name, 10000);
        EXPECT_FALSE(p.regions.empty());
        std::uint64_t total = 0;
        for (const RegionSpec &r : p.regions)
            total += r.pages;
        EXPECT_GE(total, 9000u);
        EXPECT_LE(total, 10500u);
    }
}

TEST(Profiles, WebShape)
{
    const WorkloadProfile p = profiles::web(10000);
    ASSERT_EQ(p.regions.size(), 2u);
    EXPECT_EQ(p.regions[0].type, PageType::File);
    EXPECT_TRUE(p.regions[0].diskBacked);
    EXPECT_TRUE(p.regions[0].sequentialWarmup);
    EXPECT_EQ(p.regions[1].type, PageType::Anon);
    EXPECT_GT(p.regions[1].growthPagesPerSec, 0.0);
    EXPECT_TRUE(p.regions[1].hotFollowsGrowth);
    EXPECT_GT(p.transient.regionsPerSecond, 0.0);
}

TEST(Profiles, CacheUsesTmpfs)
{
    for (const char *name : {"cache1", "cache2"}) {
        const WorkloadProfile p = profiles::byName(name, 10000);
        bool has_tmpfs = false;
        for (const RegionSpec &r : p.regions) {
            if (r.type == PageType::File) {
                EXPECT_FALSE(r.diskBacked); // tmpfs is swap-backed
                has_tmpfs = true;
            }
        }
        EXPECT_TRUE(has_tmpfs);
    }
}

TEST(Profiles, DwhIsAnonDominated)
{
    const WorkloadProfile p = profiles::dataWarehouse(10000);
    std::uint64_t anon = 0, file = 0;
    for (const RegionSpec &r : p.regions) {
        if (r.type == PageType::Anon)
            anon += r.pages;
        else
            file += r.pages;
    }
    EXPECT_GT(anon, 4 * file);
}

TEST(SyntheticWorkloadDeathTest, ClockMovingInsideABatchPanics)
{
    setLogVerbose(false);
    TestMachine m(2048, 2048);
    SyntheticWorkload wl(tinyProfile());
    // An access tap stands in for anything that would step the clock
    // between two accesses of one batch.
    test::ScopedTap tap(m.kernel, [&m](const AccessEvent &) {
        m.eq.run(m.eq.now() + 1);
    });
    wl.init(m.kernel);
    EXPECT_DEATH(wl.runBatch(m.kernel), "simulated time moved");
}

TEST(SyntheticWorkloadDeathTest, NegativeOrNanAccessWeightIsFatal)
{
    // The region pick searches the running sum of the weights, which
    // such a weight leaves unsorted.
    setLogVerbose(false);
    for (const double weight : {-0.5, std::nan("")}) {
        TestMachine m(2048, 2048);
        WorkloadProfile p = tinyProfile();
        p.regions[0].accessWeight = weight;
        SyntheticWorkload wl(p);
        EXPECT_DEATH(wl.init(m.kernel), "accessWeight must be >= 0");
    }
}

TEST(ProfilesDeathTest, UnknownNameIsFatal)
{
    setLogVerbose(false);
    EXPECT_DEATH(profiles::byName("nope", 1000), "unknown workload");
}

TEST(TraceWorkload, ReplaysInOrder)
{
    TestMachine m(2048, 2048);
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 10; ++i)
        trace.push_back({static_cast<std::uint64_t>(i % 4),
                         AccessKind::Load});
    TraceWorkload wl(4, trace, PageType::Anon, 6);
    wl.init(m.kernel);
    BatchResult r1 = wl.runBatch(m.kernel);
    EXPECT_EQ(r1.accesses, 6u);
    EXPECT_FALSE(wl.done());
    BatchResult r2 = wl.runBatch(m.kernel);
    EXPECT_EQ(r2.accesses, 4u);
    EXPECT_TRUE(wl.done());
    EXPECT_EQ(m.kernel.addressSpace(wl.asid()).residentPages(), 4u);
}

TEST(TraceWorkloadDeathTest, OutOfRangeEntryIsFatal)
{
    setLogVerbose(false);
    EXPECT_DEATH(TraceWorkload(4, {{9, AccessKind::Load}}),
                 "beyond region");
}

} // namespace
} // namespace tpp
