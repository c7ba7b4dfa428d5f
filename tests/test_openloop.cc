/**
 * @file
 * Open-loop traffic layer tests: arrival-process determinism and rate
 * accuracy, the latency histogram, ExperimentConfig::validate(), the
 * driver's queueing behaviour under an offered rate, the golden
 * fingerprints that pin closed-loop results bit-identical across the
 * spec/open-loop API redesign, and the open-loop goldens that pin the
 * request-serving path itself.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "sim/logging.hh"
#include "test_common.hh"
#include "workloads/arrival.hh"
#include "workloads/latency.hh"

namespace {

using namespace tpp;

// ---------------------------------------------------------------------
// ArrivalProcess
// ---------------------------------------------------------------------

TEST(Arrival, KnownShapes)
{
    EXPECT_TRUE(ArrivalProcess::known("poisson"));
    EXPECT_TRUE(ArrivalProcess::known("bursty"));
    EXPECT_TRUE(ArrivalProcess::known("diurnal"));
    EXPECT_FALSE(ArrivalProcess::known("fractal"));
    const std::string names = ArrivalProcess::knownNames();
    EXPECT_NE(names.find("poisson"), std::string::npos);
    EXPECT_NE(names.find("bursty"), std::string::npos);
    EXPECT_NE(names.find("diurnal"), std::string::npos);
}

TEST(Arrival, SameSeedSameGaps)
{
    OpenLoopSpec spec;
    spec.qps = 1e5;
    for (const char *kind : {"poisson", "bursty", "diurnal"}) {
        spec.arrival = kind;
        auto a = ArrivalProcess::make(spec, 7);
        auto b = ArrivalProcess::make(spec, 7);
        auto c = ArrivalProcess::make(spec, 8);
        Tick now_a = 0, now_b = 0, now_c = 0;
        bool differs = false;
        for (int i = 0; i < 1000; ++i) {
            const Tick ga = a->nextGap(now_a);
            const Tick gb = b->nextGap(now_b);
            const Tick gc = c->nextGap(now_c);
            ASSERT_EQ(ga, gb) << kind << " diverged at gap " << i;
            ASSERT_GE(ga, 1u) << kind;
            differs = differs || ga != gc;
            now_a += ga;
            now_b += gb;
            now_c += gc;
        }
        EXPECT_TRUE(differs) << kind << ": seeds 7 and 8 identical";
    }
}

TEST(Arrival, LongRunMeanMatchesQps)
{
    OpenLoopSpec spec;
    spec.qps = 2e5;
    for (const char *kind : {"poisson", "bursty", "diurnal"}) {
        spec.arrival = kind;
        auto p = ArrivalProcess::make(spec, 42);
        // Count arrivals over a whole number of bursty (1s) and
        // diurnal (8s) periods — a fractional period would bias the
        // measured mean by the phase of the cut-off.
        const Tick horizon = 24 * kSecond;
        Tick now = 0;
        std::uint64_t arrivals = 0;
        while (now < horizon) {
            now += p->nextGap(now);
            arrivals++;
        }
        const double rate =
            static_cast<double>(arrivals) /
            (static_cast<double>(horizon) / static_cast<double>(kSecond));
        EXPECT_NEAR(rate, spec.qps, spec.qps * 0.05)
            << kind << " long-run rate off by >5%";
    }
}

TEST(Arrival, BurstyModulatesRate)
{
    OpenLoopSpec spec;
    spec.qps = 1e5;
    spec.arrival = "bursty";
    auto p = ArrivalProcess::make(spec, 3);
    // Bucket arrivals by period phase: the on-window must run well
    // hotter than the off-window.
    const Tick horizon = 16 * kSecond;
    const Tick on_len = static_cast<Tick>(
        spec.burstOnFraction * static_cast<double>(spec.burstPeriod));
    std::uint64_t on = 0, off = 0;
    Tick now = 0;
    while (now < horizon) {
        now += p->nextGap(now);
        if (now % spec.burstPeriod < on_len)
            on++;
        else
            off++;
    }
    const double on_rate = static_cast<double>(on) /
                           (spec.burstOnFraction *
                            static_cast<double>(horizon) / kSecond);
    const double off_rate = static_cast<double>(off) /
                            ((1.0 - spec.burstOnFraction) *
                             static_cast<double>(horizon) / kSecond);
    EXPECT_GT(on_rate, 2.0 * off_rate);
}

// ---------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------

TEST(LatencyHistogram, PercentilesAreOrderedAndBracketed)
{
    LatencyHistogram h;
    for (int i = 1; i <= 10000; ++i)
        h.record(static_cast<double>(i) * 100.0); // 100ns .. 1ms
    EXPECT_EQ(h.count(), 10000u);
    const double p50 = h.percentileNs(50.0);
    const double p99 = h.percentileNs(99.0);
    const double p999 = h.percentileNs(99.9);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, p999);
    EXPECT_LE(p999, h.maxNs());
    // Log-linear buckets guarantee a small relative error bound.
    EXPECT_NEAR(p50, 500000.0, 500000.0 * 0.05);
    EXPECT_NEAR(p99, 990000.0, 990000.0 * 0.05);
}

TEST(LatencyHistogram, MergeMatchesCombinedStream)
{
    LatencyHistogram a, b, both;
    for (int i = 0; i < 1000; ++i) {
        const double lo = 50.0 + i;
        const double hi = 1e6 + 1e3 * i;
        a.record(lo);
        b.record(hi);
        both.record(lo);
        both.record(hi);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_DOUBLE_EQ(a.mean(), both.mean());
    EXPECT_DOUBLE_EQ(a.maxNs(), both.maxNs());
    EXPECT_DOUBLE_EQ(a.percentileNs(99.0), both.percentileNs(99.0));
}

TEST(LatencyHistogram, EmptyIsZero)
{
    const LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentileNs(99.0), 0.0);
}

// Edge-case regression pins (issue 10). Each of these has an obvious
// wrong implementation — merge() unconditionally taking the other
// histogram's min/max, percentile interpolation running below the
// bucket's recorded samples — so the exact bounds are pinned here to
// keep refactors honest.

TEST(LatencyHistogram, MergeOfEmptyDoesNotClobberBounds)
{
    LatencyHistogram h;
    h.record(250.0);
    h.record(900.0);
    const LatencyHistogram empty;
    h.merge(empty);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.minNs(), 250.0);
    EXPECT_DOUBLE_EQ(h.maxNs(), 900.0);
    // And the symmetric case: merging into an empty histogram must
    // adopt the other side's bounds, not keep the empty sentinel.
    LatencyHistogram fresh;
    LatencyHistogram other;
    other.record(250.0);
    other.record(900.0);
    fresh.merge(other);
    EXPECT_EQ(fresh.count(), 2u);
    EXPECT_DOUBLE_EQ(fresh.minNs(), 250.0);
    EXPECT_DOUBLE_EQ(fresh.maxNs(), 900.0);
}

TEST(LatencyHistogram, PercentileZeroReturnsTheMinSideBound)
{
    LatencyHistogram h;
    h.record(777.0);
    h.record(12345.0);
    h.record(1e6);
    // p0 must answer with the smallest recorded latency, never the
    // lower edge of the first occupied log-linear bucket (which sits
    // below 777 ns).
    EXPECT_DOUBLE_EQ(h.percentileNs(0.0), 777.0);
    EXPECT_GE(h.percentileNs(50.0), 777.0);
    EXPECT_LE(h.percentileNs(100.0), 1e6);
}

TEST(LatencyHistogram, SingleObservationNeverInterpolatesBelowIt)
{
    LatencyHistogram h;
    h.record(100.0);
    EXPECT_EQ(h.count(), 1u);
    // Every percentile of a single-sample histogram is that sample:
    // in-bucket interpolation must not report a value below (or above)
    // the one latency ever recorded.
    for (const double p : {0.0, 1.0, 50.0, 99.0, 99.9, 100.0}) {
        EXPECT_DOUBLE_EQ(h.percentileNs(p), 100.0)
            << "p" << p << " drifted off the single observation";
    }
    EXPECT_DOUBLE_EQ(h.minNs(), 100.0);
    EXPECT_DOUBLE_EQ(h.maxNs(), 100.0);
    EXPECT_DOUBLE_EQ(h.mean(), 100.0);
}

// ---------------------------------------------------------------------
// ExperimentConfig::validate()
// ---------------------------------------------------------------------

ExperimentConfig
tinyConfig()
{
    ExperimentConfig cfg;
    cfg.wssPages = 2048;
    cfg.runUntil = 2 * kSecond;
    cfg.measureFrom = 1 * kSecond;
    return cfg;
}

TEST(Validate, AcceptsDefaultsAndOpenLoop)
{
    EXPECT_TRUE(bool(ExperimentConfig().validate()));

    ExperimentConfig cfg = tinyConfig();
    cfg.openLoop.qps = 1e5;
    cfg.openLoop.sloP99Us = 500.0;
    EXPECT_TRUE(bool(cfg.validate()));
}

TEST(Validate, RejectionTable)
{
    struct Case {
        const char *name;
        void (*mutate)(ExperimentConfig &);
        const char *needle;
    };
    const Case cases[] = {
        {"zero wss", [](ExperimentConfig &c) { c.wssPages = 0; },
         "wssPages"},
        {"window inverted",
         [](ExperimentConfig &c) { c.measureFrom = c.runUntil + 1; },
         "measureFrom"},
        {"negative qps",
         [](ExperimentConfig &c) { c.openLoop.qps = -1.0; }, "qps"},
        {"unknown arrival",
         [](ExperimentConfig &c) {
             c.openLoop.qps = 1e5;
             c.openLoop.arrival = "fractal";
         },
         "poisson"},
        {"negative slo",
         [](ExperimentConfig &c) {
             c.openLoop.qps = 1e5;
             c.openLoop.sloP99Us = -5.0;
         },
         "slo"},
        {"config open loop with tenants",
         [](ExperimentConfig &c) {
             c.openLoop.qps = 1e5;
             c.tenants = *parseTenants("web;churn");
         },
         "mutually exclusive"},
        {"tenant wss oversubscribed",
         [](ExperimentConfig &c) {
             c.tenants = *parseTenants("web:wss=1500;dwh:wss=1500");
         },
         "wss"},
    };
    for (const Case &c : cases) {
        ExperimentConfig cfg = tinyConfig();
        c.mutate(cfg);
        const SpecResult<void> got = cfg.validate();
        ASSERT_FALSE(bool(got)) << c.name;
        EXPECT_NE(got.error().render().find(c.needle), std::string::npos)
            << c.name << " -> " << got.error().render();
    }
}

// ---------------------------------------------------------------------
// Open-loop driver behaviour (via runExperiment)
// ---------------------------------------------------------------------

TEST(OpenLoopRun, StableRateHoldsQueueAndMeetsSlo)
{
    setLogVerbose(false);
    ExperimentConfig cfg = tinyConfig();
    cfg.policy = "tpp";
    cfg.workload = "web";
    // Far below capacity: the queue must stay near-empty and every
    // request lands within a generous SLO.
    cfg.openLoop.qps = 5e4;
    cfg.openLoop.sloP99Us = 1e5;
    const ExperimentResult r = runExperiment(cfg);

    ASSERT_TRUE(r.openLoop.enabled);
    EXPECT_DOUBLE_EQ(r.openLoop.offeredQps, 5e4);
    EXPECT_EQ(r.openLoop.arrival, "poisson");
    EXPECT_GT(r.openLoop.requests, 10000u);
    EXPECT_EQ(r.openLoop.dropped, 0u);
    EXPECT_LE(r.openLoop.p50Ns, r.openLoop.p99Ns);
    EXPECT_LE(r.openLoop.p99Ns, r.openLoop.p999Ns);
    EXPECT_LT(r.openLoop.meanQueueDepth, 8.0);
    EXPECT_GT(r.openLoop.goodputQps, 4e4);
    EXPECT_GT(r.openLoop.sloAttainment, 0.99);
}

TEST(OpenLoopRun, OverloadQueuesOrDropsAndMissesSlo)
{
    setLogVerbose(false);
    ExperimentConfig cfg = tinyConfig();
    cfg.policy = "tpp";
    cfg.workload = "web";
    // Far above capacity (~650k ops/s at this size): the queue must
    // grow and the tail must blow through a tight SLO.
    cfg.openLoop.qps = 5e6;
    cfg.openLoop.sloP99Us = 100.0;
    const ExperimentResult r = runExperiment(cfg);

    ASSERT_TRUE(r.openLoop.enabled);
    EXPECT_GT(r.openLoop.meanQueueDepth, 1000.0);
    EXPECT_GT(r.openLoop.p99Ns, 1e6); // > 1ms queueing delay
    EXPECT_LT(r.openLoop.sloAttainment, 0.5);
    EXPECT_LT(r.openLoop.goodputQps, 1e6);
}

TEST(OpenLoopRun, DeterministicAcrossRuns)
{
    setLogVerbose(false);
    ExperimentConfig cfg = tinyConfig();
    cfg.policy = "tpp";
    cfg.openLoop.qps = 1e5;
    const ExperimentResult a = runExperiment(cfg);
    const ExperimentResult b = runExperiment(cfg);
    EXPECT_EQ(a.openLoop.requests, b.openLoop.requests);
    EXPECT_DOUBLE_EQ(a.openLoop.p99Ns, b.openLoop.p99Ns);
    EXPECT_DOUBLE_EQ(a.openLoop.meanQueueDepth, b.openLoop.meanQueueDepth);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
}

TEST(OpenLoopRun, TenantSloFlowsIntoMemcg)
{
    setLogVerbose(false);
    ExperimentConfig cfg = tinyConfig();
    cfg.wssPages = 4096;
    cfg.policy = "tpp";
    cfg.tenants = *parseTenants("web:qps=50000:slo=100000;churn");
    const ExperimentResult r = runExperiment(cfg);

    ASSERT_EQ(r.tenants.size(), 2u);
    const TenantResult &victim = r.tenants[0];
    ASSERT_TRUE(victim.openLoop.enabled);
    EXPECT_DOUBLE_EQ(victim.openLoop.sloP99Us, 100000.0);
    // The cgroup accounted every admitted or dropped request.
    EXPECT_EQ(victim.memcg.requestsTotal,
              victim.openLoop.requests + victim.openLoop.dropped);
    EXPECT_GT(victim.memcg.requestsSloMet, 0u);
    EXPECT_LE(victim.memcg.requestsSloMet, victim.memcg.requestsTotal);
    // The closed-loop antagonist carries no open-loop numbers.
    EXPECT_FALSE(r.tenants[1].openLoop.enabled);
    EXPECT_EQ(r.tenants[1].memcg.requestsTotal, 0u);
    // Headline merge covers the one open-loop tenant.
    ASSERT_TRUE(r.openLoop.enabled);
    EXPECT_EQ(r.openLoop.requests, victim.openLoop.requests);
}

// ---------------------------------------------------------------------
// Golden fingerprints: the closed-loop numbers this redesign must not
// move. Captured from the pre-open-loop tree; %.17g exact.
// ---------------------------------------------------------------------

TEST(GoldenFingerprint, SingleWorkloadClosedLoop)
{
    setLogVerbose(false);
    ExperimentConfig cfg;
    cfg.workload = "web";
    cfg.policy = "tpp";
    cfg.wssPages = 4096;
    cfg.localFraction = 0.5;
    cfg.runUntil = 6 * kSecond;
    cfg.measureFrom = 3 * kSecond;
    const ExperimentResult r = runExperiment(cfg);

    EXPECT_EQ(r.throughput, 642830.21904824418);
    EXPECT_EQ(r.meanAccessLatencyNs, 82.74894846040668);
    EXPECT_EQ(r.vmstat.get(Vm::PgPromoteSuccess), 1615u);
    EXPECT_FALSE(r.openLoop.enabled);
}

TEST(GoldenFingerprint, TenantClosedLoop)
{
    setLogVerbose(false);
    ExperimentConfig cfg;
    cfg.policy = "tpp";
    cfg.wssPages = 4096;
    cfg.localFraction = 0.4;
    cfg.runUntil = 6 * kSecond;
    cfg.measureFrom = 3 * kSecond;
    cfg.tenants = *parseTenants("cache1:low=0.5;churn");
    const ExperimentResult r = runExperiment(cfg);

    EXPECT_EQ(r.throughput, 1492679.134195684);
    EXPECT_EQ(r.meanAccessLatencyNs, 114.87439717567175);
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_EQ(r.tenants[0].throughput, 843638.69766707905);
    EXPECT_EQ(r.tenants[0].meanAccessLatencyNs, 96.103095993565432);
    EXPECT_EQ(r.tenants[0].pagesLocal, 659u);
    EXPECT_EQ(r.tenants[0].pagesTotal, 1571u);
    EXPECT_EQ(r.tenants[1].throughput, 649040.43652860483);
    EXPECT_EQ(r.tenants[1].meanAccessLatencyNs, 139.27323423578116);
    EXPECT_EQ(r.tenants[1].pagesLocal, 978u);
    EXPECT_EQ(r.tenants[1].pagesTotal, 2553u);
}

// ---------------------------------------------------------------------
// Open-loop golden fingerprints: the request-serving path (arrivals,
// the request queue, service batches, completion latencies) and the
// daemons interleaved with it, pinned %.17g exact.
// ---------------------------------------------------------------------

/** FNV-1a over every record of a trace snapshot, in snapshot order. */
std::uint64_t
traceHash(const std::vector<TraceRecord> &trace)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const TraceRecord &r : trace) {
        hash = test::fnv1a(hash, r.tick);
        hash = test::fnv1a(hash, r.vpn);
        hash = test::fnv1a(
            hash, static_cast<std::uint64_t>(r.event) << 32 | r.aux);
    }
    return hash;
}

TEST(GoldenFingerprint, OpenLoopAdaptiveStack)
{
    // The perfbench phased-adaptive preset, shrunk: async migration,
    // PPT, the adaptive tuner, tracepoints into a ring small enough to
    // wrap, and hot-set ranking, with one phase flip inside the run.
    setLogVerbose(false);
    ExperimentConfig cfg;
    cfg.workload = "phased";
    cfg.policy = "adaptive";
    cfg.wssPages = 4096;
    cfg.localFraction = 0.2;
    cfg.runUntil = 4 * kSecond;
    cfg.measureFrom = 1 * kSecond;
    cfg.measureHotness = true;
    cfg.traceEnabled = true;
    cfg.traceCapacity = 1u << 12;
    cfg.migration = MigrationConfig::asyncEngine();
    cfg.openLoop.qps = 2.0e5;
    cfg.openLoop.sloP99Us = 500.0;
    cfg.sysctls = {{"vm.ppt.enable", "1"},
                   {"vm.adaptive.enable", "1"},
                   {"vm.adaptive.window_ns", "100000000"},
                   {"vm.adaptive.w_slo", "4"}};
    const ExperimentResult r = runExperiment(cfg);

    EXPECT_EQ(r.throughput, 200564.200894106);
    EXPECT_EQ(r.meanAccessLatencyNs, 180.72883178338557);
    EXPECT_EQ(r.openLoop.requests, 601693u);
    EXPECT_EQ(r.openLoop.dropped, 0u);
    EXPECT_EQ(r.openLoop.p50Ns, 1338.0089987871199);
    EXPECT_EQ(r.openLoop.p99Ns, 81497.767073683994);
    EXPECT_EQ(r.openLoop.meanQueueDepth, 1.6759608396013652);
    EXPECT_EQ(r.openLoop.maxQueueDepth, 208u);
    EXPECT_EQ(r.openLoop.sloAttainment, 0.9993335471743896);
    EXPECT_EQ(r.hotSetRecall, 0.21358024691358024);
    EXPECT_EQ(r.hotSetPages, 810u);
    EXPECT_EQ(r.traceEmitted, 1161779u);
    EXPECT_EQ(r.traceDropped, 1157683u);
    EXPECT_EQ(r.trace.size(), std::size_t{1} << 12);
    // The newest 4,096 records, oldest first, after the ring wrapped.
    EXPECT_EQ(traceHash(r.trace), 0x8bbd6dff056fe508ULL);
    EXPECT_EQ(r.vmstat.get(Vm::PgPromoteSuccess), 2653u);
    EXPECT_EQ(r.vmstat.get(Vm::PgDemoteAnon) +
                  r.vmstat.get(Vm::PgDemoteFile),
              3975u);
    EXPECT_EQ(r.vmstat.get(Vm::PptThrottledPromote), 9483u);
    EXPECT_EQ(r.vmstat.get(Vm::PptThrottledDemote), 926354u);
}

TEST(GoldenFingerprint, OpenLoopTenantBesideChurn)
{
    setLogVerbose(false);
    ExperimentConfig cfg;
    cfg.policy = "tpp";
    cfg.wssPages = 4096;
    cfg.localFraction = 0.25;
    cfg.runUntil = 3 * kSecond;
    cfg.measureFrom = 1500 * kMillisecond;
    cfg.tenants = *parseTenants("dwh:qps=200000:slo=500:low=0.5;churn");
    const ExperimentResult r = runExperiment(cfg);

    EXPECT_EQ(r.throughput, 819372.57421931275);
    EXPECT_EQ(r.meanAccessLatencyNs, 139.15844355564249);
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_EQ(r.tenants[0].throughput, 200926.98948027869);
    EXPECT_EQ(r.tenants[1].throughput, 618445.58473903406);
    EXPECT_EQ(r.openLoop.requests, 301391u);
    EXPECT_EQ(r.openLoop.dropped, 0u);
    EXPECT_EQ(r.openLoop.p50Ns, 1695.8271314861993);
    EXPECT_EQ(r.openLoop.p99Ns, 467959.31151515787);
    EXPECT_EQ(r.openLoop.meanQueueDepth, 4.2605649637520111);
    EXPECT_EQ(r.openLoop.maxQueueDepth, 498u);
    EXPECT_EQ(r.openLoop.sloAttainment, 0.99031822449907259);
    EXPECT_EQ(r.vmstat.get(Vm::PgPromoteSuccess), 2955u);
    EXPECT_EQ(r.vmstat.get(Vm::PgDemoteAnon) +
                  r.vmstat.get(Vm::PgDemoteFile),
              20172u);
}

TEST(GoldenFingerprint, OpenLoopBurstyAndDiurnalArrivals)
{
    setLogVerbose(false);
    struct Golden {
        const char *arrival;
        double throughput;
        double meanAccessLatencyNs;
        std::uint64_t requests;
        double p50Ns;
        double p99Ns;
        double meanQueueDepth;
        std::uint64_t maxQueueDepth;
        double sloAttainment;
        std::uint64_t promotions;
        std::uint64_t demotions;
    };
    const Golden goldens[] = {
        {"bursty", 299619.78252247907, 91.580243654063835, 599237,
         1061561.093079529, 5134625.9831629014, 422.06499437870843, 4672,
         0.30960204393253421, 3186, 3475},
        {"diurnal", 256674.16439980231, 92.521713642412792, 513348,
         1193.7409236016101, 27556.249600000381, 1.2144053523266283, 232,
         0.99811823558287949, 3310, 3561},
    };
    for (const Golden &g : goldens) {
        SCOPED_TRACE(g.arrival);
        ExperimentConfig cfg;
        cfg.workload = "cache1";
        cfg.policy = "tpp";
        cfg.wssPages = 2048;
        cfg.localFraction = 0.5;
        cfg.runUntil = 3 * kSecond;
        cfg.measureFrom = 1 * kSecond;
        cfg.openLoop.qps = 3.0e5;
        cfg.openLoop.arrival = g.arrival;
        cfg.openLoop.sloP99Us = 200.0;
        cfg.openLoop.burstPeriod = 400 * kMillisecond;
        cfg.openLoop.diurnalPeriod = 1500 * kMillisecond;
        const ExperimentResult r = runExperiment(cfg);

        EXPECT_EQ(r.throughput, g.throughput);
        EXPECT_EQ(r.meanAccessLatencyNs, g.meanAccessLatencyNs);
        EXPECT_EQ(r.openLoop.requests, g.requests);
        EXPECT_EQ(r.openLoop.dropped, 0u);
        EXPECT_EQ(r.openLoop.p50Ns, g.p50Ns);
        EXPECT_EQ(r.openLoop.p99Ns, g.p99Ns);
        EXPECT_EQ(r.openLoop.meanQueueDepth, g.meanQueueDepth);
        EXPECT_EQ(r.openLoop.maxQueueDepth, g.maxQueueDepth);
        EXPECT_EQ(r.openLoop.sloAttainment, g.sloAttainment);
        EXPECT_EQ(r.vmstat.get(Vm::PgPromoteSuccess), g.promotions);
        EXPECT_EQ(r.vmstat.get(Vm::PgDemoteAnon) +
                      r.vmstat.get(Vm::PgDemoteFile),
                  g.demotions);
    }
}

} // namespace
