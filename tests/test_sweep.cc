/**
 * @file
 * Tests for the parallel sweep engine (ThreadPool, SweepRunner and its
 * per-sweep dedup on config equality), the policy/workload registries,
 * and the hardened parseRatio().
 */

#include <atomic>
#include <sstream>

#include "harness/export.hh"
#include "harness/sweep.hh"
#include "harness/thread_pool.hh"
#include "mm/policy_registry.hh"
#include "test_common.hh"
#include "workloads/workload_registry.hh"

namespace tpp {
namespace {

// A policy registered from this TU: proves registration needs no edits
// to the harness or the registry itself.
TPP_REGISTER_POLICY_AS(testEcho, "test-echo", [](const PolicyParams &) {
    return std::make_unique<DefaultLinuxPolicy>();
});

// Counts the policies it builds: one per simulated run, so a sweep's
// dedup shows in how many runs reached the engine.
std::atomic<int> countedPolicies{0};
TPP_REGISTER_POLICY_AS(testCounted, "test-counted",
                       [](const PolicyParams &) {
                           countedPolicies++;
                           return std::make_unique<DefaultLinuxPolicy>();
                       });

/** A short run so sweep tests stay fast. */
ExperimentConfig
smallConfig(const std::string &workload, const std::string &policy,
            const char *ratio)
{
    ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.policy = policy;
    cfg.wssPages = 4096;
    cfg.localFraction = parseRatio(ratio);
    cfg.runUntil = 3 * kSecond;
    cfg.measureFrom = 2 * kSecond;
    return cfg;
}

/** Full serialisation — bitwise-equal doubles produce equal strings. */
std::string
fingerprint(const ExperimentResult &res)
{
    std::ostringstream out;
    writeResultJson(out, res);
    out << res.vmstat.report();
    writeSamplesCsv(out, res);
    return out.str();
}

TEST(ThreadPool, RunsAllJobsAndWaits)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { done++; });
    pool.wait();
    EXPECT_EQ(done.load(), 100);

    // The pool is reusable after a wait().
    pool.submit([&] { done++; });
    pool.wait();
    EXPECT_EQ(done.load(), 101);
}

TEST(ThreadPool, WaitRethrowsJobException)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ThreadPool, HardwareConcurrencyIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareConcurrency(), 1u);
}

TEST(Sweep, ParallelMatchesSerialBitForBit)
{
    // A mixed policy x ratio grid, plus the all-local baseline.
    std::vector<ExperimentConfig> cfgs;
    ExperimentConfig base = smallConfig("cache1", "linux", "2:1");
    base.allLocal = true;
    cfgs.push_back(base);
    for (const char *policy : {"linux", "tpp", "numa-balancing"})
        for (const char *ratio : {"2:1", "1:4"})
            cfgs.push_back(smallConfig("cache1", policy, ratio));

    SweepOptions serial;
    serial.jobs = 1;
    const auto serial_results = SweepRunner(serial).run(cfgs);

    SweepOptions parallel;
    parallel.jobs = 4;
    const auto parallel_results = SweepRunner(parallel).run(cfgs);

    ASSERT_EQ(serial_results.size(), cfgs.size());
    ASSERT_EQ(parallel_results.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        EXPECT_EQ(fingerprint(serial_results[i]),
                  fingerprint(parallel_results[i]))
            << "config " << i << " diverged under --jobs 4";
    }
}

TEST(Sweep, MemoizationSimulatesDuplicatesOnce)
{
    // {a, b, a, a}: the copies of `a` ride on its one run, so the sweep
    // builds one policy per distinct config.
    const ExperimentConfig a = smallConfig("web", "test-counted", "2:1");
    ExperimentConfig b = a;
    b.seed = 2;
    const std::vector<ExperimentConfig> cfgs = {a, b, a, a};

    SweepOptions opts;
    opts.jobs = 2;
    countedPolicies = 0;
    const auto results = SweepRunner(opts).run(cfgs);
    EXPECT_EQ(countedPolicies.load(), 2);
    ASSERT_EQ(results.size(), cfgs.size());
    EXPECT_EQ(fingerprint(results[2]), fingerprint(results[0]));
    EXPECT_EQ(fingerprint(results[3]), fingerprint(results[0]));
    EXPECT_NE(fingerprint(results[1]), fingerprint(results[0]));
}

TEST(Sweep, ConfigEqualitySeparatesConfigs)
{
    const ExperimentConfig cfg = smallConfig("cache1", "tpp", "1:4");
    ExperimentConfig copy = cfg;
    EXPECT_TRUE(cfg == copy);

    copy.seed = 2;
    EXPECT_FALSE(cfg == copy);

    copy = cfg;
    copy.tpp.scanBatch += 1;
    EXPECT_FALSE(cfg == copy);

    copy = cfg;
    copy.sysctls.emplace_back("vm.demote_scale_factor", "40");
    EXPECT_FALSE(cfg == copy);

    // Telemetry fields separate configs too: a traced result carries
    // different payload than an untraced one and must not share a memo
    // slot.
    copy = cfg;
    copy.traceEnabled = true;
    EXPECT_FALSE(cfg == copy);

    copy = cfg;
    copy.traceCapacity = 1024;
    EXPECT_FALSE(cfg == copy);

    copy = cfg;
    copy.sampleSeries = true;
    EXPECT_FALSE(cfg == copy);

    copy = cfg;
    copy.samplePeriod = 42;
    EXPECT_FALSE(cfg == copy);

    // The MigrationEngine mode changes simulation results and must
    // never share a memo slot with the compat mode.
    copy = cfg;
    copy.migration = MigrationConfig::asyncEngine();
    EXPECT_FALSE(cfg == copy);

    copy = cfg;
    copy.migration.rateLimitMBps = 64.0;
    EXPECT_FALSE(cfg == copy);

    // Shard geometry changes the simulated machine (regions) or at
    // least what the result carries (shard stats).
    copy = cfg;
    copy.shards = 4;
    EXPECT_FALSE(cfg == copy);

    copy = cfg;
    copy.shardRegions = 4;
    EXPECT_FALSE(cfg == copy);

    // A sysctl value holding a comma is one assignment, not two.
    ExperimentConfig joined = cfg;
    joined.sysctls = {{"vm.demote_scale_factor", "1,vm.tpp.demote_chain=0"}};
    ExperimentConfig split = cfg;
    split.sysctls = {{"vm.demote_scale_factor", "1"},
                     {"vm.tpp.demote_chain", "0"}};
    EXPECT_FALSE(joined == split);
}

TEST(Sweep, ConfigEqualitySeparatesHotnessConfigs)
{
    // Two configs differing only in hotness settings must never share a
    // memo slot — the PR-3 lesson, re-learned for src/hotness.
    const ExperimentConfig cfg = smallConfig("cache1", "hotness", "1:4");
    ExperimentConfig copy = cfg;
    EXPECT_TRUE(cfg == copy);

    copy.hotness.source = "neoprof";
    EXPECT_FALSE(cfg == copy);

    copy = cfg;
    copy.hotness.epochPeriod += 1;
    EXPECT_FALSE(cfg == copy);

    copy = cfg;
    copy.hotness.promoteBatch += 1;
    EXPECT_FALSE(cfg == copy);

    copy = cfg;
    copy.hotness.hotWindow += 1;
    EXPECT_FALSE(cfg == copy);

    copy = cfg;
    copy.hotness.hotThreshold += 1;
    EXPECT_FALSE(cfg == copy);

    copy = cfg;
    copy.hotness.counterTableSize += 1;
    EXPECT_FALSE(cfg == copy);

    copy = cfg;
    copy.hotness.decayHalfLife += 1;
    EXPECT_FALSE(cfg == copy);

    copy = cfg;
    copy.hotness.targetQuantile = 0.9;
    EXPECT_FALSE(cfg == copy);

    // Recall measurement changes what the result carries (like
    // telemetry): no shared memo slot, and the all-local twin drops it.
    copy = cfg;
    copy.measureHotness = true;
    EXPECT_FALSE(cfg == copy);
    EXPECT_FALSE(allLocalTwin(copy).measureHotness);
}

TEST(Sweep, ConfigEqualityTwinStripsState)
{
    const ExperimentConfig cfg = smallConfig("cache1", "tpp", "1:4");
    ExperimentConfig source = cfg;
    source.traceEnabled = true;
    source.sampleSeries = true;
    source.samplePeriod = 42;
    const ExperimentConfig twin = allLocalTwin(source);
    EXPECT_FALSE(cfg == twin);
    EXPECT_TRUE(twin.allLocal);
    EXPECT_EQ(twin.policy, "linux");
    EXPECT_TRUE(twin.sysctls.empty());
    EXPECT_FALSE(twin.traceEnabled);
    EXPECT_FALSE(twin.sampleSeries);
    EXPECT_EQ(twin.samplePeriod, 0u);
}

TEST(Sweep, ConfigEqualitySeparatesTenantConfigs)
{
    // Multi-tenant runs share a kernel between workloads: a config with
    // tenants simulates a different machine than the same config
    // without, and every tenant knob feeds the result.
    const ExperimentConfig cfg = smallConfig("cache1", "tpp", "1:4");
    ExperimentConfig copy = cfg;
    TenantSpec tenant;
    tenant.workload = "cache1";
    copy.tenants.push_back(tenant);
    EXPECT_FALSE(cfg == copy);

    ExperimentConfig other = copy;
    other.tenants[0].wssPages = 2048;
    EXPECT_FALSE(copy == other);

    other = copy;
    other.tenants[0].lowFraction = 0.6;
    EXPECT_FALSE(copy == other);

    other = copy;
    other.tenants[0].budgetMBps = 10.0;
    EXPECT_FALSE(copy == other);

    other = copy;
    other.tenants[0].placement = "cxl_only";
    EXPECT_FALSE(copy == other);

    // The all-local baseline is a single-workload machine: the twin
    // strips tenants so every pairing shares one baseline run.
    EXPECT_TRUE(allLocalTwin(copy).tenants.empty());
}

TEST(Sweep, ConfigEqualitySeparatesOpenLoopConfigs)
{
    const ExperimentConfig cfg = smallConfig("web", "tpp", "1:4");
    ExperimentConfig copy = cfg;
    copy.openLoop.qps = 1e5;
    EXPECT_FALSE(cfg == copy);

    ExperimentConfig other = copy;
    other.openLoop.arrival = "bursty";
    EXPECT_FALSE(copy == other);

    other = copy;
    other.openLoop.sloP99Us = 500.0;
    EXPECT_FALSE(copy == other);

    // A tenant's qps feeds the key too.
    ExperimentConfig tenanted = cfg;
    TenantSpec tenant;
    tenant.workload = "web";
    tenanted.tenants.push_back(tenant);
    ExperimentConfig tenanted_ol = tenanted;
    tenanted_ol.tenants[0].openLoop.qps = 1e5;
    EXPECT_FALSE(tenanted == tenanted_ol);

    // And so does each of its arrival-shape knobs.
    const std::vector<std::pair<const char *, void (*)(OpenLoopSpec &)>>
        shapes = {
            {"burstFactor", [](OpenLoopSpec &o) { o.burstFactor += 1; }},
            {"burstOnFraction",
             [](OpenLoopSpec &o) { o.burstOnFraction /= 2; }},
            {"burstPeriod", [](OpenLoopSpec &o) { o.burstPeriod *= 2; }},
            {"diurnalPeriod",
             [](OpenLoopSpec &o) { o.diurnalPeriod *= 2; }},
            {"diurnalAmplitude",
             [](OpenLoopSpec &o) { o.diurnalAmplitude /= 2; }},
        };
    for (const auto &[name, mutate] : shapes) {
        ExperimentConfig shaped = tenanted_ol;
        mutate(shaped.tenants[0].openLoop);
        EXPECT_FALSE(tenanted_ol == shaped) << name;
    }

    // The all-local twin is closed-loop: open-loop shape must not
    // split the shared baseline run.
    EXPECT_TRUE(allLocalTwin(cfg) == allLocalTwin(copy));
}

TEST(Sweep, ConfigEqualitySeparatesAdaptiveConfigs)
{
    // Every AdaptiveConfig field steers the tuner, so each one on its
    // own must move the key.
    const ExperimentConfig cfg = smallConfig("phased", "adaptive", "1:4");
    const std::vector<std::pair<const char *, void (*)(AdaptiveConfig &)>>
        mutations = {
            {"enable", [](AdaptiveConfig &a) { a.enable = !a.enable; }},
            {"windowPeriod",
             [](AdaptiveConfig &a) { a.windowPeriod /= 4; }},
            {"profileWindows",
             [](AdaptiveConfig &a) { a.profileWindows++; }},
            {"hysteresisPct",
             [](AdaptiveConfig &a) { a.hysteresisPct += 1; }},
            {"wakeDriftPct", [](AdaptiveConfig &a) { a.wakeDriftPct += 1; }},
            {"weightLocal", [](AdaptiveConfig &a) { a.weightLocal += 1; }},
            {"weightPingPong",
             [](AdaptiveConfig &a) { a.weightPingPong += 1; }},
            {"weightStall", [](AdaptiveConfig &a) { a.weightStall += 1; }},
            {"weightSlo", [](AdaptiveConfig &a) { a.weightSlo += 1; }},
            {"weightMigrate",
             [](AdaptiveConfig &a) { a.weightMigrate += 1; }},
            {"flapFlips", [](AdaptiveConfig &a) { a.flapFlips++; }},
            {"flapBias", [](AdaptiveConfig &a) { a.flapBias++; }},
            {"promoteThreshold",
             [](AdaptiveConfig &a) { a.promoteThreshold++; }},
            {"promoteThresholdMax",
             [](AdaptiveConfig &a) { a.promoteThresholdMax++; }},
            {"scanSizeMin", [](AdaptiveConfig &a) { a.scanSizeMin *= 2; }},
            {"scanSizeMax", [](AdaptiveConfig &a) { a.scanSizeMax *= 2; }},
            {"demoteScaleMin",
             [](AdaptiveConfig &a) { a.demoteScaleMin += 0.5; }},
            {"demoteScaleMax",
             [](AdaptiveConfig &a) { a.demoteScaleMax += 0.5; }},
        };
    for (const auto &[name, mutate] : mutations) {
        ExperimentConfig copy = cfg;
        mutate(copy.adaptive);
        EXPECT_FALSE(cfg == copy) << name;
    }
}

TEST(Sweep, DedupedSweepReturnsEachConfigsOwnResult)
{
    // Configs that differ only in a field the key once missed: a memo
    // that merged them would hand the second the first one's result.
    ExperimentConfig one_shard = smallConfig("cache1", "tpp", "1:4");
    ExperimentConfig four_shards = one_shard;
    four_shards.shards = 4;
    ExperimentConfig slow_tuner = smallConfig("phased", "adaptive", "1:4");
    slow_tuner.sysctls = {{"vm.adaptive.enable", "1"}};
    ExperimentConfig fast_tuner = slow_tuner;
    fast_tuner.adaptive.windowPeriod = 50 * kMillisecond;
    const std::vector<ExperimentConfig> cfgs = {one_shard, four_shards,
                                                slow_tuner, fast_tuner};

    SweepOptions opts;
    opts.jobs = 2;
    const std::vector<ExperimentResult> swept = SweepRunner(opts).run(cfgs);
    ASSERT_EQ(swept.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        EXPECT_EQ(fingerprint(swept[i]), fingerprint(runExperiment(cfgs[i])))
            << "config " << i;
    }
    EXPECT_NE(fingerprint(swept[0]), fingerprint(swept[1]));
    EXPECT_NE(fingerprint(swept[2]), fingerprint(swept[3]));
}

TEST(Sweep, RejectsOneBadConfigAndRunsTheRest)
{
    // One config in the batch is malformed (tenant wss oversubscribes
    // the machine): the sweep must fail *that* config with a
    // diagnostic and still run the other one.
    ExperimentConfig good = smallConfig("web", "linux", "1:1");
    ExperimentConfig bad = smallConfig("web", "linux", "1:1");
    bad.tenants = *parseTenants("web:wss=4000;dwh:wss=4000");

    SweepOptions opts;
    opts.jobs = 1;
    const std::vector<ExperimentResult> results =
        SweepRunner(opts).run({good, bad});

    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].failed());
    EXPECT_GT(results[0].throughput, 0.0);
    ASSERT_TRUE(results[1].failed());
    EXPECT_NE(results[1].error.find("wss"), std::string::npos)
        << results[1].error;
    EXPECT_EQ(results[1].throughput, 0.0);
}

TEST(Sweep, TenantsWithChameleonRejectOnlyThatConfig)
{
    // Regression: tenants with the Chameleon profiler passed validate()
    // and then killed the whole process inside the tenant engine, so
    // the valid config's result was lost with it.
    ExperimentConfig good = smallConfig("web", "tpp", "2:1");
    ExperimentConfig bad = good;
    bad.tenants = *parseTenants("web;churn");
    bad.withChameleon = true;

    ::testing::internal::CaptureStderr();
    const std::vector<ExperimentResult> results =
        SweepRunner().run({good, bad});
    const std::string diagnostics = ::testing::internal::GetCapturedStderr();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].failed()) << results[0].error;
    EXPECT_GT(results[0].throughput, 0.0);
    ASSERT_TRUE(results[1].failed());
    EXPECT_EQ(results[1].workload, "web+churn");
    EXPECT_NE(results[1].error.find("Chameleon"), std::string::npos)
        << results[1].error;
    // The diagnostic names the run the rejected row names.
    EXPECT_NE(diagnostics.find("rejected web+churn/tpp"), std::string::npos)
        << diagnostics;
}

TEST(Sweep, ProgressNamesTenantRuns)
{
    // The meter names a run as its result row does: a tenant run is its
    // tenants' workloads, not the config's unused `workload`.
    ExperimentConfig cfg = smallConfig("web", "tpp", "2:1");
    cfg.tenants = *parseTenants("web;churn");
    cfg.runUntil = 1 * kSecond;
    cfg.measureFrom = kSecond / 2;

    SweepOptions opts;
    opts.progress = true;
    ::testing::internal::CaptureStderr();
    const std::vector<ExperimentResult> results = SweepRunner(opts).run({cfg});
    const std::string meter = ::testing::internal::GetCapturedStderr();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].failed()) << results[0].error;
    EXPECT_NE(meter.find("[sweep 1/1] web+churn/tpp"), std::string::npos)
        << meter;
}

TEST(Sweep, ZeroPageTenantShareRejectsOnlyThatConfig)
{
    // Regression: four tenants without wss= split three pages into
    // zero-page shares; validate() passed and the run died building
    // the first tenant's workload.
    ExperimentConfig good = smallConfig("web", "tpp", "2:1");
    ExperimentConfig bad = good;
    bad.wssPages = 3;
    bad.tenants = *parseTenants("web;cache1;dwh;churn");

    const std::vector<ExperimentResult> results =
        SweepRunner().run({good, bad});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].failed()) << results[0].error;
    EXPECT_GT(results[0].throughput, 0.0);
    ASSERT_TRUE(results[1].failed());
    EXPECT_NE(results[1].error.find("zero pages"), std::string::npos)
        << results[1].error;
}

TEST(Export, CsvQuotesHostileFields)
{
    EXPECT_EQ(csvField("plain"), "plain");
    EXPECT_EQ(csvField("a,b"), "\"a,b\"");
    EXPECT_EQ(csvField("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvField("line\nbreak"), "\"line\nbreak\"");
    EXPECT_EQ(csvField(""), "");

    // Regression: workload/policy used to be written raw, so a comma in
    // a registered name shifted every column after it and an embedded
    // quote corrupted the row (RFC 4180 requires doubling).
    ExperimentResult res;
    res.workload = "cache,1";
    res.policy = "tpp \"patched\"";
    std::ostringstream out;
    writeResultsCsv(out, {res});
    const std::string text = out.str();
    const std::size_t row = text.find('\n') + 1;
    EXPECT_EQ(text.substr(row, text.find('\n', row) - row),
              "\"cache,1\",\"tpp \"\"patched\"\"\",0.000,0.000,0.000,"
              "0.000,0.000,0.000,0.000");
}

TEST(Registry, PoliciesSelfRegister)
{
    auto &reg = PolicyRegistry::instance();
    for (const char *name : {"linux", "numa-balancing", "numa",
                             "autotiering", "damon-reclaim", "tpp"}) {
        EXPECT_TRUE(reg.contains(name)) << name;
    }
    const auto names = reg.names();
    EXPECT_GE(names.size(), 6u);

    // A policy registered by this test TU resolves through makePolicy.
    ExperimentConfig cfg;
    cfg.policy = "test-echo";
    auto policy = makePolicy(cfg);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), "linux");
}

TEST(Registry, WorkloadsSelfRegister)
{
    auto &reg = WorkloadRegistry::instance();
    for (const char *name : {"web", "cache1", "cache2", "dwh",
                             "data-warehouse", "ycsb-a", "ycsb-b",
                             "ycsb-c", "ycsb-d"}) {
        EXPECT_TRUE(reg.contains(name)) << name;
    }
    WorkloadSpec spec;
    spec.name = "web";
    spec.wssPages = 1024;
    auto workload = reg.make(spec);
    ASSERT_NE(workload, nullptr);
}

TEST(RegistryDeathTest, UnknownNamesListTheRegistered)
{
    setLogVerbose(false);
    ExperimentConfig cfg;
    cfg.policy = "no-such-policy";
    EXPECT_DEATH(makePolicy(cfg), "unknown policy.*registered.*tpp");

    WorkloadSpec spec;
    spec.name = "no-such-workload";
    spec.wssPages = 1024;
    EXPECT_DEATH(WorkloadRegistry::instance().make(spec),
                 "unknown workload.*registered.*web");
}

TEST(ParseRatio, AcceptsWellFormedRatios)
{
    EXPECT_NEAR(parseRatio("2:1"), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(parseRatio("1:4"), 0.2, 1e-12);
    EXPECT_NEAR(parseRatio("1:0"), 1.0, 1e-12); // all-local as a ratio
    EXPECT_NEAR(parseRatio("1.5:0.5"), 0.75, 1e-12);
}

TEST(ParseRatioDeathTest, RejectsMalformedRatios)
{
    setLogVerbose(false);
    EXPECT_DEATH(parseRatio(""), "capacity ratio");
    EXPECT_DEATH(parseRatio("21"), "capacity ratio");
    EXPECT_DEATH(parseRatio("2:"), "capacity ratio");
    EXPECT_DEATH(parseRatio(":1"), "capacity ratio");
    EXPECT_DEATH(parseRatio("2:1:3"), "capacity ratio");
    EXPECT_DEATH(parseRatio("a:b"), "capacity ratio");
    EXPECT_DEATH(parseRatio("2x:1"), "capacity ratio");
    EXPECT_DEATH(parseRatio("nan:1"), "capacity ratio");
    EXPECT_DEATH(parseRatio("inf:1"), "capacity ratio");
}

TEST(ParseRatioDeathTest, RejectsNonPositiveShares)
{
    setLogVerbose(false);
    EXPECT_DEATH(parseRatio("0:1"), "capacity ratio");
    EXPECT_DEATH(parseRatio("-1:4"), "capacity ratio");
    EXPECT_DEATH(parseRatio("1:-4"), "capacity ratio");
}

} // namespace
} // namespace tpp
