/**
 * @file
 * Engine golden: one fingerprint over every field of ExperimentResult
 * (test::resultFingerprint) for one config per branch of the run
 * engine — the plain single stack, open loop with the adaptive SLO
 * feed, the Chameleon profiler and several access taps on one kernel,
 * tenants with cgroups, open-loop tenants, shard regions with and
 * without the admission rebalance, explicit topologies with node rows,
 * and the all-local machine.
 *
 * The values were captured before the single-stack, tenant and shard
 * paths were merged into one region engine, and pin that merge: build
 * order, fold arithmetic and harvest must all reproduce them exactly.
 * They also pin the move of every access consumer onto the kernel's
 * one access-event pipe (mm/access_tap.hh), and each config runs twice:
 * with every workload's accesses drawn inline and drawn ahead.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "test_common.hh"

namespace tpp {
namespace {

struct EngineCase {
    const char *tag;
    void (*configure)(ExperimentConfig &);
    std::uint64_t fingerprint;
};

// Without a printer gtest shows the case as raw bytes.
void
PrintTo(const EngineCase &c, std::ostream *os)
{
    *os << '"' << c.tag << '"';
}

const EngineCase kCases[] = {
    {"web_tpp",
     [](ExperimentConfig &cfg) { cfg.localFraction = 0.5; },
     0xe4d8461e4b695ec6ULL},
    {"openloop_adaptive_traced",
     [](ExperimentConfig &cfg) {
         cfg.workload = "phased";
         cfg.policy = "adaptive";
         cfg.localFraction = 0.2;
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
     },
     0x6fe3efeb40a94d90ULL},
    {"chameleon_hotness_series",
     [](ExperimentConfig &cfg) {
         cfg.workload = "cache1";
         cfg.withChameleon = true;
         cfg.measureHotness = true;
         cfg.sampleSeries = true;
         cfg.samplePeriod = 250 * kMillisecond;
     },
     0x3a2631b6f19cbaf5ULL},
    // The chameleon hotness source feeds the policy from the access
    // stream, so with measureHotness two taps (its profiler and the
    // hot-set counter) share the kernel's access-event pipe.
    {"hotness_chameleon_source_fanout",
     [](ExperimentConfig &cfg) {
         cfg.workload = "cache1";
         cfg.policy = "hotness";
         cfg.hotness.source = "chameleon";
         cfg.localFraction = 0.25;
         cfg.measureHotness = true;
     },
     0x821c0305a0b3d323ULL},
    // NeoProf's device counters are a tap on the same pipe, beside the
    // hot-set counter.
    {"hotness_neoprof",
     [](ExperimentConfig &cfg) {
         cfg.workload = "cache1";
         cfg.policy = "hotness";
         cfg.hotness.source = "neoprof";
         cfg.localFraction = 0.25;
         cfg.measureHotness = true;
     },
     0x487753714f1a9a54ULL},
    {"two_tenants_observed",
     [](ExperimentConfig &cfg) {
         cfg.localFraction = 0.4;
         cfg.tenants = *parseTenants("cache1:low=0.5;web");
         cfg.measureHotness = true;
         cfg.traceEnabled = true;
         cfg.traceCapacity = 1u << 12;
         cfg.sampleSeries = true;
     },
     0xedc14e2e19ff9b06ULL},
    {"openloop_tenant_adaptive_beside_churn",
     [](ExperimentConfig &cfg) {
         cfg.policy = "adaptive";
         cfg.localFraction = 0.25;
         cfg.sysctls = {{"vm.adaptive.enable", "1"},
                        {"vm.adaptive.window_ns", "100000000"}};
         cfg.tenants = *parseTenants(
             "dwh:qps=200000:slo=500:low=0.5;churn:budget=50");
     },
     0x78b1ac7c7e356d30ULL},
    {"one_explicit_tenant",
     [](ExperimentConfig &cfg) {
         cfg.localFraction = 0.5;
         cfg.tenants = *parseTenants("web");
     },
     0xf40a5390d3ceb1b4ULL},
    {"shards4_admission_rebalance",
     [](ExperimentConfig &cfg) {
         cfg.workload = "cache1";
         cfg.wssPages = 8192;
         cfg.localFraction = 0.5;
         cfg.shards = 4;
         cfg.migration.rateLimitMBps = 50.0;
     },
     0x0ced5dcd305321c4ULL},
    {"two_hotness_regions_one_worker",
     [](ExperimentConfig &cfg) {
         cfg.workload = "cache1";
         cfg.policy = "hotness";
         cfg.hotness.source = "chameleon";
         cfg.wssPages = 8192;
         cfg.localFraction = 0.5;
         cfg.shards = 1;
         cfg.shardRegions = 2;
     },
     0x60ed48a09870ea74ULL},
    {"three_tier_topology",
     [](ExperimentConfig &cfg) {
         cfg.workload = "cache1";
         cfg.topology = "local:pages=1024;cxl:pages=1536:lat=150;"
                        "cxl-far:pages=2048:lat=300";
     },
     0x89185d6c7df65fe0ULL},
    {"all_local_linux",
     [](ExperimentConfig &cfg) {
         cfg.allLocal = true;
         cfg.policy = "linux";
     },
     0xdff51b372a66b0b6ULL},
};

class EngineGolden : public ::testing::TestWithParam<EngineCase> {};

/** `hash` as 0x and 16 hex digits, so a mismatch prints readably. */
std::string
hex(std::uint64_t hash)
{
    char text[24];
    std::snprintf(text, sizeof text, "0x%016llx",
                  static_cast<unsigned long long>(hash));
    return text;
}

TEST_P(EngineGolden, FingerprintIsPinned)
{
    setLogVerbose(false);
    const EngineCase &c = GetParam();
    ExperimentConfig cfg;
    cfg.workload = "web";
    cfg.policy = "tpp";
    cfg.wssPages = 4096;
    cfg.runUntil = 3 * kSecond;
    cfg.measureFrom = 1500 * kMillisecond;
    cfg.seed = 3;
    c.configure(cfg);
    for (const SyntheticWorkload::DrawAhead loop : test::kBothLoops) {
        const test::ScopedDrawAhead seam(loop);
        const ExperimentResult r = runExperiment(cfg);
        EXPECT_GT(r.throughput, 0.0);
        EXPECT_EQ(hex(test::resultFingerprint(r)), hex(c.fingerprint))
            << c.tag << ", " << test::loopName(loop);
    }
}

INSTANTIATE_TEST_SUITE_P(Engine, EngineGolden, ::testing::ValuesIn(kCases),
                         [](const auto &info) {
                             return std::string(info.param.tag);
                         });

/** Expect one resultFingerprint of `cfg` whichever loop draws accesses. */
void
expectSameBothWays(const ExperimentConfig &cfg)
{
    std::vector<std::string> prints;
    for (const SyntheticWorkload::DrawAhead loop : test::kBothLoops) {
        const test::ScopedDrawAhead seam(loop);
        prints.push_back(hex(test::resultFingerprint(runExperiment(cfg))));
    }
    EXPECT_EQ(prints[0], prints[1]);
}

TEST(EngineDrawAhead, Fig16Cache1TppMatchesInline)
{
    setLogVerbose(false);
    ExperimentConfig cfg;
    cfg.workload = "cache1";
    cfg.policy = "tpp";
    cfg.wssPages = 4096;
    cfg.localFraction = parseRatio("1:4");
    cfg.runUntil = 3 * kSecond;
    cfg.measureFrom = 1500 * kMillisecond;
    expectSameBothWays(cfg);
}

TEST(EngineDrawAhead, DwhBesideChurnTenantsMatchInline)
{
    // An open-loop victim's service calls and a closed-loop
    // antagonist's batches, each workload with its own draw stream, on
    // one kernel.
    setLogVerbose(false);
    ExperimentConfig cfg;
    cfg.policy = "tpp";
    cfg.wssPages = 4096;
    cfg.localFraction = parseRatio("1:4");
    cfg.runUntil = 3 * kSecond;
    cfg.measureFrom = 1500 * kMillisecond;
    cfg.tenants = *parseTenants("dwh:qps=200000:slo=500:low=0.5;churn");
    expectSameBothWays(cfg);
}

} // namespace
} // namespace tpp
