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
 * one access-event pipe (mm/access_tap.hh).
 */

#include <cstdio>

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
         cfg.tenants = parseTenantsSpec("cache1:low=0.5;web");
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
         cfg.tenants = parseTenantsSpec(
             "dwh:qps=200000:slo=500:low=0.5;churn:budget=50");
     },
     0x78b1ac7c7e356d30ULL},
    {"one_explicit_tenant",
     [](ExperimentConfig &cfg) {
         cfg.localFraction = 0.5;
         cfg.tenants = parseTenantsSpec("web");
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
    const ExperimentResult r = runExperiment(cfg);

    EXPECT_GT(r.throughput, 0.0);
    char actual[24];
    std::snprintf(actual, sizeof actual, "0x%016llx",
                  static_cast<unsigned long long>(test::resultFingerprint(r)));
    char expected[24];
    std::snprintf(expected, sizeof expected, "0x%016llx",
                  static_cast<unsigned long long>(c.fingerprint));
    EXPECT_STREQ(actual, expected) << c.tag;
}

INSTANTIATE_TEST_SUITE_P(Engine, EngineGolden, ::testing::ValuesIn(kCases),
                         [](const auto &info) {
                             return std::string(info.param.tag);
                         });

} // namespace
} // namespace tpp
