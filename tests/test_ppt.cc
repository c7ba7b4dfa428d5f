/**
 * @file
 * PingPongThrottle (mm/ppt) tests.
 *
 * Unit half: the class is standalone (counters + trace ring + explicit
 * timestamps), so these drive the cooldown clock directly — the window
 * arithmetic, the same-direction exemption, hysteresis escalation up to
 * the ceiling, LRU eviction at capacity (including the denial-refresh
 * rule) and the vm.ppt.* validation ranges.
 *
 * Golden half: vm.ppt.enable=0 must be a single branch with no state,
 * so explicitly setting it reproduces the pre-PPT golden fingerprints
 * bit-for-bit (the same constants test_migration_compat.cc pins), a
 * plain run matches an explicit-off run for tpp/linux/hotness, and the
 * invariance holds under the sharded engine (--shards 4) too.
 */

#include <string>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "mm/ppt/ppt.hh"
#include "mm/sysctl.hh"
#include "mm/vmstat.hh"
#include "trace/trace.hh"

namespace tpp {
namespace {

constexpr Asid kAsid = 1;
constexpr NodeId kTop = 0;
constexpr NodeId kCxl = 1;

/** Unit fixture: a throttle wired to private counters and an explicit
 *  clock, enabled with test-friendly tunables unless a test rebuilds
 *  it via make(). */
class PptUnit : public ::testing::Test
{
  protected:
    PptUnit() { make(defaultConfig()); }

    static PptConfig
    defaultConfig()
    {
        PptConfig cfg;
        cfg.enable = true;
        cfg.cooldownMs = 10;
        cfg.historyPages = 64;
        cfg.repeatThreshold = 2;
        cfg.maxCooldownMs = 80;
        return cfg;
    }

    void
    make(const PptConfig &cfg)
    {
        ppt = std::make_unique<PingPongThrottle>(vm, trace, cfg);
    }

    bool
    admit(Vpn vpn, PptHop dir, Tick now)
    {
        return ppt->admit(kAsid, vpn, dir, now,
                          dir == PptHop::Promote ? kTop : kCxl,
                          PageType::Anon, static_cast<Pfn>(vpn));
    }

    void
    record(Vpn vpn, PptHop dir, Tick now)
    {
        ppt->recordHop(kAsid, vpn, dir, now,
                       dir == PptHop::Promote ? kTop : kCxl,
                       PageType::Anon, static_cast<Pfn>(vpn));
    }

    std::uint64_t denials() const
    {
        return vm.get(Vm::PptThrottledPromote) +
               vm.get(Vm::PptThrottledDemote);
    }

    VmStat vm;
    TraceBuffer trace;
    std::unique_ptr<PingPongThrottle> ppt;
};

TEST_F(PptUnit, UntrackedAndSameDirectionHopsAreFree)
{
    // No history: both directions admitted at any time.
    EXPECT_TRUE(admit(7, PptHop::Promote, 0));
    EXPECT_TRUE(admit(7, PptHop::Demote, 0));

    // Same-direction repeats (a chained demotion) are never throttled,
    // even back-to-back inside what would be the cooldown.
    record(7, PptHop::Demote, 1 * kMillisecond);
    EXPECT_TRUE(admit(7, PptHop::Demote, 1 * kMillisecond));
    EXPECT_TRUE(admit(7, PptHop::Demote, 2 * kMillisecond));
    EXPECT_EQ(denials(), 0u);
    EXPECT_EQ(ppt->trackedPages(), 1u);
}

TEST_F(PptUnit, CooldownDeniesReverseHopUntilExpiry)
{
    const Tick t0 = 5 * kMillisecond;
    record(3, PptHop::Demote, t0);

    // Inside the 10 ms window the reverse hop is denied and counted.
    EXPECT_FALSE(admit(3, PptHop::Promote, t0 + 1 * kMillisecond));
    EXPECT_FALSE(admit(3, PptHop::Promote, t0 + 9 * kMillisecond));
    EXPECT_EQ(vm.get(Vm::PptThrottledPromote), 2u);
    EXPECT_EQ(vm.get(Vm::PptThrottledDemote), 0u);

    // The window is closed-open: exactly cooldown later is admitted.
    EXPECT_TRUE(admit(3, PptHop::Promote, t0 + 10 * kMillisecond));

    // The mirror case counts on the demote side.
    record(3, PptHop::Promote, t0 + 10 * kMillisecond);
    EXPECT_FALSE(admit(3, PptHop::Demote, t0 + 11 * kMillisecond));
    EXPECT_EQ(vm.get(Vm::PptThrottledDemote), 1u);
}

TEST_F(PptUnit, DisabledIsStatelessAndAlwaysAdmits)
{
    PptConfig cfg = defaultConfig();
    cfg.enable = false;
    make(cfg);

    record(9, PptHop::Demote, 0);
    EXPECT_EQ(ppt->trackedPages(), 0u); // recordHop is a no-op
    EXPECT_TRUE(admit(9, PptHop::Promote, 0));
    EXPECT_EQ(denials(), 0u);
    EXPECT_EQ(vm.get(Vm::PptEscalated), 0u);
    EXPECT_EQ(vm.get(Vm::PptHistoryEvict), 0u);
}

TEST_F(PptUnit, EscalationDoublesCooldownUpToTheCeiling)
{
    // cooldown 10 ms, threshold 2 flips, ceiling 80 ms. Hops are spaced
    // far apart so each one is a *completed* flip, as the engine only
    // records successes.
    Tick t = 0;
    const Tick step = kSecond;

    record(5, PptHop::Demote, t += step);
    EXPECT_EQ(ppt->cooldownNsFor(kAsid, 5), 10 * kMillisecond);

    // Flip 1: below the threshold, no escalation yet.
    record(5, PptHop::Promote, t += step);
    EXPECT_EQ(ppt->flipsFor(kAsid, 5), 1u);
    EXPECT_EQ(ppt->cooldownNsFor(kAsid, 5), 10 * kMillisecond);
    EXPECT_EQ(vm.get(Vm::PptEscalated), 0u);

    // Flips 2..4: each doubles the window — 20, 40, 80 ms.
    record(5, PptHop::Demote, t += step);
    EXPECT_EQ(ppt->cooldownNsFor(kAsid, 5), 20 * kMillisecond);
    record(5, PptHop::Promote, t += step);
    EXPECT_EQ(ppt->cooldownNsFor(kAsid, 5), 40 * kMillisecond);
    record(5, PptHop::Demote, t += step);
    EXPECT_EQ(ppt->cooldownNsFor(kAsid, 5), 80 * kMillisecond);
    EXPECT_EQ(vm.get(Vm::PptEscalated), 3u);

    // At the ceiling further flips saturate: no more escalations.
    record(5, PptHop::Promote, t += step);
    record(5, PptHop::Demote, t += step);
    EXPECT_EQ(ppt->cooldownNsFor(kAsid, 5), 80 * kMillisecond);
    EXPECT_EQ(vm.get(Vm::PptEscalated), 3u);
    EXPECT_EQ(ppt->flipsFor(kAsid, 5), 6u);

    // The escalated window really is enforced end to end.
    record(5, PptHop::Promote, t += step);
    EXPECT_FALSE(admit(5, PptHop::Demote, t + 79 * kMillisecond));
    EXPECT_TRUE(admit(5, PptHop::Demote, t + 80 * kMillisecond));
}

TEST_F(PptUnit, HistoryEvictsLeastRecentPageAtCapacity)
{
    PptConfig cfg = defaultConfig();
    cfg.historyPages = 4;
    make(cfg);

    Tick t = 0;
    for (Vpn v = 0; v < 4; ++v)
        record(v, PptHop::Demote, t += kMillisecond);
    EXPECT_EQ(ppt->trackedPages(), 4u);
    EXPECT_EQ(vm.get(Vm::PptHistoryEvict), 0u);

    // A fifth page evicts the coldest (vpn 0).
    record(4, PptHop::Demote, t += kMillisecond);
    EXPECT_EQ(ppt->trackedPages(), 4u);
    EXPECT_FALSE(ppt->tracks(kAsid, 0));
    EXPECT_TRUE(ppt->tracks(kAsid, 4));
    EXPECT_EQ(vm.get(Vm::PptHistoryEvict), 1u);

    // Touching vpn 1 refreshes it, so the next eviction takes vpn 2.
    record(1, PptHop::Demote, t += kMillisecond);
    record(5, PptHop::Demote, t += kMillisecond);
    EXPECT_TRUE(ppt->tracks(kAsid, 1));
    EXPECT_FALSE(ppt->tracks(kAsid, 2));
    EXPECT_EQ(vm.get(Vm::PptHistoryEvict), 2u);
}

TEST_F(PptUnit, DenialKeepsTheOffenderResidentInTheLru)
{
    PptConfig cfg = defaultConfig();
    cfg.historyPages = 2;
    cfg.cooldownMs = 50;
    make(cfg);

    record(0, PptHop::Demote, 1 * kMillisecond);
    record(1, PptHop::Demote, 2 * kMillisecond);

    // Denying vpn 0 marks it recently-used: the table must not forget
    // the very page it is actively throttling.
    EXPECT_FALSE(admit(0, PptHop::Promote, 3 * kMillisecond));
    record(2, PptHop::Demote, 4 * kMillisecond);
    EXPECT_TRUE(ppt->tracks(kAsid, 0));
    EXPECT_FALSE(ppt->tracks(kAsid, 1));
}

TEST_F(PptUnit, ClearForgetsHistoryButNotCountersOrConfig)
{
    record(3, PptHop::Demote, 1 * kMillisecond);
    EXPECT_FALSE(admit(3, PptHop::Promote, 2 * kMillisecond));
    ppt->clear();
    EXPECT_EQ(ppt->trackedPages(), 0u);
    EXPECT_TRUE(admit(3, PptHop::Promote, 2 * kMillisecond));
    EXPECT_EQ(vm.get(Vm::PptThrottledPromote), 1u); // survives clear
    EXPECT_TRUE(ppt->enabled());
}

TEST_F(PptUnit, EvictionClearsTheSlot)
{
    PptConfig cfg = defaultConfig();
    cfg.historyPages = 2;
    make(cfg);

    record(7, PptHop::Demote, 1 * kMillisecond);
    record(7, PptHop::Promote, 20 * kMillisecond);
    EXPECT_EQ(ppt->flipsFor(kAsid, 7), 1u);
    record(8, PptHop::Demote, 21 * kMillisecond);
    record(9, PptHop::Demote, 22 * kMillisecond); // evicts vpn 7
    EXPECT_FALSE(ppt->tracks(kAsid, 7));
    EXPECT_EQ(ppt->flipsFor(kAsid, 7), 0u);
    EXPECT_EQ(ppt->cooldownNsFor(kAsid, 7), 0u);
    EXPECT_EQ(ppt->trackedPages(), 2u);

    // Re-recorded, the page starts a fresh history.
    record(7, PptHop::Promote, 23 * kMillisecond);
    EXPECT_TRUE(ppt->tracks(kAsid, 7));
    EXPECT_EQ(ppt->flipsFor(kAsid, 7), 0u);
    EXPECT_TRUE(admit(7, PptHop::Promote, 24 * kMillisecond));
    EXPECT_EQ(ppt->trackedPages(), 2u);
}

TEST_F(PptUnit, ClearZeroesTheTrackedCount)
{
    for (Vpn v = 0; v < 10; ++v)
        record(v * 100000, PptHop::Demote, (v + 1) * kMillisecond);
    ppt->recordHop(kAsid + 3, 5, PptHop::Demote, 20 * kMillisecond, kCxl,
                   PageType::Anon, 5);
    EXPECT_EQ(ppt->trackedPages(), 11u);
    ppt->clear();
    EXPECT_EQ(ppt->trackedPages(), 0u);
    EXPECT_FALSE(ppt->tracks(kAsid, 0));
    EXPECT_FALSE(ppt->tracks(kAsid + 3, 5));
    record(0, PptHop::Demote, 30 * kMillisecond);
    EXPECT_EQ(ppt->trackedPages(), 1u);
}

TEST_F(PptUnit, LookupPastTheTableIsUntracked)
{
    record(3, PptHop::Demote, 1 * kMillisecond);
    const Vpn far = Vpn{1} << 40;
    for (const auto &[asid, vpn] :
         {std::pair<Asid, Vpn>{kAsid, far}, {kAsid + 9, 3}, {0, 3}}) {
        EXPECT_FALSE(ppt->tracks(asid, vpn));
        EXPECT_EQ(ppt->flipsFor(asid, vpn), 0u);
        EXPECT_EQ(ppt->cooldownNsFor(asid, vpn), 0u);
        EXPECT_TRUE(ppt->admit(asid, vpn, PptHop::Promote,
                               2 * kMillisecond, kTop, PageType::Anon, 3));
    }
    EXPECT_EQ(ppt->trackedPages(), 1u);
    EXPECT_EQ(denials(), 0u);
}

TEST_F(PptUnit, SysctlValidationRanges)
{
    make(PptConfig{}); // stock defaults: 1000/16384/2/16000, disabled
    SysctlRegistry sysctl;
    ppt->registerSysctls(sysctl);

    // enable is a strict bool.
    EXPECT_FALSE(sysctl.set("vm.ppt.enable", "2"));
    EXPECT_FALSE(sysctl.set("vm.ppt.enable", "yes"));
    EXPECT_TRUE(sysctl.set("vm.ppt.enable", "1"));
    EXPECT_EQ(sysctl.get("vm.ppt.enable"), "1");

    // cooldown_ms: integer in [1, min(2^20, max_cooldown_ms)].
    EXPECT_FALSE(sysctl.set("vm.ppt.cooldown_ms", "0"));
    EXPECT_FALSE(sysctl.set("vm.ppt.cooldown_ms", "-5"));
    EXPECT_FALSE(sysctl.set("vm.ppt.cooldown_ms", "abc"));
    EXPECT_FALSE(sysctl.set("vm.ppt.cooldown_ms", "16001")); // > max
    EXPECT_TRUE(sysctl.set("vm.ppt.cooldown_ms", "16000"));  // == max
    EXPECT_EQ(sysctl.get("vm.ppt.cooldown_ms"), "16000");

    // max_cooldown_ms can never dip below cooldown_ms and both share
    // the 2^20 ms knob ceiling.
    EXPECT_FALSE(sysctl.set("vm.ppt.max_cooldown_ms", "15999"));
    EXPECT_TRUE(sysctl.set("vm.ppt.cooldown_ms", "500"));
    EXPECT_TRUE(sysctl.set("vm.ppt.max_cooldown_ms", "1000"));
    EXPECT_FALSE(sysctl.set("vm.ppt.cooldown_ms", "1001"));
    EXPECT_FALSE(sysctl.set("vm.ppt.max_cooldown_ms", "1048577"));
    EXPECT_FALSE(sysctl.set("vm.ppt.cooldown_ms", "1048577"));

    // history_pages: [1, 2^24]; repeat_threshold: >= 1.
    EXPECT_FALSE(sysctl.set("vm.ppt.history_pages", "0"));
    EXPECT_FALSE(sysctl.set("vm.ppt.history_pages", "16777217"));
    EXPECT_TRUE(sysctl.set("vm.ppt.history_pages", "1"));
    EXPECT_FALSE(sysctl.set("vm.ppt.repeat_threshold", "0"));
    EXPECT_TRUE(sysctl.set("vm.ppt.repeat_threshold", "1"));
}

TEST_F(PptUnit, LiveHistoryShrinkEvictsColdestFirst)
{
    SysctlRegistry sysctl;
    ppt->registerSysctls(sysctl);

    Tick t = 0;
    for (Vpn v = 0; v < 8; ++v)
        record(v, PptHop::Demote, t += kMillisecond);
    EXPECT_EQ(ppt->trackedPages(), 8u);

    // Shrinking the table live trims LRU-first down to the new cap.
    EXPECT_TRUE(sysctl.set("vm.ppt.history_pages", "3"));
    EXPECT_EQ(ppt->trackedPages(), 3u);
    EXPECT_EQ(vm.get(Vm::PptHistoryEvict), 5u);
    for (Vpn v = 0; v < 5; ++v)
        EXPECT_FALSE(ppt->tracks(kAsid, v)) << v;
    for (Vpn v = 5; v < 8; ++v)
        EXPECT_TRUE(ppt->tracks(kAsid, v)) << v;
}

// ---- golden-fingerprint pins ---------------------------------------

/** Hash of every vmstat counter, matching test_shard.cc. */
std::uint64_t
vmHash(const VmStat &vmstat)
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kNumVmCounters; ++i)
        sum = sum * 1000003u + vmstat.get(static_cast<Vm>(i));
    return sum;
}

/** Hash of the pre-engine seed counters, matching
 *  test_migration_compat.cc. */
std::uint64_t
seedVmHash(const VmStat &vmstat)
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < 35; ++i)
        sum = sum * 1000003u + vmstat.get(static_cast<Vm>(i));
    return sum;
}

void
expectPptSilent(const VmStat &vmstat, const char *tag)
{
    EXPECT_EQ(vmstat.get(Vm::PptThrottledPromote), 0u) << tag;
    EXPECT_EQ(vmstat.get(Vm::PptThrottledDemote), 0u) << tag;
    EXPECT_EQ(vmstat.get(Vm::PptEscalated), 0u) << tag;
    EXPECT_EQ(vmstat.get(Vm::PptHistoryEvict), 0u) << tag;
}

TEST(PptGolden, ExplicitOffReproducesGoldenFingerprints)
{
    // The same pre-engine constants test_migration_compat.cc pins
    // (fig15_web_tpp and fig16_cache1_linux): setting vm.ppt.enable to
    // its default must be invisible down to the last bit.
    struct Pin {
        const char *tag;
        const char *workload;
        const char *policy;
        double localFraction;
        double throughput;
        double meanLatencyNs;
        std::uint64_t vmsum;
    };
    const Pin pins[] = {
        {"fig15_web_tpp", "web", "tpp", 2.0 / 3.0,
         785205.14820370195, 84.197993223045387, 7071264301307134540ull},
        {"fig16_cache1_linux", "cache1", "linux", 0.2,
         779422.65009620448, 120.50352733415521, 16959053233026845536ull},
    };

    for (const Pin &p : pins) {
        ExperimentConfig cfg;
        cfg.workload = p.workload;
        cfg.policy = p.policy;
        cfg.localFraction = p.localFraction;
        cfg.wssPages = 8192;
        cfg.runUntil = 10 * kSecond;
        cfg.measureFrom = 6 * kSecond;
        cfg.seed = 1;
        cfg.migration = MigrationConfig::compat();
        cfg.sysctls.emplace_back("vm.ppt.enable", "0");
        const ExperimentResult r = runExperiment(cfg);
        EXPECT_EQ(r.throughput, p.throughput) << p.tag;
        EXPECT_EQ(r.meanAccessLatencyNs, p.meanLatencyNs) << p.tag;
        EXPECT_EQ(seedVmHash(r.vmstat), p.vmsum) << p.tag;
        expectPptSilent(r.vmstat, p.tag);
    }
}

/** cache1 at test scale; the tag-selected policy is the only knob. */
ExperimentConfig
offConfig(const char *policy)
{
    ExperimentConfig cfg;
    cfg.workload = "cache1";
    cfg.policy = policy;
    cfg.wssPages = 8192;
    cfg.runUntil = 4 * kSecond;
    cfg.measureFrom = 2 * kSecond;
    cfg.seed = 7;
    cfg.migration = MigrationConfig::asyncEngine();
    return cfg;
}

class PptDefaultOff : public ::testing::TestWithParam<const char *> {};

TEST_P(PptDefaultOff, PlainRunMatchesExplicitOffBitForBit)
{
    // A config that never heard of PPT and one that pins the default
    // must be indistinguishable, async engine included.
    const char *policy = GetParam();
    const ExperimentResult plain = runExperiment(offConfig(policy));

    ExperimentConfig pinned = offConfig(policy);
    pinned.sysctls.emplace_back("vm.ppt.enable", "0");
    const ExperimentResult off = runExperiment(pinned);

    EXPECT_EQ(plain.throughput, off.throughput) << policy;
    EXPECT_EQ(plain.meanAccessLatencyNs, off.meanAccessLatencyNs)
        << policy;
    EXPECT_EQ(vmHash(plain.vmstat), vmHash(off.vmstat)) << policy;
    expectPptSilent(plain.vmstat, policy);
    expectPptSilent(off.vmstat, policy);
}

INSTANTIATE_TEST_SUITE_P(Golden, PptDefaultOff,
                         ::testing::Values("tpp", "linux", "hotness"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(PptGolden, ShardedRunIsUnchangedByExplicitOff)
{
    // The invariance must survive the shard engine too: 4 regions, 4
    // workers, plain vs pinned-off, every counter identical.
    ExperimentConfig base = offConfig("tpp");
    base.migration = MigrationConfig::compat();
    base.shards = 4;
    base.shardRegions = 4;
    const ExperimentResult plain = runExperiment(base);

    ExperimentConfig pinned = base;
    pinned.sysctls.emplace_back("vm.ppt.enable", "0");
    const ExperimentResult off = runExperiment(pinned);

    EXPECT_EQ(plain.shard.regions, 4u);
    EXPECT_EQ(plain.throughput, off.throughput);
    EXPECT_EQ(plain.meanAccessLatencyNs, off.meanAccessLatencyNs);
    EXPECT_EQ(vmHash(plain.vmstat), vmHash(off.vmstat));
    expectPptSilent(plain.vmstat, "sharded");
    expectPptSilent(off.vmstat, "sharded");
}

TEST(PptEndToEnd, ThrottleEngagesAndCutsMigrationOnChurn)
{
    // The ablation_ppt headline at test scale: on the oversubscribed
    // 1:4 cache1 machine the throttle must actually fire and must move
    // strictly fewer pages than the unthrottled twin.
    auto churn = [](bool enable) {
        ExperimentConfig cfg = offConfig("tpp");
        cfg.localFraction = 0.2;
        cfg.runUntil = 3 * kSecond;
        cfg.measureFrom = 1 * kSecond;
        cfg.seed = 1;
        cfg.migration = MigrationConfig::asyncEngine();
        cfg.sysctls.emplace_back("vm.ppt.enable", enable ? "1" : "0");
        if (enable)
            cfg.sysctls.emplace_back("vm.ppt.cooldown_ms", "500");
        return runExperiment(cfg);
    };

    const ExperimentResult off = churn(false);
    const ExperimentResult on = churn(true);

    const std::uint64_t denied =
        on.vmstat.get(Vm::PptThrottledPromote) +
        on.vmstat.get(Vm::PptThrottledDemote);
    EXPECT_GT(denied, 0u);
    EXPECT_LT(on.vmstat.get(Vm::PgMigrateSuccess),
              off.vmstat.get(Vm::PgMigrateSuccess));
    expectPptSilent(off.vmstat, "off arm");
}

} // namespace
} // namespace tpp
