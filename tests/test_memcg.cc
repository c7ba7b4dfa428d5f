/**
 * @file
 * Tests for the memory-cgroup layer (src/mm/memcg): per-node
 * accounting across fault/free/migrate, process attachment, the
 * per-cgroup sysctl surface, memory.low-style two-pass reclaim
 * protection, placement preferences, per-cgroup migration budgets, and
 * the multi-tenant experiment harness built on top.
 */

#include <sstream>

#include "core/tpp_policy.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "mm/migration/migration_engine.hh"
#include "test_common.hh"

namespace tpp {
namespace {

using test::TestMachine;

TEST(Memcg, RootAccountsEveryProcessByDefault)
{
    TestMachine m;
    MemcgController &memcg = m.kernel.memcg();
    EXPECT_EQ(memcg.numCgroups(), 1u);
    EXPECT_EQ(memcg.cgroupOf(m.asid), kRootCgroup);
    EXPECT_EQ(memcg.cgroup(kRootCgroup).name(), "root");

    m.populate(8);
    const MemCgroup &root = memcg.cgroup(kRootCgroup);
    EXPECT_EQ(root.usageOnNode(m.local()), 8u);
    EXPECT_EQ(root.usageOnNode(m.cxl()), 0u);
    EXPECT_EQ(root.usage(), 8u);
    EXPECT_EQ(root.stats.pagesCharged, 8u);
}

TEST(Memcg, UnchargeOnFree)
{
    TestMachine m;
    const Vpn base = m.populate(8);
    m.kernel.munmap(m.asid, base, 8);
    const MemCgroup &root = m.kernel.memcg().cgroup(kRootCgroup);
    EXPECT_EQ(root.usage(), 0u);
    EXPECT_EQ(root.stats.pagesCharged, 8u);
    EXPECT_EQ(root.stats.pagesUncharged, 8u);
}

TEST(Memcg, TransferFollowsMigration)
{
    TestMachine m;
    const Vpn base = m.populate(4);
    MemcgController &memcg = m.kernel.memcg();
    ASSERT_EQ(memcg.cgroup(kRootCgroup).usageOnNode(m.local()), 4u);

    // Demotion moves the charge local -> CXL; no page is ever counted
    // twice or dropped.
    ASSERT_TRUE(m.kernel.migration().demote(m.pte(base).pfn).freed);
    const MemCgroup &root = memcg.cgroup(kRootCgroup);
    EXPECT_EQ(root.usageOnNode(m.local()), 3u);
    EXPECT_EQ(root.usageOnNode(m.cxl()), 1u);
    EXPECT_EQ(root.usage(), 4u);
    EXPECT_EQ(root.stats.demotions, 1u);

    // Promotion moves it back and counts on the same cgroup.
    const Pfn cxl_pfn = m.pte(base).pfn;
    ASSERT_EQ(m.mem.frame(cxl_pfn).nid, m.cxl());
    ASSERT_TRUE(
        m.kernel.migration().promote(cxl_pfn, m.cxl(), m.local()).freed);
    EXPECT_EQ(root.usageOnNode(m.local()), 4u);
    EXPECT_EQ(root.usageOnNode(m.cxl()), 0u);
    EXPECT_EQ(root.stats.promoteSuccess, 1u);
}

TEST(Memcg, SpawnCgroupBindsNewProcesses)
{
    TestMachine m;
    MemcgController &memcg = m.kernel.memcg();
    const CgroupId id = memcg.create("tenant");

    memcg.setSpawnCgroup(id);
    const Asid child = m.kernel.createProcess();
    memcg.setSpawnCgroup(kRootCgroup);
    EXPECT_EQ(memcg.cgroupOf(child), id);
    EXPECT_EQ(memcg.cgroupOf(m.asid), kRootCgroup);

    const Vpn base = m.kernel.mmap(child, 4, PageType::Anon, "heap");
    for (int i = 0; i < 4; ++i)
        m.kernel.access(child, base + i, AccessKind::Store, 0);
    EXPECT_EQ(memcg.cgroup(id).usageOnNode(m.local()), 4u);
    EXPECT_EQ(memcg.cgroup(kRootCgroup).usage(), 0u);
}

TEST(Memcg, AttachMovesFutureChargesOnly)
{
    TestMachine m;
    MemcgController &memcg = m.kernel.memcg();
    m.populate(4);
    const CgroupId id = memcg.create("late");
    memcg.attach(m.asid, id);
    m.populate(4);
    // Pages resident before the attach keep their original accounting.
    EXPECT_EQ(memcg.cgroup(kRootCgroup).usage(), 4u);
    EXPECT_EQ(memcg.cgroup(id).usage(), 4u);
}

TEST(Memcg, PerCgroupSysctlSurface)
{
    TestMachine m;
    MemcgController &memcg = m.kernel.memcg();
    const CgroupId id = memcg.create("web");
    SysctlRegistry &sysctl = m.kernel.sysctl();

    ASSERT_TRUE(sysctl.exists("memcg.web.low"));
    EXPECT_TRUE(sysctl.set("memcg.web.low", "128"));
    EXPECT_EQ(memcg.cgroup(id).low, 128u);
    EXPECT_FALSE(sysctl.set("memcg.web.low", "-1"));

    EXPECT_EQ(sysctl.get("memcg.web.placement"), "none");
    EXPECT_TRUE(sysctl.set("memcg.web.placement", "local_only"));
    EXPECT_EQ(memcg.cgroup(id).placement, MemcgPlacement::LocalOnly);
    EXPECT_FALSE(sysctl.set("memcg.web.placement", "sideways"));

    EXPECT_TRUE(sysctl.set("memcg.web.migration_budget_mbps", "12.5"));
    EXPECT_DOUBLE_EQ(memcg.cgroup(id).migrationBudgetMBps, 12.5);
    EXPECT_FALSE(sysctl.set("memcg.web.migration_budget_mbps", "nan"));
    EXPECT_FALSE(sysctl.set("memcg.web.migration_budget_mbps", "-1"));

    // memory.stat is read-only and reflects live counters.
    const std::string stat = sysctl.get("memcg.web.stat");
    EXPECT_NE(stat.find("usage 0"), std::string::npos);
    EXPECT_NE(stat.find("low 128"), std::string::npos);
    EXPECT_FALSE(sysctl.set("memcg.web.stat", "1"));
}

TEST(MemcgDeathTest, BadCgroupNamesFatal)
{
    setLogVerbose(false);
    TestMachine m;
    MemcgController &memcg = m.kernel.memcg();
    memcg.create("dup");
    EXPECT_DEATH(memcg.create("dup"), "already exists");
    EXPECT_DEATH(memcg.create(""), "must not be empty");
}

TEST(Memcg, ProtectionFloorShieldsVictimFromAntagonist)
{
    TestMachine m;
    MemcgController &memcg = m.kernel.memcg();
    const CgroupId victim = memcg.create("victim");
    memcg.attach(m.asid, victim);
    memcg.cgroup(victim).low = 64;

    // 16 victim pages (under its floor -> protected), then 16 root
    // pages. The victim's pages sit at the cold end of the LRU, so an
    // unprotected scan would eat them first.
    const Vpn vbase = m.populate(16);
    const Asid antagonist = m.kernel.createProcess();
    const Vpn abase = m.kernel.mmap(antagonist, 16, PageType::Anon, "a");
    for (int i = 0; i < 16; ++i)
        m.kernel.access(antagonist, abase + i, AccessKind::Store, 0);
    for (int i = 0; i < 16; ++i) {
        m.frameOf(vbase + i).clearFlag(PageFrame::FlagReferenced);
        m.mem.frame(m.kernel.addressSpace(antagonist).pte(abase + i).pfn)
            .clearFlag(PageFrame::FlagReferenced);
    }

    ASSERT_TRUE(memcg.protectionActive());
    auto [reclaimed, cost] = m.kernel.directReclaim(0, 8);
    EXPECT_EQ(reclaimed, 8u);
    // Every victim page survived; the antagonist paid the whole bill.
    for (int i = 0; i < 16; ++i)
        EXPECT_TRUE(m.pte(vbase + i).present()) << i;
    std::uint64_t antagonist_resident = 0;
    for (int i = 0; i < 16; ++i)
        if (m.kernel.addressSpace(antagonist).pte(abase + i).present())
            antagonist_resident++;
    EXPECT_EQ(antagonist_resident, 8u);

    EXPECT_GT(m.kernel.vmstat().get(Vm::MemcgReclaimProtected), 0u);
    EXPECT_GT(memcg.cgroup(victim).stats.reclaimProtected, 0u);
    // Pass 1 made progress, so no floor was breached.
    EXPECT_EQ(m.kernel.vmstat().get(Vm::MemcgReclaimLow), 0u);
    EXPECT_EQ(memcg.cgroup(victim).stats.reclaimLow, 0u);
    (void)cost;
}

TEST(Memcg, ProtectionBreachesFloorWhenNothingElseRemains)
{
    TestMachine m;
    MemcgController &memcg = m.kernel.memcg();
    const CgroupId victim = memcg.create("victim");
    memcg.attach(m.asid, victim);
    memcg.cgroup(victim).low = 64;

    const Vpn base = m.populate(16);
    for (int i = 0; i < 16; ++i)
        m.frameOf(base + i).clearFlag(PageFrame::FlagReferenced);

    // Only protected pages exist: pass 1 skips them all, pass 2 must
    // still make progress (memory.low is a floor, not a guarantee) and
    // bill each breach to the cgroup.
    auto [reclaimed, cost] = m.kernel.directReclaim(0, 4);
    EXPECT_EQ(reclaimed, 4u);
    EXPECT_GT(m.kernel.vmstat().get(Vm::MemcgReclaimProtected), 0u);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::MemcgReclaimLow), 4u);
    EXPECT_EQ(memcg.cgroup(victim).stats.reclaimLow, 4u);
    (void)cost;
}

TEST(Memcg, ProtectionKillSwitchRestoresPlainReclaim)
{
    TestMachine m;
    MemcgController &memcg = m.kernel.memcg();
    const CgroupId victim = memcg.create("victim");
    memcg.attach(m.asid, victim);
    memcg.cgroup(victim).low = 64;
    ASSERT_TRUE(m.kernel.sysctl().set("vm.memcg_protection", "0"));
    EXPECT_FALSE(memcg.protectionActive());

    const Vpn base = m.populate(16);
    for (int i = 0; i < 16; ++i)
        m.frameOf(base + i).clearFlag(PageFrame::FlagReferenced);
    auto [reclaimed, cost] = m.kernel.directReclaim(0, 4);
    EXPECT_EQ(reclaimed, 4u);
    // With the switch off the floor never fires in either direction.
    EXPECT_EQ(m.kernel.vmstat().get(Vm::MemcgReclaimProtected), 0u);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::MemcgReclaimLow), 0u);
    (void)cost;
}

TEST(Memcg, CxlOnlyPlacementSteersAllocations)
{
    TestMachine m;
    MemcgController &memcg = m.kernel.memcg();
    const CgroupId cold = memcg.create("cold");
    memcg.cgroup(cold).placement = MemcgPlacement::CxlOnly;
    memcg.setSpawnCgroup(cold);
    const Asid child = m.kernel.createProcess();
    memcg.setSpawnCgroup(kRootCgroup);

    const Vpn base = m.kernel.mmap(child, 4, PageType::Anon, "heap");
    for (int i = 0; i < 4; ++i)
        m.kernel.access(child, base + i, AccessKind::Store, 0);
    for (int i = 0; i < 4; ++i) {
        const Pfn pfn = m.kernel.addressSpace(child).pte(base + i).pfn;
        EXPECT_EQ(m.mem.frame(pfn).nid, m.cxl()) << i;
    }
    EXPECT_EQ(memcg.cgroup(cold).usageOnNode(m.cxl()), 4u);
}

TEST(Memcg, MigrationBudgetAccruesFromConfigurationNotBoot)
{
    TestMachine m;
    MemcgController &memcg = m.kernel.memcg();

    // No budget: admission is free.
    EXPECT_TRUE(memcg.chargeMigration(m.asid, kPageSize));

    // Advance time first, then configure: the elapsed unlimited time
    // must not count as earned tokens (no boot burst).
    m.eq.run(m.eq.now() + 1 * kSecond);
    memcg.setMigrationBudget(kRootCgroup, 1.0); // 1 MB/s
    EXPECT_FALSE(memcg.chargeMigration(m.asid, kPageSize));

    // 10 ms at 1 MB/s earns 10 000 bytes: two pages, not three.
    m.eq.run(m.eq.now() + 10 * kMillisecond);
    EXPECT_TRUE(memcg.chargeMigration(m.asid, kPageSize));
    EXPECT_TRUE(memcg.chargeMigration(m.asid, kPageSize));
    EXPECT_FALSE(memcg.chargeMigration(m.asid, kPageSize));

    // Raising the budget mints nothing retroactively...
    memcg.setMigrationBudget(kRootCgroup, 1000.0);
    EXPECT_FALSE(memcg.chargeMigration(m.asid, kPageSize));
    // ...but tokens then accrue at the new rate.
    m.eq.run(m.eq.now() + 1 * kMillisecond);
    EXPECT_TRUE(memcg.chargeMigration(m.asid, kPageSize));

    // Lowering clamps outstanding tokens to the new burst.
    m.eq.run(m.eq.now() + 1 * kSecond); // fill at 1000 MB/s
    memcg.setMigrationBudget(kRootCgroup, 0.001); // burst = 100 bytes
    EXPECT_FALSE(memcg.chargeMigration(m.asid, kPageSize));
}

TEST(Memcg, BudgetThrottlesAsyncMigration)
{
    MigrationConfig cfg = MigrationConfig::asyncEngine();
    cfg.drainBatch = 32;
    cfg.drainPeriod = 1 * kMillisecond;
    TestMachine m(1024, 1024, std::make_unique<DefaultLinuxPolicy>(),
                  cfg);
    MemcgController &memcg = m.kernel.memcg();
    const Vpn base = m.populate(4);

    // One page per 100 ms burst window; let exactly one burst accrue.
    memcg.setMigrationBudget(kRootCgroup, 4096.0 / 1e6 * 10.0);
    m.eq.run(m.eq.now() + 100 * kMillisecond);

    EXPECT_EQ(m.kernel.migration().demote(m.pte(base).pfn).outcome,
              MigrateOutcome::Queued);
    EXPECT_EQ(m.kernel.migration().demote(m.pte(base + 1).pfn).outcome,
              MigrateOutcome::Deferred);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::MemcgMigrateThrottled), 1u);
    EXPECT_EQ(memcg.cgroup(kRootCgroup).stats.migrateThrottled, 1u);
}

// ---- tenant spec parsing --------------------------------------------

TEST(TenantSpec, ParsesFullGrammar)
{
    const auto tenants =
        *parseTenants("cache1:low=0.6:wss=65536;"
                      "churn:budget=50:place=cxl_only");
    ASSERT_EQ(tenants.size(), 2u);
    EXPECT_EQ(tenants[0].workload, "cache1");
    EXPECT_DOUBLE_EQ(tenants[0].lowFraction, 0.6);
    EXPECT_EQ(tenants[0].wssPages, 65536u);
    EXPECT_EQ(tenants[0].placement, "none");
    EXPECT_FALSE(tenants[0].openLoop.enabled());
    EXPECT_EQ(tenants[1].workload, "churn");
    EXPECT_DOUBLE_EQ(tenants[1].budgetMBps, 50.0);
    EXPECT_EQ(tenants[1].placement, "cxl_only");
}

TEST(TenantSpec, ParsesOpenLoopKeys)
{
    const auto tenants = *parseTenants(
        "cache1:qps=50000:arrival=bursty:slo=150;churn");
    ASSERT_EQ(tenants.size(), 2u);
    EXPECT_TRUE(tenants[0].openLoop.enabled());
    EXPECT_DOUBLE_EQ(tenants[0].openLoop.qps, 50000.0);
    EXPECT_EQ(tenants[0].openLoop.arrival, "bursty");
    EXPECT_DOUBLE_EQ(tenants[0].openLoop.sloP99Us, 150.0);
    EXPECT_FALSE(tenants[1].openLoop.enabled());
}

TEST(TenantSpec, RejectsHostileValues)
{
    // Each bad spec comes back as an error naming the fault. The sysctl
    // lessons, applied to the spec parser: no NaN floors, no negative
    // working sets wrapping through strtoull; and the diagnostic quotes
    // the offending token.
    const std::vector<std::pair<const char *, const char *>> cases = {
        {"", "names no tenants"},
        {"web;;churn", "empty entry"},
        {":low=0.5", "no leading name"},
        {"web:low", "key=value"},
        {"web:color=red", "unknown key 'color'"},
        {"web:low=nan", "out of [0, 1]"},
        {"web:low=1.5", "out of [0, 1]"},
        {"web:low=-0.1", "out of [0, 1]"},
        {"web:wss=-1", "unsigned integer"},
        {"web:wss=12x", "unsigned integer"},
        {"web:budget=inf", "out of [0,"},
        {"web:place=middle", "none, local_only"},
        {"web:qps=-5", "at 'qps=-5'"},
        {"web:arrival=fractal", "poisson, bursty, diurnal"},
        {"web:low=0.5:low=0.6", "duplicate key 'low'"},
    };
    for (const auto &[spec, text] : cases) {
        const SpecResult<std::vector<TenantSpec>> tenants =
            parseTenants(spec);
        ASSERT_FALSE(tenants) << spec;
        const std::string message = tenants.error().render();
        EXPECT_NE(message.find(text), std::string::npos)
            << spec << ": " << message;
    }
}

// ---- multi-tenant harness end to end --------------------------------

TEST(TenantExperiment, ProducesPerTenantRows)
{
    ExperimentConfig cfg;
    cfg.workload = "cache1"; // ignored by the tenant path
    cfg.policy = "tpp";
    cfg.wssPages = 4096;
    cfg.localFraction = parseRatio("2:3");
    cfg.runUntil = 3 * kSecond;
    cfg.measureFrom = 2 * kSecond;
    cfg.tenants = *parseTenants("cache1:low=0.5;churn");

    const ExperimentResult r = runExperiment(cfg);
    EXPECT_EQ(r.workload, "cache1+churn");
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_EQ(r.tenants[0].name, "t0-cache1");
    EXPECT_EQ(r.tenants[1].name, "t1-churn");
    double tput = 0.0;
    for (const TenantResult &t : r.tenants) {
        EXPECT_GT(t.throughput, 0.0) << t.name;
        EXPECT_GT(t.meanAccessLatencyNs, 0.0) << t.name;
        EXPECT_GT(t.pagesTotal, 0u) << t.name;
        EXPECT_GE(t.pagesTotal, t.pagesLocal) << t.name;
        EXPECT_GT(t.memcg.pagesCharged, 0u) << t.name;
        tput += t.throughput;
    }
    // The headline row aggregates the tenants.
    EXPECT_DOUBLE_EQ(r.throughput, tput);

    // The per-tenant exports carry one row per tenant.
    std::ostringstream csv;
    writeTenantsCsv(csv, {r});
    std::size_t rows = 0;
    for (char c : csv.str())
        rows += c == '\n';
    EXPECT_EQ(rows, 3u); // header + 2 tenants
    EXPECT_NE(csv.str().find("t0-cache1"), std::string::npos);

    std::ostringstream json;
    writeResultJson(json, r);
    EXPECT_NE(json.str().find("\"tenants\": ["), std::string::npos);
    EXPECT_NE(json.str().find("\"name\": \"t1-churn\""),
              std::string::npos);
}

TEST(TenantExperiment, LowFloorProtectsLocalResidency)
{
    // The ablation's claim at test scale, one pairing: the same
    // co-location with and without the victim's floor. Protection must
    // leave the victim with strictly more fast-tier residency. Needs
    // the ablation's smoke cadence (6 s): at shorter runs the churn
    // antagonist has not yet displaced the unprotected victim.
    auto run = [](double low_fraction) {
        ExperimentConfig cfg;
        cfg.policy = "tpp";
        cfg.wssPages = 4096;
        cfg.localFraction = parseRatio("2:3");
        cfg.runUntil = 6 * kSecond;
        cfg.measureFrom = 3 * kSecond;
        TenantSpec victim;
        victim.workload = "cache1";
        victim.lowFraction = low_fraction;
        TenantSpec antagonist;
        antagonist.workload = "churn";
        cfg.tenants = {victim, antagonist};
        return runExperiment(cfg);
    };

    const ExperimentResult off = run(0.0);
    const ExperimentResult on = run(0.6);
    ASSERT_EQ(on.tenants.size(), 2u);
    EXPECT_GT(on.tenants[0].localResidency,
              off.tenants[0].localResidency);
    EXPECT_GT(on.tenants[0].memcg.reclaimProtected, 0u);
    EXPECT_EQ(off.tenants[0].memcg.reclaimProtected, 0u);
}

} // namespace
} // namespace tpp
