/**
 * @file
 * The ablations beyond the paper's figures: TPP's design knobs, the
 * MigrationEngine, the hotness sources, memcg protection, open-loop
 * tail latency, the tier hierarchy, ping-pong throttling and the
 * phase-adaptive tuner.
 *
 * Each ablation that makes a claim checks it after its table and prints
 * "WARNING: ..." when it does not hold; the run still exits 0. All but
 * ablation_sweeps and ablation_migration_engine take
 * `--preset smoke|full` (default full), where smoke shortens the runs
 * for CI; ablation_migration_engine takes `--mode sync|async|all`.
 */

#include "figures.hh"
#include "trace/summary.hh"

namespace tpp {
namespace bench {
namespace {

/** Run until `until`, scoring from `from`. */
void
window(ExperimentConfig &cfg, Tick until, Tick from)
{
    cfg.runUntil = until;
    cfg.measureFrom = from;
}

std::string
unlimitedOr(double limit)
{
    return limit == 0.0 ? std::string("unlimited")
                        : TextTable::num(limit, 0);
}

/** The promotion-hungry 1:4 machine of the PPT and adaptive ablations:
 *  a TPP-family policy on the async engine, tracing and recall on. */
ExperimentConfig
churnyConfig(const BenchOptions &opt, const char *workload,
             const char *policy)
{
    ExperimentConfig cfg = makeConfig(opt);
    cfg.workload = workload;
    cfg.policy = policy;
    cfg.localFraction = 0.2;
    cfg.measureHotness = true;
    cfg.traceEnabled = true;
    cfg.migration = MigrationConfig::asyncEngine();
    return cfg;
}

} // namespace

/**
 * ablation_sweeps: TPP's design knobs on the stress case (Cache1, 1:4):
 *  1. demote_scale_factor, the free headroom the demotion daemon
 *     maintains (the paper defaults to 2 %, §5.2);
 *  2. the hint-fault scan cadence: promotion responsiveness vs
 *     sampling overhead (§5.3);
 *  3. the promotion rate limit, the upstream follow-up knob
 *     (numa_balancing_promote_rate_limit_MBps); 0 = the paper's TPP.
 * The three sweeps are one batch, so --jobs spreads across them and the
 * default point they share (2.0 / 512 per 20ms / no limit) is simulated
 * once.
 */
void
designSweeps(Run &run)
{
    struct Cadence {
        std::uint64_t batch;
        Tick period;
        const char *label;
    };
    const std::vector<Cadence> cadences = {
        {128, 40 * kMillisecond, "128 / 40ms (slow)"},
        {512, 20 * kMillisecond, "512 / 20ms (default)"},
        {2048, 10 * kMillisecond, "2048 / 10ms (aggressive)"},
    };
    const ExperimentConfig base =
        tieredConfig(run.opt, "cache1", "tpp", "1:4");
    Configs cfgs;
    std::vector<Row> factors, scans, limits;
    for (double factor : {0.5, 1.0, 2.0, 4.0, 8.0}) {
        factors.push_back({{TextTable::num(factor, 1)}, cfgs.size()});
        cfgs.push_back(base);
        cfgs.back().tpp.demoteScaleFactor = factor;
    }
    for (const Cadence &c : cadences) {
        scans.push_back({{c.label}, cfgs.size()});
        cfgs.push_back(base);
        cfgs.back().tpp.scanBatch = c.batch;
        cfgs.back().tpp.scanPeriod = c.period;
    }
    for (double limit : {0.0, 16.0, 64.0, 256.0}) {
        limits.push_back(
            {{limit == 0.0 ? "off" : TextTable::num(limit, 0)}, cfgs.size()});
        cfgs.push_back(base);
        cfgs.back().tpp.promoteRateLimitMBps = limit;
    }
    const Results &results = run.sweep(cfgs);

    std::printf("-- demote_scale_factor --\n");
    printTable({"scale factor", "local traffic", "tput (ops/s)", "demotions",
                "promo success rate"},
               factors, results);
    std::printf("\n-- hint-fault scan cadence --\n");
    printTable({"batch/period", "hint faults", "promotions", "local traffic",
                "tput (ops/s)"},
               scans, results);
    std::printf("\n-- promotion rate limit (MB/s) --\n");
    printTable({"limit", "promotions", "rate-limited", "local traffic",
                "tput (ops/s)"},
               limits, results);
}

/**
 * ablation_migration_engine: what making migration asynchronous,
 * transactional and bandwidth-priced buys (or costs), and whether the
 * token-bucket admission controller bounds migration traffic. Two
 * sweeps on the stress case (Cache1, 1:4, TPP):
 *  1. the engine-mode ladder: sync-compat (the pre-engine kernel,
 *     bit-identical), async queueing only, + transactional copy,
 *     + bandwidth-coupled copy cost (= MigrationConfig::asyncEngine());
 *  2. admission: vm.migration_rate_limit_mbps from unlimited down to a
 *     starved budget on the async engine; deferrals must rise and
 *     migrations fall monotonically as the budget shrinks.
 * --mode sync and --mode async run one rung of the ladder each (the CI
 * smoke entries); all runs both sweeps.
 */
void
migrationEngine(Run &run)
{
    MigrationConfig queued;
    queued.async = true;
    queued.queueDepth = 512;
    MigrationConfig txn = queued;
    txn.transactional = true;
    std::vector<std::pair<MigrationConfig, const char *>> ladder = {
        {MigrationConfig::compat(), "sync-compat"},
        {queued, "async queueing"},
        {txn, "+ transactional"},
        {MigrationConfig::asyncEngine(), "+ bandwidth cost"}};
    if (run.opt.extra == "sync")
        ladder = {ladder.front()};
    else if (run.opt.extra == "async")
        ladder = {ladder.back()};
    const std::vector<double> limits = {0.0, 512.0, 128.0, 32.0};

    Configs cfgs;
    std::vector<Row> modes, admission;
    for (const auto &[migration, label] : ladder) {
        modes.push_back({{label}, cfgs.size()});
        cfgs.push_back(tieredConfig(run.opt, "cache1", "tpp", "1:4"));
        cfgs.back().migration = migration;
    }
    if (run.opt.extra == "all") {
        for (double limit : limits) {
            admission.push_back({{unlimitedOr(limit)}, cfgs.size()});
            cfgs.push_back(tieredConfig(run.opt, "cache1", "tpp", "1:4"));
            cfgs.back().migration = MigrationConfig::asyncEngine();
            cfgs.back().migration.rateLimitMBps = limit;
        }
    }
    const Results &results = run.sweep(cfgs);

    printTable({"engine mode", "tput (ops/s)", "local traffic", "migrated",
                "queued", "deferred", "busy aborts"},
               modes, results, "engine mode ladder");
    if (admission.empty())
        return;
    printTable({"rate limit (MB/s)", "tput (ops/s)", "migrated", "deferred",
                "deferred share"},
               admission, results, "admission control (async engine)");

    // The claim: a shrinking budget monotonically defers more and moves
    // less.
    for (std::size_t i = 1; i < admission.size(); ++i) {
        const VmStat &prev = results[admission[i - 1].run].vmstat;
        const VmStat &cur = results[admission[i].run].vmstat;
        checkClaim(cur.get(Vm::PgMigrateSuccess) <=
                           prev.get(Vm::PgMigrateSuccess) &&
                       cur.get(Vm::PgMigrateDeferred) >=
                           prev.get(Vm::PgMigrateDeferred),
                   "admission control not monotone between %.0f and "
                   "%.0f MB/s",
                   limits[i - 1], limits[i]);
    }
}

/**
 * ablation_hotness_sources: the same demotion machinery and
 * epoch-batched promotion pipeline (src/hotness), swapping only the
 * temperature signal — hint-fault sampling, DAMON-lite regions, the
 * Chameleon profiler and the NeoProf device counter engine — with
 * stock TPP (instant promotion) as the reference row. Every cell also
 * measures hot-set recall: the share of the true hot set (top pages by
 * access count in the measured window, up to local capacity) resident
 * locally at the end. The claim: on cache1 the device counters
 * (neoprof) beat hint-fault sampling on recall without migrating more
 * pages.
 */
void
hotnessSources(Run &run)
{
    // Per workload: the four sources through the hotness policy, then
    // stock TPP (the empty source) as the reference.
    const std::vector<std::string> sources = {"hintfault", "damon",
                                              "chameleon", "neoprof", ""};
    const std::vector<const char *> workloads = {"cache1", "web"};
    Configs cfgs;
    std::vector<std::vector<Row>> tables;
    for (const char *workload : workloads) {
        tables.emplace_back();
        for (const std::string &source : sources) {
            tables.back().push_back(
                {{source.empty() ? "tpp (reference)" : source},
                 cfgs.size()});
            cfgs.push_back(tieredConfig(run.opt, workload,
                                        source.empty() ? "tpp" : "hotness",
                                        "1:4"));
            if (!source.empty())
                cfgs.back().hotness.source = source;
            cfgs.back().measureHotness = true;
            if (run.smoke())
                window(cfgs.back(), 6 * kSecond, 3 * kSecond);
        }
    }
    const Results &results = run.sweep(cfgs);
    for (std::size_t w = 0; w < tables.size(); ++w) {
        printTable({"source", "tput (ops/s)", "local traffic",
                    "hot-set recall", "hot pages", "migrated",
                    "ctr evictions"},
                   tables[w], results, workloads[w]);
    }

    // The claim, on cache1: device counters see every CXL access, so
    // they must recover more of the hot set than hint-fault sampling
    // without moving more pages.
    const ExperimentResult &hintfault = results[0];
    const ExperimentResult &neoprof = results[3];
    checkClaim(neoprof.hotSetRecall > hintfault.hotSetRecall,
               "neoprof recall (%.3f) does not beat hintfault (%.3f) on "
               "cache1",
               neoprof.hotSetRecall, hintfault.hotSetRecall);
    const auto moved = [](const ExperimentResult &r) {
        return static_cast<unsigned long long>(
            r.vmstat.get(Vm::PgMigrateSuccess));
    };
    checkClaim(moved(neoprof) <= moved(hintfault),
               "neoprof migrated more pages (%llu) than hintfault (%llu) "
               "on cache1",
               moved(neoprof), moved(hintfault));
}

/**
 * ablation_memcg: a latency-sensitive victim beside the churn
 * antagonist on one tiered machine (src/mm/memcg), with the victim's
 * memory.low-style floor off and on. Without it the antagonist's
 * allocation storm drags the victim's hot set off the local tier; with
 * it, reclaim skips the victim's local pages (two-pass,
 * memcg_reclaim_protected). The claim, per pairing: protection gives
 * the victim strictly higher hot-set recall AND strictly lower mean
 * access latency.
 */
void
memcgProtection(Run &run)
{
    const std::vector<std::string> victims = {"cache1", "web"};
    Configs cfgs;
    for (const std::string &victim : victims) {
        for (bool protection : {false, true}) {
            ExperimentConfig cfg = makeConfig(run.opt);
            // A small local tier: the two tenants' combined hot sets
            // oversubscribe it, so local residency is contended.
            cfg.localFraction = parseRatio("2:3");
            cfg.policy = "tpp";
            cfg.measureHotness = true;
            if (run.smoke())
                window(cfg, 6 * kSecond, 3 * kSecond);
            // The floor is a fraction of the victim's working set.
            cfg.tenants = specValueOrDie(parseTenants(
                victim + (protection ? ":low=0.6" : "") + ";churn"));
            cfgs.push_back(cfg);
        }
    }
    const Results &results = run.sweep(cfgs);

    for (std::size_t i = 0; i < victims.size(); ++i) {
        std::printf("-- %s + churn --\n", victims[i].c_str());
        TextTable table({"protection", "tenant", "tput (ops/s)",
                         "latency (ns)", "local residency",
                         "hot-set recall", "reclaim protected",
                         "reclaim low"});
        for (std::size_t on = 0; on < 2; ++on) {
            for (const TenantResult &t : results[2 * i + on].tenants) {
                table.addRow({on ? "memory.low" : "off", t.workload,
                              TextTable::num(t.throughput, 0),
                              TextTable::num(t.meanAccessLatencyNs, 1),
                              TextTable::pct(t.localResidency),
                              TextTable::pct(t.hotSetRecall),
                              TextTable::count(t.memcg.reclaimProtected),
                              TextTable::count(t.memcg.reclaimLow)});
            }
        }
        table.print();
        std::printf("\n");
    }

    // The isolation claim, per pairing.
    for (std::size_t i = 0; i < victims.size(); ++i) {
        const TenantResult &off = results[2 * i].tenants.front();
        const TenantResult &on = results[2 * i + 1].tenants.front();
        checkClaim(on.hotSetRecall > off.hotSetRecall,
                   "protected %s hot-set recall (%.3f) does not beat "
                   "unprotected (%.3f)",
                   victims[i].c_str(), on.hotSetRecall, off.hotSetRecall);
        checkClaim(on.meanAccessLatencyNs < off.meanAccessLatencyNs,
                   "protected %s latency (%.1f ns) is not below "
                   "unprotected (%.1f ns)",
                   victims[i].c_str(), on.meanAccessLatencyNs,
                   off.meanAccessLatencyNs);
    }
}

/**
 * ablation_openloop: offer the dwh victim a fixed request rate between
 * the linux and tpp service capacities on a 1:4 machine, next to the
 * churn antagonist (src/workloads/arrival). Closed-loop drivers hide
 * placement quality — a slow kernel just issues fewer ops — while an
 * open-loop arrival process keeps offering load, so the difference
 * shows in the tail. Under tpp the victim's service rate stays above
 * the offered rate and p99 near the service time; under linux the
 * CXL-heavy placement drops it below, the queue grows without bound
 * and p99 climbs to the length of the measured window. --qps/--arrival/
 * --slo override the victim's canned rate instead of applying run-wide.
 */
void
openLoopTail(Run &run)
{
    Configs cfgs;
    for (const char *policy : {"linux", "tpp"}) {
        ExperimentConfig cfg = makeConfig(run.opt);
        cfg.policy = policy;
        cfg.localFraction = parseRatio("1:4");
        // makeConfig() applies --qps to the config when no --tenants
        // spec is given; here it goes to the victim below instead.
        cfg.openLoop = OpenLoopSpec{};
        // Short, but long enough for tpp to converge placement and
        // drain its warm-up backlog before the window opens; with a
        // 6s/3s window both policies still tail on the backlog.
        if (run.smoke())
            window(cfg, 12 * kSecond, 8 * kSecond);
        // dwh leans hardest on memory (6 accesses/op), so placement
        // moves its service rate the most (tests/test_openloop.cc).
        // 500k req/s sits between the two capacities (~470k vs ~531k
        // at --wss 8192); the 500 us p99 target is above the loaded
        // but stable tail, far below a collapsed queue.
        cfg.tenants = specValueOrDie(parseTenants(
            "dwh:low=0.5:qps=500000:arrival=poisson:slo=500;churn"));
        if (run.opt.openLoop.enabled())
            cfg.tenants.front().openLoop = run.opt.openLoop;
        cfgs.push_back(cfg);
    }
    const Results &results = run.sweep(cfgs);

    TextTable table({"policy", "tenant", "offered (req/s)", "p50 (us)",
                     "p99 (us)", "p99.9 (us)", "mean queue",
                     "goodput (req/s)", "SLO attainment"});
    // One row per policy: the victim's, the only open-loop tenant.
    for (const ExperimentResult &r : results) {
        const OpenLoopResult &ol = r.tenants.front().openLoop;
        table.addRow({r.policy, r.tenants.front().workload,
                      TextTable::num(ol.offeredQps, 0),
                      TextTable::num(ol.p50Ns / 1000.0, 1),
                      TextTable::num(ol.p99Ns / 1000.0, 1),
                      TextTable::num(ol.p999Ns / 1000.0, 1),
                      TextTable::num(ol.meanQueueDepth, 1),
                      TextTable::num(ol.goodputQps, 0),
                      TextTable::pct(ol.sloAttainment)});
    }
    table.print();
    std::printf("\n");

    // The claim: under the same offered rate, tpp holds a p99 far below
    // linux's collapsed queue and strictly higher SLO attainment.
    const OpenLoopResult &linux_ol = results.front().tenants.front().openLoop;
    const OpenLoopResult &tpp_ol = results.back().tenants.front().openLoop;
    checkClaim(tpp_ol.p99Ns * 2.0 < linux_ol.p99Ns,
               "tpp p99 (%.1f us) is not well below linux p99 (%.1f us)",
               tpp_ol.p99Ns / 1000.0, linux_ol.p99Ns / 1000.0);
    checkClaim(tpp_ol.sloAttainment > linux_ol.sloAttainment,
               "tpp SLO attainment (%.3f) does not beat linux (%.3f)",
               tpp_ol.sloAttainment, linux_ol.sloAttainment);
}

/**
 * ablation_tiers: what chaining middle-tier reclaim downward (cxl ->
 * cxl-far) buys over swapping every CPU-less node, the pre-hierarchy
 * behaviour. One oversubscribed 3-tier machine (the local tier holds a
 * quarter of the working set, the middle CXL tier another quarter, the
 * far tier the rest), TPP, the same migration budget in both arms; the
 * only difference is vm.tpp.demote_chain. Chained, middle-tier
 * pressure moves cold pages to cxl-far at migration cost; unchained,
 * they pay the swap device's write and read-back, so the chained arm
 * must show lower mean access latency or better recall at every budget,
 * and swap less.
 */
void
tierHierarchy(Run &run)
{
    const std::uint64_t quarter = run.opt.wssPages / 4;
    const std::string topology =
        !run.opt.topologySpec.empty()
            ? run.opt.topologySpec
            : "local:pages=" + std::to_string(quarter) +
                  ";cxl:pages=" + std::to_string(quarter) + ":lat=150" +
                  ";cxl-far:pages=" + std::to_string(run.opt.wssPages) +
                  ":lat=300:bw=32";
    const std::vector<double> budgets =
        run.smoke() ? std::vector<double>{0.0}
                    : std::vector<double>{0.0, 32.0};
    Configs cfgs;
    std::vector<Row> rows;
    for (double budget : budgets) {
        for (bool chain : {true, false}) {
            rows.push_back({{chain ? "chained demotion" : "swap fallback",
                             unlimitedOr(budget)},
                            cfgs.size()});
            ExperimentConfig cfg = makeConfig(run.opt);
            cfg.workload = "web";
            cfg.policy = "tpp";
            cfg.topology = topology;
            cfg.measureHotness = true;
            // The admission budget only binds in the async engine; the
            // sync-compat path ignores the rate limit entirely.
            cfg.migration = MigrationConfig::asyncEngine();
            cfg.migration.rateLimitMBps = budget;
            cfg.sysctls.emplace_back("vm.tpp.demote_chain",
                                     chain ? "1" : "0");
            if (run.smoke())
                window(cfg, 3 * kSecond, 1 * kSecond);
            cfgs.push_back(cfg);
        }
    }
    const Results &results = run.sweep(cfgs);
    printTable({"middle tier", "budget (MB/s)", "tput (ops/s)",
                "mean latency (ns)", "hot-set recall", "demoted",
                "swapped out"},
               rows, results);

    // The claim: at equal budget the chained arm wins on latency or
    // recall and swaps strictly less.
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
        const ExperimentResult &chained = results[i];
        const ExperimentResult &swapped = results[i + 1];
        checkClaim(chained.meanAccessLatencyNs <
                           swapped.meanAccessLatencyNs ||
                       chained.hotSetRecall > swapped.hotSetRecall,
                   "chained demotion beat neither latency nor recall at "
                   "budget %.0f",
                   budgets[i / 2]);
        checkClaim(chained.vmstat.get(Vm::PswpOut) <=
                       swapped.vmstat.get(Vm::PswpOut),
                   "chained demotion swapped more than the fallback arm");
    }
}

/**
 * ablation_ppt: what denying reverse-direction migrations inside a
 * cooldown window (mm/ppt) buys on a churn-heavy workload. One
 * oversubscribed 1:4 machine (fig16's shape, where migration volume
 * explodes), TPP on the async MigrationEngine; the arms differ only in
 * vm.ppt.enable and, in the full preset, the cooldown ladder. A
 * borderline working set under this pressure promotes pages the next
 * reclaim wave demotes straight back, so the PPT-on arm must move
 * strictly fewer pages at equal-or-better hot-set recall. Each run
 * records tracepoints so the table can quote the ping-pong flip count
 * and the estimated wasted bandwidth (trace/summary.hh, the figures
 * trace_summary prints).
 */
void
pingPongThrottle(Run &run)
{
    // PPT's cooldown (ms) per arm; 0 = PPT off, first, so rows read
    // off-vs-on at each ladder step.
    const std::vector<std::uint64_t> cooldowns =
        run.smoke() ? std::vector<std::uint64_t>{0, 500}
                    : std::vector<std::uint64_t>{0, 200, 1000};
    Configs cfgs;
    std::vector<Row> rows;
    for (std::uint64_t cooldown : cooldowns) {
        rows.push_back({{cooldown ? "on" : "off",
                         cooldown ? TextTable::count(cooldown)
                                  : std::string("-")},
                        cfgs.size()});
        cfgs.push_back(churnyConfig(run.opt, "cache1", "tpp"));
        ExperimentConfig &cfg = cfgs.back();
        cfg.sysctls.emplace_back("vm.ppt.enable", cooldown ? "1" : "0");
        if (cooldown) {
            cfg.sysctls.emplace_back("vm.ppt.cooldown_ms",
                                     std::to_string(cooldown));
        }
        if (run.smoke())
            window(cfg, 3 * kSecond, 1 * kSecond);
        else
            window(cfg, 10 * kSecond, 6 * kSecond);
    }
    const Results &results = run.sweep(cfgs);
    for (Row &row : rows) {
        const ExperimentResult &res = results[row.run];
        const TraceSummary ts =
            summarizeTrace(res.trace, kSecond, /*top_n=*/1);
        const std::uint64_t moved = res.vmstat.get(Vm::PgMigrateSuccess);
        row.cells.insert(
            row.cells.end(),
            {TextTable::num(static_cast<double>(moved * kPageSize) /
                                (1024.0 * 1024.0),
                            1),
             TextTable::count(res.vmstat.get(Vm::PptThrottledPromote) +
                              res.vmstat.get(Vm::PptThrottledDemote)),
             TextTable::count(ts.pingPongFlips),
             TextTable::num(
                 static_cast<double>(ts.pingPongWastedBytes) / 1024.0,
                 1)});
    }
    printTable({"ppt", "cooldown (ms)", "tput (ops/s)", "hot-set recall",
                "migrated pages", "moved (MiB)", "throttled", "flips",
                "wasted (KiB)"},
               rows, results);

    // The claim: every PPT-on arm moves strictly fewer pages than the
    // unthrottled arm while giving up none of the hot set.
    const ExperimentResult &off = results[0];
    for (std::size_t i = 1; i < results.size(); ++i) {
        const ExperimentResult &on = results[i];
        const auto cooldown =
            static_cast<unsigned long long>(cooldowns[i]);
        checkClaim(on.vmstat.get(Vm::PgMigrateSuccess) <
                       off.vmstat.get(Vm::PgMigrateSuccess),
                   "PPT (cooldown %llu ms) did not reduce migration "
                   "bandwidth",
                   cooldown);
        checkClaim(on.hotSetRecall >= off.hotSetRecall,
                   "PPT (cooldown %llu ms) lost hot-set recall (%.3f vs "
                   "%.3f)",
                   cooldown, on.hotSetRecall, off.hotSetRecall);
    }
}

/**
 * ablation_adaptive: what profiling-then-retuning the live TPP knobs
 * (policy/adaptive) buys when the workload's phase shifts under the
 * policy. One oversubscribed 1:4 machine, open-loop traffic with a p99
 * SLO, two workloads: `phased` (a cache1-like lookup service and a
 * churn-like scan stage in anti-phase; each flip re-heats a cold
 * resident set) and `cache1`, the phase-stable control, where the tuner
 * must converge and stay out of the way. The static arm runs stock TPP;
 * the adaptive arm is the same policy with vm.adaptive.enable=1 on a
 * fast window cadence. The adaptive arm always runs with the PPT
 * history table on (the tuner profiles its flip counter and the
 * admission filter reads it), and the full preset adds a tpp+ppt arm so
 * the table's own contribution shows. On `phased` adaptive must win
 * hot-set recall and p99; on `cache1` it must stay within noise.
 */
void
phaseAdaptive(Run &run)
{
    // Per workload, static first: stock tpp, tpp with the PPT table,
    // then adaptive, which always runs with the table on (the tuner
    // profiles its flip counter and the admission filter reads it). The
    // smoke preset keeps only the headline phased pair.
    Configs cfgs;
    std::vector<Row> rows;
    for (const std::string workload : {"phased", "cache1"}) {
        for (const std::string arm : {"tpp", "tpp+ppt", "adaptive"}) {
            if (run.smoke() && (workload == "cache1" || arm == "tpp+ppt"))
                continue;
            rows.push_back({{workload, arm}, cfgs.size()});
            cfgs.push_back(churnyConfig(run.opt, workload.c_str(),
                                        arm == "adaptive" ? "adaptive"
                                                          : "tpp"));
            ExperimentConfig &cfg = cfgs.back();
            // Offered rate below the machine's loaded service rate at --wss
            // 8192, with a p99 target above the stable tail but below queue
            // collapse.
            if (!run.opt.openLoop.enabled()) {
                cfg.openLoop.qps = 4.0e5;
                cfg.openLoop.arrival = "poisson";
                cfg.openLoop.sloP99Us = 500.0;
            }
            if (arm != "tpp")
                cfg.sysctls.emplace_back("vm.ppt.enable", "1");
            if (arm == "adaptive") {
                cfg.sysctls.emplace_back("vm.adaptive.enable", "1");
                // Fast cadence relative to the 3 s phases: 100 ms windows,
                // three per measurement round, and a hysteresis band wide
                // enough that window noise does not masquerade as progress.
                cfg.sysctls.emplace_back("vm.adaptive.window_ns",
                                         "100000000");
                cfg.sysctls.emplace_back("vm.adaptive.profile_windows", "3");
                cfg.sysctls.emplace_back("vm.adaptive.hysteresis_pct", "5");
                // Open-loop run: the SLO is the business objective — let
                // its attainment dominate the bandwidth terms instead of
                // merely tie-breaking them.
                cfg.sysctls.emplace_back("vm.adaptive.w_slo", "4");
            }
            // Smoke: two phase flips in the window, the first being the
            // tuner's warm-up that scoring from 2 s skips. Full: four, so
            // the win must repeat.
            window(cfg, (run.smoke() ? 7 : 14) * kSecond, 2 * kSecond);
        }
    }
    const Results &results = run.sweep(cfgs);
    for (Row &row : rows) {
        const TraceSummary ts =
            summarizeTrace(results[row.run].trace, kSecond, /*top_n=*/1);
        row.cells.push_back(TextTable::count(ts.adaptiveSettles));
    }
    printTable({"workload", "policy", "tput (ops/s)", "hot-set recall",
                "p99 (us)", "SLO attainment", "migrated pages", "tunes",
                "reverts", "settles"},
               rows, results);

    // The claims compare each workload's stock-tpp arm with its
    // adaptive arm. On phased adaptive must win p99 and hot-set recall;
    // the strict recall win needs several phase flips in the measured
    // window, so the short smoke run only demands recall within noise.
    const ExperimentResult &st = results[0];
    const ExperimentResult &ad = results[run.smoke() ? 1 : 2];
    checkClaim(ad.hotSetRecall >
                   (run.smoke() ? st.hotSetRecall * 0.9 : st.hotSetRecall),
               "adaptive did not improve hot-set recall on phased (%.3f "
               "vs %.3f)",
               ad.hotSetRecall, st.hotSetRecall);
    checkClaim(ad.openLoop.p99Ns < st.openLoop.p99Ns,
               "adaptive did not improve p99 on phased (%.1f us vs %.1f "
               "us)",
               ad.openLoop.p99Ns / 1000.0, st.openLoop.p99Ns / 1000.0);
    if (run.smoke())
        return;
    // The phase-stable control must stay within 10 % on both axes.
    const ExperimentResult &cst = results[3];
    const ExperimentResult &cad = results[5];
    checkClaim(cad.hotSetRecall >= cst.hotSetRecall * 0.9,
               "adaptive lost recall on the stable control (%.3f vs %.3f)",
               cad.hotSetRecall, cst.hotSetRecall);
    checkClaim(cad.openLoop.p99Ns <= cst.openLoop.p99Ns * 1.1,
               "adaptive regressed p99 on the stable control (%.1f us vs "
               "%.1f us)",
               cad.openLoop.p99Ns / 1000.0, cst.openLoop.p99Ns / 1000.0);
}

} // namespace bench
} // namespace tpp
