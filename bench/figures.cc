/**
 * @file
 * The figure driver: one binary for every entry of the figure table
 * (figures.hh), run under the entry's name. Invoked under any other
 * name it lists the entries and exits 2.
 */

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>

#include "figures.hh"

namespace tpp {
namespace bench {

const Results &
Run::sweep(Configs configs)
{
    cfgs = std::move(configs);
    results = SweepRunner(sweepOptions(opt)).run(cfgs);
    return results;
}

ExperimentConfig
tieredConfig(const BenchOptions &opt, const char *workload,
             const char *policy, const char *ratio)
{
    ExperimentConfig cfg = makeConfig(opt);
    cfg.workload = workload;
    cfg.localFraction = parseRatio(ratio);
    cfg.policy = policy;
    return cfg;
}

namespace {

/** The metric a table header names, for run `res`; nullopt when the
 *  header is not a metric. */
std::optional<std::string>
metricCell(const std::string &header, const ExperimentResult &res,
           const ExperimentResult *baseline)
{
    static const std::map<std::string, Vm> counters = {
        {"promotions", Vm::PgPromoteSuccess},
        {"hint faults", Vm::NumaHintFaults},
        {"demoted-candidates", Vm::PgPromoteCandidateDemoted},
        {"rate-limited", Vm::PgPromoteFailRateLimit},
        {"migrated", Vm::PgMigrateSuccess},
        {"migrated pages", Vm::PgMigrateSuccess},
        {"queued", Vm::PgMigrateQueued},
        {"deferred", Vm::PgMigrateDeferred},
        {"busy aborts", Vm::PgMigrateFailBusy},
        {"swap-outs", Vm::PswpOut},
        {"swapped out", Vm::PswpOut},
        {"ctr evictions", Vm::HotnessCounterEvict},
        {"tunes", Vm::AdaptiveTune},
        {"reverts", Vm::AdaptiveRevert},
    };
    using Share = double ExperimentResult::*;
    static const std::map<std::string, Share> shares = {
        {"local traffic", &ExperimentResult::localTrafficShare},
        {"cxl traffic", &ExperimentResult::cxlTrafficShare},
        {"anon on local", &ExperimentResult::anonLocalResidency},
        {"file on local", &ExperimentResult::fileLocalResidency},
        {"hot-set recall", &ExperimentResult::hotSetRecall},
    };
    const VmStat &vm = res.vmstat;
    if (const auto it = counters.find(header); it != counters.end())
        return TextTable::count(vm.get(it->second));
    if (const auto it = shares.find(header); it != shares.end())
        return TextTable::pct(res.*(it->second));
    if (header == "tput (ops/s)" || header == "throughput (ops/s)")
        return TextTable::num(res.throughput, 0);
    if (header == "tput vs all-local" || header == "perf w.r.t. all-local") {
        tpp_assert(baseline, "'%s' needs an all-local run", header.c_str());
        return TextTable::pct(res.throughput / baseline->throughput);
    }
    if (header == "demotions" || header == "demoted")
        return TextTable::count(vm.get(Vm::PgDemoteAnon) +
                                vm.get(Vm::PgDemoteFile));
    if (header == "promo success" || header == "promo success rate") {
        const std::uint64_t tries = vm.get(Vm::PgPromoteTry);
        return TextTable::pct(
            tries ? static_cast<double>(vm.get(Vm::PgPromoteSuccess)) /
                        static_cast<double>(tries)
                  : 0.0);
    }
    if (header == "deferred share") {
        const std::uint64_t deferred = vm.get(Vm::PgMigrateDeferred);
        const std::uint64_t asked = deferred + vm.get(Vm::PgMigrateSuccess);
        return asked ? TextTable::pct(static_cast<double>(deferred) /
                                      static_cast<double>(asked))
                     : std::string("-");
    }
    if (header == "mean latency (ns)")
        return TextTable::num(res.meanAccessLatencyNs, 1);
    if (header == "hot pages")
        return TextTable::count(res.hotSetPages);
    if (header == "p99 (us)")
        return TextTable::num(res.openLoop.p99Ns / 1000.0, 1);
    if (header == "SLO attainment")
        return TextTable::pct(res.openLoop.sloAttainment);
    return std::nullopt;
}

} // namespace

void
printTable(const std::vector<std::string> &header,
           const std::vector<Row> &rows, const Results &results,
           const char *title)
{
    if (title)
        std::printf("-- %s --\n", title);
    TextTable table(header);
    for (const Row &row : rows) {
        std::vector<std::string> cells;
        auto own = row.cells.begin();
        for (const std::string &h : header) {
            if (std::optional<std::string> metric = metricCell(
                    h, results.at(row.run),
                    row.baseline ? &results.at(*row.baseline) : nullptr)) {
                cells.push_back(*metric);
                continue;
            }
            tpp_assert(own != row.cells.end(), "no cell for '%s'",
                       h.c_str());
            cells.push_back(*own++);
        }
        tpp_assert(own == row.cells.end(), "more cells than headers");
        table.addRow(cells);
    }
    table.print();
    if (title)
        std::printf("\n");
}

void
checkClaim(bool holds, const char *fmt, ...)
{
    if (holds)
        return;
    std::va_list args;
    va_start(args, fmt);
    std::printf("WARNING: ");
    std::vprintf(fmt, args);
    std::printf("\n");
    va_end(args);
}

namespace {

struct Figure {
    /** The name the binary is invoked under. */
    const char *name;
    /** Banner: "<id> — <title>". */
    const char *id;
    const char *title;
    /** Sweeps the entry's configs and prints its tables and claim
     *  checks. A body that never sweeps (Figure 2) exports no rows:
     *  --csv gets the header alone. */
    std::function<void(Run &)> body;
    /** Closing paragraph printed after the body (a blank line first),
     *  e.g. the paper's numbers. */
    const char *note = nullptr;
    /** The --preset or --mode flag, for the entries that take one. */
    const ExtraFlag *extra = nullptr;
};

/** smoke shortens an ablation's runs for CI. */
constexpr ExtraFlag kPreset = {"--preset", "smoke|full", "full"};
/** Which of ablation_migration_engine's two sweeps to run. */
constexpr ExtraFlag kMode = {"--mode", "sync|async|all", "all"};

/** Figures 15 and 16: where the traffic goes and what it costs. */
const std::vector<std::string> kTrafficHeader = {
    "workload",          "policy",        "local traffic", "cxl traffic",
    "tput vs all-local", "anon on local", "file on local"};

const std::vector<Figure> kFigures = {
    // §3: the latency ladder the model realises, then the four
    // production workloads characterised on the all-local machine.
    {"fig02_tier_latency", "Figure 2", "memory-tier latency ladder (model)",
     tierLatency,
     "paper: CXL adds ~50-100 ns over local DRAM; paging is orders of "
     "magnitude slower; latency diverges near bandwidth saturation"},
    {"fig07_page_temperature", "Figure 7",
     "page temperature: allocated vs touched per interval "
     "(all-local, Chameleon)",
     temperature,
     "paper: Web 97%/22%, Cache1 95%/30%, Cache2 98%/40%, "
     "DWH ~100%/20-30%"},
    {"fig08_page_type_temperature", "Figure 8",
     "hot fraction by page type (all-local, Chameleon)", typeTemperature,
     "paper: Web 35%/14%, Cache1 40%/25%, Cache2 43%/45%, "
     "DWH anon-dominated"},
    {"fig09_usage_over_time", "Figure 9",
     "anon/file resident shares over time (all-local)", usageOverTime,
     "paper: Web file-heavy then anon grows; Cache ~75-80% file steady; "
     "DWH ~85% anon steady"},
    {"fig10_throughput_sensitivity", "Figure 10",
     "throughput sensitivity to anon/file utilisation (all-local)",
     throughputSensitivity,
     "paper: Web/Cache2/DWH throughput rises with anon utilisation; "
     "Cache1 shows no clear relation"},
    {"fig11_reaccess_cdf", "Figure 11",
     "re-access gap CDF (all-local, Chameleon)", reaccessCdf,
     "paper: Web/Cache ~80% re-accessed within 10 min (5 intervals); "
     "DWH mostly new allocations"},
    // §6. Figure 15, TPP vs default Linux on the production 2:1 machine.
    // Paper: Web — Linux serves only ~22 % locally and loses 16.5 %, TPP
    // serves ~90 % locally at 99.5 % of all-local; Cache1 — Linux ~-3 %,
    // TPP 99.9 %; Cache2 — Linux -2 %, TPP 99.6 %; DWH — both within
    // ~1 %.
    {"fig15_default_production", "Figure 15",
     "default production environment (local:CXL = 2:1)",
     gridBody({{{"web", "2:1"},
                {"cache1", "2:1"},
                {"cache2", "2:1"},
                {"dwh", "2:1"}},
               {"linux", "tpp"},
               kTrafficHeader}),
     "paper: Web linux 22%/78% @83.5%, tpp 90%/10% @99.5%; Cache1 linux "
     "~97%, tpp 99.9%; Cache2 linux 78% local @98%, tpp 91% @99.6%; DWH "
     "both ~99%+"},
    // Memory expansion through CXL: 80 % of capacity is CXL and hot
    // pages are forced to spill. Paper: Cache1 — Linux traps 85 % of
    // anons remotely and loses 14 %; TPP promotes them back and reaches
    // ~99.5 % of all-local. Cache2 — Linux -18 %, TPP -5 %.
    {"fig16_memory_expansion", "Figure 16",
     "memory expansion configuration (local:CXL = 1:4)",
     gridBody({{{"cache1", "1:4"}, {"cache2", "1:4"}},
               {"linux", "tpp"},
               kTrafficHeader}),
     "paper: Cache1 linux 25%/75% @86%, tpp 85%/15% @99.5%; Cache2 linux "
     "20%/80% @82%, tpp 59%/41% @95%"},
    // Paper: with decoupling the p95 local allocation rate rises ~1.6x;
    // without it promotion nearly halts.
    {"fig17_decoupling_ablation", "Figure 17",
     "allocation/reclamation decoupling ablation (Cache1, 1:4)",
     decouplingAblation},
    // Paper: the filter cuts the promotion rate ~11x and halves the
    // demoted-then-promoted pages; local traffic improves ~4 %,
    // throughput ~2.4 %, while convergence takes a few extra minutes.
    {"fig18_lru_filter_ablation", "Figure 18",
     "active-LRU promotion filter ablation (Cache1, 1:4)",
     lruFilterAblation},
    // §5.4, §6.3: TPP with the cache-to-CXL allocation preference.
    {"table1_type_aware_alloc", "Table 1",
     "page-type-aware allocation (TPP + cache-to-CXL preference)",
     gridBody({{{"web", "2:1"}, {"cache1", "1:4"}, {"cache2", "1:4"}},
               {"tpp"},
               {"application", "config", "local traffic", "cxl traffic",
                "perf w.r.t. all-local"},
               // File and tmpfs pages start on the CXL node and are
               // promoted only if they prove hot.
               [](ExperimentConfig &cfg) {
                   cfg.tpp.typeAwareAllocation = true;
               }}),
     "paper: Web 2:1 97%/3% @99.5%; Cache1 1:4 85%/15% @99.8%; Cache2 1:4 "
     "72%/28% @98.5%"},
    // §6.4: TPP against NUMA Balancing and AutoTiering (plus the tuner,
    // so the zoo table keeps one row per policy). Paper: Web — NUMA
    // Balancing's promotions stall (-17.2 %), AutoTiering's promotion
    // reserve fills up (-13 %), TPP stays at ~99.5 %; Cache1 1:4 — NUMA
    // Balancing stops promoting (-10 %), AutoTiering crashes in the
    // paper (here it runs, degraded), TPP ~99.5 %.
    {"fig19_policy_comparison", "Figure 19",
     "TPP vs NUMA Balancing vs AutoTiering",
     gridBody({{{"web", "2:1"}, {"cache1", "1:4"}},
               {"linux", "numa-balancing", "autotiering", "tpp", "adaptive"},
               {"workload", "config", "policy", "local traffic",
                "tput vs all-local", "promotions", "hint faults"},
               // The tuner is inert unless switched on, and profiles the
               // PPT flip history, so both go live together.
               [](ExperimentConfig &cfg) {
                   if (cfg.policy != "adaptive")
                       return;
                   cfg.sysctls.emplace_back("vm.adaptive.enable", "1");
                   cfg.sysctls.emplace_back("vm.ppt.enable", "1");
               }}),
     "paper: Web 2:1 — NB 20% local @82.8%, AT 30% local @87%, TPP "
     "@99.5%; Cache1 1:4 — NB 46% local @90%, AT n/a (crashes), TPP 85% "
     "local @99.5%"},
    // Extensions. The full policy zoo on the stress case, plus YCSB-B as
    // an out-of-sample workload. Expected: TPP and AutoTiering lead;
    // damon-reclaim lands near Linux (no promotion path, so a re-heated
    // page is stuck remote); NUMA Balancing trails.
    {"ext_policy_zoo", "Policy zoo (extension)",
     "all five policies on the 1:4 stress configuration",
     gridBody({{{"cache1", "1:4", "Cache1 (paper workload)"},
                {"ycsb-b", "1:4", "YCSB-B (out-of-sample key-value mix)"}},
               {"linux", "numa-balancing", "autotiering", "damon-reclaim",
                "tpp"},
               {"policy", "tput vs all-local", "local traffic", "swap-outs",
                "demotions", "promotions"}})},
    {"ablation_sweeps", "Ablation sweeps",
     "TPP design-choice sensitivity (Cache1, 1:4)", designSweeps},
    {"ablation_migration_engine", "Ablation: MigrationEngine",
     "async/transactional migration + admission control (Cache1, 1:4, TPP)",
     migrationEngine, nullptr, &kMode},
    {"ablation_hotness_sources", "Ablation: hotness sources",
     "one promotion pipeline, four temperature signals (1:4, hot-set "
     "recall)",
     hotnessSources, nullptr, &kPreset},
    {"ablation_memcg", "Ablation: memcg protection",
     "victim + churn antagonist, memory.low floor on/off (2:3 local tier)",
     memcgProtection, nullptr, &kPreset},
    {"ablation_openloop", "Ablation: open-loop tail latency",
     "dwh victim at a fixed offered rate + churn antagonist (1:4 "
     "local:CXL)",
     openLoopTail, nullptr, &kPreset},
    {"ablation_tiers", "Ablation: tier hierarchy",
     "chained demotion vs swap fallback on an oversubscribed 3-tier "
     "machine (web, TPP)",
     tierHierarchy,
     "paper (§5.1-5.2): demotion migrates cold pages at copy cost instead "
     "of the swap device's round trip, so a full middle tier must spill "
     "downward, not out",
     &kPreset},
    {"ablation_ppt", "Ablation: ping-pong throttling (PPT)",
     "migration-history cooldown vs unthrottled bouncing on an "
     "oversubscribed 1:4 machine (cache1, TPP)",
     pingPongThrottle,
     "paper + Nomad/hysteresis (PAPERS.md): each wasted round trip pays "
     "two transactional copies; denying the reverse hop inside a cooldown "
     "window keeps borderline pages parked and spends the bandwidth on "
     "pages that stay put",
     &kPreset},
    {"ablation_adaptive", "Ablation: phase-adaptive placement",
     "static TPP knobs vs the profile-and-retune tuner on a "
     "phase-shifting workload (1:4 machine, open loop)",
     phaseAdaptive,
     "static knobs are tuned for one operating point; a phase flip "
     "re-heats a cold resident set and the same knobs now either promote "
     "the scan's transients or starve the returning cache. Profiling "
     "windows + hysteretic hill-climbing retune the threshold, scan batch "
     "and watermark gap to the phase that is actually running (PAPERS.md: "
     "Pond/Johnny-Cache-style feedback control)",
     &kPreset},
};

} // namespace
} // namespace bench
} // namespace tpp

int
main(int argc, char **argv)
{
    using namespace tpp::bench;
    const std::string name = std::filesystem::path(argv[0]).filename();
    const auto fig =
        std::find_if(kFigures.begin(), kFigures.end(),
                     [&](const Figure &f) { return name == f.name; });
    if (fig == kFigures.end()) {
        std::fprintf(stderr,
                     "%s: no figure is named '%s'; run this binary "
                     "through one of its figure names:\n",
                     name.c_str(), name.c_str());
        for (const Figure &f : kFigures)
            std::fprintf(stderr, "  %s\n", f.name);
        return 2;
    }

    Run run;
    run.opt = parseBenchArgs(argc, argv, fig->extra);
    banner(fig->id, fig->title);
    fig->body(run);
    if (fig->note)
        std::printf("\n%s\n", fig->note);
    maybeWriteCsv(run.opt, run.results);
    maybeWriteTrace(run.opt, run.results);
    return 0;
}
