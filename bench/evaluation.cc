/**
 * @file
 * The paper's evaluation (§6): Figures 15-19, Table 1 and the policy
 * zoo extension.
 *
 * Five of them are one grid: workloads at a local:CXL ratio, one tiered
 * arm per placement policy, each reported against the same workload on
 * the all-local machine. Their table entries hold a Grid, which
 * gridBody() sweeps and prints. The two §6.3 ablations (Figures 17 and
 * 18) compare two TPP variants on Cache1 at 1:4 and keep their own
 * reports.
 */

#include "figures.hh"
#include "sim/stats.hh"

namespace tpp {
namespace bench {
namespace {

void
runGrid(const Grid &grid, Run &run)
{
    // Per case: the all-local baseline, then one tiered arm per policy,
    // each a row compared against that baseline. The baseline is the
    // paper's "all from local" machine (allLocalTwin): the workload alone
    // on one local node under default Linux, closed loop, without the
    // run-wide sysctls, telemetry or tenants of the tiered arms.
    Configs cfgs;
    std::vector<Row> rows;
    for (const Case &c : grid.cases) {
        const std::size_t baseline = cfgs.size();
        cfgs.push_back(allLocalTwin(
            tieredConfig(run.opt, c.workload, "linux", c.ratio)));
        for (const char *policy : grid.policies) {
            std::vector<std::string> cells;
            for (const std::string &h : grid.header) {
                if (h == "workload" || h == "application")
                    cells.push_back(c.workload);
                else if (h == "config")
                    cells.push_back(c.ratio);
                else if (h == "policy")
                    cells.push_back(policy);
            }
            rows.push_back({cells, cfgs.size(), baseline});
            cfgs.push_back(
                tieredConfig(run.opt, c.workload, policy, c.ratio));
            if (grid.tweak)
                grid.tweak(cfgs.back());
        }
    }
    const Results &results = run.sweep(cfgs);
    if (!grid.cases.front().title)
        return printTable(grid.header, rows, results);
    const std::size_t per_case = grid.policies.size();
    for (std::size_t k = 0; k < grid.cases.size(); ++k) {
        const auto first =
            rows.begin() + static_cast<std::ptrdiff_t>(k * per_case);
        printTable(grid.header,
                   {first, first + static_cast<std::ptrdiff_t>(per_case)},
                   results, grid.cases[k].title);
    }
}

/** Rate `field` of each of a run's intervals, as a series. */
TimeSeries
rateSeries(const ExperimentResult &res, double IntervalSample::*field)
{
    TimeSeries series;
    for (const IntervalSample &s : res.samples)
        series.record(s.tick, s.*field);
    return series;
}

/** First tick at which local traffic reaches 95 % of its final level. */
double
convergenceSeconds(const ExperimentResult &res)
{
    if (res.samples.empty())
        return 0.0;
    double final_share = res.samples.back().localShare;
    for (const IntervalSample &s : res.samples) {
        if (s.localShare >= 0.95 * final_share)
            return static_cast<double>(s.tick) / 1e9;
    }
    return static_cast<double>(res.samples.back().tick) / 1e9;
}

/** Cache1 on the 1:4 machine under TPP, first without a feature and
 *  then with it. */
const Results &
withoutAndWith(Run &run, void (*feature)(ExperimentConfig &, bool on))
{
    Configs cfgs;
    for (bool on : {false, true}) {
        cfgs.push_back(tieredConfig(run.opt, "cache1", "tpp", "1:4"));
        feature(cfgs.back(), on);
    }
    return run.sweep(cfgs);
}

} // namespace

std::function<void(Run &)>
gridBody(Grid grid)
{
    return [grid](Run &run) { runGrid(grid, run); };
}

/**
 * Figure 17, §6.3: TPP with and without decoupling allocation from
 * reclamation, i.e. the separate demotion watermarks (§5.2) plus the
 * allocation-watermark bypass for promotions (§5.3); the coupled
 * variant disables both. Plots the local allocation rate and the
 * promotion rate of each variant over the run.
 */
void
decouplingAblation(Run &run)
{
    const Results &results =
        withoutAndWith(run, [](ExperimentConfig &cfg, bool on) {
            cfg.tpp.decoupleWatermarks = on;
            cfg.tpp.promotionIgnoresWatermark = on;
        });

    std::vector<Row> rows;
    double alloc_p95[2] = {};
    for (std::size_t i = 0; i < 2; ++i) {
        const TimeSeries alloc =
            rateSeries(results[i], &IntervalSample::localAllocRate);
        const TimeSeries promo =
            rateSeries(results[i], &IntervalSample::promotionRate);
        alloc_p95[i] = alloc.percentile(95.0);
        rows.push_back(
            {{i ? "decoupled (TPP)" : "coupled (no decoupling)",
              TextTable::num(alloc.meanValue(), 0),
              TextTable::num(alloc_p95[i], 0),
              TextTable::num(promo.meanValue(), 0),
              TextTable::num(promo.percentile(99.0), 0)},
             i});
    }
    printTable({"variant", "alloc->local mean (pg/s)", "alloc->local p95",
                "promo mean (pg/s)", "promo p99", "cxl traffic",
                "throughput (ops/s)"},
               rows, results);
    if (alloc_p95[0] > 0.0) {
        std::printf("\np95 local allocation rate gain: %.2fx "
                    "(paper: ~1.6x)\n",
                    alloc_p95[1] / alloc_p95[0]);
    }
    std::printf("paper: without decoupling promotion almost halts, CXL "
                "traffic ~55%%, throughput -12%%\n");
}

/**
 * Figure 18, §6.3: instant promotion vs the active-LRU filter.
 * Reports promotion traffic, the ping-pong counter (demoted pages that
 * become promotion candidates), promotion success and traffic
 * convergence.
 */
void
lruFilterAblation(Run &run)
{
    const Results &results =
        withoutAndWith(run, [](ExperimentConfig &cfg, bool on) {
            cfg.tpp.activeLruFilter = on;
        });

    std::vector<Row> rows;
    double promo_rate[2] = {};
    for (std::size_t i = 0; i < 2; ++i) {
        promo_rate[i] =
            rateSeries(results[i], &IntervalSample::promotionRate)
                .meanValue();
        rows.push_back({{i ? "active-LRU filter (TPP)" : "instant promotion",
                         TextTable::num(promo_rate[i], 0),
                         TextTable::num(convergenceSeconds(results[i]), 1)},
                        i});
    }
    printTable({"variant", "promo rate (pg/s)", "demoted-candidates",
                "promo success", "local traffic", "tput (ops/s)",
                "converged (s)"},
               rows, results);

    if (promo_rate[1] > 0.0) {
        std::printf("\npromotion rate reduction: %.1fx (paper: ~11x)\n",
                    promo_rate[0] / promo_rate[1]);
    }
    const auto d_i = results[0].vmstat.get(Vm::PgPromoteCandidateDemoted);
    const auto d_f = results[1].vmstat.get(Vm::PgPromoteCandidateDemoted);
    if (d_i > 0) {
        std::printf("ping-pong (demoted candidates) reduction: %.0f%% "
                    "(paper: ~50%%)\n",
                    100.0 * (1.0 - static_cast<double>(d_f) /
                                       static_cast<double>(d_i)));
    }
}

} // namespace bench
} // namespace tpp
