/**
 * @file
 * The characterisation figures (§3): the latency ladder of Figure 2
 * and the all-local workload studies of Figures 7-11.
 *
 * Figures 7-11 run the same sweep, each production workload alone on
 * an all-local machine under default Linux; they differ in what they
 * attach (Chameleon, the time-series sampler) and in what they read
 * back. One interval stands in for the paper's two minutes.
 */

#include <array>
#include <cmath>

#include "figures.hh"
#include "mem/memory_system.hh"

namespace tpp {
namespace bench {
namespace {

/** The four production workloads, each alone on the all-local
 *  machine under default Linux, each config passed through `attach`. */
Configs
allLocalConfigs(const BenchOptions &opt,
                void (*attach)(ExperimentConfig &) = nullptr)
{
    Configs cfgs;
    for (const char *wl : {"web", "cache1", "cache2", "dwh"}) {
        cfgs.push_back(makeConfig(opt));
        cfgs.back().workload = wl;
        cfgs.back().allLocal = true;
        cfgs.back().policy = "linux";
        if (attach)
            attach(cfgs.back());
    }
    return cfgs;
}

/** Figures 7 and 8 share one run, Chameleon attached. */
void
withDenseChameleon(ExperimentConfig &cfg)
{
    cfg.withChameleon = true;
    // The simulator compresses behavioural time ~120x, so one interval
    // carries ~1/100 of the accesses a production 2-minute window
    // would; sample proportionally denser than the paper's 1-in-200 so
    // per-interval sample counts stay comparable.
    cfg.chameleon.samplePeriod = 10;
    cfg.chameleon.dutyCycle = false;
}

/** Pearson correlation of two equally sized series. */
double
correlation(const std::vector<double> &a, const std::vector<double> &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    if (n < 2)
        return 0.0;
    double ma = 0, mb = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ma += a[i];
        mb += b[i];
    }
    ma /= static_cast<double>(n);
    mb /= static_cast<double>(n);
    double cov = 0, va = 0, vb = 0;
    for (std::size_t i = 0; i < n; ++i) {
        cov += (a[i] - ma) * (b[i] - mb);
        va += (a[i] - ma) * (a[i] - ma);
        vb += (b[i] - mb) * (b[i] - mb);
    }
    if (va <= 0.0 || vb <= 0.0)
        return 0.0;
    return cov / std::sqrt(va * vb);
}

} // namespace

/**
 * Figure 2: the simulator's realisation of the paper's latency ladder —
 * idle and loaded latency per tier, and the bandwidth-contention
 * inflation curve — so the model under every other experiment is
 * inspectable.
 */
void
tierLatency(Run &)
{
    MemorySystem mem(TopologyBuilder::cxlSystem(1024, 1024));
    const LatencyModel &model = mem.latencyModel();

    TextTable tiers({"tier", "idle latency", "bandwidth",
                     "vs local DRAM"});
    const double local_ns = mem.node(0).profile().idleLatencyNs;
    for (std::size_t n = 0; n < mem.numNodes(); ++n) {
        const NodeProfile &p = mem.node(static_cast<NodeId>(n)).profile();
        tiers.addRow({p.name, TextTable::num(p.idleLatencyNs, 0) + " ns",
                      TextTable::num(p.bandwidthGBps, 0) + " GB/s",
                      TextTable::num(p.idleLatencyNs / local_ns, 2) +
                          "x"});
    }
    const double swap_read_ns = static_cast<double>(
        mem.swapDevice().profile().readLatency);
    tiers.addRow({"swap (NVMe)",
                  TextTable::num(swap_read_ns / 1000.0, 0) + " us", "-",
                  TextTable::num(swap_read_ns / local_ns, 0) + "x"});
    tiers.print();

    std::printf("\nloaded-latency inflation (idle = 100 ns):\n");
    TextTable curve({"utilisation", "effective latency"});
    for (double u : {0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95}) {
        curve.addRow({TextTable::pct(u, 0),
                      TextTable::num(model.inflate(100.0, u), 1) +
                          " ns"});
    }
    curve.print();
}

/** Figure 7: allocated vs touched memory per interval, averaged over
 *  the post-warm-up half of the run. */
void
temperature(Run &run)
{
    run.sweep(allLocalConfigs(run.opt, withDenseChameleon));
    TextTable table({"workload", "allocated/capacity", "touched/allocated",
                     "touched (mean pages)", "intervals"});
    for (std::size_t w = 0; w < run.cfgs.size(); ++w) {
        const ExperimentResult &res = run.results[w];
        const std::uint64_t capacity = static_cast<std::uint64_t>(
            static_cast<double>(run.opt.wssPages) *
            run.cfgs[w].capacityHeadroom);
        double resident = 0.0;
        double hot = 0.0;
        std::size_t n = 0;
        for (std::size_t i = res.chameleonIntervals.size() / 2;
             i < res.chameleonIntervals.size(); ++i) {
            const auto &iv = res.chameleonIntervals[i];
            resident += static_cast<double>(iv.residentTotal);
            hot += static_cast<double>(iv.touchedTotal);
            n++;
        }
        if (n) {
            resident /= static_cast<double>(n);
            hot /= static_cast<double>(n);
        }
        table.addRow({run.cfgs[w].workload,
                      TextTable::pct(resident /
                                     static_cast<double>(capacity)),
                      TextTable::pct(resident > 0 ? hot / resident : 0.0),
                      TextTable::num(hot, 0),
                      TextTable::count(res.chameleonIntervals.size())});
    }
    table.print();
}

/** Figure 8: the post-warm-up hot fraction split by page type. */
void
typeTemperature(Run &run)
{
    run.sweep(allLocalConfigs(run.opt, withDenseChameleon));
    TextTable table({"workload", "anon hot/resident", "file hot/resident",
                     "anon share of hot"});
    for (std::size_t w = 0; w < run.cfgs.size(); ++w) {
        const ExperimentResult &res = run.results[w];
        double anon_hot = 0.0, anon_res = 0.0;
        double file_hot = 0.0, file_res = 0.0;
        for (std::size_t i = res.chameleonIntervals.size() / 2;
             i < res.chameleonIntervals.size(); ++i) {
            const auto &iv = res.chameleonIntervals[i];
            anon_hot += static_cast<double>(iv.touchedByType[0]);
            file_hot += static_cast<double>(iv.touchedByType[1]);
            anon_res += static_cast<double>(iv.residentByType[0]);
            file_res += static_cast<double>(iv.residentByType[1]);
        }
        const double hot_total = anon_hot + file_hot;
        table.addRow(
            {run.cfgs[w].workload,
             TextTable::pct(anon_res > 0 ? anon_hot / anon_res : 0.0),
             TextTable::pct(file_res > 0 ? file_hot / file_res : 0.0),
             TextTable::pct(hot_total > 0 ? anon_hot / hot_total : 0.0)});
    }
    table.print();
}

/** Figure 9: resident anon/file shares, every tenth sampler point. */
void
usageOverTime(Run &run)
{
    // The curves come from the TimeSeriesSampler's per-node LRU
    // snapshots, at the driver's sample cadence unless --sample-ms
    // overrides it.
    run.sweep(allLocalConfigs(
        run.opt, [](ExperimentConfig &cfg) { cfg.sampleSeries = true; }));
    for (std::size_t w = 0; w < run.cfgs.size(); ++w) {
        const ExperimentResult &res = run.results[w];
        std::printf("%s-- %s --\n", w ? "\n" : "",
                    run.cfgs[w].workload.c_str());
        TextTable table({"t(s)", "anon share", "file share",
                         "resident pages"});
        for (std::size_t i = 0; i < res.series.size(); i += 10) {
            const TimeSeriesPoint &s = res.series[i];
            const std::uint64_t anon = s.anonResident();
            const std::uint64_t file = s.fileResident();
            const double total = static_cast<double>(anon + file);
            table.addRow(
                {TextTable::num(static_cast<double>(s.tick) / 1e9, 1),
                 TextTable::pct(total > 0 ? anon / total : 0.0),
                 TextTable::pct(total > 0 ? file / total : 0.0),
                 TextTable::count(anon + file)});
        }
        table.print();
    }
}


/** Figure 10: per-interval throughput against anon and file
 *  utilisation over the run. */
void
throughputSensitivity(Run &run)
{
    run.sweep(allLocalConfigs(run.opt));
    TextTable table({"workload", "corr(anon, tput)", "corr(file, tput)",
                     "tput swing", "peak tput at anon util"});
    for (std::size_t w = 0; w < run.cfgs.size(); ++w) {
        const ExperimentResult &res = run.results[w];
        std::vector<double> anon, file, tput;
        double best_tput = 0.0, best_anon = 0.0;
        double min_tput = 0.0;
        for (const IntervalSample &s : res.samples) {
            if (s.throughput <= 0.0)
                continue;
            anon.push_back(static_cast<double>(s.anonResident));
            file.push_back(static_cast<double>(s.fileResident));
            tput.push_back(s.throughput);
            if (s.throughput > best_tput) {
                best_tput = s.throughput;
                best_anon = static_cast<double>(s.anonResident) /
                            static_cast<double>(run.opt.wssPages);
            }
            if (min_tput == 0.0 || s.throughput < min_tput)
                min_tput = s.throughput;
        }
        // A small swing means throughput is insensitive to placement
        // (Cache1 in the paper); correlations on a flat series are
        // incidental.
        const double swing =
            best_tput > 0.0 ? (best_tput - min_tput) / best_tput : 0.0;
        table.addRow({run.cfgs[w].workload,
                      TextTable::num(correlation(anon, tput), 2),
                      TextTable::num(correlation(file, tput), 2),
                      TextTable::pct(swing), TextTable::pct(best_anon)});
    }
    table.print();
}

/** Figure 11: the share of re-accessed cold pages whose gap was at
 *  most k intervals. */
void
reaccessCdf(Run &run)
{
    run.sweep(allLocalConfigs(
        run.opt, [](ExperimentConfig &cfg) { cfg.withChameleon = true; }));
    TextTable table({"workload", "<=1 iv", "<=2 iv", "<=5 iv", "<=10 iv",
                     "re-accesses/interval"});
    for (std::size_t w = 0; w < run.cfgs.size(); ++w) {
        const ExperimentResult &res = run.results[w];
        std::uint64_t total = 0;
        std::array<std::uint64_t, 64> gaps{};
        for (const auto &iv : res.chameleonIntervals) {
            for (std::size_t g = 1; g < iv.reaccessGap.size(); ++g) {
                gaps[g] += iv.reaccessGap[g];
                total += iv.reaccessGap[g];
            }
        }
        auto cdf = [&](std::size_t max_gap) {
            if (total == 0)
                return 0.0;
            std::uint64_t within = 0;
            for (std::size_t g = 1; g <= max_gap && g < gaps.size(); ++g)
                within += gaps[g];
            return static_cast<double>(within) /
                   static_cast<double>(total);
        };
        const double per_interval =
            res.chameleonIntervals.empty()
                ? 0.0
                : static_cast<double>(total) /
                      static_cast<double>(res.chameleonIntervals.size());
        table.addRow({run.cfgs[w].workload, TextTable::pct(cdf(1)),
                      TextTable::pct(cdf(2)), TextTable::pct(cdf(5)),
                      TextTable::pct(cdf(10)),
                      TextTable::num(per_interval, 0)});
    }
    table.print();
}

} // namespace bench
} // namespace tpp
