/**
 * @file
 * Hotness lab: the smallest useful tour of the src/hotness subsystem.
 * Pick a workload and a hotness source (or all of them), run the
 * "hotness" policy with hot-set recall measurement on, and print what
 * each temperature signal achieved — plus the sysctl surface, so the
 * example doubles as a demo of retuning the source at runtime.
 *
 * Usage:
 *   hotness_lab [--source NAME[,NAME...]|all] [--workload NAME]
 *               [--wss pages] [--seed S] [--jobs N]
 *               [--epoch-ms N] [--batch PAGES] [--table ENTRIES]
 *               [--verbose]
 *
 * Unknown source names fatal() with the registered list (see
 * hotnessSourceNames()).
 */

#include <climits>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "hotness/hotness_source.hh"

namespace {

using namespace tpp;

struct Options {
    std::vector<std::string> sources = {"neoprof"};
    std::string workload = "cache1";
    std::uint64_t wss = 32768;
    std::uint64_t seed = 1;
    unsigned jobs = 1;
    std::uint64_t epochMs = 0;   //!< 0 = keep the config default
    std::uint64_t batch = 0;     //!< 0 = keep the config default
    std::uint64_t tableSize = 0; //!< 0 = keep the config default
    bool verbose = false;
};

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::string::size_type start = 0;
    while (start <= text.size()) {
        const auto comma = text.find(',', start);
        const auto end = comma == std::string::npos ? text.size() : comma;
        if (end > start)
            out.push_back(text.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (out.empty())
        tpp_fatal("empty name list '%s'", text.c_str());
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                tpp_fatal("missing value after %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--source") {
            const std::string value = next();
            opt.sources = value == "all" ? hotnessSourceNames()
                                         : splitList(value);
        } else if (arg == "--workload") {
            opt.workload = next();
        } else if (arg == "--wss") {
            opt.wss = bench::parseCount("--wss", next());
        } else if (arg == "--seed") {
            opt.seed = bench::parseCount("--seed", next());
        } else if (arg == "--jobs") {
            opt.jobs = static_cast<unsigned>(
                bench::parseCount("--jobs", next(), UINT_MAX));
        } else if (arg == "--epoch-ms") {
            opt.epochMs = bench::parseCount("--epoch-ms", next(),
                                            UINT64_MAX / kMillisecond);
        } else if (arg == "--batch") {
            opt.batch = bench::parseCount("--batch", next());
        } else if (arg == "--table") {
            opt.tableSize = bench::parseCount("--table", next());
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else {
            tpp_fatal("unknown argument '%s'", arg.c_str());
        }
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    setLogVerbose(opt.verbose);

    // One config per source. Every knob below is also a live sysctl
    // (vm.hotness.*) — the cfg.sysctls route exercises that surface the
    // way an admin would, instead of poking the struct directly.
    std::vector<ExperimentConfig> cfgs;
    for (const std::string &source : opt.sources) {
        ExperimentConfig cfg;
        cfg.workload = opt.workload;
        cfg.policy = "hotness";
        cfg.wssPages = opt.wss;
        cfg.seed = opt.seed;
        cfg.localFraction = parseRatio("1:4");
        cfg.measureHotness = true;
        cfg.hotness.source = source;
        if (opt.epochMs)
            cfg.sysctls.emplace_back(
                "vm.hotness.epoch_period_ns",
                std::to_string(opt.epochMs * kMillisecond));
        if (opt.batch)
            cfg.sysctls.emplace_back("vm.hotness.promote_batch",
                                     std::to_string(opt.batch));
        if (opt.tableSize)
            cfg.sysctls.emplace_back("vm.hotness.counter_table_size",
                                     std::to_string(opt.tableSize));
        cfgs.push_back(cfg);
    }

    SweepOptions sweep;
    sweep.jobs = opt.jobs;
    sweep.progress = opt.verbose;
    const std::vector<ExperimentResult> results =
        SweepRunner(sweep).run(cfgs);

    TextTable table({"source", "tput (ops/s)", "local traffic",
                     "hot-set recall", "promoted", "ctr evictions"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ExperimentResult &res = results[i];
        table.addRow(
            {opt.sources[i], TextTable::num(res.throughput, 0),
             TextTable::pct(res.localTrafficShare),
             TextTable::pct(res.hotSetRecall),
             TextTable::count(res.vmstat.get(Vm::PgPromoteSuccess)),
             TextTable::count(
                 res.vmstat.get(Vm::HotnessCounterEvict))});
    }
    table.print();
    return 0;
}
