/**
 * @file
 * The full-surface lab CLI: run any (workload, policy, topology)
 * combination, poke sysctl knobs before the run, and export results as
 * CSV/JSON — the one binary that exercises the whole public API
 * (topologies, every registered policy and workload, sysctl, meminfo,
 * export, and the parallel sweep engine).
 *
 * --workload and --policy accept comma-separated lists; the lab runs
 * the full cross product through SweepRunner, so `--jobs N` fans the
 * grid out across N threads with bit-identical results.
 *
 * Usage:
 *   tiering_lab [--workload NAME[,NAME...]] [--policy NAME[,NAME...]]
 *               [--ratio L:C | --all-local | --topology SPEC]
 *               [--wss pages] [--seed S]
 *               [--jobs N] [--sysctl name=value]...
 *               [--csv] [--json] [--meminfo] [--verbose]
 *
 * Unknown workload or policy names fatal() with the registered list.
 */

#include <climits>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "mm/meminfo.hh"

namespace {

using namespace tpp;

struct Options {
    std::vector<std::string> workloads = {"cache1"};
    std::vector<std::string> policies = {"tpp"};
    std::string ratio = "2:1";
    bool allLocal = false;
    std::string topologySpec;
    std::uint64_t wss = 32768;
    std::uint64_t seed = 1;
    unsigned jobs = 1;
    std::vector<std::pair<std::string, std::string>> sysctls;
    bool csv = false;
    bool json = false;
    bool meminfo = false;
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
        if (arg == "--workload") {
            opt.workloads = splitList(next());
        } else if (arg == "--policy") {
            opt.policies = splitList(next());
        } else if (arg == "--ratio") {
            opt.ratio = next();
        } else if (arg == "--all-local") {
            opt.allLocal = true;
        } else if (arg == "--topology") {
            opt.topologySpec = next();
        } else if (arg == "--wss") {
            opt.wss = bench::parseCount("--wss", next());
        } else if (arg == "--seed") {
            opt.seed = bench::parseCount("--seed", next());
        } else if (arg == "--jobs") {
            opt.jobs = static_cast<unsigned>(
                bench::parseCount("--jobs", next(), UINT_MAX));
        } else if (arg == "--sysctl") {
            const std::string kv = next();
            const auto eq = kv.find('=');
            if (eq == std::string::npos)
                tpp_fatal("--sysctl expects name=value");
            opt.sysctls.emplace_back(kv.substr(0, eq),
                                     kv.substr(eq + 1));
        } else if (arg == "--csv") {
            opt.csv = true;
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--meminfo") {
            opt.meminfo = true;
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

    std::vector<ExperimentConfig> cfgs;
    for (const std::string &workload : opt.workloads) {
        for (const std::string &policy : opt.policies) {
            ExperimentConfig cfg;
            cfg.workload = workload;
            cfg.policy = policy;
            cfg.wssPages = opt.wss;
            cfg.seed = opt.seed;
            cfg.sysctls = opt.sysctls;
            if (!opt.topologySpec.empty())
                cfg.topology = opt.topologySpec;
            else if (opt.allLocal)
                cfg.allLocal = true;
            else
                cfg.localFraction = parseRatio(opt.ratio);
            cfgs.push_back(cfg);
        }
    }

    SweepOptions sweep;
    sweep.jobs = opt.jobs;
    sweep.progress = opt.verbose;
    const std::vector<ExperimentResult> results =
        SweepRunner(sweep).run(cfgs);

    if (opt.csv)
        writeResultsCsv(std::cout, results);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ExperimentResult &result = results[i];
        if (opt.json) {
            writeResultJson(std::cout, result);
        } else if (!opt.csv) {
            std::printf("%s / %s: %.0f ops/s, %.1f%% local traffic, "
                        "%.1f ns mean access\n",
                        result.workload.c_str(), result.policy.c_str(),
                        result.throughput,
                        100.0 * result.localTrafficShare,
                        result.meanAccessLatencyNs);
            if (results.size() == 1) {
                std::printf("\n-- vmstat --\n%s",
                            result.vmstat.report().c_str());
            }
        }
        if (opt.meminfo) {
            std::printf("\n-- meminfo (%s / %s) --\n%s",
                        result.workload.c_str(), result.policy.c_str(),
                        renderMemInfo(result.meminfo).c_str());
        }
    }
    return 0;
}
