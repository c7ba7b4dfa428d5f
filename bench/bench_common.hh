/**
 * @file
 * Shared plumbing for the figure/table reproduction binaries (and the
 * sweep-shaped examples): a common option parser, sweep wiring, CSV
 * export and headline banners.
 *
 * Every binary accepts:
 *
 *   --wss PAGES   working-set size in pages (default 32768 = 128 MiB)
 *   --jobs N      run sweep configs on N worker threads (0 = all
 *                 hardware threads; results are bit-for-bit identical
 *                 to --jobs 1)
 *   --seed S      simulation seed
 *   --csv PATH    also write the run's ExperimentResults as CSV
 *   --trace       enable kernel tracepoints (src/trace) for every run
 *   --trace-out PATH  write tracepoint events + sampler series as
 *                 JSONL (implies --trace; tools/trace_summary reads it)
 *   --sample-ms N attach the TimeSeriesSampler at an N ms period
 *   --sysctl N=V  apply a sysctl to every run (repeatable)
 *   --qps Q       open-loop offered load in requests/s (0 = closed loop)
 *   --arrival A   arrival process: poisson | bursty | diurnal
 *   --slo US      p99 latency SLO in microseconds (0 = none)
 *   --topology SPEC  explicit machine description, one node per entry:
 *                 "local:pages=N;cxl:pages=M:lat=150:bw=64;
 *                 cxl-far:pages=K:lat=300" — lat marks a lower tier
 *                 (CPU-less unless cpu=1); overrides the canned
 *                 two-node build (see ExperimentConfig::topology)
 *   --shards N    worker threads ticking shard regions in epoch
 *                 lockstep (harness/shard.hh); 1 = the single-stack
 *                 engine and bit-identical legacy output
 *   --shard-regions R  pin the region decomposition independently of
 *                 --shards (0 = match --shards); results depend on R
 *                 only, never on the worker count
 *   --verbose     enable inform()/warn() logging + sweep progress
 *   PAGES         bare positional working-set size (backward compat)
 *
 * A binary may take one more flag with a fixed set of values (an
 * ExtraFlag, e.g. the ablations' --preset smoke|full); the others
 * reject it as an unknown argument.
 *
 * Tracing and sampling are observational: enabling them changes what a
 * run *records*, never what it computes — the printed tables are
 * byte-identical with or without these flags (tests/test_trace.cc).
 *
 * Malformed spec-valued flags (--tenants, --sysctl, --qps, --arrival,
 * --slo) print the diagnostic from the spec parser — naming the bad
 * token — and exit with status 2, so scripts can tell "bad invocation"
 * from a simulator failure.
 */

#ifndef TPP_BENCH_BENCH_COMMON_HH
#define TPP_BENCH_BENCH_COMMON_HH

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/export.hh"
#include "harness/spec.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "sim/logging.hh"

namespace tpp {
namespace bench {

inline constexpr std::uint64_t kDefaultWssPages = 32768;

/** A flag only some binaries take: its name, its '|'-separated
 *  choices and its value when absent. */
struct ExtraFlag {
    const char *name;
    const char *choices;
    const char *fallback;
};

/** Options shared by every bench binary. */
struct BenchOptions {
    std::uint64_t wssPages = kDefaultWssPages;
    /** Sweep worker threads; 0 = all hardware threads. */
    unsigned jobs = 1;
    std::uint64_t seed = 1;
    /** When non-empty, results are also written here as CSV. */
    std::string csvPath;
    /** Enable kernel tracepoints for every run of the binary. */
    bool trace = false;
    /** When non-empty, write trace events + samples here as JSONL
     *  (implies trace). */
    std::string traceOutPath;
    /** Sampler period in milliseconds; 0 = sampler off. */
    std::uint64_t sampleMs = 0;
    bool verbose = false;
    /** --tenants spec (see parseTenants); empty = single workload. */
    std::string tenantsSpec;
    /** --topology spec (see parseTopology); empty = canned machine. */
    std::string topologySpec;
    /** --sysctl name=value assignments, applied to every run. */
    std::vector<std::pair<std::string, std::string>> sysctls;
    /** Open-loop traffic (--qps/--arrival/--slo); qps 0 = closed. */
    OpenLoopSpec openLoop;
    /** Shard workers (--shards); 1 = one region, no epoch lockstep. */
    std::uint32_t shards = 1;
    /** Region decomposition (--shard-regions); 0 = match shards. */
    std::uint32_t shardRegions = 0;
    /** The binary's ExtraFlag value (or its default); empty without
     *  one. */
    std::string extra;
};

/** Exit status for malformed spec-valued flags (vs. 1 for fatals). */
inline constexpr int kBadSpecExit = 2;

/** Print a bad-invocation diagnostic and exit(2). */
[[noreturn]] inline void
badSpec(const std::string &message)
{
    std::fprintf(stderr, "error: %s\n", message.c_str());
    std::exit(kBadSpecExit);
}

/** Unwrap a spec result or print its diagnostic and exit(2). */
template <typename T>
inline T
specValueOrDie(SpecResult<T> result)
{
    if (!result)
        badSpec(result.error().render());
    return std::move(*result);
}

/** Strict unsigned parse; fatal() on trailing junk or a value past
 *  `max`, the largest the flag's field holds. */
inline std::uint64_t
parseCount(const char *flag, const std::string &text,
           std::uint64_t max = UINT64_MAX)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 0);
    if (text.empty() || end != text.c_str() + text.size() ||
        errno == ERANGE || text[0] == '-') {
        tpp_fatal("%s expects an unsigned integer, got '%s'", flag,
                  text.c_str());
    }
    if (value > max)
        tpp_fatal("%s expects at most %llu, got '%s'", flag,
                  static_cast<unsigned long long>(max), text.c_str());
    return value;
}

inline void
printUsage(const char *argv0)
{
    const int pad = static_cast<int>(std::string(argv0).size());
    std::printf("usage: %s [PAGES] [--wss PAGES] [--jobs N] [--seed S]\n"
                "       %*s [--csv PATH] [--trace] [--trace-out PATH]\n"
                "       %*s [--sample-ms N] [--tenants SPEC] [--verbose]\n"
                "       %*s [--sysctl NAME=VALUE] [--qps QPS]\n"
                "       %*s [--arrival poisson|bursty|diurnal] [--slo US]\n"
                "       %*s [--topology SPEC] [--shards N]\n"
                "       %*s [--shard-regions R]\n",
                argv0, pad, "", pad, "", pad, "", pad, "", pad, "",
                pad, "");
}

/**
 * Parse the shared bench argv, plus `extra` when the binary takes one.
 * The first bare non-flag argument is the working-set size in pages,
 * as it always was.
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv, const ExtraFlag *extra = nullptr)
{
    setLogVerbose(false);
    BenchOptions opt;
    if (extra)
        opt.extra = extra->fallback;
    bool saw_positional = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                tpp_fatal("missing value after %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--wss") {
            opt.wssPages = parseCount("--wss", next());
        } else if (arg == "--jobs") {
            opt.jobs = static_cast<unsigned>(
                parseCount("--jobs", next(), UINT_MAX));
        } else if (arg == "--seed") {
            opt.seed = parseCount("--seed", next());
        } else if (arg == "--csv") {
            opt.csvPath = next();
        } else if (arg == "--trace") {
            opt.trace = true;
        } else if (arg == "--trace-out") {
            opt.traceOutPath = next();
            opt.trace = true;
        } else if (arg == "--sample-ms") {
            opt.sampleMs =
                parseCount("--sample-ms", next(), UINT64_MAX / kMillisecond);
            if (opt.sampleMs == 0)
                tpp_fatal("--sample-ms expects a period > 0");
        } else if (arg == "--tenants") {
            opt.tenantsSpec = next();
        } else if (arg == "--topology") {
            opt.topologySpec = next();
        } else if (arg == "--sysctl") {
            opt.sysctls.push_back(
                specValueOrDie(parseAssignment(next())));
        } else if (arg == "--qps") {
            opt.openLoop.qps =
                specValueOrDie(parseSpecDouble(next(), 0.0, 1e9));
        } else if (arg == "--arrival") {
            const std::string name = next();
            if (!ArrivalProcess::known(name))
                badSpec("unknown --arrival '" + name + "' (want " +
                        ArrivalProcess::knownNames() + ")");
            opt.openLoop.arrival = name;
        } else if (arg == "--slo") {
            opt.openLoop.sloP99Us =
                specValueOrDie(parseSpecDouble(next(), 0.0, 1e9));
        } else if (arg == "--shards") {
            opt.shards = static_cast<std::uint32_t>(
                parseCount("--shards", next(), UINT32_MAX));
        } else if (arg == "--shard-regions") {
            opt.shardRegions = static_cast<std::uint32_t>(
                parseCount("--shard-regions", next(), UINT32_MAX));
        } else if (extra && arg == extra->name) {
            opt.extra = next();
            const std::string choices =
                std::string("|").append(extra->choices).append("|");
            if (choices.find(std::string("|").append(opt.extra).append(
                    "|")) == std::string::npos)
                tpp_fatal("%s expects %s, got '%s'", extra->name,
                          extra->choices, opt.extra.c_str());
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(argv[0]);
            std::exit(0);
        } else if (!arg.empty() && arg[0] != '-' && !saw_positional) {
            opt.wssPages = parseCount("working-set size", arg);
            saw_positional = true;
        } else {
            tpp_fatal("unknown argument '%s' (try --help)", arg.c_str());
        }
    }
    setLogVerbose(opt.verbose);
    return opt;
}

/** An ExperimentConfig carrying the shared options (wss, seed). */
inline ExperimentConfig
makeConfig(const BenchOptions &opt)
{
    ExperimentConfig cfg;
    cfg.wssPages = opt.wssPages;
    cfg.seed = opt.seed;
    cfg.traceEnabled = opt.trace;
    if (opt.sampleMs) {
        cfg.sampleSeries = true;
        cfg.samplePeriod = opt.sampleMs * kMillisecond;
    }
    cfg.sysctls = opt.sysctls;
    if (!opt.tenantsSpec.empty())
        cfg.tenants = specValueOrDie(parseTenants(opt.tenantsSpec));
    cfg.topology = opt.topologySpec;
    if (opt.openLoop.enabled()) {
        if (!cfg.tenants.empty()) {
            // With --tenants, the run-wide flags are a default each
            // tenant inherits unless its spec sets its own qps=.
            for (TenantSpec &tenant : cfg.tenants)
                if (!tenant.openLoop.enabled())
                    tenant.openLoop = opt.openLoop;
        } else {
            cfg.openLoop = opt.openLoop;
        }
    }
    cfg.shards = opt.shards;
    cfg.shardRegions = opt.shardRegions;
    // Reject bad shard geometry (and any other bad spec the flags
    // assembled) here, with the spec-flag exit status, instead of
    // fataling mid-run: scripts can tell "bad invocation" from a
    // simulator failure.
    if (SpecResult<void> valid = cfg.validate(); !valid)
        badSpec(valid.error().render());
    return cfg;
}

/** SweepRunner options derived from the shared flags. */
inline SweepOptions
sweepOptions(const BenchOptions &opt)
{
    SweepOptions sweep;
    sweep.jobs = opt.jobs;
    sweep.progress = opt.verbose;
    return sweep;
}

/** Honour --csv: dump every result of the run in submission order. */
inline void
maybeWriteCsv(const BenchOptions &opt,
              const std::vector<ExperimentResult> &results)
{
    if (opt.csvPath.empty())
        return;
    std::ofstream out(opt.csvPath);
    if (!out)
        tpp_fatal("cannot open --csv path '%s'", opt.csvPath.c_str());
    writeResultsCsv(out, results);
    // Multi-tenant runs get their per-tenant rows next to the headline
    // CSV, in "<path>.tenants.csv".
    for (const ExperimentResult &r : results) {
        if (r.tenants.empty())
            continue;
        const std::string tenant_path = opt.csvPath + ".tenants.csv";
        std::ofstream tout(tenant_path);
        if (!tout)
            tpp_fatal("cannot open tenants CSV path '%s'",
                      tenant_path.c_str());
        writeTenantsCsv(tout, results);
        break;
    }
}

/**
 * Honour --trace-out: append every result's tracepoint events and
 * sampler series to one JSONL file, tagged by workload/policy so a
 * whole sweep shares the file.
 */
inline void
maybeWriteTrace(const BenchOptions &opt,
                const std::vector<ExperimentResult> &results)
{
    if (opt.traceOutPath.empty())
        return;
    std::ofstream out(opt.traceOutPath);
    if (!out)
        tpp_fatal("cannot open --trace-out path '%s'",
                  opt.traceOutPath.c_str());
    for (const ExperimentResult &r : results)
        writeTraceJsonl(out, r);
}

/** Print the figure banner. */
inline void
banner(const char *id, const char *title)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", id, title);
    std::printf("==============================================================\n\n");
}

} // namespace bench
} // namespace tpp

#endif // TPP_BENCH_BENCH_COMMON_HH
