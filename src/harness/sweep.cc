#include "harness/sweep.hh"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "harness/thread_pool.hh"

namespace tpp {

ExperimentConfig
allLocalTwin(const ExperimentConfig &cfg)
{
    ExperimentConfig twin = cfg;
    twin.allLocal = true;
    // The reference machine is a single local node sized for the
    // workload, whatever tier graph the real run described.
    twin.topology.clear();
    twin.policy = "linux";
    twin.withChameleon = false;
    twin.sysctls.clear();
    // The baseline is a reference machine and never carries telemetry.
    twin.traceEnabled = false;
    twin.traceCapacity = TraceBuffer::kDefaultCapacity;
    twin.sampleSeries = false;
    twin.samplePeriod = 0;
    twin.measureHotness = false;
    // The baseline machine has no co-located tenants: the metric is
    // "what would this workload do with all-local memory to itself".
    twin.tenants.clear();
    // And it runs closed-loop: "relative to all-local" is a throughput
    // metric, so the baseline saturates rather than pacing arrivals.
    twin.openLoop = OpenLoopSpec{};
    return twin;
}

namespace {

/**
 * Simulate `cfg`, or reject it with a diagnostic when validate() fails:
 * a sweep loses one invalid config instead of taking down the other
 * N-1 (runExperiment would fatal).
 */
ExperimentResult
runOrReject(const ExperimentConfig &cfg)
{
    if (const SpecResult<void> valid = cfg.validate(); !valid) {
        ExperimentResult rejected;
        rejected.workload = runName(cfg);
        rejected.policy = cfg.policy;
        rejected.error = valid.error().render();
        std::fprintf(stderr, "sweep: rejected %s/%s: %s\n",
                     rejected.workload.c_str(), cfg.policy.c_str(),
                     rejected.error.c_str());
        return rejected;
    }
    return runExperiment(cfg);
}

} // namespace

SweepRunner::SweepRunner(SweepOptions opts) : opts_(opts)
{
    if (opts_.jobs == 0)
        opts_.jobs = ThreadPool::hardwareConcurrency();
}

std::vector<ExperimentResult>
SweepRunner::run(const std::vector<ExperimentConfig> &configs)
{
    // Each config's leader is the first config equal to it; only
    // leaders simulate. Scanning the leaders found so far is quadratic
    // in the sweep's size, which is nothing beside one run.
    const std::size_t n = configs.size();
    std::vector<std::size_t> leader(n);
    std::vector<std::size_t> leaders;
    for (std::size_t i = 0; i < n; ++i) {
        const auto same =
            std::find_if(leaders.begin(), leaders.end(), [&](std::size_t j) {
                return configs[j] == configs[i];
            });
        leader[i] = same == leaders.end() ? i : *same;
        if (leader[i] == i)
            leaders.push_back(i);
    }

    const unsigned jobs = static_cast<unsigned>(std::min<std::size_t>(
        opts_.jobs, leaders.size()));

    std::mutex progress_mutex;
    std::size_t completed = 0;
    auto report = [&](const ExperimentConfig &cfg) {
        if (!opts_.progress)
            return;
        std::lock_guard<std::mutex> lock(progress_mutex);
        completed++;
        std::fprintf(stderr, "\r[sweep %zu/%zu] %s/%s%s", completed,
                     leaders.size(), runName(cfg).c_str(),
                     cfg.policy.c_str(),
                     completed == leaders.size() ? "\n" : " ");
        std::fflush(stderr);
    };

    std::vector<ExperimentResult> results(n);
    if (jobs <= 1) {
        // Serial path: same code path runExperiment loops always took.
        for (std::size_t i : leaders) {
            results[i] = runOrReject(configs[i]);
            report(configs[i]);
        }
    } else {
        ThreadPool pool(jobs);
        for (std::size_t i : leaders) {
            pool.submit([&, i] {
                results[i] = runOrReject(configs[i]);
                report(configs[i]);
            });
        }
        pool.wait();
    }

    // Fill the duplicates from their leaders.
    for (std::size_t i = 0; i < n; ++i)
        if (leader[i] != i)
            results[i] = results[leader[i]];
    return results;
}

} // namespace tpp
