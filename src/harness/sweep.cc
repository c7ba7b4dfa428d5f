#include "harness/sweep.hh"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <sstream>

#include "harness/thread_pool.hh"
#include "sim/logging.hh"

namespace tpp {

namespace {

/** Append one key=value field to the canonical serialisation. */
template <typename T>
void
field(std::ostringstream &out, const char *name, const T &value)
{
    out << name << '=' << value << ';';
}

void
fieldDouble(std::ostringstream &out, const char *name, double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out << name << '=' << buf << ';';
}

} // namespace

std::string
canonicalKey(const ExperimentConfig &cfg)
{
    // Serialise EVERY field that influences a run. When a field is
    // added to ExperimentConfig (or to a parameter block in
    // mm/policy_params.hh), it must be appended here — test_sweep.cc
    // guards the ones that exist today.
    std::ostringstream out;
    field(out, "workload", cfg.workload);
    field(out, "wssPages", cfg.wssPages);
    field(out, "allLocal", cfg.allLocal);
    field(out, "topology", cfg.topology);
    fieldDouble(out, "localFraction", cfg.localFraction);
    fieldDouble(out, "capacityHeadroom", cfg.capacityHeadroom);
    field(out, "policy", cfg.policy);
    out << "sysctls=[";
    for (const auto &[name, value] : cfg.sysctls)
        out << name << '=' << value << ',';
    out << "];";
    field(out, "runUntil", cfg.runUntil);
    field(out, "measureFrom", cfg.measureFrom);
    field(out, "sampleEvery", cfg.sampleEvery);
    field(out, "seed", cfg.seed);
    // Tracing never changes simulation results, but it does change what
    // a result *carries* (trace records, series) — two configs that
    // differ only in telemetry must not share a memo slot.
    field(out, "traceEnabled", cfg.traceEnabled);
    field(out, "traceCapacity", cfg.traceCapacity);
    field(out, "sampleSeries", cfg.sampleSeries);
    field(out, "samplePeriod", cfg.samplePeriod);
    field(out, "withChameleon", cfg.withChameleon);
    field(out, "cham.samplePeriod", cfg.chameleon.samplePeriod);
    field(out, "cham.numCoreGroups", cfg.chameleon.numCoreGroups);
    field(out, "cham.miniInterval", cfg.chameleon.miniInterval);
    field(out, "cham.interval", cfg.chameleon.interval);
    field(out, "cham.dutyCycle", cfg.chameleon.dutyCycle);
    field(out, "cham.bitsPerInterval", cfg.chameleon.bitsPerInterval);
    field(out, "cham.frequentThreshold", cfg.chameleon.frequentThreshold);
    field(out, "mig.async", cfg.migration.async);
    field(out, "mig.transactional", cfg.migration.transactional);
    field(out, "mig.bandwidthCost", cfg.migration.bandwidthCost);
    field(out, "mig.queueDepth", cfg.migration.queueDepth);
    field(out, "mig.drainBatch", cfg.migration.drainBatch);
    field(out, "mig.drainPeriod", cfg.migration.drainPeriod);
    fieldDouble(out, "mig.rateLimitMBps", cfg.migration.rateLimitMBps);
    field(out, "tpp.mode", static_cast<int>(cfg.tpp.mode));
    fieldDouble(out, "tpp.demoteScaleFactor", cfg.tpp.demoteScaleFactor);
    field(out, "tpp.decoupleWatermarks", cfg.tpp.decoupleWatermarks);
    field(out, "tpp.demoteChain", cfg.tpp.demoteChain);
    field(out, "tpp.activeLruFilter", cfg.tpp.activeLruFilter);
    field(out, "tpp.promotionIgnoresWatermark",
          cfg.tpp.promotionIgnoresWatermark);
    field(out, "tpp.typeAwareAllocation", cfg.tpp.typeAwareAllocation);
    field(out, "tpp.scanPeriod", cfg.tpp.scanPeriod);
    field(out, "tpp.scanBatch", cfg.tpp.scanBatch);
    fieldDouble(out, "tpp.promoteRateLimitMBps",
                cfg.tpp.promoteRateLimitMBps);
    field(out, "nb.scanPeriod", cfg.numaBalancing.scanPeriod);
    field(out, "nb.scanBatch", cfg.numaBalancing.scanBatch);
    field(out, "at.scanPeriod", cfg.autoTiering.scanPeriod);
    field(out, "at.scanBatch", cfg.autoTiering.scanBatch);
    field(out, "at.hotWindow", cfg.autoTiering.hotWindow);
    field(out, "at.hotThreshold",
          static_cast<unsigned>(cfg.autoTiering.hotThreshold));
    field(out, "at.promotionReserve", cfg.autoTiering.promotionReserve);
    field(out, "hot.source", cfg.hotness.source);
    field(out, "hot.epochPeriod", cfg.hotness.epochPeriod);
    field(out, "hot.promoteBatch", cfg.hotness.promoteBatch);
    field(out, "hot.hotWindow", cfg.hotness.hotWindow);
    field(out, "hot.hotThreshold", cfg.hotness.hotThreshold);
    field(out, "hot.counterTableSize", cfg.hotness.counterTableSize);
    field(out, "hot.decayHalfLife", cfg.hotness.decayHalfLife);
    fieldDouble(out, "hot.targetQuantile", cfg.hotness.targetQuantile);
    const AdaptiveConfig &ad = cfg.adaptive;
    field(out, "ad.enable", ad.enable);
    field(out, "ad.windowPeriod", ad.windowPeriod);
    field(out, "ad.profileWindows", ad.profileWindows);
    fieldDouble(out, "ad.hysteresisPct", ad.hysteresisPct);
    fieldDouble(out, "ad.wakeDriftPct", ad.wakeDriftPct);
    fieldDouble(out, "ad.weightLocal", ad.weightLocal);
    fieldDouble(out, "ad.weightPingPong", ad.weightPingPong);
    fieldDouble(out, "ad.weightStall", ad.weightStall);
    fieldDouble(out, "ad.weightSlo", ad.weightSlo);
    fieldDouble(out, "ad.weightMigrate", ad.weightMigrate);
    field(out, "ad.flapFlips", ad.flapFlips);
    field(out, "ad.flapBias", ad.flapBias);
    field(out, "ad.promoteThreshold", ad.promoteThreshold);
    field(out, "ad.promoteThresholdMax", ad.promoteThresholdMax);
    field(out, "ad.scanSizeMin", ad.scanSizeMin);
    field(out, "ad.scanSizeMax", ad.scanSizeMax);
    fieldDouble(out, "ad.demoteScaleMin", ad.demoteScaleMin);
    fieldDouble(out, "ad.demoteScaleMax", ad.demoteScaleMax);
    // Like telemetry: recall measurement never perturbs the simulation,
    // but the result carries extra fields, so no shared memo slot.
    field(out, "measureHotness", cfg.measureHotness);
    fieldDouble(out, "ol.qps", cfg.openLoop.qps);
    field(out, "ol.arrival", cfg.openLoop.arrival);
    fieldDouble(out, "ol.slo", cfg.openLoop.sloP99Us);
    fieldDouble(out, "ol.burstFactor", cfg.openLoop.burstFactor);
    fieldDouble(out, "ol.burstOnFraction", cfg.openLoop.burstOnFraction);
    field(out, "ol.burstPeriod", cfg.openLoop.burstPeriod);
    field(out, "ol.diurnalPeriod", cfg.openLoop.diurnalPeriod);
    fieldDouble(out, "ol.diurnalAmplitude", cfg.openLoop.diurnalAmplitude);
    out << "tenants=[";
    for (const TenantSpec &tenant : cfg.tenants) {
        const OpenLoopSpec &ol = tenant.openLoop;
        field(out, "workload", tenant.workload);
        field(out, "wssPages", tenant.wssPages);
        fieldDouble(out, "low", tenant.lowFraction);
        fieldDouble(out, "budget", tenant.budgetMBps);
        field(out, "place", tenant.placement);
        fieldDouble(out, "qps", ol.qps);
        field(out, "arrival", ol.arrival);
        fieldDouble(out, "slo", ol.sloP99Us);
        fieldDouble(out, "burstFactor", ol.burstFactor);
        fieldDouble(out, "burstOnFraction", ol.burstOnFraction);
        field(out, "burstPeriod", ol.burstPeriod);
        field(out, "diurnalPeriod", ol.diurnalPeriod);
        fieldDouble(out, "diurnalAmplitude", ol.diurnalAmplitude);
        out << ',';
    }
    out << "];";
    field(out, "shards", cfg.shards);
    field(out, "shardRegions", cfg.shardRegions);
    return out.str();
}

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
    // The baseline is a reference machine — never carries telemetry, so
    // all figures comparing against it share one cached run.
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

/**
 * One cache slot. `ready` flips exactly once, under the cache mutex;
 * later requesters for an in-flight key wait on `cv` instead of
 * re-simulating.
 */
struct BaselineCache::Entry {
    std::condition_variable cv;
    bool ready = false;
    ExperimentResult result;
};

BaselineCache &
BaselineCache::instance()
{
    static BaselineCache cache;
    return cache;
}

ExperimentResult
BaselineCache::getOrRun(const ExperimentConfig &cfg)
{
    const std::string key = canonicalKey(cfg);
    std::shared_ptr<Entry> entry;
    bool owner = false;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it == entries_.end()) {
            entry = std::make_shared<Entry>();
            entries_.emplace(key, entry);
            owner = true;
            misses_++;
        } else {
            entry = it->second;
            hits_++;
        }
        if (!owner) {
            entry->cv.wait(lock, [&] { return entry->ready; });
            return entry->result;
        }
    }
    // Simulate outside the lock so unrelated keys proceed in parallel.
    ExperimentResult result = runExperiment(cfg);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        entry->result = std::move(result);
        entry->ready = true;
    }
    entry->cv.notify_all();
    return entry->result;
}

std::uint64_t
BaselineCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
BaselineCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

void
BaselineCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    hits_ = 0;
    misses_ = 0;
}

SweepRunner::SweepRunner(SweepOptions opts) : opts_(opts)
{
    if (opts_.jobs == 0)
        opts_.jobs = ThreadPool::hardwareConcurrency();
}

ExperimentResult
SweepRunner::runCached(const ExperimentConfig &cfg) const
{
    // A sweep rejects one invalid config with a diagnostic instead of
    // taking down the other N-1 (runExperiment would fatal).
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
    // All-local runs are the shared baselines every figure divides by;
    // funnel them through the process-wide cache.
    if (cfg.allLocal)
        return BaselineCache::instance().getOrRun(cfg);
    return runExperiment(cfg);
}

ExperimentResult
SweepRunner::runOne(const ExperimentConfig &cfg)
{
    return runCached(cfg);
}

std::vector<ExperimentResult>
SweepRunner::run(const std::vector<ExperimentConfig> &configs)
{
    const std::size_t n = configs.size();
    std::vector<ExperimentResult> results(n);
    if (n == 0)
        return results;

    // Within-sweep memoization: map each config to the first index with
    // the same canonical key; only "leader" indices simulate.
    std::vector<std::size_t> leader(n);
    std::vector<std::size_t> leaders;
    leaders.reserve(n);
    {
        std::map<std::string, std::size_t> first;
        for (std::size_t i = 0; i < n; ++i) {
            if (!opts_.memoize) {
                leader[i] = i;
                leaders.push_back(i);
                continue;
            }
            const auto [it, inserted] =
                first.emplace(canonicalKey(configs[i]), i);
            leader[i] = it->second;
            if (inserted)
                leaders.push_back(i);
        }
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
                     leaders.size(), cfg.workload.c_str(),
                     cfg.policy.c_str(),
                     completed == leaders.size() ? "\n" : " ");
        std::fflush(stderr);
    };

    if (jobs <= 1) {
        // Serial path: same code path runExperiment loops always took.
        for (std::size_t i : leaders) {
            results[i] = runCached(configs[i]);
            report(configs[i]);
        }
    } else {
        ThreadPool pool(jobs);
        for (std::size_t i : leaders) {
            pool.submit([&, i] {
                results[i] = runCached(configs[i]);
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
