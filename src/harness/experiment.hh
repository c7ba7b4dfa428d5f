/**
 * @file
 * Experiment harness: builds a (topology, kernel, policy, workload)
 * stack from a declarative config, runs it, and returns the metrics the
 * paper reports — throughput, local/CXL traffic shares, residency
 * splits, vmstat counters and per-interval time series.
 *
 * Every paper figure, table and ablation is one SweepRunner::run()
 * over a vector of configs (harness/sweep.hh), which calls
 * runExperiment() once per distinct config.
 *
 * Policies and workloads are resolved by *name* through PolicyRegistry
 * (mm/policy_registry.hh) and WorkloadRegistry
 * (workloads/workload_registry.hh): this header deliberately includes
 * no policy headers, and adding a new policy or workload requires no
 * change to the harness.
 */

#ifndef TPP_HARNESS_EXPERIMENT_HH
#define TPP_HARNESS_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chameleon/chameleon.hh"
#include "harness/spec.hh"
#include "mem/memory_system.hh"
#include "mm/memcg/memcg.hh"
#include "mm/meminfo.hh"
#include "mm/migration/migration_config.hh"
#include "mm/policy_params.hh"
#include "mm/vmstat.hh"
#include "sim/types.hh"
#include "trace/sampler.hh"
#include "trace/trace.hh"
#include "workloads/arrival.hh"
#include "workloads/driver.hh"

namespace tpp {

class PlacementPolicy;

/**
 * One co-located tenant: a workload bound to its own memory cgroup.
 *
 * The textual form accepted by parseTenants (and the bench
 * binaries' --tenants flag) is `workload[:key=val]...` with tenants
 * separated by ';', e.g.
 *
 *     cache1:low=0.6:wss=65536;churn:budget=50
 *
 * keys: `wss` (pages; 0 = equal share of ExperimentConfig::wssPages),
 * `low` (memory.low floor as a fraction of the tenant's working set),
 * `budget` (per-cgroup migration budget, MB/s; 0 = unlimited),
 * `place` (none | local_only | cxl_only), `qps` (open-loop arrival
 * rate; 0 = closed loop), `arrival` (poisson | bursty | diurnal) and
 * `slo` (p99 latency target in microseconds; 0 = no SLO).
 */
struct TenantSpec {
    std::string workload;
    /** Working-set pages; 0 = equal share of the config's wssPages. */
    std::uint64_t wssPages = 0;
    /** memory.low floor as a fraction of this tenant's working set. */
    double lowFraction = 0.0;
    /** Per-cgroup migration token budget in MB/s; 0 = unlimited. */
    double budgetMBps = 0.0;
    /** Placement policy: "none", "local_only" or "cxl_only". */
    std::string placement = "none";
    /** Open-loop arrival process; disabled (qps 0) = closed loop. */
    OpenLoopSpec openLoop;

    bool operator==(const TenantSpec &) const = default;
};

/**
 * Tail-latency summary of an open-loop run (qps > 0). Zero-initialised
 * and `enabled == false` for closed-loop runs, so exporters can keep
 * their output byte-identical when no one asked for open-loop traffic.
 */
struct OpenLoopResult {
    bool enabled = false;
    double offeredQps = 0.0;   //!< configured arrival rate
    std::string arrival;       //!< arrival process name
    std::uint64_t requests = 0; //!< completed in the window
    std::uint64_t dropped = 0;  //!< rejected at the queue cap
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    double p999Ns = 0.0;
    double maxNs = 0.0;
    double meanNs = 0.0;
    /** Time-weighted mean request-queue depth over the window. */
    double meanQueueDepth = 0.0;
    std::uint64_t maxQueueDepth = 0;
    /** Requests per second that met the SLO (all completions when no
     *  SLO is set). */
    double goodputQps = 0.0;
    double sloP99Us = 0.0;     //!< configured target; 0 = none
    /** Fraction of offered requests that completed within the SLO.
     *  Drops count as misses. 1.0 when nothing was offered. */
    double sloAttainment = 1.0;
};

/** Per-tenant slice of an ExperimentResult. */
struct TenantResult {
    /** Cgroup name: "t<index>-<workload>". */
    std::string name;
    std::string workload;
    double throughput = 0.0; //!< ops per second, measurement window
    double meanAccessLatencyNs = 0.0;
    /** Fraction of the tenant's resident pages on the local tier. */
    double localResidency = 0.0;
    std::uint64_t pagesLocal = 0;
    std::uint64_t pagesTotal = 0;
    /** Tenant hot-set recall against its capacity share
     *  (cfg.measureHotness). */
    double hotSetRecall = 0.0;
    std::uint64_t hotSetPages = 0;
    /** memory.stat-style per-cgroup counters at end of run. */
    MemcgStats memcg;
    /** Open-loop tail-latency summary (tenant qps > 0). */
    OpenLoopResult openLoop;
};

/**
 * Declarative description of one experiment run.
 *
 * Derives from PolicyParams so per-policy parameter blocks read as
 * direct members (`cfg.tpp.scanBatch`, `cfg.autoTiering.hotWindow`);
 * the registry hands the PolicyParams slice to the selected policy's
 * factory.
 */
struct ExperimentConfig : PolicyParams {
    /** Registered workload name: "web", "cache1", "cache2", "dwh",
     *  "ycsb-a" … "ycsb-d". */
    std::string workload = "web";
    /** Working-set reservation in pages. */
    std::uint64_t wssPages = 1ULL << 17; // 512 MiB
    /** Single-node machine (the paper's "all from local" baseline). */
    bool allLocal = false;
    /**
     * Local share of total capacity for tiered machines: 2:1 configs
     * pass 2/3, 1:4 configs pass 1/5 (§6.2).
     */
    double localFraction = 2.0 / 3.0;
    /**
     * Explicit machine description; empty (the default) keeps the
     * canned two-node build from allLocal/localFraction, which stay
     * as sugar for the common shapes. The grammar is the PR 6 spec
     * form, one node per entry:
     *
     *     local:pages=N;cxl:pages=M:lat=150:bw=64;cxl-far:pages=K:lat=300
     *
     * The entry head names the node; `pages` is required. A node with
     * `lat` set is CPU-less (a lower tier) unless it also says `cpu=1`;
     * one without `lat` is a CPU node at the local latency point.
     * `bw` defaults to the local/CXL bandwidth constants. Distances
     * derive from the tier structure: 10 on the diagonal, and
     * 10 + 10 * max(hop_i, hop_j) otherwise, where a CPU node is hop 0
     * and the k-th distinct CPU-less latency class is hop k — the same
     * shape TopologyBuilder's canned machines use.
     */
    std::string topology;
    /** Total capacity relative to the working-set reservation. */
    double capacityHeadroom = 1.03;
    /** Registered policy name: "linux", "numa-balancing",
     *  "autotiering", "damon-reclaim", "tpp". */
    std::string policy = "tpp";
    /** sysctl name=value pairs applied before the run starts. */
    std::vector<std::pair<std::string, std::string>> sysctls;
    /**
     * MigrationEngine mode (mm/migration). The default is the
     * synchronous compat mode — bit-identical to the pre-engine
     * kernel; MigrationConfig::asyncEngine() turns on queueing,
     * transactions and bandwidth-coupled copy cost.
     */
    MigrationConfig migration;
    /** Simulated run length and measurement window. */
    Tick runUntil = 20 * kSecond;
    Tick measureFrom = 12 * kSecond;
    Tick sampleEvery = 100 * kMillisecond;
    std::uint64_t seed = 1;
    /** Attach a Chameleon profiler to the workload. */
    bool withChameleon = false;
    ChameleonConfig chameleon;
    /**
     * Kernel tracepoints (src/trace): record mm events into the ring.
     * Purely observational — results are bit-identical on or off.
     */
    bool traceEnabled = false;
    /** Ring capacity in records when tracing is enabled. */
    std::uint64_t traceCapacity = TraceBuffer::kDefaultCapacity;
    /** Attach a TimeSeriesSampler (vmstat deltas + per-node usage). */
    bool sampleSeries = false;
    /** Sampler period; 0 means "use sampleEvery". */
    Tick samplePeriod = 0;
    /**
     * Compute hot-set recall (src/hotness ablations): count every
     * page's accesses inside the measurement window, define the true
     * hot set as the top pages by count up to the local tier's
     * capacity, and report the fraction of it resident locally at the
     * end of the run. Purely observational.
     */
    bool measureHotness = false;
    /**
     * Multi-tenant co-location: one workload per entry, each in its own
     * memory cgroup (src/mm/memcg). Empty (the default) runs `workload`
     * as the one implicit tenant, in the root cgroup with no cgroup
     * created, bit-identical to a build without cgroups. Tenant working
     * sets default to equal shares of wssPages.
     */
    std::vector<TenantSpec> tenants;
    /**
     * Open-loop traffic for the implicit tenant: requests arrive on the
     * configured process at `qps` regardless of service latency, so
     * queueing delay shows up in the tail instead of throttling the
     * offered load. Disabled (qps 0) keeps the closed-loop driver and
     * bit-identical results. Mutually exclusive with `tenants` — give
     * each tenant its own spec there instead.
     */
    OpenLoopSpec openLoop;
    /**
     * Worker threads ticking the run's regions in epoch lockstep
     * (see effectiveShardRegions()). A region is a vertical slice of
     * the machine with its own clock, kernel and copy of the workload:
     * it models one CPU slice, so R regions run R workload copies and
     * throughput sums over them. Because regions are isolated between
     * epoch barriers, the thread count only changes *when* a region
     * computes, never *what*: for a fixed region count, every shard
     * count produces identical results (tests/test_shard.cc pins this).
     */
    std::uint32_t shards = 1;
    /**
     * Number of shard regions the VPN space is partitioned into; 0 (the
     * default) matches `shards`. Pin this while varying `shards` to
     * change parallelism without changing the simulated machine.
     */
    std::uint32_t shardRegions = 0;

    /** @return the region count the run will actually decompose into. */
    std::uint32_t
    effectiveShardRegions() const
    {
        return shardRegions ? shardRegions : shards;
    }

    /**
     * Check the config before building a machine for it: capacity and
     * fraction ranges, measurement-window ordering, tenant working-set
     * budgets and shares, open-loop parameters, shard-region geometry,
     * and feature combinations the engine has no rule for (Chameleon
     * with tenants; observers, tenants or a topology with shards).
     * runExperiment() fatals on a failed validation; SweepRunner
     * rejects just the offending config.
     */
    SpecResult<void> validate() const;

    /**
     * Field-wise equality over every member, the policy blocks
     * included: two equal configs describe the same run and get the
     * same result, so SweepRunner simulates equal configs once. A
     * member whose type has no operator== deletes this one, and
     * SweepRunner's use of it then stops the build.
     */
    bool operator==(const ExperimentConfig &) const = default;
};

/**
 * Accounting of a run's epoch lockstep: region/worker geometry plus
 * what the epoch-boundary synchroniser observed and did. All-zero
 * (regions == 0) for one-region runs, which step no epochs.
 */
struct ShardStats {
    std::uint32_t regions = 0;  //!< address-space regions simulated
    std::uint32_t workers = 0;  //!< threads that ticked them
    std::uint64_t epochs = 0;   //!< epoch barriers crossed
    /** Region-epochs that ended below the local low watermark. */
    std::uint64_t regionLowWatermarkEpochs = 0;
    /** Epochs where at least one region was below its low watermark. */
    std::uint64_t pressureEpochs = 0;
    /** MB/s of migration-admission budget moved between regions by the
     *  epoch synchroniser (cfg.migration.rateLimitMBps > 0). */
    double rebalancedMBps = 0.0;
};

/**
 * Per-node slice of an ExperimentResult: end-of-run residency and
 * measurement-window traffic for one memory node. Populated only on
 * machines with more than two nodes or an explicit cfg.topology, so
 * two-node exports stay byte-identical.
 */
struct NodeResult {
    std::string name;       //!< NodeProfile name ("local", "cxl0", ...)
    unsigned tierRank = 0;  //!< 0 = toptier
    std::uint64_t capacityPages = 0;
    std::uint64_t anonPages = 0;
    std::uint64_t filePages = 0;
    std::uint64_t freePages = 0;
    /** Fraction of measurement-window accesses served by this node. */
    double trafficShare = 0.0;
};

/** Everything a figure/table needs from one run. */
struct ExperimentResult {
    std::string workload;
    std::string policy;
    double throughput = 0.0;          //!< ops per second
    double meanAccessLatencyNs = 0.0;
    double localTrafficShare = 0.0;   //!< fraction of accesses, window
    double cxlTrafficShare = 0.0;
    /** End-of-run residency: fraction of each type on the local node. */
    double anonLocalResidency = 0.0;
    double fileLocalResidency = 0.0;
    VmStat vmstat;
    /** End-of-run /proc/meminfo-style snapshot. */
    MemInfo meminfo;
    std::vector<IntervalSample> samples;
    /** Tracepoint records, oldest first (cfg.traceEnabled). */
    std::vector<TraceRecord> trace;
    /** Ring accounting for the run: total fired / overwritten. */
    std::uint64_t traceEmitted = 0;
    std::uint64_t traceDropped = 0;
    /** TimeSeriesSampler observations (cfg.sampleSeries). */
    std::vector<TimeSeriesPoint> series;
    std::vector<ChameleonIntervalStats> chameleonIntervals;
    double chameleonHotFraction = 0.0;
    double chameleonHotFractionAnon = 0.0;
    double chameleonHotFractionFile = 0.0;
    /** Hot-set recall against the measured truth (cfg.measureHotness). */
    double hotSetRecall = 0.0;
    /** Size of the measured true hot set behind hotSetRecall. */
    std::uint64_t hotSetPages = 0;
    /** Per-node rows, node-id order; empty on plain two-node machines
     *  (see NodeResult). */
    std::vector<NodeResult> nodes;
    /** Per-tenant rows, in cfg.tenants order (empty otherwise). */
    std::vector<TenantResult> tenants;
    /** Open-loop tail-latency summary (cfg.openLoop / tenant qps);
     *  merged across tenants on the multi-tenant path. */
    OpenLoopResult openLoop;
    /** Epoch-lockstep accounting (zero for one-region runs). */
    ShardStats shard;
    /**
     * Non-empty when the run was rejected without being simulated
     * (SweepRunner::run on a config whose validate() failed). All
     * metric fields are zero in that case.
     */
    std::string error;

    /** @return true when the run was rejected, not simulated. */
    bool failed() const { return !error.empty(); }
};

/**
 * Parse a --tenants spec (see TenantSpec) into tenant descriptions.
 * Errors come back as values naming the offending token; nothing is
 * printed and nothing exits.
 */
SpecResult<std::vector<TenantSpec>> parseTenants(const std::string &spec);

/**
 * Parse a --topology spec (see ExperimentConfig::topology) into a
 * machine description. Errors come back as values naming the offending
 * token; nothing is printed and nothing exits.
 */
SpecResult<MemoryConfig> parseTopology(const std::string &spec);

/**
 * Instantiate the config's policy via PolicyRegistry. Unknown names
 * fatal() with the list of registered policies.
 */
std::unique_ptr<PlacementPolicy> makePolicy(const ExperimentConfig &cfg);

/** @return the run's name: the workload, or the tenants' workloads
 *  joined with '+'. */
std::string runName(const ExperimentConfig &cfg);

/**
 * Run one experiment to completion: build one region stack per planned
 * region (one unless the config shards), run them to cfg.runUntil and
 * fold regions x tenants, in order, into one result.
 */
ExperimentResult runExperiment(const ExperimentConfig &cfg);

/** Parse a "L:C" capacity ratio ("2:1", "1:4") into a local fraction.
 *  Compatibility wrapper over parseRatioSpec(); fatal() on bad input. */
double parseRatio(const std::string &ratio);

} // namespace tpp

#endif // TPP_HARNESS_EXPERIMENT_HH
