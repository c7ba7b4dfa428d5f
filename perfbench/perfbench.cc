/**
 * @file
 * tpp_perfbench: how fast the simulator runs figure-shaped experiments,
 * what those experiments report, and where the host time goes.
 *
 *   tpp_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--smoke]
 *
 * Every measurement is taken from outside the program: the benchmark
 * calls runExperiment() (the entry point every figure binary uses),
 * reads the counters ExperimentResult already exports, and times calls
 * into public layer functions.
 *
 *  - `--trace 0` measures the end-to-end metrics with no timer in the
 *    run: host speed, set-up time, peak memory and the model outcomes.
 *    Runs of the seed repeat for S seconds (at least two) and host
 *    figures are their medians. Host speed is counted in reference
 *    seconds, the time of a fixed loop timed around each run
 *    (referenceSecondsFor), so that the host's own drift cancels; set-up
 *    time is the fastest of the zero-length runs sampled between them.
 *    Their workloads only count the kernel's accesses when they are
 *    destroyed (CountedWorkload).
 *  - `--trace 1` swaps in timing variants of the policy and workloads,
 *    registered under their own names through PolicyRegistry::add and
 *    WorkloadRegistry::add, and reports per-layer numbers. Untraced and
 *    traced runs alternate for S seconds; the difference is the
 *    instrument's own overhead. A reference loop before each pair
 *    records the host's speed beside the raw layer times.
 *
 * Output check: every simulated run's fingerprint (all vmstat counters
 * plus every model output) must equal the invocation's first run's —
 * across repeats, the traced run, and (on the shard workload) the same
 * regions ticked by one worker. A run that disagrees counts as failed.
 * The last stdout line is one JSON object: correct, attempted, failed,
 * metrics.
 *
 * `--smoke` shortens every workload's simulated time for the self-test
 * (tests/test_perfbench.py); its numbers are not comparable to a full
 * run.
 */

#include <malloc.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/tpp_policy.hh"
#include "harness/experiment.hh"
#include "mm/kernel.hh"
#include "mm/policy_registry.hh"
#include "policy/adaptive/adaptive_policy.hh"
#include "workloads/latency.hh"
#include "workloads/profiles.hh"
#include "workloads/synthetic.hh"
#include "workloads/workload_registry.hh"

namespace {

using namespace tpp;
using Clock = std::chrono::steady_clock;

double
toSeconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

// ---- per-layer instruments ------------------------------------------

/** What one timed workload instance saw, published at destruction. */
struct WorkloadLayer {
    const Kernel *kernel = nullptr;
    /** Kernel::traffic accesses summed over nodes (the kernel's count,
     *  so churn-populate touches are included). */
    std::uint64_t accesses = 0;
    Clock::duration busy{};
    std::uint64_t calls = 0;
    /** Host nanoseconds per outermost runBatch/runOps call. */
    LatencyHistogram callNs;
    Clock::time_point initAt{};
    Clock::time_point lastBatchEnd{};
    Clock::time_point destroyedAt{};
};

/** What one timed policy instance saw, published at destruction. */
struct PolicyLayer {
    Clock::duration hintFault{};
    std::uint64_t hintFaults = 0;
    Clock::duration alloc{};
    std::uint64_t allocs = 0;
};

/** Layer records of the traced run in flight. */
struct LayerSink {
    std::mutex mutex;
    std::vector<WorkloadLayer> workloads;
    std::vector<PolicyLayer> policies;

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex);
        workloads.clear();
        policies.clear();
    }
};

LayerSink &
sink()
{
    static LayerSink s;
    return s;
}

/**
 * A synthetic paper profile that records when it started and, when
 * destroyed, the kernel's access count: Kernel::traffic summed over
 * nodes, read through the Kernel& it got in init. It adds nothing to a
 * batch, so end-to-end runs use it to count their accesses untimed.
 */
class CountedWorkload : public SyntheticWorkload
{
  public:
    using SyntheticWorkload::SyntheticWorkload;

    ~CountedWorkload() override
    {
        // Every engine destroys its workloads before their Kernel.
        layer_.destroyedAt = Clock::now();
        if (layer_.kernel) {
            const std::size_t nodes = layer_.kernel->mem().numNodes();
            for (std::size_t i = 0; i < nodes; ++i) {
                layer_.accesses +=
                    layer_.kernel->traffic(static_cast<NodeId>(i)).accesses;
            }
        }
        std::lock_guard<std::mutex> lock(sink().mutex);
        sink().workloads.push_back(std::move(layer_));
    }

    void
    init(Kernel &kernel) override
    {
        layer_.initAt = Clock::now();
        layer_.kernel = &kernel;
        SyntheticWorkload::init(kernel);
    }

  protected:
    WorkloadLayer layer_;
};

/**
 * A counted workload whose batch calls are timed. Only the outermost
 * call is timed: SyntheticWorkload::runBatch dispatches to runOps
 * through the vtable.
 */
class TimedWorkload : public CountedWorkload
{
  public:
    using CountedWorkload::CountedWorkload;

    BatchResult
    runBatch(Kernel &kernel) override
    {
        return timed([&] { return SyntheticWorkload::runBatch(kernel); });
    }

    BatchResult
    runOps(Kernel &kernel, std::uint64_t ops) override
    {
        return timed(
            [&] { return SyntheticWorkload::runOps(kernel, ops); });
    }

  private:
    template <typename Call>
    BatchResult
    timed(Call &&call)
    {
        if (inCall_)
            return call();
        inCall_ = true;
        const Clock::time_point start = Clock::now();
        const BatchResult result = call();
        const Clock::time_point end = Clock::now();
        inCall_ = false;
        layer_.busy += end - start;
        layer_.calls++;
        layer_.callNs.record(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                 start)
                .count()));
        layer_.lastBatchEnd = end;
        return result;
    }

    bool inCall_ = false;
};

/**
 * A placement policy whose hint-fault and allocation-preference hooks
 * are timed. A subclass rather than a wrapper, so the harness's
 * dynamic_cast<AdaptivePolicy *> SLO feed still finds its policy.
 */
template <typename Base>
class Timed : public Base
{
  public:
    using Base::Base;

    ~Timed() override
    {
        std::lock_guard<std::mutex> lock(sink().mutex);
        sink().policies.push_back(layer_);
    }

    double
    onHintFault(Pfn pfn, NodeId task_nid) override
    {
        const Clock::time_point start = Clock::now();
        const double cost = Base::onHintFault(pfn, task_nid);
        layer_.hintFault += Clock::now() - start;
        layer_.hintFaults++;
        return cost;
    }

    NodeId
    allocPreferredNode(PageType type, NodeId task_nid) override
    {
        const Clock::time_point start = Clock::now();
        const NodeId nid = Base::allocPreferredNode(type, task_nid);
        layer_.alloc += Clock::now() - start;
        layer_.allocs++;
        return nid;
    }

  private:
    PolicyLayer layer_;
};

constexpr const char *kCountedPrefix = "perfbench-counted-";
constexpr const char *kTimedPrefix = "perfbench-timed-";

template <typename W>
void
registerWorkloads(const char *prefix)
{
    for (const char *profile : {"cache1", "dwh", "churn", "phased"}) {
        WorkloadRegistry::instance().add(
            std::string(prefix) + profile,
            [profile](const WorkloadSpec &spec) {
                return std::make_unique<W>(
                    profiles::byName(profile, spec.wssPages, spec.seed));
            });
    }
}

void
registerVariants()
{
    PolicyRegistry &policies = PolicyRegistry::instance();
    policies.add(std::string(kTimedPrefix) + "tpp",
                 [](const PolicyParams &p) {
                     return std::make_unique<Timed<TppPolicy>>(p.tpp);
                 });
    policies.add(std::string(kTimedPrefix) + "adaptive",
                 [](const PolicyParams &p) {
                     return std::make_unique<Timed<AdaptivePolicy>>(p);
                 });
    registerWorkloads<CountedWorkload>(kCountedPrefix);
    registerWorkloads<TimedWorkload>(kTimedPrefix);
}

/** The same experiment with its workloads' names under `prefix`. */
ExperimentConfig
renamedWorkloads(ExperimentConfig cfg, const char *prefix)
{
    cfg.workload = prefix + cfg.workload;
    for (TenantSpec &tenant : cfg.tenants)
        tenant.workload = prefix + tenant.workload;
    return cfg;
}

/** The same experiment, pointed at the timing variants. */
ExperimentConfig
tracedConfig(const ExperimentConfig &cfg)
{
    ExperimentConfig traced = renamedWorkloads(cfg, kTimedPrefix);
    traced.policy = kTimedPrefix + cfg.policy;
    return traced;
}

// ---- workloads ------------------------------------------------------

/** fig16's cache1 under tpp at local:CXL 1:4, closed loop, single
 *  stack: the ROADMAP headline config at wss 32768. 10 s simulated,
 *  measured from 6 s (fig16: 20 s / 12 s); local share and throughput
 *  match the full span within 0.1%. */
ExperimentConfig
cache1Tpp(std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.wssPages = 32768;
    cfg.seed = seed;
    cfg.workload = "cache1";
    cfg.policy = "tpp";
    cfg.localFraction = parseRatio("1:4");
    cfg.runUntil = 10 * kSecond;
    cfg.measureFrom = 6 * kSecond;
    return cfg;
}

/** ablation_openloop's tpp arm: an open-loop dwh victim beside a
 *  closed-loop churn antagonist on the tenant engine. 6 s simulated,
 *  measured from 3.6 s (the bench: 20 s / 12 s), so an invocation holds
 *  several runs: this is the workload most exposed to host noise. Per
 *  simulated second its faults, kswapd scans, demotions and memcg
 *  reclaim are within 11% of the full span's, but the span ends before
 *  the first allocation stall and swap-out (the full span has 18 and
 *  2,321). */
ExperimentConfig
dwhChurnOpenLoop(std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.wssPages = 32768;
    cfg.seed = seed;
    cfg.policy = "tpp";
    cfg.runUntil = 6 * kSecond;
    cfg.measureFrom = 3600 * kMillisecond;
    cfg.localFraction = parseRatio("1:4");
    TenantSpec victim;
    victim.workload = "dwh";
    victim.lowFraction = 0.5;
    victim.openLoop.qps = 5.0e5;
    victim.openLoop.arrival = "poisson";
    victim.openLoop.sloP99Us = 500.0;
    TenantSpec antagonist;
    antagonist.workload = "churn";
    cfg.tenants = {victim, antagonist};
    return cfg;
}

/** ablation_adaptive's adaptive arm, full preset at wss 8192: async
 *  migration, PPT, tuner windows, tracepoints and hot-set ranking. */
ExperimentConfig
phasedAdaptive(std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.wssPages = 8192;
    cfg.seed = seed;
    cfg.workload = "phased";
    cfg.policy = "adaptive";
    cfg.localFraction = 0.2;
    cfg.measureHotness = true;
    cfg.traceEnabled = true;
    cfg.migration = MigrationConfig::asyncEngine();
    cfg.openLoop.qps = 4.0e5;
    cfg.openLoop.arrival = "poisson";
    cfg.openLoop.sloP99Us = 500.0;
    cfg.sysctls = {{"vm.ppt.enable", "1"},
                   {"vm.adaptive.enable", "1"},
                   {"vm.adaptive.window_ns", "100000000"},
                   {"vm.adaptive.profile_windows", "3"},
                   {"vm.adaptive.hysteresis_pct", "5"},
                   {"vm.adaptive.w_slo", "4"}};
    cfg.runUntil = 14 * kSecond;
    cfg.measureFrom = 2 * kSecond;
    return cfg;
}

/** cache1Tpp sliced into two shard regions ticked by two workers. */
ExperimentConfig
cache1TppShards(std::uint64_t seed)
{
    ExperimentConfig cfg = cache1Tpp(seed);
    cfg.shardRegions = 2;
    cfg.shards = 2;
    return cfg;
}

struct BenchWorkload {
    const char *name;
    const char *engine;
    ExperimentConfig (*make)(std::uint64_t seed);
};

const std::vector<BenchWorkload> &
benchWorkloads()
{
    static const std::vector<BenchWorkload> list = {
        {"cache1-tpp-1to4", "single-stack", cache1Tpp},
        {"dwh-churn-openloop", "tenant", dwhChurnOpenLoop},
        {"phased-adaptive", "single-stack", phasedAdaptive},
        {"cache1-tpp-shards", "shard (2 regions)", cache1TppShards},
    };
    return list;
}

// ---- output check ---------------------------------------------------

/** FNV-1a over 64-bit words. */
class Fingerprint
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    void
    add(const OpenLoopResult &ol)
    {
        add(std::uint64_t{ol.enabled});
        for (double v : {ol.offeredQps, ol.p50Ns, ol.p99Ns, ol.p999Ns,
                         ol.maxNs, ol.meanNs, ol.meanQueueDepth,
                         ol.goodputQps, ol.sloP99Us, ol.sloAttainment})
            add(v);
        for (std::uint64_t v : {ol.requests, ol.dropped, ol.maxQueueDepth})
            add(v);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/**
 * Hash of every simulated outcome of a run: all vmstat counters, the
 * headline model outputs, open-loop tails, hot-set recall, per-tenant
 * rows, the interval series and shard accounting. Host-side fields
 * (names, the worker count) are left out, so a traced run and a
 * one-worker shard run must hash the same as the untraced run.
 */
std::uint64_t
fingerprintOf(const ExperimentResult &r)
{
    Fingerprint f;
    for (std::size_t i = 0; i < kNumVmCounters; ++i)
        f.add(r.vmstat.get(static_cast<Vm>(i)));
    for (double v : {r.throughput, r.meanAccessLatencyNs,
                     r.localTrafficShare, r.cxlTrafficShare,
                     r.anonLocalResidency, r.fileLocalResidency,
                     r.hotSetRecall})
        f.add(v);
    for (std::uint64_t v : {r.hotSetPages, r.traceEmitted, r.traceDropped,
                            r.meminfo.totalPages, r.meminfo.totalFree,
                            r.meminfo.swapUsedSlots})
        f.add(v);
    f.add(r.openLoop);
    for (const TenantResult &t : r.tenants) {
        for (double v : {t.throughput, t.meanAccessLatencyNs,
                         t.localResidency, t.hotSetRecall})
            f.add(v);
        for (std::uint64_t v :
             {t.pagesLocal, t.pagesTotal, t.hotSetPages,
              t.memcg.pagesCharged, t.memcg.pagesUncharged,
              t.memcg.promoteCandidates, t.memcg.promoteSuccess,
              t.memcg.demotions, t.memcg.reclaimProtected,
              t.memcg.reclaimLow, t.memcg.migrateThrottled,
              t.memcg.requestsTotal, t.memcg.requestsSloMet})
            f.add(v);
        f.add(t.openLoop);
    }
    for (const IntervalSample &s : r.samples) {
        for (double v : {s.localShare, s.promotionRate, s.demotionRate,
                         s.localAllocRate, s.throughput})
            f.add(v);
        for (std::uint64_t v :
             {s.tick, s.localFree, s.queueDepth, s.anonResident,
              s.fileResident, s.anonOnLocal, s.fileOnLocal})
            f.add(v);
    }
    for (std::uint64_t v : {std::uint64_t{r.shard.regions}, r.shard.epochs,
                            r.shard.regionLowWatermarkEpochs,
                            r.shard.pressureEpochs})
        f.add(v);
    f.add(r.shard.rebalancedMBps);
    return f.value();
}

/** Outputs any correct run of these workloads must have. */
bool
plausible(const ExperimentResult &r)
{
    if (r.failed() || !(r.throughput > 0.0))
        return false;
    if (!(r.localTrafficShare > 0.0 && r.localTrafficShare <= 1.0))
        return false;
    if (r.openLoop.enabled && r.openLoop.requests == 0)
        return false;
    return true;
}

// ---- host-speed reference -------------------------------------------

volatile double referenceSink;

/**
 * Host seconds of the fastest of three passes of a fixed walk that
 * calls nothing in the simulator: a small model of its access path. A
 * skewed random walk (three steps in four stay in a hot quarter) goes
 * through a page-table-like index of 2^slots_log2 slots into
 * 2^frames_log2 32-byte frame records, updates them behind
 * data-dependent branches and now and then remaps a slot. Taking the
 * fastest pass drops one that a burst on the host slowed. The tables
 * are rebuilt before each pass's clock starts.
 */
double
walkSeconds(unsigned slots_log2, unsigned frames_log2)
{
    constexpr std::uint64_t kSteps = 4'000'000;
    constexpr int kPasses = 3;
    struct Frame {
        std::uint64_t key;
        std::uint32_t refs;
        std::uint32_t flags;
        double cost;
        std::uint64_t pad;
    };
    const std::size_t num_slots = std::size_t{1} << slots_log2;
    const std::size_t num_frames = std::size_t{1} << frames_log2;
    std::vector<std::uint32_t> slots(num_slots);
    std::vector<Frame> frames(num_frames);
    double fastest = 0.0;
    for (int pass = 0; pass < kPasses; ++pass) {
        for (std::size_t i = 0; i < num_slots; ++i)
            slots[i] =
                static_cast<std::uint32_t>((i * 2654435761u) % num_frames);
        std::fill(frames.begin(), frames.end(), Frame{});

        const Clock::time_point start = Clock::now();
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        double sum = 0.0;
        for (std::uint64_t i = 0; i < kSteps; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::size_t slot = x & (num_slots - 1);
            if ((x >> 40) & 3)
                slot &= num_slots / 4 - 1;
            Frame &f = frames[slots[slot]];
            f.refs++;
            if (f.flags & 1) {
                sum += f.cost;
                f.flags &= ~1u;
            } else {
                f.flags |= 1;
                f.cost = 80.0 + static_cast<double>(f.refs & 63) * 1.5;
            }
            if (((x >> 50) & 127) == 0)
                std::swap(slots[slot], slots[(x >> 20) & (num_slots - 1)]);
        }
        const double seconds = toSeconds(Clock::now() - start);
        referenceSink = sum;
        if (pass == 0 || seconds < fastest)
            fastest = seconds;
    }
    return fastest;
}

[[noreturn]] void
referenceFailed(const char *what)
{
    std::fprintf(stderr, "error: reference loop: %s: %s\n", what,
                 std::strerror(errno));
    std::exit(1);
}

/**
 * Host seconds of the reference loop: the walk over 2 MiB of tables,
 * which stay in a core's L2 cache on the benchmark VM, plus the walk over
 * 8 MiB, which spill to the shared L3. The simulator's own working set
 * spans both, and on the shared host each level slows at its own times.
 * Every end-to-end run is timed between two of these, and its host time
 * is counted in units of their mean: when the host slows, the run and
 * the loop slow together, so the ratio keeps the program's speed and
 * drops most of the host's (see README.md).
 *
 * The loop runs in a child process pinned to `cpu`, so its tables never
 * count toward this process's peak_rss_mb. The child is waited for, and
 * dies with this process.
 */
double
referenceSeconds(int cpu)
{
    int fds[2] = {-1, -1};
    if (pipe(fds) != 0)
        referenceFailed("pipe");
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0)
        referenceFailed("fork");
    if (pid == 0) {
        close(fds[0]);
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() == 1)
            _exit(1);
        if (cpu >= 0) {
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(cpu, &set);
            if (sched_setaffinity(0, sizeof set, &set) != 0)
                _exit(1);
        }
        const double seconds = walkSeconds(18, 15) + walkSeconds(20, 17);
        const bool sent =
            write(fds[1], &seconds, sizeof seconds) == sizeof seconds;
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    double seconds = 0.0;
    const ssize_t got = read(fds[0], &seconds, sizeof seconds);
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            referenceFailed("waitpid");
    }
    if (got != sizeof seconds || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        referenceFailed("child failed");
    return seconds;
}

// ---- runs -----------------------------------------------------------

/** Host CPU seconds of the whole process (every worker thread). */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

struct TimedRun {
    ExperimentResult result;
    double wallS = 0.0;
    double cpuS = 0.0;
};

TimedRun
timedRun(const ExperimentConfig &cfg)
{
    TimedRun run;
    const double cpu_start = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    run.result = runExperiment(cfg);
    run.wallS = toSeconds(Clock::now() - start);
    run.cpuS = processCpuSeconds() - cpu_start;
    return run;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Host seconds of the reference loop on the CPUs a run of `cfg` uses.
 * The host does not slow this VM's CPUs alike, so a loop on another CPU
 * would not see the run's slowdowns. A single-threaded run stays on the
 * CPU this process is on. Shard workers run on CPUs the scheduler picks,
 * so a sharded run gets the median over every CPU this process may use.
 */
double
referenceSecondsFor(const ExperimentConfig &cfg)
{
    if (std::min(cfg.shards, cfg.effectiveShardRegions()) <= 1)
        return referenceSeconds(sched_getcpu());
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        referenceFailed("sched_getaffinity");
    std::vector<double> per_cpu;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed))
            per_cpu.push_back(referenceSeconds(cpu));
    }
    return median(per_cpu);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer numbers of one traced run. */
struct Layers {
    double busyS = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t accesses = 0;
    LatencyHistogram callNs;
    double hintFaultS = 0.0;
    std::uint64_t hintFaults = 0;
    double allocS = 0.0;
    std::uint64_t allocs = 0;
    double daemonS = 0.0;
    double harvestS = 0.0;
    /** Max over mean busy time of the shard regions (1 unsharded). */
    double imbalance = 1.0;
};

/**
 * Fold the sink's records into layer numbers. `concurrency` is how many
 * workers ran regions side by side: their busy time overlaps on the
 * wall clock, so the daemon span subtracts busy / concurrency.
 */
Layers
foldLayers(const LayerSink &s, unsigned concurrency)
{
    Layers l;
    if (s.workloads.empty())
        return l;
    Clock::time_point first_init = s.workloads.front().initAt;
    Clock::time_point last_batch = s.workloads.front().lastBatchEnd;
    Clock::time_point first_destroyed = s.workloads.front().destroyedAt;
    std::unordered_set<const Kernel *> kernels;
    double max_busy = 0.0;
    for (const WorkloadLayer &w : s.workloads) {
        const double busy = toSeconds(w.busy);
        l.busyS += busy;
        max_busy = std::max(max_busy, busy);
        l.calls += w.calls;
        l.callNs.merge(w.callNs);
        // Tenants share one kernel; count its traffic once.
        if (kernels.insert(w.kernel).second)
            l.accesses += w.accesses;
        first_init = std::min(first_init, w.initAt);
        last_batch = std::max(last_batch, w.lastBatchEnd);
        first_destroyed = std::min(first_destroyed, w.destroyedAt);
    }
    for (const PolicyLayer &p : s.policies) {
        l.hintFaultS += toSeconds(p.hintFault);
        l.hintFaults += p.hintFaults;
        l.allocS += toSeconds(p.alloc);
        l.allocs += p.allocs;
    }
    l.daemonS = std::max(0.0, toSeconds(last_batch - first_init) -
                                  l.busyS / std::max(1u, concurrency));
    l.harvestS = toSeconds(first_destroyed - last_batch);
    if (kernels.size() > 1)
        l.imbalance = max_busy / (l.busyS / static_cast<double>(
                                                s.workloads.size()));
    return l;
}

/** One metric of the report, in output order. */
struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void
printMetric(const Metric &m)
{
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

/** Model outcomes a workload can produce (open-loop tails, recall). */
std::vector<Metric>
modelDetailMetrics(const ExperimentResult &r)
{
    const OpenLoopResult &ol = r.openLoop;
    return {
        {"model_p50_us", ol.p50Ns / 1000.0, "us"},
        {"model_p99_us", ol.p99Ns / 1000.0, "us"},
        {"model_slo_attainment", ol.sloAttainment, "fraction"},
        {"model_hot_set_recall", r.hotSetRecall, "fraction"},
    };
}

struct Args {
    const BenchWorkload *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool smoke = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: tpp_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--smoke]\nworkloads:",
                 why);
    for (const BenchWorkload &w : benchWorkloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

/** Strict decimal parse of a non-negative integer (no sign, no
 *  whitespace, no trailing characters, no overflow). */
bool
parseUnsigned(const char *text, std::uint64_t *out)
{
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, *out);
    return ec == std::errc{} && ptr == end && ptr != text;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            args.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value after " + flag).c_str());
        const char *value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            for (const BenchWorkload &w : benchWorkloads())
                if (w.name == std::string(value))
                    args.workload = &w;
            if (!args.workload)
                usage(("unknown workload '" + std::string(value) + "'")
                          .c_str());
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, &args.seed))
                usage(("malformed --seed '" + std::string(value) + "'")
                          .c_str());
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, &n) || n == 0 || n > 3600)
                usage(("malformed --seconds '" + std::string(value) + "'")
                          .c_str());
            args.seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (!parseUnsigned(value, &n) || n > 1)
                usage(("malformed --trace '" + std::string(value) + "'")
                          .c_str());
            args.trace = n == 1;
            have_trace = true;
        } else {
            usage(("unknown argument '" + flag + "'").c_str());
        }
    }
    if (!args.workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    return args;
}

/** Fingerprint bookkeeping over every simulated run of the invocation. */
struct Check {
    std::uint64_t reference = 0;
    bool haveReference = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    note(const char *kind, const TimedRun &run)
    {
        const std::uint64_t fp = fingerprintOf(run.result);
        attempted++;
        if (!haveReference) {
            reference = fp;
            haveReference = true;
        }
        const bool ok = fp == reference && plausible(run.result);
        if (!ok)
            failed++;
        std::printf("run %-10s wall %8.3f s  cpu %8.3f s  fingerprint "
                    "%016" PRIx64 "%s\n",
                    kind, run.wallS, run.cpuS, fp, ok ? "" : "  MISMATCH");
        std::fflush(stdout);
    }
};

/**
 * Append the host seconds of `reps` zero-length runs to `walls`:
 * validate() plus the engine build, tenants and shards included, with
 * no batch run.
 */
void
setupWalls(const ExperimentConfig &cfg, int reps, std::vector<double> &walls)
{
    ExperimentConfig zero = cfg;
    zero.runUntil = 0;
    zero.measureFrom = 0;
    for (int i = 0; i < reps; ++i)
        walls.push_back(timedRun(zero).wallS);
}

/**
 * One short run of the same config before the traced/untraced pairs, so
 * the first untraced run does not pay the process's one-time costs
 * (lazy initialisation, code and data touched for the first time) alone
 * and skew the overhead estimate. The end-to-end mode skips it:
 * peak_rss_mb is the footprint of the workload's own runs, and the
 * median absorbs the first run's extra cost.
 */
void
warmUp(const ExperimentConfig &cfg)
{
    ExperimentConfig warm = cfg;
    warm.runUntil = std::min<Tick>(cfg.runUntil, kSecond);
    warm.measureFrom = std::min(cfg.measureFrom, warm.runUntil);
    runExperiment(warm);
}

/**
 * Peak resident set of this process image in MiB: VmHWM from
 * /proc/self/status. getrusage's ru_maxrss is not used: across exec it
 * keeps the high-water mark of the launching process's image.
 */
double
peakRssMb()
{
    double kib = 0.0;
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f)) {
            if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
                break;
        }
        std::fclose(f);
    }
    if (!(kib > 0.0)) {
        std::fprintf(stderr, "error: no VmHWM in /proc/self/status\n");
        std::exit(1);
    }
    return kib / 1024.0;
}

void
runEndToEnd(const Args &args, const ExperimentConfig &cfg, Check &check)
{
    const double sim_s = static_cast<double>(cfg.runUntil) /
                         static_cast<double>(kSecond);
    const ExperimentConfig counted = renamedWorkloads(cfg, kCountedPrefix);
    std::vector<double> walls;
    std::vector<double> wall_access_rates;
    // Reference loops: one before the first run and one after each run.
    std::vector<double> ref_walls;
    std::vector<double> sim_rates;
    std::vector<double> access_rates;
    // Set-up is sampled before every run rather than in one burst, and
    // the fastest sample is reported. A zero-length run mostly takes
    // fresh memory (phased-adaptive maps and touches its 8 MiB trace
    // ring), and on a virtual machine the cost of those page faults
    // moves with the host. Over five phased-adaptive invocations the
    // samples' median ranged from 3.0 to 3.7 ms, the fastest from 2.6 to
    // 2.8 ms.
    constexpr int kSetupWarmup = 5;
    constexpr int kSetupRepsPerRun = 51;
    std::vector<double> setup_walls;
    setupWalls(cfg, kSetupWarmup, setup_walls);
    setup_walls.clear();
    ExperimentResult first;
    const Clock::time_point start = Clock::now();
    ref_walls.push_back(referenceSecondsFor(cfg));
    while (walls.size() < 2 ||
           toSeconds(Clock::now() - start) < args.seconds) {
        setupWalls(cfg, kSetupRepsPerRun, setup_walls);
        sink().clear();
        TimedRun run = timedRun(counted);
        ref_walls.push_back(referenceSecondsFor(cfg));
        check.note("untimed", run);
        std::printf("    reference loop %.3f s\n", ref_walls.back());
        const double accesses =
            static_cast<double>(foldLayers(sink(), 1).accesses);
        // The run's host time in reference seconds: the mean of the two
        // reference loops around it.
        const double ref_s =
            run.wallS /
            (0.5 * (ref_walls[ref_walls.size() - 2] + ref_walls.back()));
        walls.push_back(run.wallS);
        wall_access_rates.push_back(accesses / run.wallS);
        sim_rates.push_back(sim_s / ref_s);
        access_rates.push_back(accesses / ref_s);
        if (walls.size() == 1) {
            // Only the model outputs: a whole result holds the trace
            // snapshot, which would add to the later runs' peak memory.
            first.throughput = run.result.throughput;
            first.localTrafficShare = run.result.localTrafficShare;
            first.hotSetRecall = run.result.hotSetRecall;
            first.openLoop = run.result.openLoop;
        }
    }
    const double peak_rss_mb = peakRssMb();
    const double setup_s =
        *std::min_element(setup_walls.begin(), setup_walls.end());

    const double wall = median(walls);
    std::vector<Metric> metrics = {
        {"sim_s_per_ref_s", median(sim_rates), "sim-s/ref-s"},
        {"accesses_per_ref_s", median(access_rates), "accesses/ref-s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"model_throughput_ops_s", first.throughput, "ops/s"},
        {"model_local_traffic_share", first.localTrafficShare, "fraction"},
    };
    std::printf("\nend-to-end (median of %zu untimed runs, %.3f s "
                "each):\n",
                walls.size(), wall);
    for (const Metric &m : metrics)
        printMetric(m);
    std::printf("host speed, not normalised (not gated):\n");
    printMetric({"sim_s_per_wall_s", sim_s / wall, "sim-s/s"});
    printMetric(
        {"accesses_per_wall_s", median(wall_access_rates), "accesses/s"});
    printMetric({"reference_loop_s", median(ref_walls), "s"});
    std::printf("model outcomes of this workload:\n");
    for (const Metric &m : modelDetailMetrics(first)) {
        if (m.name == "model_hot_set_recall" ? cfg.measureHotness
                                             : first.openLoop.enabled)
            printMetric(m);
    }
    if (first.openLoop.enabled)
        std::printf("  %-32s %" PRIu64 " count\n", "model_requests",
                    first.openLoop.requests);
    printJson(check.failed == 0, check.attempted, check.failed, metrics);
}

void
runTraced(const Args &args, const ExperimentConfig &cfg, Check &check)
{
    const bool sharded = cfg.effectiveShardRegions() > 1;
    ExperimentConfig one_worker = cfg;
    one_worker.shards = 1;

    std::vector<double> untraced_walls;
    std::vector<double> traced_walls;
    std::vector<double> one_worker_walls;
    std::vector<double> ref_walls;
    std::vector<Layers> layers;
    ExperimentResult traced_result;
    warmUp(cfg);
    const Clock::time_point start = Clock::now();
    while (layers.empty() ||
           toSeconds(Clock::now() - start) < args.seconds) {
        ref_walls.push_back(referenceSecondsFor(cfg));
        const TimedRun untraced = timedRun(cfg);
        check.note("untraced", untraced);
        untraced_walls.push_back(untraced.wallS);

        sink().clear();
        TimedRun traced = timedRun(tracedConfig(cfg));
        check.note("traced", traced);
        traced_walls.push_back(traced.wallS);
        layers.push_back(foldLayers(
            sink(), sharded ? std::min(cfg.shards,
                                       cfg.effectiveShardRegions())
                            : 1));
        traced_result = std::move(traced.result);

        if (sharded) {
            const TimedRun serial = timedRun(one_worker);
            check.note("1-worker", serial);
            one_worker_walls.push_back(serial.wallS);
        }
    }

    auto med = [&](double Layers::*field) {
        std::vector<double> v;
        for (const Layers &l : layers)
            v.push_back(l.*field);
        return median(v);
    };
    const Layers &last = layers.back();
    const ExperimentResult &r = traced_result;
    const VmStat &vm = r.vmstat;
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    const double hint_faults = count(vm.get(Vm::NumaHintFaults));
    const double scanned = count(vm.get(Vm::PgScanKswapd) +
                                 vm.get(Vm::PgScanDirect));
    const double untraced_wall = median(untraced_walls);
    const double busy_s = med(&Layers::busyS);
    const double sim_s = static_cast<double>(cfg.runUntil) /
                         static_cast<double>(kSecond);

    std::vector<Metric> metrics = {
        {"workloads.busy_s", busy_s, "s"},
        {"workloads.calls", count(last.calls), "count"},
        {"workloads.accesses", count(last.accesses), "count"},
        {"workloads.host_ns_per_access",
         ratio(busy_s * 1e9, count(last.accesses)), "ns"},
        {"workloads.call_us_p50", last.callNs.percentileNs(50.0) / 1000.0,
         "us"},
        {"workloads.call_us_p99", last.callNs.percentileNs(99.0) / 1000.0,
         "us"},
        {"workloads.requests", count(r.openLoop.requests), "count"},
        {"workloads.requests_dropped", count(r.openLoop.dropped), "count"},
        {"workloads.queue_depth_mean", r.openLoop.meanQueueDepth,
         "requests"},
        {"policy.hint_fault_s", med(&Layers::hintFaultS), "s"},
        {"policy.hint_faults", count(last.hintFaults), "count"},
        {"policy.alloc_s", med(&Layers::allocS), "s"},
        {"policy.allocs", count(last.allocs), "count"},
        {"policy.promote_yield",
         ratio(count(vm.get(Vm::PgPromoteSuccess)), hint_faults),
         "fraction"},
        {"policy.scan_pages", count(vm.get(Vm::NumaPteUpdates)), "count"},
        {"policy.scan_yield",
         ratio(hint_faults, count(vm.get(Vm::NumaPteUpdates))),
         "fraction"},
        {"policy.adaptive.windows", count(vm.get(Vm::AdaptiveWindow)),
         "count"},
        {"policy.adaptive.tunes", count(vm.get(Vm::AdaptiveTune)),
         "count"},
        {"policy.adaptive.reverts", count(vm.get(Vm::AdaptiveRevert)),
         "count"},
        {"mm.faults", count(vm.get(Vm::PgFault)), "count"},
        {"mm.alloc_stalls", count(vm.get(Vm::AllocStall)), "count"},
        {"mm.reclaim.scanned", scanned, "count"},
        {"mm.reclaim.efficiency",
         ratio(count(vm.get(Vm::PgStealKswapd) +
                     vm.get(Vm::PgStealDirect)),
               scanned),
         "fraction"},
        {"mm.demoted",
         count(vm.get(Vm::PgDemoteAnon) + vm.get(Vm::PgDemoteFile)),
         "count"},
        {"mm.demote_fail", count(vm.get(Vm::PgDemoteFail)), "count"},
        {"mm.swap_out", count(vm.get(Vm::PswpOut)), "count"},
        {"mm.memcg.reclaim_protected",
         count(vm.get(Vm::MemcgReclaimProtected)), "count"},
        {"mm.memcg.reclaim_low", count(vm.get(Vm::MemcgReclaimLow)),
         "count"},
        {"mm.migration.succeeded", count(vm.get(Vm::PgMigrateSuccess)),
         "count"},
        {"mm.migration.failed", count(vm.get(Vm::PgMigrateFail)), "count"},
        {"mm.migration.deferred", count(vm.get(Vm::PgMigrateDeferred)),
         "count"},
        {"mm.migration.busy_aborts", count(vm.get(Vm::PgMigrateFailBusy)),
         "count"},
        {"mm.ppt.throttled",
         count(vm.get(Vm::PptThrottledPromote) +
               vm.get(Vm::PptThrottledDemote)),
         "count"},
        {"sim.daemon_s", med(&Layers::daemonS), "s"},
        {"harness.harvest_s", med(&Layers::harvestS), "s"},
        {"harness.shard.speedup_2w",
         sharded ? ratio(median(one_worker_walls), untraced_wall) : 1.0,
         "x"},
        {"harness.shard.imbalance", med(&Layers::imbalance), "x"},
        {"harness.shard.epochs", count(r.shard.epochs), "count"},
        {"harness.shard.pressure_epochs", count(r.shard.pressureEpochs),
         "count"},
        {"trace.records", count(r.traceEmitted), "count"},
        {"trace.dropped", count(r.traceDropped), "count"},
        {"bench.sim_s_per_wall_s", sim_s / untraced_wall, "sim-s/s"},
        {"bench.reference_loop_s", median(ref_walls), "s"},
        {"bench.trace_overhead",
         ratio(median(traced_walls) - untraced_wall, untraced_wall),
         "fraction"},
    };
    for (const Metric &m : modelDetailMetrics(r))
        metrics.push_back(m);

    std::printf("\nper-layer (traced runs: %zu, call percentiles over "
                "%" PRIu64 " calls):\n",
                layers.size(), last.calls);
    for (const Metric &m : metrics)
        printMetric(m);
    printJson(check.failed == 0, check.attempted, check.failed, metrics);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    // A fixed mmap threshold turns off glibc's dynamic one, so every
    // large block is mapped on demand and unmapped on free. Peak memory
    // then follows the live footprint of a run instead of how earlier
    // runs happened to fragment the heap (which moved it by up to 50%).
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    registerVariants();

    ExperimentConfig cfg = args.workload->make(args.seed);
    if (args.smoke) {
        cfg.runUntil = 2 * kSecond;
        cfg.measureFrom = 1 * kSecond;
    }
    if (const SpecResult<void> valid = cfg.validate(); !valid) {
        std::fprintf(stderr, "error: %s\n",
                     valid.error().render().c_str());
        return 1;
    }
    std::printf("workload %s  engine %s  seed %" PRIu64
                "  simulated %.1f s (measured from %.1f s)  mode %s%s\n",
                args.workload->name, args.workload->engine, args.seed,
                static_cast<double>(cfg.runUntil) / kSecond,
                static_cast<double>(cfg.measureFrom) / kSecond,
                args.trace ? "traced" : "end-to-end",
                args.smoke ? "  (smoke)" : "");
    std::fflush(stdout);

    Check check;
    if (args.trace)
        runTraced(args, cfg, check);
    else
        runEndToEnd(args, cfg, check);
    return 0;
}
