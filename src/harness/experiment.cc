#include "harness/experiment.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>

#include "harness/shard.hh"
#include "harness/sweep.hh"
#include "harness/thread_pool.hh"
#include "policy/adaptive/adaptive_policy.hh"
#include "mem/node.hh"
#include "mm/kernel.hh"
#include "mm/policy_registry.hh"
#include "sim/logging.hh"
#include "sim/page_slots.hh"
#include "workloads/workload_registry.hh"

namespace tpp {

double
parseRatio(const std::string &ratio)
{
    const SpecResult<double> parsed = parseRatioSpec(ratio);
    if (!parsed)
        tpp_fatal("%s", parsed.error().render().c_str());
    return *parsed;
}

std::unique_ptr<PlacementPolicy>
makePolicy(const ExperimentConfig &cfg)
{
    return PolicyRegistry::instance().make(cfg.policy, cfg);
}

namespace {

/** Decode one tenant entry's fields into a TenantSpec. */
SpecResult<TenantSpec>
parseTenantEntry(const SpecEntry &entry)
{
    TenantSpec tenant;
    tenant.workload = entry.head();
    if (auto r = entry.getU64("wss", &tenant.wssPages); !r)
        return makeUnexpected(r.error());
    if (auto r = entry.getDouble("low", &tenant.lowFraction, 0.0, 1.0); !r)
        return makeUnexpected(r.error());
    if (auto r = entry.getDouble("budget", &tenant.budgetMBps, 0.0, 1e9);
        !r) {
        return makeUnexpected(r.error());
    }
    if (auto r = entry.getKeyword("place", &tenant.placement,
                                  {"none", "local_only", "cxl_only"});
        !r) {
        return makeUnexpected(r.error());
    }
    if (auto r = entry.getDouble("qps", &tenant.openLoop.qps, 0.0, 1e9);
        !r) {
        return makeUnexpected(r.error());
    }
    if (auto r = entry.getKeyword("arrival", &tenant.openLoop.arrival,
                                  {"poisson", "bursty", "diurnal"});
        !r) {
        return makeUnexpected(r.error());
    }
    if (auto r =
            entry.getDouble("slo", &tenant.openLoop.sloP99Us, 0.0, 1e9);
        !r) {
        return makeUnexpected(r.error());
    }
    if (auto r =
            entry.finish("wss, low, budget, place, qps, arrival, slo");
        !r) {
        return makeUnexpected(r.error());
    }
    return tenant;
}

} // namespace

SpecResult<std::vector<TenantSpec>>
parseTenants(const std::string &spec)
{
    const auto entries = parseSpec(spec, /*with_head=*/true);
    if (!entries)
        return makeUnexpected(entries.error());
    std::vector<TenantSpec> tenants;
    for (const SpecEntry &entry : *entries) {
        SpecResult<TenantSpec> tenant = parseTenantEntry(entry);
        if (!tenant)
            return makeUnexpected(tenant.error());
        tenants.push_back(std::move(*tenant));
    }
    if (tenants.empty())
        return specError("--tenants spec names no tenants", spec);
    return tenants;
}

std::vector<TenantSpec>
parseTenantsSpec(const std::string &spec)
{
    SpecResult<std::vector<TenantSpec>> tenants = parseTenants(spec);
    if (!tenants)
        tpp_fatal("%s", tenants.error().render().c_str());
    return std::move(*tenants);
}

SpecResult<MemoryConfig>
parseTopology(const std::string &spec)
{
    const auto entries = parseSpec(spec, /*with_head=*/true);
    if (!entries)
        return makeUnexpected(entries.error());

    MemoryConfig cfg;
    for (const SpecEntry &entry : *entries) {
        if (entry.head().empty())
            return specError("--topology node entry has no name",
                             entry.raw());
        for (const NodeConfig &prev : cfg.nodes) {
            if (prev.profile.name == entry.head()) {
                return specError("--topology node name repeats",
                                 entry.head());
            }
        }

        std::uint64_t pages = 0;
        if (auto r = entry.getU64("pages", &pages, /*min_value=*/1); !r)
            return makeUnexpected(r.error());
        // `lat` present marks a lower tier: the node is CPU-less unless
        // the entry also says cpu=1 (a slow socket is still toptier).
        const bool has_lat = entry.has("lat");
        double lat = TopologyBuilder::kLocalLatencyNs;
        if (auto r = entry.getDouble("lat", &lat, 1.0, 1e9); !r)
            return makeUnexpected(r.error());
        std::uint64_t cpu = has_lat ? 0 : 1;
        if (auto r = entry.getU64("cpu", &cpu, 0, 1); !r)
            return makeUnexpected(r.error());
        const bool cpu_less = cpu == 0;
        double bw = cpu_less ? TopologyBuilder::kCxlBandwidthGBps
                             : TopologyBuilder::kLocalBandwidthGBps;
        if (auto r = entry.getDouble("bw", &bw, 0.1, 1e9); !r)
            return makeUnexpected(r.error());
        if (auto r = entry.finish("pages, lat, bw, cpu"); !r)
            return makeUnexpected(r.error());

        if (pages == 0)
            return specError("--topology node has no pages", entry.head());
        cfg.nodes.push_back(
            NodeConfig{pages, NodeProfile{lat, bw, cpu_less,
                                          entry.head()}});
    }
    if (cfg.nodes.empty())
        return specError("--topology spec names no nodes", spec);

    bool any_cpu = false;
    for (const NodeConfig &nc : cfg.nodes)
        any_cpu = any_cpu || !nc.profile.cpuLess;
    if (!any_cpu) {
        return specError("--topology has no CPU-attached node (every "
                         "entry sets lat= without cpu=1)",
                         spec);
    }

    // Distances follow the tier structure the same way the canned
    // machines do: 10 on the diagonal, one extra 10 per hop away from
    // the CPU. A CPU node is hop 0; the k-th distinct CPU-less latency
    // class (ascending) is hop k.
    std::vector<double> latencies;
    for (const NodeConfig &nc : cfg.nodes)
        if (nc.profile.cpuLess)
            latencies.push_back(nc.profile.idleLatencyNs);
    std::sort(latencies.begin(), latencies.end());
    latencies.erase(std::unique(latencies.begin(), latencies.end()),
                    latencies.end());
    std::vector<std::uint32_t> hop;
    for (const NodeConfig &nc : cfg.nodes) {
        if (!nc.profile.cpuLess) {
            hop.push_back(0);
            continue;
        }
        const auto it =
            std::lower_bound(latencies.begin(), latencies.end(),
                             nc.profile.idleLatencyNs);
        hop.push_back(1 + static_cast<std::uint32_t>(
                              it - latencies.begin()));
    }
    const std::size_t n = cfg.nodes.size();
    cfg.distances.assign(n, std::vector<std::uint32_t>(n, 10));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (i == j)
                continue;
            cfg.distances[i][j] =
                10 + 10 * std::max<std::uint32_t>(
                              1, std::max(hop[i], hop[j]));
        }
    }
    return cfg;
}

SpecResult<void>
ExperimentConfig::validate() const
{
    if (wssPages == 0)
        return specError("config wssPages must be > 0");
    if (!std::isfinite(capacityHeadroom) || capacityHeadroom < 1.0) {
        return specError("config capacityHeadroom must be >= 1",
                         std::to_string(capacityHeadroom));
    }
    if (!allLocal &&
        !(localFraction > 0.0 && localFraction <= 1.0)) {
        return specError("config localFraction out of (0, 1]",
                         std::to_string(localFraction));
    }
    if (measureFrom > runUntil)
        return specError("config measureFrom is after runUntil");
    if (sampleEvery == 0)
        return specError("config sampleEvery must be > 0");

    if (!topology.empty()) {
        if (allLocal) {
            return specError("config topology and allLocal are mutually "
                             "exclusive (describe the one node in the "
                             "topology instead)",
                             topology);
        }
        if (auto topo = parseTopology(topology); !topo)
            return makeUnexpected(topo.error());
        if (effectiveShardRegions() > 1) {
            return specError("config topology and shards are mutually "
                             "exclusive (regions slice the canned "
                             "two-node machine)",
                             topology);
        }
    }

    if (shards == 0)
        return specError("config shards must be >= 1", "0");
    const std::uint32_t regions = effectiveShardRegions();
    const std::uint64_t machine_pages = static_cast<std::uint64_t>(
        static_cast<double>(wssPages) * capacityHeadroom);
    if (regions > machine_pages) {
        return specError("config shards exceed the machine's frame count "
                         "(local + cxl = " +
                             std::to_string(machine_pages) + " pages)",
                         std::to_string(regions));
    }
    if (regions > 1) {
        // Every region must be able to hold its own reclaim ladder: a
        // region whose local tier is no larger than its high watermark
        // would spend the whole run in direct reclaim (or fail to build
        // at all). The proxy below repeats the machine-build math on
        // the smallest region's share.
        const std::uint64_t region_wss = wssPages / regions;
        const std::uint64_t region_total = static_cast<std::uint64_t>(
            static_cast<double>(region_wss) * capacityHeadroom);
        const std::uint64_t region_local =
            allLocal ? region_total
                     : static_cast<std::uint64_t>(
                           static_cast<double>(region_total) *
                           localFraction);
        const Watermarks wm = Watermarks::forCapacity(
            std::max<std::uint64_t>(region_local, 1));
        if (region_local <= wm.high) {
            return specError(
                "config shards slice regions smaller than one watermark "
                "gap (region local tier " +
                    std::to_string(region_local) +
                    " pages <= high watermark " + std::to_string(wm.high) +
                    ")",
                std::to_string(regions));
        }
        if (!tenants.empty()) {
            return specError("config shards and tenants are mutually "
                             "exclusive (shard the single-workload path)",
                             std::to_string(regions));
        }
        if (openLoop.enabled()) {
            return specError("config shards and open-loop traffic are "
                             "mutually exclusive",
                             std::to_string(regions));
        }
        if (withChameleon) {
            return specError("config shards and the Chameleon profiler "
                             "are mutually exclusive",
                             std::to_string(regions));
        }
        if (measureHotness) {
            return specError("config shards and measureHotness are "
                             "mutually exclusive",
                             std::to_string(regions));
        }
        if (traceEnabled) {
            return specError("config shards and tracing are mutually "
                             "exclusive",
                             std::to_string(regions));
        }
        if (sampleSeries) {
            return specError("config shards and sampleSeries are "
                             "mutually exclusive",
                             std::to_string(regions));
        }
    }

    const auto check_open_loop =
        [](const OpenLoopSpec &ol,
           const std::string &who) -> SpecResult<void> {
        if (!(ol.qps >= 0.0) || !std::isfinite(ol.qps))
            return specError(who + " qps must be finite and >= 0",
                             std::to_string(ol.qps));
        if (!(ol.sloP99Us >= 0.0) || !std::isfinite(ol.sloP99Us))
            return specError(who + " slo must be finite and >= 0",
                             std::to_string(ol.sloP99Us));
        if (ol.enabled() && !ArrivalProcess::known(ol.arrival)) {
            return specError(who + " arrival process is unknown (want " +
                                 ArrivalProcess::knownNames() + ")",
                             ol.arrival);
        }
        return {};
    };
    if (auto r = check_open_loop(openLoop, "config"); !r)
        return r;
    if (openLoop.enabled() && !tenants.empty()) {
        return specError("config-level open loop and tenants are "
                         "mutually exclusive; give each tenant its own "
                         "qps= instead");
    }

    std::uint64_t explicit_wss = 0;
    for (const TenantSpec &tenant : tenants) {
        if (tenant.workload.empty())
            return specError("tenant entry has no workload name");
        if (!(tenant.lowFraction >= 0.0 && tenant.lowFraction <= 1.0)) {
            return specError("tenant low out of [0, 1]",
                             std::to_string(tenant.lowFraction));
        }
        if (!(tenant.budgetMBps >= 0.0) ||
            !std::isfinite(tenant.budgetMBps)) {
            return specError("tenant budget must be finite and >= 0",
                             std::to_string(tenant.budgetMBps));
        }
        if (tenant.placement != "none" &&
            tenant.placement != "local_only" &&
            tenant.placement != "cxl_only") {
            return specError("tenant place must be none, local_only or "
                             "cxl_only",
                             tenant.placement);
        }
        if (auto r = check_open_loop(tenant.openLoop,
                                     "tenant " + tenant.workload);
            !r) {
            return r;
        }
        if (tenant.wssPages == 0 && wssPages / tenants.size() == 0) {
            return specError("tenant without wss= gets an equal share of "
                             "wssPages, and that share is zero pages",
                             tenant.workload);
        }
        explicit_wss += tenant.wssPages;
    }
    if (!tenants.empty() && explicit_wss > wssPages) {
        return specError("tenant wss sum exceeds the config's wssPages",
                         std::to_string(explicit_wss));
    }
    if (!tenants.empty() && withChameleon) {
        return specError("config tenants and the Chameleon profiler are "
                         "mutually exclusive (the profiler observes one "
                         "workload)",
                         runName(*this));
    }
    return {};
}

std::string
runName(const ExperimentConfig &cfg)
{
    if (cfg.tenants.empty())
        return cfg.workload;
    std::string name;
    for (const TenantSpec &tenant : cfg.tenants) {
        if (!name.empty())
            name += '+';
        name += tenant.workload;
    }
    return name;
}

namespace {

/** Arrival seed decorrelated from the workload's access-pattern seed. */
std::uint64_t
arrivalSeed(std::uint64_t seed)
{
    return seed ^ 0x9e3779b97f4a7c15ULL;
}

/**
 * The machine a config describes: the explicit --topology spec when one
 * is given, else the canned all-local / two-node build sized from the
 * working set. validate() already vetted the spec, so a parse failure
 * here is a programming error, not user input.
 */
MemoryConfig
machineConfig(const ExperimentConfig &cfg, std::uint64_t total_pages)
{
    if (!cfg.topology.empty()) {
        SpecResult<MemoryConfig> topo = parseTopology(cfg.topology);
        if (!topo)
            tpp_fatal("%s", topo.error().render().c_str());
        return std::move(*topo);
    }
    if (cfg.allLocal)
        return TopologyBuilder::allLocal(total_pages);
    const std::uint64_t local_pages = static_cast<std::uint64_t>(
        static_cast<double>(total_pages) * cfg.localFraction);
    return TopologyBuilder::cxlSystem(local_pages,
                                      total_pages - local_pages);
}

/**
 * Fraction of measurement-window accesses served by the toptier,
 * summed over every CPU node: on a multi-socket machine socket-1
 * traffic is just as local as socket-0's.
 */
double
localShareOf(const WorkloadDriver &driver, const MemorySystem &mem)
{
    double share = 0.0;
    for (NodeId nid : mem.tiers().toptierNodes())
        share += driver.trafficShare(nid);
    return share;
}

/**
 * Per-node residency and traffic rows. Populated only past the plain
 * two-node shapes (an explicit topology or > 2 nodes), so existing
 * two-node CSV/JSON output stays byte-identical.
 */
void
collectNodeRows(const ExperimentConfig &cfg, const Kernel &kernel,
                const MemorySystem &mem, const WorkloadDriver &driver,
                ExperimentResult *result)
{
    if (cfg.topology.empty() && mem.numNodes() <= 2)
        return;
    for (std::size_t i = 0; i < mem.numNodes(); ++i) {
        const NodeId nid = static_cast<NodeId>(i);
        const MemoryNode &node = mem.node(nid);
        NodeResult row;
        row.name = node.profile().name;
        row.tierRank = mem.tiers().rank(nid);
        row.capacityPages = node.capacity();
        row.anonPages = kernel.residentPages(nid, PageType::Anon);
        row.filePages = kernel.residentPages(nid, PageType::File);
        row.freePages = node.freePages();
        row.trafficShare = driver.trafficShare(nid);
        result->nodes.push_back(std::move(row));
    }
}

/** Cadence of the live SLO feed into the adaptive tuner. */
constexpr Tick kAdaptiveSloSyncPeriod = 50 * kMillisecond;

/**
 * Push cumulative open-loop request totals into an attached
 * AdaptivePolicy on a fixed cadence, so the tuner can difference live
 * SLO attainment per profiling window (its tie-breaker objective)
 * without the drivers knowing the policy exists. Observation only: the
 * event mutates no simulation state, so runs are bit-identical whether
 * or not it fires (the tuner-disabled goldens rely on this).
 */
class AdaptiveSloFeed
{
  public:
    AdaptiveSloFeed(EventQueue &eq, AdaptivePolicy &policy,
                    std::vector<const WorkloadDriver *> drivers,
                    Tick run_until)
        : eq_(eq), policy_(policy), drivers_(std::move(drivers)),
          runUntil_(run_until)
    {
        eq_.scheduleAfter(kAdaptiveSloSyncPeriod, [this] { tick(); });
    }

  private:
    void
    tick()
    {
        std::uint64_t met = 0;
        std::uint64_t offered = 0;
        for (const WorkloadDriver *driver : drivers_) {
            met += driver->windowSloMet();
            offered +=
                driver->windowRequests() + driver->windowDropped();
        }
        policy_.noteSloTotals(met, offered);
        if (eq_.now() < runUntil_)
            eq_.scheduleAfter(kAdaptiveSloSyncPeriod, [this] { tick(); });
    }

    EventQueue &eq_;
    AdaptivePolicy &policy_;
    std::vector<const WorkloadDriver *> drivers_;
    Tick runUntil_;
};

/** Wire the feed when the policy is adaptive and open-loop tenants run. */
std::unique_ptr<AdaptiveSloFeed>
makeAdaptiveSloFeed(EventQueue &eq, Kernel &kernel,
                    std::vector<const WorkloadDriver *> open_loop,
                    Tick run_until)
{
    auto *adaptive = dynamic_cast<AdaptivePolicy *>(&kernel.policy());
    if (!adaptive || open_loop.empty())
        return nullptr;
    return std::make_unique<AdaptiveSloFeed>(eq, *adaptive,
                                             std::move(open_loop),
                                             run_until);
}

/** One tenant of a region, as planned from the config. */
struct TenantPlan {
    /** What the tenant runs; wssPages is already resolved. */
    TenantSpec spec;
    /** Workload seed; the arrival process draws from arrivalSeed(seed). */
    std::uint64_t seed = 0;
    /** An explicit tenant gets its own cgroup and result row; the
     *  implicit tenant of a single-workload run stays in the root
     *  cgroup and only feeds the headline. */
    bool explicitTenant = false;
};

/**
 * The tenants of every region a config runs. Explicit tenants share one
 * region, each an equal share of wssPages unless it says wss=. Without
 * them each of the effectiveShardRegions() regions runs one implicit
 * tenant on an equal slice of the working set (remainder pages go to
 * the lowest regions) with a decorrelated seed; one region is the
 * plain single-workload run.
 */
std::vector<std::vector<TenantPlan>>
planRegions(const ExperimentConfig &cfg)
{
    std::vector<std::vector<TenantPlan>> plans;
    if (!cfg.tenants.empty()) {
        std::vector<TenantPlan> &plan = plans.emplace_back();
        for (std::size_t i = 0; i < cfg.tenants.size(); ++i) {
            TenantPlan tenant{cfg.tenants[i], cfg.seed + i, true};
            if (!tenant.spec.wssPages)
                tenant.spec.wssPages = cfg.wssPages / cfg.tenants.size();
            plan.push_back(std::move(tenant));
        }
        return plans;
    }
    const std::uint32_t regions = cfg.effectiveShardRegions();
    for (std::uint32_t r = 0; r < regions; ++r) {
        TenantSpec spec;
        spec.workload = cfg.workload;
        spec.wssPages = cfg.wssPages / regions +
                        (r < cfg.wssPages % regions ? 1 : 0);
        spec.openLoop = cfg.openLoop;
        plans.push_back(
            {{std::move(spec), cfg.seed + r * 0x9e3779b97f4a7c15ULL, false}});
    }
    return plans;
}

/** Machine frames for a region: its tenants' working sets plus headroom. */
std::uint64_t
regionPages(const ExperimentConfig &cfg, const std::vector<TenantPlan> &plan)
{
    std::uint64_t wss = 0;
    for (const TenantPlan &tenant : plan)
        wss += tenant.spec.wssPages;
    return static_cast<std::uint64_t>(static_cast<double>(wss) *
                                      cfg.capacityHeadroom);
}

/** A planned tenant's running workload and driver. */
struct Tenant {
    TenantPlan plan;
    CgroupId cgroup = kRootCgroup;
    std::unique_ptr<Workload> workload;
    std::unique_ptr<WorkloadDriver> driver;
};

/**
 * The hot-set ground truth of cfg.measureHotness: an access tap that
 * counts each page's accesses from `from` on.
 */
struct HotSetCounter final : KernelAccessTap {
    HotSetCounter(Kernel &kernel, Tick from) : kernel(kernel), from(from)
    {
        kernel.addAccessTap(*this);
    }
    ~HotSetCounter() override { kernel.removeAccessTap(*this); }

    void
    onKernelAccess(const AccessEvent &event) override
    {
        if (event.tick >= from)
            counts(event.asid, event.vpn)++;
    }

    Kernel &kernel;
    const Tick from;
    PageSlots<std::uint64_t> counts;
};

/**
 * One region stack: an event queue, a machine and a kernel, its
 * tenants' workloads and drivers, and the taps that watch them.
 * Regions share nothing, so several can step side by side between
 * epoch barriers. Members die in reverse order, so every driver and
 * workload is gone before the kernel it ran on.
 */
struct Region {
    EventQueue eq;
    MemorySystem mem;
    Kernel kernel;
    std::unique_ptr<TimeSeriesSampler> sampler;
    std::unique_ptr<Chameleon> chameleon;
    std::unique_ptr<HotSetCounter> hotSet;
    std::vector<Tenant> tenants;
    std::unique_ptr<AdaptiveSloFeed> sloFeed;

    /**
     * Build the stack. Same-tick events fire in insertion order, so the
     * order below is part of the results: telemetry, cgroups, sysctls,
     * access taps, workloads and drivers, then the SLO feed.
     */
    Region(const ExperimentConfig &cfg, std::vector<TenantPlan> plan)
        : mem(machineConfig(cfg, regionPages(cfg, plan))),
          kernel(mem, eq, makePolicy(cfg), MmCosts{}, cfg.migration)
    {
        // Telemetry attaches before anything is scheduled so the
        // sampler's events always precede same-tick simulation events;
        // both layers only observe, so results are bit-identical with
        // them on or off (tests/test_trace.cc asserts this).
        if (cfg.traceEnabled) {
            kernel.trace().setCapacity(
                static_cast<std::size_t>(cfg.traceCapacity));
            kernel.trace().enable();
        }
        if (cfg.sampleSeries) {
            const Tick period =
                cfg.samplePeriod ? cfg.samplePeriod : cfg.sampleEvery;
            sampler = std::make_unique<TimeSeriesSampler>(kernel, period,
                                                          cfg.runUntil);
            sampler->start();
        }

        // Cgroups exist before cfg.sysctls are applied, so a config can
        // also address the per-cgroup memcg.<name>.* knobs directly.
        MemcgController &memcg = kernel.memcg();
        for (std::size_t i = 0; i < plan.size(); ++i) {
            Tenant &tenant = tenants.emplace_back();
            tenant.plan = std::move(plan[i]);
            if (!tenant.plan.explicitTenant)
                continue;
            const TenantSpec &spec = tenant.plan.spec;
            tenant.cgroup =
                memcg.create("t" + std::to_string(i) + "-" + spec.workload);
            MemCgroup &cg = memcg.cgroup(tenant.cgroup);
            cg.low = static_cast<std::uint64_t>(
                static_cast<double>(spec.wssPages) * spec.lowFraction);
            if (spec.placement == "local_only")
                cg.placement = MemcgPlacement::LocalOnly;
            else if (spec.placement == "cxl_only")
                cg.placement = MemcgPlacement::CxlOnly;
            memcg.setMigrationBudget(tenant.cgroup, spec.budgetMBps);
            cg.sloP99Us = spec.openLoop.sloP99Us;
        }

        for (const auto &[name, value] : cfg.sysctls) {
            if (!kernel.sysctl().set(name, value))
                tpp_fatal("sysctl %s=%s rejected", name.c_str(),
                          value.c_str());
        }

        // Access taps beside the policy's own (a hotness source's
        // profiler or device): each attaches itself to the kernel.
        if (cfg.withChameleon)
            chameleon = std::make_unique<Chameleon>(kernel, cfg.chameleon);
        if (cfg.measureHotness)
            hotSet = std::make_unique<HotSetCounter>(kernel, cfg.measureFrom);

        DriverConfig driver_cfg;
        driver_cfg.runUntil = cfg.runUntil;
        driver_cfg.measureFrom = cfg.measureFrom;
        driver_cfg.sampleEvery = cfg.sampleEvery;
        std::vector<const WorkloadDriver *> open_loop;
        for (Tenant &tenant : tenants) {
            const TenantSpec &spec = tenant.plan.spec;
            tenant.workload = WorkloadRegistry::instance().make(
                WorkloadSpec{spec.workload, spec.wssPages, tenant.plan.seed});
            tenant.workload->setTaskNode(mem.tiers().toptierNodes().front());
            driver_cfg.openLoop = spec.openLoop;
            driver_cfg.openLoopSeed = arrivalSeed(tenant.plan.seed);
            tenant.driver = std::make_unique<WorkloadDriver>(
                kernel, *tenant.workload, driver_cfg);
            if (tenant.driver->openLoop())
                open_loop.push_back(tenant.driver.get());
        }

        // Live SLO feed for the adaptive tuner's tie-breaker objective.
        sloFeed = makeAdaptiveSloFeed(eq, kernel, std::move(open_loop),
                                      cfg.runUntil);
    }

    /** Start the kernel daemons, the profiler, then every driver. */
    void
    start()
    {
        kernel.start();
        if (chameleon)
            chameleon->start();
        // Each driver's init runs with the spawn cgroup pointed at its
        // tenant, so the processes a workload creates land in the right
        // cgroup without the workloads knowing cgroups exist.
        for (Tenant &tenant : tenants) {
            kernel.memcg().setSpawnCgroup(tenant.cgroup);
            tenant.driver->start();
        }
        kernel.memcg().setSpawnCgroup(kRootCgroup);
    }

    /** Migration attempts so far (admission-rebalance demand signal). */
    std::uint64_t
    migrations() const
    {
        return kernel.vmstat().get(Vm::PgMigrateSuccess) +
               kernel.vmstat().get(Vm::PgMigrateFail);
    }
};

using Regions = std::vector<std::unique_ptr<Region>>;

/** What the epoch synchroniser carries across barriers for one region. */
struct EpochState {
    /** migrations() at the last epoch barrier. */
    std::uint64_t lastMigrations = 0;
    /** Current slice of the machine-wide admission budget, MB/s. */
    double budgetMBps = 0.0;
};

void
setAdmissionBudget(Region &region, EpochState &state, double mbps)
{
    // %.17g round-trips a double exactly; %.9g used to shave the low
    // mantissa bits here, so the budgets the kernels actually ran under
    // no longer summed to the machine-wide limit.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", mbps);
    if (!region.kernel.sysctl().set("vm.migration_rate_limit_mbps", buf))
        tpp_fatal("shard admission rebalance rejected (%s MB/s)", buf);
    state.budgetMBps = mbps;
}

/**
 * Serial, fixed-order epoch-boundary synchronisation: watermark
 * pressure accounting and (when a machine-wide admission budget is
 * configured) demand-weighted redistribution of that budget. Runs with
 * every region quiescent, so it is deterministic regardless of how many
 * workers ticked the regions.
 */
void
epochSync(Regions &regions, std::vector<EpochState> &state,
          double global_budget, ShardStats &stats)
{
    stats.epochs++;
    bool any_low = false;
    for (const auto &region : regions) {
        const MemoryNode &local =
            region->mem.node(region->mem.cpuNodes().front());
        if (!local.aboveWatermark(local.watermarks().low)) {
            stats.regionLowWatermarkEpochs++;
            any_low = true;
        }
    }
    if (any_low)
        stats.pressureEpochs++;

    if (global_budget <= 0.0)
        return;

    // Migration admission: split the machine-wide budget by each
    // region's migration demand over the last epoch. A 10% floor of
    // the equal share keeps a quiet region from being starved to zero
    // the moment it wakes up; shardBudgetShares() guarantees the
    // shares sum to exactly the machine-wide budget.
    std::vector<double> demand(regions.size());
    for (std::size_t r = 0; r < regions.size(); ++r) {
        const std::uint64_t now = regions[r]->migrations();
        demand[r] = static_cast<double>(now - state[r].lastMigrations);
        state[r].lastMigrations = now;
    }
    const std::vector<double> shares =
        shardBudgetShares(demand, global_budget);
    for (std::size_t r = 0; r < regions.size(); ++r) {
        stats.rebalancedMBps +=
            std::abs(shares[r] - state[r].budgetMBps) / 2.0;
        setAdmissionBudget(*regions[r], state[r], shares[r]);
    }
}

/**
 * Run every region to cfg.runUntil. One region runs its queue straight
 * through. R > 1 regions advance in epoch lockstep (epoch =
 * cfg.sampleEvery) on min(cfg.shards, R) workers, with the serial
 * synchroniser between epochs. Stepping an isolated EventQueue in
 * epochs is exactly equivalent to one long run, since events still
 * fire in (tick, insertion) order, so neither the epoch length nor the
 * worker count changes a region's own results.
 *
 * @return the epoch accounting; all zero for one region.
 */
ShardStats
runRegions(const ExperimentConfig &cfg, Regions &regions)
{
    ShardStats stats;
    if (regions.size() == 1) {
        regions.front()->start();
        regions.front()->eq.run(cfg.runUntil);
        return stats;
    }
    stats.regions = static_cast<std::uint32_t>(regions.size());
    stats.workers = std::min(cfg.shards, stats.regions);

    // A configured migration rate limit is machine-wide: start every
    // region on an equal slice; epochSync() rebalances it by demand.
    const double global_budget = cfg.migration.rateLimitMBps;
    std::vector<EpochState> state(regions.size());
    if (global_budget > 0.0) {
        for (std::size_t r = 0; r < regions.size(); ++r) {
            setAdmissionBudget(*regions[r], state[r],
                               global_budget /
                                   static_cast<double>(stats.regions));
        }
    }
    for (const auto &region : regions)
        region->start();

    // A run that runs no epoch starts no worker.
    std::unique_ptr<ThreadPool> pool;
    if (stats.workers > 1 && cfg.runUntil > 0)
        pool = std::make_unique<ThreadPool>(stats.workers);
    Tick now = 0;
    while (now < cfg.runUntil) {
        const Tick target = std::min(now + cfg.sampleEvery, cfg.runUntil);
        if (pool) {
            for (const auto &region : regions) {
                Region *raw = region.get();
                pool->submit([raw, target] { raw->eq.run(target); });
            }
            pool->wait();
        } else {
            for (const auto &region : regions)
                region->eq.run(target);
        }
        now = target;
        epochSync(regions, state, global_budget, stats);
    }
    return stats;
}

/** Sum per-region interval samples into one machine-wide series. */
std::vector<IntervalSample>
mergeSamples(const Regions &regions)
{
    std::size_t n = 0;
    for (const auto &region : regions)
        n = std::max(n, region->tenants.front().driver->samples().size());
    std::vector<IntervalSample> merged(n);
    for (std::size_t k = 0; k < n; ++k) {
        IntervalSample &out = merged[k];
        double share_weight = 0.0;
        for (const auto &region : regions) {
            const auto &samples = region->tenants.front().driver->samples();
            if (k >= samples.size())
                continue;
            const IntervalSample &s = samples[k];
            out.tick = s.tick;
            out.promotionRate += s.promotionRate;
            out.demotionRate += s.demotionRate;
            out.localAllocRate += s.localAllocRate;
            out.localFree += s.localFree;
            out.throughput += s.throughput;
            out.queueDepth += s.queueDepth;
            out.anonResident += s.anonResident;
            out.fileResident += s.fileResident;
            out.anonOnLocal += s.anonOnLocal;
            out.fileOnLocal += s.fileOnLocal;
            out.localShare += s.localShare * s.throughput;
            share_weight += s.throughput;
        }
        out.localShare = share_weight > 0.0
                             ? out.localShare / share_weight
                             : 0.0;
    }
    return merged;
}

/**
 * Tail-latency summary over the open-loop drivers of `tenants`, in
 * order. Over one driver it is bit-for-bit that driver's own summary,
 * read from its own histogram: only two or more build a merged one.
 */
OpenLoopResult
mergeOpenLoop(const std::vector<const Tenant *> &tenants)
{
    OpenLoopResult ol;
    if (tenants.empty())
        return ol;
    std::optional<LatencyHistogram> merged;
    if (tenants.size() > 1)
        merged.emplace();
    std::uint64_t met = 0;
    bool same_slo = true;
    double slo = -1.0;
    for (const Tenant *tenant : tenants) {
        const WorkloadDriver &driver = *tenant->driver;
        const OpenLoopSpec &spec = tenant->plan.spec.openLoop;
        if (merged)
            merged->merge(driver.requestLatency());
        met += driver.windowSloMet();
        ol.dropped += driver.windowDropped();
        ol.offeredQps += spec.qps;
        ol.goodputQps += driver.goodputQps();
        ol.meanQueueDepth += driver.meanQueueDepth();
        ol.maxQueueDepth = std::max(ol.maxQueueDepth, driver.maxQueueDepth());
        if (ol.arrival.empty())
            ol.arrival = spec.arrival;
        else if (ol.arrival != spec.arrival)
            ol.arrival = "mixed";
        if (slo < 0.0)
            slo = spec.sloP99Us;
        else if (slo != spec.sloP99Us)
            same_slo = false;
    }
    const LatencyHistogram &hist =
        merged ? *merged : tenants.front()->driver->requestLatency();
    ol.enabled = true;
    ol.requests = hist.count();
    ol.p50Ns = hist.percentileNs(50.0);
    ol.p99Ns = hist.percentileNs(99.0);
    ol.p999Ns = hist.percentileNs(99.9);
    ol.maxNs = hist.maxNs();
    ol.meanNs = hist.mean();
    ol.sloP99Us = same_slo ? slo : 0.0;
    const std::uint64_t offered = hist.count() + ol.dropped;
    ol.sloAttainment = offered ? static_cast<double>(met) /
                                     static_cast<double>(offered)
                               : 1.0;
    return ol;
}

/** Result row of an explicit tenant, with its memory.stat counters. */
TenantResult
tenantRow(Region &region, const Tenant &tenant)
{
    const WorkloadDriver &driver = *tenant.driver;
    MemcgController &memcg = region.kernel.memcg();
    const MemCgroup &cg = memcg.cgroup(tenant.cgroup);
    TenantResult row;
    row.name = cg.name();
    row.workload = tenant.plan.spec.workload;
    row.throughput = driver.throughput();
    row.meanAccessLatencyNs = driver.meanAccessLatencyNs();
    if (driver.openLoop()) {
        // Request accounting lands in memory.stat before the stats
        // snapshot below, so the row and the sysctl surface agree.
        memcg.noteRequests(tenant.cgroup,
                           driver.windowRequests() + driver.windowDropped(),
                           driver.windowSloMet());
        row.openLoop = mergeOpenLoop({&tenant});
    }
    row.pagesTotal = cg.usage();
    for (NodeId nid : region.mem.cpuNodes())
        row.pagesLocal += cg.usageOnNode(nid);
    row.localResidency =
        row.pagesTotal ? static_cast<double>(row.pagesLocal) /
                             static_cast<double>(row.pagesTotal)
                       : 0.0;
    row.memcg = cg.stats;
    return row;
}

/**
 * Hot-set recall: each tenant's true hot set is its top pages by
 * measured window access count, up to its capacity share of the
 * toptier (local capacity * wss_i / total_wss pages; the whole tier for
 * the implicit tenant). Recall is the fraction of them resident there
 * at the end of the run; the headline pools every tenant's.
 */
void
harvestHotSet(const Region &region, ExperimentResult &result)
{
    const MemorySystem &mem = region.mem;
    std::uint64_t local_capacity = 0;
    for (NodeId nid : mem.tiers().toptierNodes())
        local_capacity += mem.node(nid).capacity();
    std::uint64_t total_wss = 0;
    for (const Tenant &tenant : region.tenants)
        total_wss += tenant.plan.spec.wssPages;

    // Entries are (asid << 48 | vpn, count); sorted by count, then key,
    // a total order.
    using Entry = std::pair<std::uint64_t, std::uint64_t>;
    std::vector<std::vector<Entry>> ranked(region.tenants.size());
    region.hotSet->counts.forEach(
        [&](Asid asid, Vpn vpn, std::uint64_t count) {
            if (count == 0)
                return;
            const CgroupId cg = region.kernel.memcg().cgroupOf(asid);
            for (std::size_t i = 0; i < region.tenants.size(); ++i) {
                if (region.tenants[i].cgroup == cg) {
                    ranked[i].emplace_back(
                        (static_cast<std::uint64_t>(asid) << 48) | vpn,
                        count);
                    break;
                }
            }
        });

    std::uint64_t considered_all = 0;
    std::uint64_t resident_all = 0;
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        const TenantPlan &plan = region.tenants[i].plan;
        std::sort(ranked[i].begin(), ranked[i].end(),
                  [](const Entry &a, const Entry &b) {
                      return a.second != b.second ? a.second > b.second
                                                  : a.first < b.first;
                  });
        const std::uint64_t share =
            plan.explicitTenant
                ? static_cast<std::uint64_t>(
                      static_cast<double>(local_capacity) *
                      static_cast<double>(plan.spec.wssPages) /
                      static_cast<double>(total_wss))
                : local_capacity;
        if (ranked[i].size() > share)
            ranked[i].resize(share);
        std::uint64_t considered = 0;
        std::uint64_t resident_local = 0;
        for (const auto &[key, count] : ranked[i]) {
            const Asid asid = static_cast<Asid>(key >> 48);
            const Vpn vpn = key & ((std::uint64_t{1} << 48) - 1);
            const AddressSpace &as = region.kernel.addressSpace(asid);
            if (vpn >= as.tableSize() || !as.pte(vpn).present())
                continue;
            considered++;
            if (mem.tiers().isToptier(mem.frame(as.pte(vpn).pfn).nid))
                resident_local++;
        }
        if (plan.explicitTenant) {
            result.tenants[i].hotSetPages = considered;
            result.tenants[i].hotSetRecall =
                considered ? static_cast<double>(resident_local) /
                                 static_cast<double>(considered)
                           : 0.0;
        }
        considered_all += considered;
        resident_all += resident_local;
    }
    result.hotSetPages = considered_all;
    result.hotSetRecall =
        considered_all ? static_cast<double>(resident_all) /
                             static_cast<double>(considered_all)
                       : 0.0;
}

/**
 * Fold regions x tenants, in order, into one result. A fold over one
 * element returns that element's own value ((x * w) / w != x for about
 * one double in eleven): the lone implicit tenant keeps its own mean
 * latency, and one region keeps its own traffic share and samples.
 * Explicit tenants always take the ops-weighted mean.
 */
ExperimentResult
harvest(const ExperimentConfig &cfg, Regions &regions,
        const ShardStats &shard)
{
    ExperimentResult result;
    result.workload = runName(cfg);
    result.policy = cfg.policy;
    result.shard = shard;
    double ops_total = 0.0;
    double traffic_local = 0.0;
    std::uint64_t on_local[kNumPageTypes] = {};
    std::uint64_t resident[kNumPageTypes] = {};
    std::vector<const Tenant *> open_loop;
    for (const auto &region : regions) {
        double region_ops = 0.0;
        for (const Tenant &tenant : region->tenants) {
            const WorkloadDriver &driver = *tenant.driver;
            result.throughput += driver.throughput();
            const double ops = static_cast<double>(driver.measuredOps());
            result.meanAccessLatencyNs += driver.meanAccessLatencyNs() * ops;
            region_ops += ops;
            if (driver.openLoop())
                open_loop.push_back(&tenant);
            if (tenant.plan.explicitTenant)
                result.tenants.push_back(tenantRow(*region, tenant));
        }
        ops_total += region_ops;
        // Every tenant sees the same kernel-global traffic window, so
        // one driver's view is the region's.
        const WorkloadDriver &driver = *region->tenants.front().driver;
        traffic_local += localShareOf(driver, region->mem) * region_ops;

        const Kernel &kernel = region->kernel;
        for (std::size_t i = 0; i < kNumVmCounters; ++i)
            result.vmstat.inc(static_cast<Vm>(i),
                              kernel.vmstat().get(static_cast<Vm>(i)));
        MemInfo info = collectMemInfo(kernel);
        result.meminfo.totalPages += info.totalPages;
        result.meminfo.totalFree += info.totalFree;
        result.meminfo.swapUsedSlots += info.swapUsedSlots;
        result.meminfo.nodes.insert(result.meminfo.nodes.end(),
                                    std::make_move_iterator(info.nodes.begin()),
                                    std::make_move_iterator(info.nodes.end()));
        // Walk every node: toptier pages feed the numerator, all
        // resident pages the denominator, so no socket drops out.
        for (std::size_t i = 0; i < region->mem.numNodes(); ++i) {
            const NodeId nid = static_cast<NodeId>(i);
            for (PageType type : {PageType::Anon, PageType::File}) {
                const std::uint64_t pages = kernel.residentPages(nid, type);
                resident[static_cast<int>(type)] += pages;
                if (region->mem.tiers().isToptier(nid))
                    on_local[static_cast<int>(type)] += pages;
            }
        }
        collectNodeRows(cfg, kernel, region->mem, driver, &result);
    }

    Region &first = *regions.front();
    const WorkloadDriver &lead = *first.tenants.front().driver;
    if (regions.size() == 1 && cfg.tenants.empty())
        result.meanAccessLatencyNs = lead.meanAccessLatencyNs();
    else if (ops_total > 0.0)
        result.meanAccessLatencyNs /= ops_total;
    if (regions.size() == 1) {
        result.localTrafficShare = localShareOf(lead, first.mem);
        result.samples = lead.samples();
    } else {
        result.localTrafficShare =
            ops_total > 0.0 ? traffic_local / ops_total : 0.0;
        result.samples = mergeSamples(regions);
    }
    result.cxlTrafficShare = 1.0 - result.localTrafficShare;
    const auto share = [](std::uint64_t part, std::uint64_t whole) {
        return whole ? static_cast<double>(part) /
                           static_cast<double>(whole)
                     : 0.0;
    };
    result.anonLocalResidency =
        share(on_local[static_cast<int>(PageType::Anon)],
              resident[static_cast<int>(PageType::Anon)]);
    result.fileLocalResidency =
        share(on_local[static_cast<int>(PageType::File)],
              resident[static_cast<int>(PageType::File)]);
    result.openLoop = mergeOpenLoop(open_loop);

    // validate() keeps tracing, the sampler, Chameleon and hot-set truth
    // to one-region runs (merging them across regions needs a rule of
    // its own), so they are read from that one region.
    if (cfg.traceEnabled) {
        result.trace = first.kernel.trace().snapshot();
        result.traceEmitted = first.kernel.trace().emitted();
        result.traceDropped = first.kernel.trace().dropped();
    }
    if (first.sampler)
        result.series = first.sampler->takeSeries();
    if (cfg.measureHotness)
        harvestHotSet(first, result);
    if (first.chameleon) {
        result.chameleonIntervals = first.chameleon->intervals();
        result.chameleonHotFraction = first.chameleon->meanHotFraction();
        result.chameleonHotFractionAnon =
            first.chameleon->meanHotFraction(PageType::Anon);
        result.chameleonHotFractionFile =
            first.chameleon->meanHotFraction(PageType::File);
    }
    return result;
}

} // namespace

ExperimentResult
runExperiment(const ExperimentConfig &cfg)
{
    if (const SpecResult<void> valid = cfg.validate(); !valid)
        tpp_fatal("%s", valid.error().render().c_str());
    Regions regions;
    for (std::vector<TenantPlan> &plan : planRegions(cfg))
        regions.push_back(std::make_unique<Region>(cfg, std::move(plan)));
    const ShardStats shard = runRegions(cfg, regions);
    return harvest(cfg, regions, shard);
}

double
relativeToAllLocal(const ExperimentConfig &cfg, ExperimentResult *out,
                   ExperimentResult *baseline_out)
{
    const ExperimentResult baseline =
        BaselineCache::instance().getOrRun(allLocalTwin(cfg));
    const ExperimentResult result = runExperiment(cfg);
    if (out)
        *out = result;
    if (baseline_out)
        *baseline_out = baseline;
    if (baseline.throughput <= 0.0)
        return 0.0;
    return result.throughput / baseline.throughput;
}

} // namespace tpp
