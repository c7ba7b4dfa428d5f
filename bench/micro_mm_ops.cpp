/**
 * @file
 * google-benchmark microbenchmarks for the hot mechanisms: the access
 * path, fault path, allocator, LRU surgery, migration, reclaim scan,
 * and the simulation primitives they sit on. These bound the simulator's
 * own overheads and document the relative costs the policies pay.
 *
 * The BM_E2E* benchmarks run whole fault+reclaim / promote passes over
 * a configurable footprint (TPP_E2E_PAGES, default 2^18 pages) and
 * report pages/sec rate counters. Together with the pages_per_sec
 * counters on the fault, reclaim-scan and LRU-surgery benchmarks, the
 * accesses_per_sec counters on the resident access (bare and with one
 * access tap attached), on one cache1 workload batch (the layer
 * that dominates figure runs; inline and drawn ahead on a second CPU)
 * and on phased's open-loop service calls drawn ahead, the Zipf draw
 * and short-lived
 * distribution rates, and the requests_per_sec of an open-loop service
 * run, they feed the CI perf gate:
 *
 *     micro_mm_ops --benchmark_format=json > out.json
 *     tools/check_perf.py out.json bench/perf_baseline.json
 *
 * (fail on >25% regression, warn on >10%; see README "Performance &
 * perf gate").
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "core/tpp_policy.hh"
#include "mm/kernel.hh"
#include "policy/adaptive/adaptive_policy.hh"
#include "policy/default_linux.hh"
#include "sim/distributions.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/spare_cpu.hh"
#include "workloads/driver.hh"
#include "workloads/profiles.hh"
#include "workloads/synthetic.hh"

namespace {

using namespace tpp;

/** Fixture bundle: one small tiered machine + kernel + one process. */
struct Machine {
    EventQueue eq;
    MemorySystem mem;
    Kernel kernel;
    Asid asid;

    explicit Machine(std::uint64_t local = 8192, std::uint64_t cxl = 8192,
                     std::unique_ptr<PlacementPolicy> policy =
                         std::make_unique<DefaultLinuxPolicy>())
        : mem(TopologyBuilder::cxlSystem(local, cxl)),
          kernel(mem, eq, std::move(policy)), asid(kernel.createProcess())
    {
        setLogVerbose(false);
        kernel.start();
    }
};

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_ZipfSample(benchmark::State &state)
{
    Rng rng(42);
    ZipfDistribution zipf(static_cast<std::uint64_t>(state.range(0)), 0.99);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf(rng));
    state.counters["draws_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ZipfSample)->Arg(1024)->Arg(1048576);

void
BM_ZipfShortLived(benchmark::State &state)
{
    // A distribution that lives for 20 draws, as ycsb's Zipfian keys do:
    // they rebuild it after every insert, about every 20 operations.
    Rng rng(42);
    std::uint64_t i = 0;
    for (auto _ : state) {
        ZipfDistribution zipf(100000 + i++, 0.99);
        for (int draw = 0; draw < 20; ++draw)
            benchmark::DoNotOptimize(zipf(rng));
    }
    state.counters["constructions_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ZipfShortLived);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    EventQueue eq;
    for (auto _ : state) {
        eq.scheduleAfter(10, [] {});
        eq.run(eq.now() + 10);
    }
}
BENCHMARK(BM_EventQueueScheduleRun);

/** Loads of 1024 resident pages in turn, seen by `tap` when set. */
void
accessResident(benchmark::State &state, KernelAccessTap *tap)
{
    Machine m;
    const Vpn base = m.kernel.mmap(m.asid, 1024, PageType::Anon, "bench");
    for (Vpn v = 0; v < 1024; ++v)
        m.kernel.access(m.asid, base + v, AccessKind::Store, 0);
    if (tap)
        m.kernel.addAccessTap(*tap);
    Vpn v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            m.kernel.access(m.asid, base + (v++ & 1023),
                            AccessKind::Load, 0));
    }
    state.counters["accesses_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

void
BM_AccessResident(benchmark::State &state)
{
    accessResident(state, nullptr);
}
BENCHMARK(BM_AccessResident);

/** The cheapest access tap: it counts what the kernel reports. */
struct CountingTap final : KernelAccessTap {
    std::uint64_t accesses = 0;
    void onKernelAccess(const AccessEvent &) override { accesses++; }
};

/** BM_AccessResident with one tap attached, as a hot-set count runs. */
void
BM_AccessResidentSink(benchmark::State &state)
{
    CountingTap tap;
    accessResident(state, &tap);
    benchmark::DoNotOptimize(tap.accesses);
}
BENCHMARK(BM_AccessResidentSink);

/**
 * The fig16 machine: wss 32768 at local:CXL 1:4 under TPP, running
 * `profile` (built for that wss), warmed for one simulated second of
 * batches with `mode` picking the loop that draws its accesses. The
 * clock steps by a batch's duration, as the workload driver steps it.
 */
struct Fig16Workload {
    static constexpr std::uint64_t kWss = 32768;

    EventQueue eq;
    MemorySystem mem;
    Kernel kernel;
    SyntheticWorkload wl;

    Fig16Workload(WorkloadProfile profile, SyntheticWorkload::DrawAhead mode)
        : mem(TopologyBuilder::cxlSystem(local(), total() - local())),
          kernel(mem, eq, std::make_unique<TppPolicy>()),
          wl(std::move(profile))
    {
        setLogVerbose(false);
        kernel.start();
        SyntheticWorkload::setDrawAheadForTest(mode);
        wl.init(kernel);
        while (!wl.warmedUp() || eq.now() < kSecond)
            step(wl.runBatch(kernel).durationNs);
    }
    ~Fig16Workload()
    {
        SyntheticWorkload::setDrawAheadForTest(
            SyntheticWorkload::DrawAhead::Auto);
    }

    static std::uint64_t
    total()
    {
        return static_cast<std::uint64_t>(static_cast<double>(kWss) * 1.03);
    }
    static std::uint64_t local() { return total() / 5; }

    /** Run the event queue over `ns` of simulated time (at least 1). */
    void
    step(double ns)
    {
        eq.run(eq.now() + std::max<Tick>(1, static_cast<Tick>(ns)));
    }
};

/**
 * The layer that takes most of the host time in figure runs: one cache1
 * operation batch (access generation, Kernel::access, the latency
 * model) on the fig16 machine, with the timer paused while the policy
 * daemons run between batches. `mode` picks the loop that draws it.
 */
void
syntheticBatch(benchmark::State &state, SyntheticWorkload::DrawAhead mode)
{
    Fig16Workload fig(profiles::cache1(Fig16Workload::kWss), mode);
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        const BatchResult batch = fig.wl.runBatch(fig.kernel);
        benchmark::DoNotOptimize(batch);
        accesses += batch.accesses;
        state.PauseTiming();
        fig.step(batch.durationNs);
        state.ResumeTiming();
    }
    state.counters["accesses_per_sec"] = benchmark::Counter(
        static_cast<double>(accesses), benchmark::Counter::kIsRate);
}

/** A batch on the inline loop, which sweeps with a job per CPU take. */
void
BM_SyntheticBatch(benchmark::State &state)
{
    syntheticBatch(state, SyntheticWorkload::DrawAhead::Never);
}
BENCHMARK(BM_SyntheticBatch)->Unit(benchmark::kMicrosecond);

/** Skip `state` where the draw stream has no second CPU to run on. */
bool
skipWithoutSecondCpu(benchmark::State &state)
{
    if (allowedCpus() >= 2)
        return false;
    state.SkipWithError("skipped: the draw stream needs a second CPU, and "
                        "this process has one");
    return true;
}

/** A batch drawn by the draw stream on a second CPU. */
void
BM_SyntheticBatchAhead(benchmark::State &state)
{
    if (!skipWithoutSecondCpu(state))
        syntheticBatch(state, SyntheticWorkload::DrawAhead::Always);
}
BENCHMARK(BM_SyntheticBatchAhead)->Unit(benchmark::kMicrosecond);

/**
 * Open-loop service calls drawn by the draw stream on a second CPU:
 * phased's calls of one or two ops (four accesses each) on the fig16
 * machine. Each iteration makes 256 calls at one tick, then the clock
 * steps by their summed duration with the timer paused, so the stream
 * parks and rewinds wherever a step reaches a rotation step, phase edge
 * or transient allocation.
 */
void
BM_SyntheticServiceCalls(benchmark::State &state)
{
    if (skipWithoutSecondCpu(state))
        return;
    Fig16Workload fig(profiles::phased(Fig16Workload::kWss),
                      SyntheticWorkload::DrawAhead::Always);
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        double duration = 0.0;
        for (std::uint64_t call = 0; call < 256; ++call) {
            const BatchResult r = fig.wl.runOps(fig.kernel, 1 + call % 2);
            accesses += r.accesses;
            duration += r.durationNs;
        }
        state.PauseTiming();
        fig.step(duration);
        state.ResumeTiming();
    }
    state.counters["accesses_per_sec"] = benchmark::Counter(
        static_cast<double>(accesses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SyntheticServiceCalls)->Unit(benchmark::kMicrosecond);

void
BM_OpenLoopService(benchmark::State &state)
{
    // The open-loop request path: Poisson arrivals at 200k requests/s,
    // the request queue, and one short service batch (four accesses per
    // request) at each driver event, with the kernel daemons running
    // between them. phased at wss 4096 on a 1:4 TPP machine, warmed for
    // one simulated second; each iteration serves 10 simulated ms.
    const std::uint64_t wss = 4096;
    const std::uint64_t total =
        static_cast<std::uint64_t>(static_cast<double>(wss) * 1.03);
    const std::uint64_t local = total / 5;
    EventQueue eq;
    MemorySystem mem(TopologyBuilder::cxlSystem(local, total - local));
    Kernel kernel(mem, eq, std::make_unique<TppPolicy>());
    setLogVerbose(false);
    kernel.start();
    SyntheticWorkload wl(profiles::phased(wss));
    DriverConfig cfg;
    cfg.runUntil = 1000 * kSecond;
    cfg.measureFrom = kSecond;
    cfg.openLoop.qps = 2.0e5;
    WorkloadDriver driver(kernel, wl, cfg);
    driver.start();
    eq.run(kSecond);

    for (auto _ : state)
        eq.run(eq.now() + 10 * kMillisecond);
    state.counters["requests_per_sec"] = benchmark::Counter(
        static_cast<double>(driver.windowRequests()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OpenLoopService)->Unit(benchmark::kMicrosecond);

void
BM_MinorFault(benchmark::State &state)
{
    Machine m(1 << 20, 1 << 20);
    const Vpn base =
        m.kernel.mmap(m.asid, 1 << 20, PageType::Anon, "bench");
    Vpn v = 0;
    for (auto _ : state) {
        if (v >= (1 << 20)) {
            state.PauseTiming();
            m.kernel.munmap(m.asid, base, 1 << 20);
            m.kernel.mmap(m.asid, 1 << 20, PageType::Anon, "bench");
            v = 0;
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(
            m.kernel.access(m.asid, base + v++, AccessKind::Store, 0));
    }
    state.counters["pages_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MinorFault);

void
BM_AllocFree(benchmark::State &state)
{
    Machine m;
    const Vpn base = m.kernel.mmap(m.asid, 1, PageType::Anon, "bench");
    for (auto _ : state) {
        m.kernel.access(m.asid, base, AccessKind::Store, 0);
        m.kernel.freeFrame(m.kernel.addressSpace(m.asid).pte(base).pfn);
    }
}
BENCHMARK(BM_AllocFree);

void
BM_LruActivateDeactivate(benchmark::State &state)
{
    Machine m;
    const Vpn base = m.kernel.mmap(m.asid, 512, PageType::Anon, "bench");
    for (Vpn v = 0; v < 512; ++v)
        m.kernel.access(m.asid, base + v, AccessKind::Store, 0);
    const Pfn pfn = m.kernel.addressSpace(m.asid).pte(base).pfn;
    LruSet &lru = m.kernel.lru(m.mem.frame(pfn).nid);
    for (auto _ : state) {
        lru.activate(pfn);
        lru.deactivate(pfn);
    }
    state.counters["lru_ops_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 2.0,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LruActivateDeactivate);

void
BM_MigratePage(benchmark::State &state)
{
    Machine m;
    const Vpn base = m.kernel.mmap(m.asid, 256, PageType::Anon, "bench");
    for (Vpn v = 0; v < 256; ++v)
        m.kernel.access(m.asid, base + v, AccessKind::Store, 0);
    const NodeId cxl = m.mem.cxlNodes().front();
    const NodeId local = m.mem.cpuNodes().front();
    bool to_cxl = true;
    for (auto _ : state) {
        const Pfn pfn = m.kernel.addressSpace(m.asid).pte(base).pfn;
        benchmark::DoNotOptimize(m.kernel.migratePage(
            pfn, to_cxl ? cxl : local, AllocReason::Demotion));
        to_cxl = !to_cxl;
    }
}
BENCHMARK(BM_MigratePage);

void
BM_ReclaimScan(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        Machine m(2048, 65536);
        const Vpn base =
            m.kernel.mmap(m.asid, 1800, PageType::Anon, "bench");
        for (Vpn v = 0; v < 1800; ++v)
            m.kernel.access(m.asid, base + v, AccessKind::Store, 0);
        state.ResumeTiming();
        benchmark::DoNotOptimize(m.kernel.directReclaim(0, 64));
    }
    state.counters["pages_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 64.0,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReclaimScan)->Unit(benchmark::kMicrosecond);

void
BM_NumaSample(benchmark::State &state)
{
    Machine m(8192, 8192, std::make_unique<TppPolicy>());
    const Vpn base = m.kernel.mmap(m.asid, 4096, PageType::Anon, "bench");
    for (Vpn v = 0; v < 4096; ++v)
        m.kernel.access(m.asid, base + v, AccessKind::Store, 0);
    const NodeId local = m.mem.cpuNodes().front();
    for (auto _ : state)
        benchmark::DoNotOptimize(m.kernel.sampleNode(local, 64));
}
BENCHMARK(BM_NumaSample);

void
BM_AdaptiveWindowTick(benchmark::State &state)
{
    // Per-window cost of the adaptive tuner's profile/infer step:
    // vmstat snapshot differencing, objective scoring, touch-filter
    // epoch upkeep and the occasional knob step through the sysctl
    // surface. Every enabled window pays this whether or not a knob
    // moves, so the perf-gate entry for it reads direction LOWER
    // (seconds per window, smaller is better) rather than as a rate.
    PolicyParams params;
    params.adaptive.enable = true;
    params.adaptive.windowPeriod = 1 * kMillisecond;
    Machine m(8192, 8192, std::make_unique<AdaptivePolicy>(params));
    const Vpn base = m.kernel.mmap(m.asid, 2048, PageType::Anon, "bench");
    for (Vpn v = 0; v < 2048; ++v)
        m.kernel.access(m.asid, base + v, AccessKind::Store, 0);
    for (auto _ : state)
        m.eq.run(m.eq.now() + 1 * kMillisecond);
    state.counters["sec_per_window"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_AdaptiveWindowTick);

// ---------------------------------------------------------------------
// End-to-end throughput: whole passes over a large footprint under TPP,
// exercising fault, watermark reclaim/demotion, NUMA sampling and
// promotion together — the paths the SoA frame table and the sharded
// engine were built for. The footprint defaults to 2^18 pages (1 GiB)
// so CI stays fast; set TPP_E2E_PAGES (e.g. 33554432 for a 32M-page,
// 128 GiB machine) to reproduce the large-footprint numbers quoted in
// README "Performance & perf gate".
// ---------------------------------------------------------------------

/** Footprint for the BM_E2E* passes, in pages. */
std::uint64_t
e2ePages()
{
    if (const char *env = std::getenv("TPP_E2E_PAGES")) {
        char *end = nullptr;
        const unsigned long long pages = std::strtoull(env, &end, 0);
        if (end != env && *end == '\0' && pages > 0)
            return pages;
    }
    return 1ULL << 18;
}

/** A 2:1 tiered machine with 3% headroom over `wss`, running TPP. */
struct E2EMachine {
    std::uint64_t wss;
    EventQueue eq;
    MemorySystem mem;
    Kernel kernel;
    Asid asid;
    Vpn base;

    explicit E2EMachine(std::uint64_t wss_pages)
        : wss(wss_pages),
          mem(TopologyBuilder::cxlSystem(
              static_cast<std::uint64_t>(
                  static_cast<double>(wss_pages) * 1.03 * (2.0 / 3.0)),
              static_cast<std::uint64_t>(
                  static_cast<double>(wss_pages) * 1.03) -
                  static_cast<std::uint64_t>(static_cast<double>(
                      wss_pages) * 1.03 * (2.0 / 3.0)))),
          kernel(mem, eq, std::make_unique<TppPolicy>()),
          asid(kernel.createProcess()),
          base(kernel.mmap(asid, wss_pages, PageType::Anon, "bench"))
    {
        setLogVerbose(false);
        kernel.start();
    }

    /** Touch every page once, stepping the clock so daemons run. */
    void
    sweep(AccessKind kind)
    {
        for (Vpn v = 0; v < wss; ++v) {
            kernel.access(asid, base + v, kind, 0);
            eq.run(eq.now() + 200);
        }
    }
};

void
BM_E2EFaultReclaim(benchmark::State &state)
{
    // Cold pass: every access faults, and the local tier fills at 2/3
    // of the footprint, so the back third of the sweep runs against
    // active watermark reclaim and demotion.
    const std::uint64_t pages = e2ePages();
    for (auto _ : state) {
        state.PauseTiming();
        auto m = std::make_unique<E2EMachine>(pages);
        state.ResumeTiming();
        m->sweep(AccessKind::Store);
    }
    state.counters["pages_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(pages),
        benchmark::Counter::kIsRate);
    state.counters["footprint_pages"] = benchmark::Counter(
        static_cast<double>(pages));
}
BENCHMARK(BM_E2EFaultReclaim)->Unit(benchmark::kMillisecond);

void
BM_E2EPromoteChurn(benchmark::State &state)
{
    // Steady state: the machine is warm, so each pass re-touches every
    // resident page — NUMA hint faults, promotions of CXL pages the
    // sweep keeps hitting, and the demotions they displace.
    const std::uint64_t pages = e2ePages();
    E2EMachine m(pages);
    m.sweep(AccessKind::Store);
    for (auto _ : state)
        m.sweep(AccessKind::Load);
    state.counters["pages_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(pages),
        benchmark::Counter::kIsRate);
    state.counters["footprint_pages"] = benchmark::Counter(
        static_cast<double>(pages));
}
BENCHMARK(BM_E2EPromoteChurn)->Unit(benchmark::kMillisecond);

void
BM_E2EPromoteDemoteChurn(benchmark::State &state)
{
    // Worst-case ping-pong: the sweep alternates between the two halves
    // of a footprint that does not fit the local tier, so the half just
    // promoted is exactly what the next half's promotions displace. Runs
    // with vm.ppt.enable=1 so every migration request crosses the PPT
    // admission check with a populated history table — this is the perf
    // gate's coverage of the new per-page admission dimension.
    const std::uint64_t pages = e2ePages();
    E2EMachine m(pages);
    m.kernel.sysctl().set("vm.ppt.enable", "1");
    m.sweep(AccessKind::Store);
    const std::uint64_t half = m.wss / 2;
    bool low = true;
    for (auto _ : state) {
        const Vpn start = low ? 0 : half;
        for (Vpn v = 0; v < half; ++v) {
            m.kernel.access(m.asid, m.base + start + v, AccessKind::Load,
                            0);
            m.eq.run(m.eq.now() + 200);
        }
        low = !low;
    }
    state.counters["pages_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(half),
        benchmark::Counter::kIsRate);
    state.counters["footprint_pages"] = benchmark::Counter(
        static_cast<double>(pages));
}
BENCHMARK(BM_E2EPromoteDemoteChurn)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
