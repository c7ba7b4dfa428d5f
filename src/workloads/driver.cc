#include "workloads/driver.hh"

#include <algorithm>

#include "mm/kernel.hh"
#include "sim/logging.hh"

namespace tpp {

namespace {

/**
 * Open-loop queue bound. Arrivals beyond this are shed (and counted as
 * SLO misses): an overloaded run's tail is unbounded either way, and
 * the cap keeps a 20-second overload from holding gigabytes of
 * timestamps.
 */
constexpr std::size_t kMaxPendingRequests = 1u << 20;

} // namespace

double
ThinkTimeModel::perOpNs(Tick now) const
{
    // Offered-load ramp: lighter load means more think time per op.
    double load = 1.0;
    if (rampSeconds_ > 0.0) {
        const double elapsed =
            static_cast<double>(now) / static_cast<double>(kSecond);
        const double progress = std::min(1.0, elapsed / rampSeconds_);
        load = rampStart_ + (1.0 - rampStart_) * progress;
    }
    return baseNs_ / load;
}

WorkloadDriver::WorkloadDriver(Kernel &kernel, Workload &workload,
                               DriverConfig cfg)
    : kernel_(kernel), workload_(workload), cfg_(cfg)
{
    if (cfg_.measureFrom > cfg_.runUntil)
        tpp_fatal("driver measurement window starts after the run ends");
    if (cfg_.openLoop.enabled())
        arrivals_ = ArrivalProcess::make(cfg_.openLoop, cfg_.openLoopSeed);
}

void
WorkloadDriver::start()
{
    workload_.init(kernel_);
    EventQueue &eq = kernel_.eventQueue();
    lastSampleTick_ = eq.now();
    if (arrivals_)
        eq.scheduleAfter(0, [this] { openLoopTick(); });
    else
        eq.scheduleAfter(0, [this] { batchTick(); });
    eq.scheduleAfter(cfg_.sampleEvery, [this] { sampleTick(); });
    eq.schedule(cfg_.measureFrom, [this] { beginMeasurement(); });
}

void
WorkloadDriver::runToCompletion()
{
    start();
    kernel_.eventQueue().run(cfg_.runUntil);
}

void
WorkloadDriver::batchTick()
{
    EventQueue &eq = kernel_.eventQueue();
    if (eq.now() >= cfg_.runUntil || workload_.done())
        return;

    const bool was_warm = workload_.warmedUp();
    const BatchResult result = workload_.runBatch(kernel_);
    if (!warmupEnded_ && !was_warm && workload_.warmedUp()) {
        warmupEnded_ = true;
        warmupEndTick_ = eq.now();
    }

    totalOps_ += result.ops;
    if (measuring_) {
        measuredOps_ += result.ops;
        windowAccessLatencySum_ += result.memLatencyNs;
        windowAccessCount_ += result.accesses;
    }

    const Tick duration =
        std::max<Tick>(1, static_cast<Tick>(result.durationNs));
    lastBatchEnd_ = eq.now() + duration;
    eq.scheduleAfter(duration, [this] { batchTick(); });
}

void
WorkloadDriver::openLoopTick()
{
    // Serve the driver's own next event in place while it would be the
    // next one popped anyway; queue it only when something else is due
    // first (or the run's horizon ends the loop).
    EventQueue &eq = kernel_.eventQueue();
    Tick next;
    do {
        next = serveOpenLoop();
        if (next == kMaxTick)
            return;
    } while (eq.serveInline(next));
    eq.schedule(next, [this] { openLoopTick(); });
}

Tick
WorkloadDriver::serveOpenLoop()
{
    EventQueue &eq = kernel_.eventQueue();
    const Tick now = eq.now();
    if (now >= cfg_.runUntil || workload_.done())
        return kMaxTick;

    // Finish any warm-up closed-loop before admitting traffic; an
    // open-loop stream against an unpopulated working set would only
    // measure fault latency.
    if (!workload_.warmedUp()) {
        const BatchResult result = workload_.runBatch(kernel_);
        if (!warmupEnded_ && workload_.warmedUp()) {
            warmupEnded_ = true;
            warmupEndTick_ = eq.now();
        }
        const Tick duration =
            std::max<Tick>(1, static_cast<Tick>(result.durationNs));
        lastBatchEnd_ = now + duration;
        return now + duration;
    }

    if (!arrivalsStarted_) {
        arrivalsStarted_ = true;
        nextArrivalAt_ = now + arrivals_->nextGap(now);
    }

    // Admit every arrival due by now. The stream does not wait for the
    // service: when batches run long the queue grows, and that queueing
    // delay is exactly what the latency tail measures.
    while (nextArrivalAt_ <= now) {
        if (pending_.size() < kMaxPendingRequests) {
            pending_.push_back(nextArrivalAt_);
        } else {
            droppedTotal_++;
            if (measuring_)
                windowDropped_++;
        }
        nextArrivalAt_ += arrivals_->nextGap(nextArrivalAt_);
    }

    if (measuring_) {
        queueDepthIntegral_ += static_cast<double>(pending_.size()) *
                               static_cast<double>(now - queueDepthFrom_);
        queueDepthFrom_ = now;
        maxQueueDepth_ = std::max<std::uint64_t>(maxQueueDepth_,
                                                 pending_.size());
    }

    if (pending_.empty()) {
        // Idle until the next arrival.
        if (nextArrivalAt_ >= cfg_.runUntil)
            return kMaxTick;
        return nextArrivalAt_;
    }

    const std::uint64_t n = std::min<std::uint64_t>(
        pending_.size(), std::max<std::uint64_t>(1, cfg_.serviceBatchOps));
    const BatchResult result = workload_.runOps(kernel_, n);

    totalOps_ += result.ops;
    if (measuring_) {
        measuredOps_ += result.ops;
        windowAccessLatencySum_ += result.memLatencyNs;
        windowAccessCount_ += result.accesses;
    }

    const Tick duration =
        std::max<Tick>(1, static_cast<Tick>(result.durationNs));
    const std::uint64_t served =
        std::min<std::uint64_t>(result.ops, pending_.size());
    const double slo_ns = cfg_.openLoop.sloP99Us * 1000.0;
    for (std::uint64_t i = 0; i < served; ++i) {
        const Tick arrived = pending_.front();
        pending_.pop_front();
        // Completions spread linearly across the batch.
        const Tick completed =
            now + static_cast<Tick>(
                      static_cast<double>(duration) *
                      static_cast<double>(i + 1) /
                      static_cast<double>(served));
        const double latency_ns =
            static_cast<double>(completed - std::min(arrived, completed));
        if (measuring_) {
            windowLatency_.record(latency_ns);
            if (slo_ns <= 0.0 || latency_ns <= slo_ns)
                windowSloMet_++;
        }
    }

    lastBatchEnd_ = now + duration;
    return now + duration;
}

void
WorkloadDriver::beginMeasurement()
{
    measuring_ = true;
    measureStartActual_ = kernel_.eventQueue().now();
    queueDepthFrom_ = measureStartActual_;
    trafficAtMeasureStart_.clear();
    for (std::size_t i = 0; i < kernel_.mem().numNodes(); ++i) {
        trafficAtMeasureStart_.push_back(
            kernel_.traffic(static_cast<NodeId>(i)).accesses);
    }
}

void
WorkloadDriver::sampleTick()
{
    EventQueue &eq = kernel_.eventQueue();
    const Tick now = eq.now();
    const double dt_sec = static_cast<double>(now - lastSampleTick_) /
                          static_cast<double>(kSecond);
    lastSampleTick_ = now;

    // "Local" aggregates every toptier node: on a multi-socket machine
    // socket-1 traffic is just as local as socket-0's.
    std::uint64_t local_acc = 0;
    std::uint64_t local_allocs = 0;
    for (NodeId nid : kernel_.mem().tiers().toptierNodes()) {
        local_acc += kernel_.traffic(nid).accesses;
        local_allocs += kernel_.traffic(nid).appAllocs;
    }
    std::uint64_t total_acc = 0;
    for (std::size_t i = 0; i < kernel_.mem().numNodes(); ++i)
        total_acc += kernel_.traffic(static_cast<NodeId>(i)).accesses;

    const VmStat &vs = kernel_.vmstat();
    const std::uint64_t promos = vs.get(Vm::PgPromoteSuccess);
    const std::uint64_t demos =
        vs.get(Vm::PgDemoteAnon) + vs.get(Vm::PgDemoteFile);

    IntervalSample sample;
    sample.tick = now;
    const std::uint64_t d_total = total_acc - lastTotalAccesses_;
    const std::uint64_t d_local = local_acc - lastLocalAccesses_;
    sample.localShare =
        d_total ? static_cast<double>(d_local) /
                      static_cast<double>(d_total)
                : 0.0;
    if (dt_sec > 0.0) {
        sample.promotionRate =
            static_cast<double>(promos - lastPromotions_) / dt_sec;
        sample.demotionRate =
            static_cast<double>(demos - lastDemotions_) / dt_sec;
        sample.localAllocRate =
            static_cast<double>(local_allocs - lastLocalAllocs_) / dt_sec;
        sample.throughput =
            static_cast<double>(totalOps_ - lastOps_) / dt_sec;
    }
    sample.queueDepth = pending_.size();
    for (std::size_t p = 0; p < kernel_.numProcesses(); ++p) {
        const AddressSpace &as =
            kernel_.addressSpace(static_cast<Asid>(p));
        sample.anonResident += as.residentPages(PageType::Anon);
        sample.fileResident += as.residentPages(PageType::File);
    }
    for (NodeId nid : kernel_.mem().tiers().toptierNodes()) {
        sample.localFree += kernel_.mem().node(nid).freePages();
        sample.anonOnLocal += kernel_.residentPages(nid, PageType::Anon);
        sample.fileOnLocal += kernel_.residentPages(nid, PageType::File);
    }
    samples_.push_back(sample);

    lastLocalAccesses_ = local_acc;
    lastTotalAccesses_ = total_acc;
    lastPromotions_ = promos;
    lastDemotions_ = demos;
    lastLocalAllocs_ = local_allocs;
    lastOps_ = totalOps_;

    if (now + cfg_.sampleEvery <= cfg_.runUntil)
        eq.scheduleAfter(cfg_.sampleEvery, [this] { sampleTick(); });
}

double
WorkloadDriver::throughput() const
{
    if (lastBatchEnd_ <= measureStartActual_ || measuredOps_ == 0)
        return 0.0;
    const double seconds =
        static_cast<double>(lastBatchEnd_ - measureStartActual_) /
        static_cast<double>(kSecond);
    return static_cast<double>(measuredOps_) / seconds;
}

double
WorkloadDriver::meanAccessLatencyNs() const
{
    if (windowAccessCount_ == 0)
        return 0.0;
    return windowAccessLatencySum_ /
           static_cast<double>(windowAccessCount_);
}

double
WorkloadDriver::meanQueueDepth() const
{
    if (queueDepthFrom_ <= measureStartActual_)
        return 0.0;
    return queueDepthIntegral_ /
           static_cast<double>(queueDepthFrom_ - measureStartActual_);
}

double
WorkloadDriver::goodputQps() const
{
    if (lastBatchEnd_ <= measureStartActual_ || windowSloMet_ == 0)
        return 0.0;
    const double seconds =
        static_cast<double>(lastBatchEnd_ - measureStartActual_) /
        static_cast<double>(kSecond);
    return static_cast<double>(windowSloMet_) / seconds;
}

double
WorkloadDriver::sloAttainment() const
{
    const std::uint64_t offered = windowLatency_.count() + windowDropped_;
    if (offered == 0)
        return 1.0;
    return static_cast<double>(windowSloMet_) /
           static_cast<double>(offered);
}

double
WorkloadDriver::trafficShare(NodeId nid) const
{
    if (trafficAtMeasureStart_.empty())
        return kernel_.trafficShare(nid);
    std::uint64_t total = 0;
    std::uint64_t mine = 0;
    for (std::size_t i = 0; i < kernel_.mem().numNodes(); ++i) {
        const std::uint64_t delta =
            kernel_.traffic(static_cast<NodeId>(i)).accesses -
            trafficAtMeasureStart_[i];
        total += delta;
        if (static_cast<NodeId>(i) == nid)
            mine = delta;
    }
    if (total == 0)
        return 0.0;
    return static_cast<double>(mine) / static_cast<double>(total);
}

} // namespace tpp
