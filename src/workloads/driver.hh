/**
 * @file
 * Closed-loop workload driver.
 *
 * Schedules workload batches through the event queue (so kernel daemons
 * interleave with application progress), samples per-interval statistics
 * (traffic shares, promotion/demotion rates, residency, free pages) and
 * accounts throughput over a measurement window.
 */

#ifndef TPP_WORKLOADS_DRIVER_HH
#define TPP_WORKLOADS_DRIVER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"
#include "workloads/arrival.hh"
#include "workloads/latency.hh"
#include "workloads/workload.hh"

namespace tpp {

class Kernel;

/**
 * Per-operation think-time accounting, shared by every workload.
 *
 * Each workload used to carry its own copy of "CPU time per op,
 * optionally scaled by an offered-load ramp"; the duplicated arithmetic
 * lives here now. A ramp of 0 seconds divides by exactly 1.0, so
 * workloads without a ramp see their base think time bit-for-bit.
 */
class ThinkTimeModel
{
  public:
    ThinkTimeModel() = default;
    explicit ThinkTimeModel(double base_ns, double ramp_seconds = 0.0,
                            double ramp_start = 1.0)
        : baseNs_(base_ns), rampSeconds_(ramp_seconds),
          rampStart_(ramp_start)
    {
    }

    /** Think time per operation at simulated time `now`. */
    double perOpNs(Tick now) const;

    double baseNs() const { return baseNs_; }

  private:
    double baseNs_ = 0.0;
    double rampSeconds_ = 0.0;
    double rampStart_ = 1.0;
};

/** Driver configuration. */
struct DriverConfig {
    /** Stop issuing batches at this simulated time. */
    Tick runUntil = 10 * kSecond;
    /** Throughput/traffic accounting starts here (post warm-up/settle). */
    Tick measureFrom = 2 * kSecond;
    /** Cadence of the interval sampler. */
    Tick sampleEvery = 100 * kMillisecond;
    /** Open-loop traffic description; qps == 0 keeps the closed loop. */
    OpenLoopSpec openLoop;
    /** Seed for the arrival process RNG. */
    std::uint64_t openLoopSeed = 1;
    /** Max queued requests served per service batch (open loop). */
    std::uint64_t serviceBatchOps = 64;
};

/** One sampler observation. */
struct IntervalSample {
    Tick tick = 0;
    /** Fraction of interval accesses served by the first CPU node. */
    double localShare = 0.0;
    /** Promotion / demotion migration rates in pages per second. */
    double promotionRate = 0.0;
    double demotionRate = 0.0;
    /** Local-node allocation rate in pages per second. */
    double localAllocRate = 0.0;
    /** Free pages on the first CPU node. */
    std::uint64_t localFree = 0;
    /** Interval operation throughput in ops per second. */
    double throughput = 0.0;
    /** Requests waiting in the open-loop queue (0 when closed-loop). */
    std::uint64_t queueDepth = 0;
    /** Resident pages by type across all processes (Fig 9/10). */
    std::uint64_t anonResident = 0;
    std::uint64_t fileResident = 0;
    /** Resident pages by type on the first CPU node. */
    std::uint64_t anonOnLocal = 0;
    std::uint64_t fileOnLocal = 0;
};

/**
 * Runs one workload against one kernel to completion.
 */
class WorkloadDriver
{
  public:
    WorkloadDriver(Kernel &kernel, Workload &workload, DriverConfig cfg);

    /** Schedule the run; the caller then drives the event queue. */
    void start();

    /** Convenience: start() and run the event queue to completion. */
    void runToCompletion();

    // ---- results ------------------------------------------------------

    /** Ops per second inside the measurement window. */
    double throughput() const;

    /** Ops completed inside the measurement window. */
    std::uint64_t measuredOps() const { return measuredOps_; }

    /** Mean access latency inside the window (ns per access). */
    double meanAccessLatencyNs() const;

    /** Fraction of window accesses served by node `nid`. */
    double trafficShare(NodeId nid) const;

    const std::vector<IntervalSample> &samples() const { return samples_; }

    /** True once the workload finished its warm-up (if it has one). */
    bool sawWarmupEnd() const { return warmupEnded_; }
    Tick warmupEndTick() const { return warmupEndTick_; }

    // ---- open-loop results --------------------------------------------

    /** True when the driver ran an open-loop request stream. */
    bool openLoop() const { return cfg_.openLoop.enabled(); }

    /** Per-request latencies observed inside the window. */
    const LatencyHistogram &requestLatency() const { return windowLatency_; }

    /** Requests completed inside the window. */
    std::uint64_t windowRequests() const { return windowLatency_.count(); }

    /** Window requests that met the p99 SLO (all, when no SLO is set). */
    std::uint64_t windowSloMet() const { return windowSloMet_; }

    /** Arrivals shed inside the window because the queue was full. */
    std::uint64_t windowDropped() const { return windowDropped_; }

    /** Time-weighted mean queue depth over the window. */
    double meanQueueDepth() const;

    /** Peak queue depth observed inside the window. */
    std::uint64_t maxQueueDepth() const { return maxQueueDepth_; }

    /** SLO-meeting completions per second inside the window. */
    double goodputQps() const;

    /** Fraction of window arrivals that met the SLO (drops miss). */
    double sloAttainment() const;

  private:
    void batchTick();
    void openLoopTick();
    /**
     * Serve one open-loop event at now(): a warm-up batch, admission
     * and a service batch, or nothing while idle.
     * @return the tick of the driver's next event, or kMaxTick when
     *         it has none.
     */
    Tick serveOpenLoop();
    void sampleTick();
    void beginMeasurement();

    Kernel &kernel_;
    Workload &workload_;
    DriverConfig cfg_;

    bool measuring_ = false;
    std::uint64_t measuredOps_ = 0;
    Tick measureStartActual_ = 0;
    Tick lastBatchEnd_ = 0;
    double windowAccessLatencySum_ = 0.0;
    std::uint64_t windowAccessCount_ = 0;

    bool warmupEnded_ = false;
    Tick warmupEndTick_ = 0;

    // Open-loop state.
    std::unique_ptr<ArrivalProcess> arrivals_;
    std::deque<Tick> pending_;
    bool arrivalsStarted_ = false;
    Tick nextArrivalAt_ = 0;
    LatencyHistogram windowLatency_;
    std::uint64_t windowSloMet_ = 0;
    std::uint64_t windowDropped_ = 0;
    std::uint64_t droppedTotal_ = 0;
    double queueDepthIntegral_ = 0.0;
    Tick queueDepthFrom_ = 0;
    std::uint64_t maxQueueDepth_ = 0;

    std::vector<IntervalSample> samples_;
    // Sampler deltas.
    std::uint64_t lastLocalAccesses_ = 0;
    std::uint64_t lastTotalAccesses_ = 0;
    std::uint64_t lastPromotions_ = 0;
    std::uint64_t lastDemotions_ = 0;
    std::uint64_t lastLocalAllocs_ = 0;
    std::uint64_t lastOps_ = 0;
    std::uint64_t totalOps_ = 0;
    Tick lastSampleTick_ = 0;

    std::vector<std::uint64_t> trafficAtMeasureStart_;
};

} // namespace tpp

#endif // TPP_WORKLOADS_DRIVER_HH
