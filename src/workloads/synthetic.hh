/**
 * @file
 * Configurable synthetic workload engine.
 *
 * The production workloads of §3.2 (Web, Cache1, Cache2, Data
 * Warehouse) are expressed as WorkloadProfile instances over this one
 * engine: a set of memory regions, each with its own page type, hot-set
 * size, access skew, hot-set drift (re-access behaviour), growth and
 * churn, plus optional short-lived request allocations. The published
 * characterisation (Figures 7-11) provides the parameter targets; see
 * profiles.hh for the per-workload values.
 */

#ifndef TPP_WORKLOADS_SYNTHETIC_HH
#define TPP_WORKLOADS_SYNTHETIC_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/distributions.hh"
#include "sim/rng.hh"
#include "sim/types.hh"
#include "workloads/driver.hh"
#include "workloads/workload.hh"

namespace tpp {

/** Static description of one memory region. */
struct RegionSpec {
    std::string label = "region";
    PageType type = PageType::Anon;
    /** File regions backed by real files (droppable); tmpfs passes false. */
    bool diskBacked = false;
    /** Full reservation in pages. */
    std::uint64_t pages = 0;
    /** Fraction of the region in use at t=0. */
    double initialActiveFraction = 1.0;
    /** Active-set growth in pages per simulated second. */
    double growthPagesPerSec = 0.0;
    /** Relative share of the workload's references hitting this region. */
    double accessWeight = 1.0;
    /** Hot-window size as a fraction of the active pages. */
    double hotFraction = 0.2;
    /** Probability that a reference targets the hot window. */
    double hotAccessShare = 0.9;
    /**
     * Probability that a reference targets the "echo zone": the
     * window-sized span of recently-cooled pages trailing the hot
     * window. This produces the short cold-to-hot re-access gaps of
     * Fig 11 without sweeping the bulk hot set around the region.
     */
    double echoShare = 0.0;
    /** Zipf skew inside the hot window. */
    double zipfTheta = 0.9;
    /** Probability a reference is a store. */
    double storeShare = 0.3;
    /** Hot-window drift cadence; 0 keeps the hot set static. */
    Tick rotationPeriod = 0;
    /** Fraction of the hot window the drift advances by. */
    double rotationStep = 0.05;
    /**
     * Anchor the hot window at the allocation frontier while the region
     * grows: newly allocated pages are the hot ones (§5.2 "new
     * allocations are often related to request processing and,
     * therefore, both short-lived and hot").
     */
    bool hotFollowsGrowth = false;
    /** Touch all pages sequentially during warm-up (file preloading). */
    bool sequentialWarmup = false;
    /** Drop and reallocate the whole region periodically (batch stages). */
    Tick churnPeriod = 0;
    /** Offset of the first churn, to stagger multi-region stages. */
    Tick churnPhase = 0;
    /**
     * Touch the whole region right after each churn (a batch stage
     * reads its inputs up front, so the fresh data set is resident
     * almost immediately).
     */
    bool populateOnChurn = false;
    /**
     * Phase gating: when > 0 the region's accessWeight is live only
     * during the first `phaseDuty` of each period (shifted by
     * `phaseOffset`); off-phase it falls to accessWeight *
     * phaseOffWeight. Gating two region groups in anti-phase yields the
     * cache→churn→cache alternation the adaptive-policy ablation runs.
     * Regions with phasePeriod == 0 are untouched, and the engine
     * recomputes its weight table only when at least one region is
     * phased, so non-phased workloads stay bit-identical.
     */
    Tick phasePeriod = 0;
    /** On-phase share of each period, in (0, 1]. */
    double phaseDuty = 0.5;
    /** Shift of the phase window (anti-phase = period * duty). */
    Tick phaseOffset = 0;
    /** Off-phase multiplier on accessWeight (residual touches). */
    double phaseOffWeight = 0.0;
};

/** Short-lived request allocations (Web's per-request pages, §5.2). */
struct TransientSpec {
    /** Regions allocated per simulated second; 0 disables. */
    double regionsPerSecond = 0.0;
    std::uint64_t regionPages = 16;
    Tick lifetime = 200 * kMillisecond;
    /** Touches per page right after allocation. */
    double touchesPerPage = 2.0;
};

/** Full description of a synthetic workload. */
struct WorkloadProfile {
    std::string name = "synthetic";
    std::vector<RegionSpec> regions;
    TransientSpec transient;
    /** CPU time per application operation. */
    double thinkTimePerOpNs = 500.0;
    /** Memory references per operation. */
    std::uint32_t accessesPerOp = 4;
    /** Operations per scheduling batch. */
    std::uint64_t opsPerBatch = 2000;
    /** Pages touched per warm-up batch. */
    std::uint64_t warmupChunkPages = 4096;
    /**
     * Offered-load ramp: the service starts at `loadRampStart` of its
     * full request rate and reaches 100 % after `loadRampSeconds`
     * (Fig 10: throughput and memory utilisation rise together as the
     * service warms into its traffic).
     */
    double loadRampSeconds = 0.0;
    double loadRampStart = 1.0;
    std::uint64_t seed = 1;
};

/**
 * The entry a weighted draw picks from a non-decreasing prefix table of
 * `count` >= 1 entries: min(lower_bound(pick) - prefix, count - 1).
 * Branch-free: halving steps whose number depends on `count` alone move
 * the base by a conditional add, so a random pick never mispredicts.
 */
inline std::size_t
pickWeighted(const double *prefix, std::size_t count, double pick)
{
    const double *base = prefix;
    for (std::size_t n = count; n > 1;) {
        const std::size_t half = n / 2;
        base += base[half] < pick ? half : 0;
        n -= half;
    }
    const std::size_t idx =
        static_cast<std::size_t>(base - prefix) + (*base < pick);
    return std::min(idx, count - 1);
}

/**
 * The synthetic workload engine.
 */
class SyntheticWorkload : public Workload
{
  public:
    explicit SyntheticWorkload(WorkloadProfile profile);
    /** Stops the draw stream's helper, if one started. */
    ~SyntheticWorkload() override;

    // The draw stream's helper holds `this`.
    SyntheticWorkload(const SyntheticWorkload &) = delete;
    SyntheticWorkload &operator=(const SyntheticWorkload &) = delete;

    std::string name() const override { return profile_.name; }

    void init(Kernel &kernel) override;
    BatchResult runBatch(Kernel &kernel) override;
    BatchResult runOps(Kernel &kernel, std::uint64_t ops) override;

    /** @return true once the sequential warm-up phase has finished. */
    bool
    warmedUp() const override
    {
        return warmupCursorRegion_ >= regions_.size();
    }

    Asid asid() const { return asid_; }
    const WorkloadProfile &profile() const { return profile_; }

    /** Sum of full reservations over all permanent regions. */
    std::uint64_t totalReservedPages() const;

    /** Which loop draws a workload's accesses. */
    enum class DrawAhead {
        Auto,   //!< the draw stream while a CPU is spare
        Never,  //!< the inline loop
        Always, //!< the draw stream, spare CPU or not
    };
    /** Test seam: set the choice for every synthetic workload (Auto). */
    static void setDrawAheadForTest(DrawAhead mode);
    /** @return true once the draw stream's helper thread exists. */
    bool helperStarted() const { return stream_ != nullptr; }

  private:
    /** A region's bookkeeping, which only the calling thread touches. */
    struct RegionState {
        RegionSpec spec;
        Tick createdAt = 0;
        Tick lastChurn = 0;
    };

    /**
     * What a draw reads and writes of one region: its base, sampling
     * geometry and Zipf state, plus the shares it draws with. While the
     * draw stream runs, its helper thread owns this (see Stream).
     */
    struct RegionDraw {
        Vpn base = 0;
        // Sampling geometry at the current call's tick, set by
        // refreshGeometry() whenever it moves; active 0 until then.
        std::uint64_t active = 0;   //!< pages in use
        std::uint64_t hotPages = 1; //!< hot-window size
        std::uint64_t hotStart = 0; //!< hot-window start, < active
        /** Rng::nextBounded's rejection threshold for `active`. */
        std::uint64_t uniformThreshold = 0;
        double hotShare = 0.0;       //!< spec.hotAccessShare
        double hotOrEchoShare = 0.0; //!< plus spec.echoShare
        double storeShare = 0.0;
        double zipfTheta = 0.0;
        /** The lazy Zipf rebuild check has run since the geometry last
         *  moved. */
        bool zipfChecked = false;
        /** Hot and echo offsets stay below 2 * active (set by the check). */
        bool wrapOnce = false;
        std::uint64_t cachedHotPages = 0;
        std::optional<ZipfDistribution> zipf;
    };

    struct TransientRegion {
        Vpn base;
        std::uint64_t pages;
        Tick diesAt;
    };

    /** Most accesses drawn in one go, and the size of a ring chunk. */
    static constexpr std::size_t kChunkAccesses = 256;
    /** No region: the draws went on to the end of the chunk. */
    static constexpr std::uint32_t kNoCheck = ~std::uint32_t{0};

    /** One access drawn ahead of its issue. */
    struct DrawnAccess {
        Vpn vpn;
        AccessKind kind;
    };

    double issueAccess(Kernel &kernel, Vpn vpn, AccessKind kind,
                       BatchResult &result);
    /** @return true when `spec` is inside its on-phase window at `now`. */
    bool regionPhaseOn(const RegionSpec &spec, Tick now) const;
    /**
     * The first tick after `now` at which `spec`'s phase state can
     * flip; may be early (never late) around a fractional on-window.
     */
    Tick nextPhaseEdge(const RegionSpec &spec, Tick now) const;
    /** Rebuild weightPrefix_ when any region's phase state flipped. */
    void refreshPhaseWeights(Tick now);
    /** Set every region's sampling geometry for a call at `now`,
     *  unless nothing it depends on can have moved since the last. */
    void refreshGeometry(Tick now);
    /** The lazy Zipf rebuild check of a region's first hot draw since
     *  its geometry moved. */
    void checkZipf(RegionDraw &region);
    Vpn sampleRegionVpn(RegionDraw &region, double roll, Rng &rng);
    /**
     * Draw up to `n` <= kChunkAccesses accesses into `out`, advancing
     * `rng`. The inline loop (kStopAtCheck false) runs the lazy Zipf
     * check where a draw needs it. The helper may not, so it stops
     * before such a draw instead, with `rng` at the draw's start and
     * the region's index in `check`.
     * @return the accesses drawn.
     */
    template <bool kStopAtCheck>
    std::size_t drawAccesses(DrawnAccess *out, std::size_t n, Rng &rng,
                             std::uint32_t &check);

    struct Stream;
    /**
     * The next `n` <= kChunkAccesses accesses, taken from the stream's
     * ring or drawn inline; `n` may come back smaller.
     */
    const DrawnAccess *nextAccesses(std::size_t &n);
    /** Start the stream if a CPU is spare (or the test seam says so),
     *  making its helper on first use. */
    bool startStream();
    /** Let the helper draw from the current draw state. */
    void startSession();
    /**
     * Stop the helper drawing and rewind rng_ to the first access not
     * yet issued; every preamble step that writes the draw state calls
     * this first. A later draw may start the stream again.
     */
    void parkStream();
    /** The helper thread's loop: run each session of the stream. */
    void drawAheadLoop(Stream &stream);
    std::uint64_t activePages(const RegionState &region, Tick now) const;
    double runWarmupChunk(Kernel &kernel, BatchResult &result);
    double maintainTransients(Kernel &kernel, Tick now,
                              BatchResult &result);
    double maintainChurn(Kernel &kernel, Tick now);

    WorkloadProfile profile_;
    ThinkTimeModel think_;
    Rng rng_;
    Asid asid_ = 0;
    bool inited_ = false;

    std::vector<RegionState> regions_;
    /** Each region's draw state, in regions_'s order. */
    std::vector<RegionDraw> draws_;
    std::vector<double> weightPrefix_;
    /** Accesses drawn inline. */
    std::array<DrawnAccess, kChunkAccesses> chunk_;
    /** The draw stream, made when it first starts. */
    std::unique_ptr<Stream> stream_;
    /** The next draw may start the stream: set at init and at every
     *  park point, so a refused stream retries there. */
    bool mayStart_ = true;
    /** Any region phase-gated? False keeps the legacy static table. */
    bool anyPhased_ = false;
    /** Bitmask of per-region on/off states the table was built for. */
    std::uint64_t phaseMask_ = ~std::uint64_t{0};
    /** phaseMask_ holds for every tick before this one. */
    Tick phaseValidUntil_ = 0;
    /**
     * Every region's geometry holds for every tick before this one: the
     * next rotation step, the next call while a region grows, or 0
     * after a churn.
     */
    Tick geometryValidUntil_ = 0;

    // Warm-up cursor.
    std::size_t warmupCursorRegion_ = 0;
    std::uint64_t warmupCursorPage_ = 0;

    // Transient allocations.
    std::deque<TransientRegion> transients_;
    double transientCredit_ = 0.0;
    Tick lastTransientTick_ = 0;
};

} // namespace tpp

#endif // TPP_WORKLOADS_SYNTHETIC_HH
