/**
 * @file
 * Declarative parameter blocks for the built-in placement policies.
 *
 * These live with the PlacementPolicy *interface* in src/mm rather than
 * with the policy *implementations* so that config-consuming layers
 * (the experiment harness, benches, tests) can describe a run without
 * pulling in any policy behaviour: `harness/experiment.hh` includes
 * this header only, and the policies themselves are reached through the
 * PolicyRegistry at run time.
 */

#ifndef TPP_MM_POLICY_PARAMS_HH
#define TPP_MM_POLICY_PARAMS_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace tpp {

/**
 * NUMA-balancing operating mode (§5.3). Classic is the pre-TPP
 * behaviour (sample everything, promote towards the faulting CPU);
 * Tiered is NUMA_BALANCING_TIERED. A system started in Classic mode
 * with only a single local node online is automatically downgraded to
 * Tiered, exactly as the paper describes.
 */
enum class NumaMode : std::uint8_t {
    AutoDetect, //!< Tiered whenever a CPU-less node exists
    Tiered,
    Classic,
};

/**
 * TPP tunables. Defaults correspond to the full mechanism as evaluated;
 * the boolean switches exist for the component ablations of §6.3.
 */
struct TppConfig {
    NumaMode mode = NumaMode::AutoDetect;
    /** /proc/sys/vm/demote_scale_factor, percent of node capacity. */
    double demoteScaleFactor = 2.0;
    /** §5.2 decoupled watermarks; off = classic coupled reclaim. */
    bool decoupleWatermarks = true;
    /**
     * Chain middle-tier reclaim downward through the tier hierarchy
     * (cxl -> cxl-far -> swap); off = only toptier nodes demote and
     * every CPU-less tier swaps, the pre-hierarchy behaviour.
     */
    bool demoteChain = true;
    /** §5.3 active-LRU promotion filter; off = instant promotion. */
    bool activeLruFilter = true;
    /** §5.3 promotion ignores the allocation watermark. */
    bool promotionIgnoresWatermark = true;
    /** §5.4 allocate file/tmpfs pages on the CXL node preferably. */
    bool typeAwareAllocation = false;
    /** CXL-node hint-fault sampling cadence. */
    Tick scanPeriod = 20 * kMillisecond;
    std::uint64_t scanBatch = 512;
    /**
     * Extension (upstream follow-up to TPP, Linux 6.1's
     * numa_balancing_promote_rate_limit_MBps): cap promotion traffic at
     * this many MB/s with a small token bucket. 0 disables the limit,
     * matching the paper's TPP.
     */
    double promoteRateLimitMBps = 0.0;

    bool operator==(const TppConfig &) const = default;
};

/** Tunables mirroring the numa_balancing sysctls. */
struct NumaBalancingConfig {
    /** Scanner period (sysctl numa_balancing_scan_period). */
    Tick scanPeriod = 20 * kMillisecond;
    /** Pages sampled per node per period (scan_size equivalent). */
    std::uint64_t scanBatch = 512;

    bool operator==(const NumaBalancingConfig &) const = default;
};

/** AutoTiering tunables. */
struct AutoTieringConfig {
    Tick scanPeriod = 20 * kMillisecond;
    std::uint64_t scanBatch = 512;
    /** Hint faults within this window needed before promotion. */
    Tick hotWindow = 3 * kSecond;
    std::uint8_t hotThreshold = 2;
    /** Fixed-size promotion reserve, in pages; 0 = 5 % of the local
     *  node's capacity. */
    std::uint64_t promotionReserve = 0;

    bool operator==(const AutoTieringConfig &) const = default;
};

/**
 * Unified hotness-subsystem tunables (src/hotness). The `hotness`
 * policy drives promotion from a pluggable HotnessSource selected by
 * name; the NeoProf fields model NeoMem's CXL-device counter engine
 * (bounded counter table, decaying log-scale histogram, auto-tuned hot
 * threshold).
 */
struct HotnessConfig {
    /** Source name: "hintfault", "damon", "chameleon" or "neoprof". */
    std::string source = "hintfault";
    /**
     * Epoch cadence: decay, threshold retune and batch promotion.
     * Longer epochs accumulate more evidence per ranking and promote
     * less junk; 200ms roughly halves migration churn versus 100ms at
     * materially better end-state hot-set recall for every source.
     */
    Tick epochPeriod = 200 * kMillisecond;
    /** Maximum pages promoted per epoch (extractHot top-k). */
    std::uint64_t promoteBatch = 512;
    /** Hint-fault source: faults within this window make a page hot. */
    Tick hotWindow = 3 * kSecond;
    /** Hint-fault source: faults needed inside the window (two-touch). */
    std::uint64_t hotThreshold = 2;
    /**
     * NeoProf: bounded per-page counter table (LRU eviction). Sized
     * for the default bench working set; an undersized table thrashes
     * and loses the frequency signal to eviction.
     */
    std::uint64_t counterTableSize = 32768;
    /** NeoProf: counter decay half-life; 0 disables decay. */
    Tick decayHalfLife = 1 * kSecond;
    /**
     * NeoProf: when > 0, cap the target hot-set size at the
     * (1 - quantile) tail of the tracked-page population in addition to
     * the local-tier free-headroom target; 0 = headroom-driven only.
     * The default keeps the device engine pickier than fault sampling:
     * only the hottest 5% of tracked far-tier pages compete per epoch.
     */
    double targetQuantile = 0.95;

    bool operator==(const HotnessConfig &) const = default;
};

/**
 * Phase-adaptive placement tunables (src/policy/adaptive). The policy
 * is TPP plus a profile-then-infer tuner: it measures promotion yield,
 * ping-pong rate, reclaim pressure and SLO headroom over sliding
 * windows, then retunes the live promotion knobs by hysteretic
 * coordinate descent over a discrete grid. With `enable` off (the
 * default) the policy is bit-identical to plain TPP.
 */
struct AdaptiveConfig {
    /** Master kill switch (vm.adaptive.enable). */
    bool enable = false;
    /** Profiling-window length (vm.adaptive.window_ns). */
    Tick windowPeriod = 200 * kMillisecond;
    /** Windows averaged into one measurement (base or trial). */
    std::uint64_t profileWindows = 3;
    /** Score gain (percent) a trial must show to be accepted. */
    double hysteresisPct = 2.0;
    /** Score drift (percent) that re-arms a settled tuner. */
    double wakeDriftPct = 10.0;

    // Objective weights (vm.adaptive.w_*): maximise local traffic and
    // SLO attainment, penalise ping-pong, allocation stalls and raw
    // migration volume (every moved page is copy bandwidth the tail
    // pays for, whether or not it ever flips back).
    double weightLocal = 1.0;
    double weightPingPong = 0.5;
    double weightStall = 0.25;
    double weightSlo = 0.5;
    double weightMigrate = 1.0;

    /** PPT flips at/above which a page counts as a known flapper. */
    std::uint64_t flapFlips = 2;
    /** Extra window touches demanded from flappers before promotion. */
    std::uint64_t flapBias = 1;

    /** Touches within the window before a hint fault may promote. */
    std::uint64_t promoteThreshold = 1;
    std::uint64_t promoteThresholdMax = 4;
    /** Grid bounds for kernel.numa_balancing_scan_size_pages (x2 steps). */
    std::uint64_t scanSizeMin = 128;
    std::uint64_t scanSizeMax = 2048;
    /** Grid bounds for vm.demote_scale_factor (watermark gap, +-1.0). */
    double demoteScaleMin = 1.0;
    double demoteScaleMax = 8.0;

    bool operator==(const AdaptiveConfig &) const = default;
};

/**
 * Every built-in policy's parameter block, bundled. PolicyRegistry
 * factories receive one of these and pick out the block they need;
 * ExperimentConfig derives from it so `cfg.tpp.scanBatch = ...` keeps
 * working unchanged at every call site.
 */
struct PolicyParams {
    TppConfig tpp;
    NumaBalancingConfig numaBalancing;
    AutoTieringConfig autoTiering;
    HotnessConfig hotness;
    AdaptiveConfig adaptive;

    bool operator==(const PolicyParams &) const = default;
};

} // namespace tpp

#endif // TPP_MM_POLICY_PARAMS_HH
