/**
 * @file
 * Phase-adaptive placement: TPP plus a profile-then-infer tuner.
 *
 * The policy alternates two stages on a fixed window cadence:
 *
 *  - *Profiling*: each window it measures promotion yield
 *    (pgpromote_success / candidate), machine ping-pong rate (the
 *    PingPongThrottle's lifetime flip counter — the first consumer of
 *    that table outside the admission path), reclaim pressure
 *    (allocstall) and, when open-loop tenants run, live SLO attainment
 *    pushed in by the harness. The measurements fold into one scalar
 *    objective score.
 *
 *  - *Inference*: after `profileWindows` windows it has a measurement,
 *    and retunes one live knob through the sysctl surface — the
 *    policy's own promotion touch threshold
 *    (vm.adaptive.promote_threshold), the hint-fault scan batch
 *    (kernel.numa_balancing_scan_size_pages) or the demotion watermark
 *    gap (vm.demote_scale_factor) — by hysteretic coordinate descent
 *    over a discrete grid: a trial step must beat the incumbent score
 *    by `hysteresisPct` or it is rolled back and the direction flipped.
 *    A full round with every knob exhausted parks the tuner (SETTLED);
 *    score drift past `wakeDriftPct` re-arms it, which is how phase
 *    changes are detected.
 *
 * Settled operating points are remembered in a small *phase book*
 * keyed by a quantised local-share signature. A wake first jumps the
 * knobs to the remembered point for the phase it is entering (or back
 * to the stock baseline for a never-seen phase) and only then resumes
 * the descent — on alternating phases the second and later flips
 * restore good knobs within a couple of windows instead of re-climbing
 * from the previous phase's operating point.
 *
 * Promotion admission additionally consults PPT history per page: a
 * page with `flapFlips`+ recorded direction flips must show `flapBias`
 * extra touches inside the sliding window before it may promote again.
 *
 * With vm.adaptive.enable off (the default) every hook delegates
 * straight to TppPolicy and the simulation is bit-identical to the
 * static `tpp` policy.
 */

#ifndef TPP_POLICY_ADAPTIVE_ADAPTIVE_POLICY_HH
#define TPP_POLICY_ADAPTIVE_ADAPTIVE_POLICY_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "core/tpp_policy.hh"
#include "mm/policy_params.hh"
#include "sim/page_slots.hh"
#include "trace/trace.hh"

namespace tpp {

/** Knob ids, as packed into the adaptive_tune/adaptive_revert aux. */
enum class AdaptiveKnob : std::uint8_t {
    PromoteThreshold = 0, //!< vm.adaptive.promote_threshold
    ScanSize,             //!< kernel.numa_balancing_scan_size_pages
    DemoteScale,          //!< vm.demote_scale_factor
    NumKnobs,
};

inline constexpr std::size_t kNumAdaptiveKnobs =
    static_cast<std::size_t>(AdaptiveKnob::NumKnobs);

/** One profiling window's normalised measurements. */
struct AdaptiveWindowMetrics {
    /** Share of the window's accesses served by toptier nodes. */
    double localShare = 0.0;
    /** PPT flips per successful promotion, capped to [0, 1]. */
    double pingPongNorm = 0.0;
    /** Direct-reclaim stall pressure, capped to [0, 1]. */
    double stallNorm = 0.0;
    /** Pages migrated per access, scaled so 10 % saturates to 1. */
    double migrationNorm = 0.0;
    /** Open-loop SLO attainment in [0, 1]; < 0 = no tenants ran. */
    double sloAttainment = -1.0;
};

/**
 * The scalar objective the tuner climbs. Pure so tests can pin it:
 * higher is better, local share and SLO attainment reward, ping-pong
 * and stalls penalise; the SLO term vanishes when no open-loop tenant
 * is configured (sloAttainment < 0).
 */
double adaptiveScore(const AdaptiveWindowMetrics &m,
                     const AdaptiveConfig &cfg);

/**
 * TPP with the phase-adaptive tuner described above.
 */
class AdaptivePolicy : public TppPolicy
{
  public:
    explicit AdaptivePolicy(const PolicyParams &params);

    std::string name() const override { return "adaptive"; }
    void attach(Kernel &kernel) override;
    void start() override;
    double onHintFault(Pfn pfn, NodeId task_nid) override;

    /**
     * Live SLO feed: the harness pushes *cumulative* served-within-SLO
     * and offered request totals here whenever it syncs (open-loop
     * runs only); the tuner differences them per window.
     */
    void
    noteSloTotals(std::uint64_t met, std::uint64_t offered)
    {
        sloMet_ = met;
        sloOffered_ = offered;
    }

    /** Tuner stage, for the vm.adaptive.state sysctl and tests. */
    enum class Stage : std::uint8_t { Baseline, Trial, Settled };
    Stage stage() const { return stage_; }

  private:
    struct Touch {
        std::uint32_t count = 0;
        std::uint32_t epoch = 0;
    };

    /** Cumulative counters sampled at each window boundary. */
    struct Snapshot {
        std::uint64_t localAccesses = 0;
        std::uint64_t totalAccesses = 0;
        std::uint64_t promoteSuccess = 0;
        std::uint64_t migratePages = 0;
        std::uint64_t allocStall = 0;
        std::uint64_t pptFlips = 0;
        std::uint64_t sloMet = 0;
        std::uint64_t sloOffered = 0;
    };

    void maybeArm();
    void windowTick();
    Snapshot takeSnapshot() const;
    void handleMeasurement(double score);
    /** Try to start a trial step; falls to Settled when no move legal. */
    void proposeStep();
    /** Apply `value` to `knob` through the sysctl surface. */
    void applyKnob(AdaptiveKnob knob, double value);
    double knobValue(AdaptiveKnob knob) const;
    /** Next grid value in `dir`; returns current when at the edge. */
    double steppedValue(AdaptiveKnob knob, double current, int dir) const;
    std::uint32_t packKnobAux(AdaptiveKnob knob, double value) const;
    void emitKnobEvent(TraceEvent event, AdaptiveKnob knob, double value);
    /** Quantised phase identity: the last window's local share. */
    std::uint32_t phaseSignature() const;
    /** Jump every knob to `target`, tracing each real movement. */
    void restoreKnobs(const std::array<double, kNumAdaptiveKnobs> &target);

    AdaptiveConfig acfg_;

    // Window accounting.
    bool armed_ = false;
    bool started_ = false;
    std::uint32_t windowEpoch_ = 0;
    Snapshot prev_;
    double lastLocalShare_ = 0.0;
    std::uint64_t sloMet_ = 0;
    std::uint64_t sloOffered_ = 0;

    // Per-page touch filter (sliding two-window recency). A slot two
    // windows stale is reset by its next touch.
    PageSlots<Touch> touches_;

    // Coordinate-descent state.
    Stage stage_ = Stage::Baseline;
    double scoreSum_ = 0.0;
    std::uint64_t scoreWindows_ = 0;
    bool haveBase_ = false;
    double baseScore_ = 0.0;
    double settledScore_ = 0.0;
    std::size_t knobCursor_ = 0;
    std::size_t pendingKnob_ = 0;
    double pendingOld_ = 0.0;
    std::array<int, kNumAdaptiveKnobs> dir_{};
    std::array<bool, kNumAdaptiveKnobs> triedBoth_{};
    std::array<bool, kNumAdaptiveKnobs> exhausted_{};

    // Phase book: knob vectors remembered per settled phase signature,
    // plus the stock values to fall back to on a never-seen phase.
    std::array<double, kNumAdaptiveKnobs> initialKnobs_{};
    std::unordered_map<std::uint32_t,
                       std::array<double, kNumAdaptiveKnobs>>
        phaseBook_;
};

} // namespace tpp

#endif // TPP_POLICY_ADAPTIVE_ADAPTIVE_POLICY_HH
