#include "policy/adaptive/adaptive_policy.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "mm/kernel.hh"
#include "mm/policy_registry.hh"
#include "mm/ppt/ppt.hh"
#include "sim/logging.hh"

namespace tpp {

namespace {

double
parseNumber(const std::string &text)
{
    return text.empty() ? 0.0 : std::strtod(text.c_str(), nullptr);
}

} // namespace

double
adaptiveScore(const AdaptiveWindowMetrics &m, const AdaptiveConfig &cfg)
{
    double score = cfg.weightLocal * m.localShare -
                   cfg.weightPingPong * m.pingPongNorm -
                   cfg.weightStall * m.stallNorm -
                   cfg.weightMigrate * m.migrationNorm;
    if (m.sloAttainment >= 0.0)
        score += cfg.weightSlo * m.sloAttainment;
    return score;
}

AdaptivePolicy::AdaptivePolicy(const PolicyParams &params)
    : TppPolicy(params.tpp), acfg_(params.adaptive)
{
    // Initial step directions encode the churn-phase instinct: demand
    // more evidence per promotion, scan in bigger batches, and hold a
    // wider demotion headroom. The descent flips any of them that does
    // not pay off.
    dir_.fill(+1);
}

void
AdaptivePolicy::attach(Kernel &kernel)
{
    TppPolicy::attach(kernel);

    SysctlRegistry &sysctl = kernel.sysctl();
    sysctl.registerBool("vm.adaptive.enable", &acfg_.enable,
                        [this] { maybeArm(); });
    sysctl.registerU64("vm.adaptive.window_ns", &acfg_.windowPeriod,
                       nullptr, /*min_value=*/kMillisecond);
    sysctl.registerU64("vm.adaptive.profile_windows",
                       &acfg_.profileWindows, nullptr, /*min_value=*/1);
    sysctl.registerDouble("vm.adaptive.hysteresis_pct",
                          &acfg_.hysteresisPct, nullptr, 0.0, 100.0);
    sysctl.registerDouble("vm.adaptive.wake_drift_pct",
                          &acfg_.wakeDriftPct, nullptr, 0.0, 1000.0);
    sysctl.registerDouble("vm.adaptive.w_local", &acfg_.weightLocal,
                          nullptr, 0.0, 100.0);
    sysctl.registerDouble("vm.adaptive.w_pingpong",
                          &acfg_.weightPingPong, nullptr, 0.0, 100.0);
    sysctl.registerDouble("vm.adaptive.w_stall", &acfg_.weightStall,
                          nullptr, 0.0, 100.0);
    sysctl.registerDouble("vm.adaptive.w_slo", &acfg_.weightSlo, nullptr,
                          0.0, 100.0);
    sysctl.registerDouble("vm.adaptive.w_migrate", &acfg_.weightMigrate,
                          nullptr, 0.0, 100.0);
    sysctl.registerU64("vm.adaptive.flap_flips", &acfg_.flapFlips,
                       nullptr, /*min_value=*/1);
    sysctl.registerU64("vm.adaptive.flap_bias", &acfg_.flapBias);
    sysctl.registerU64("vm.adaptive.promote_threshold",
                       &acfg_.promoteThreshold, nullptr, /*min_value=*/1);
    sysctl.registerReadOnly("vm.adaptive.state", [this] {
        switch (stage_) {
          case Stage::Baseline: return std::string("baseline");
          case Stage::Trial: return std::string("trial");
          case Stage::Settled: return std::string("settled");
        }
        return std::string("?");
    });
}

void
AdaptivePolicy::start()
{
    TppPolicy::start();
    started_ = true;
    maybeArm();
}

void
AdaptivePolicy::maybeArm()
{
    // The window daemon exists only while the tuner is enabled, so a
    // disabled run schedules nothing extra and stays bit-identical to
    // plain TPP (same event-queue contents, same ordering).
    if (!acfg_.enable || !started_ || armed_)
        return;
    armed_ = true;
    for (std::size_t i = 0; i < kNumAdaptiveKnobs; ++i)
        initialKnobs_[i] = knobValue(static_cast<AdaptiveKnob>(i));
    prev_ = takeSnapshot();
    kernel_->eventQueue().scheduleAfter(acfg_.windowPeriod,
                                        [this] { windowTick(); });
}

AdaptivePolicy::Snapshot
AdaptivePolicy::takeSnapshot() const
{
    Snapshot snap;
    const Kernel &k = *kernel_;
    const MemorySystem &mem = k.mem();
    for (std::size_t i = 0; i < mem.numNodes(); ++i) {
        const NodeId nid = static_cast<NodeId>(i);
        const std::uint64_t accesses = k.traffic(nid).accesses;
        snap.totalAccesses += accesses;
        if (mem.tiers().isToptier(nid))
            snap.localAccesses += accesses;
    }
    snap.promoteSuccess = k.vmstat().get(Vm::PgPromoteSuccess);
    snap.migratePages = k.vmstat().get(Vm::PgMigrateSuccess);
    snap.allocStall = k.vmstat().get(Vm::AllocStall);
    snap.pptFlips = k.ppt().totalFlips();
    snap.sloMet = sloMet_;
    snap.sloOffered = sloOffered_;
    return snap;
}

void
AdaptivePolicy::windowTick()
{
    if (!acfg_.enable) {
        // Killed mid-run via the sysctl: stop the daemon; a later
        // re-enable re-arms through the sysctl's on-change hook.
        armed_ = false;
        return;
    }

    Kernel &k = *kernel_;
    const Snapshot cur = takeSnapshot();
    const std::uint64_t d_total = cur.totalAccesses - prev_.totalAccesses;

    windowEpoch_++;

    if (d_total > 0) {
        AdaptiveWindowMetrics m;
        m.localShare = static_cast<double>(cur.localAccesses -
                                           prev_.localAccesses) /
                       static_cast<double>(d_total);
        lastLocalShare_ = m.localShare;
        const double d_promote = static_cast<double>(
            cur.promoteSuccess - prev_.promoteSuccess);
        const double d_flips =
            static_cast<double>(cur.pptFlips - prev_.pptFlips);
        m.pingPongNorm =
            std::min(1.0, d_flips / std::max(1.0, d_promote));
        m.stallNorm = std::min(
            1.0,
            static_cast<double>(cur.allocStall - prev_.allocStall) /
                128.0);
        // Copy-bandwidth pressure: migrating one page per ten accesses
        // saturates the penalty.
        m.migrationNorm = std::min(
            1.0, 10.0 *
                     static_cast<double>(cur.migratePages -
                                         prev_.migratePages) /
                     static_cast<double>(d_total));
        const std::uint64_t d_offered =
            cur.sloOffered - prev_.sloOffered;
        if (d_offered > 0) {
            m.sloAttainment =
                static_cast<double>(cur.sloMet - prev_.sloMet) /
                static_cast<double>(d_offered);
        }

        const double score = adaptiveScore(m, acfg_);
        k.vmstat().inc(Vm::AdaptiveWindow);
        // aux carries the score in milli-units, offset so the unsigned
        // field can hold the penalised (negative) range.
        const double biased =
            std::clamp((score + 4.0) * 1000.0, 0.0, 4294967295.0);
        k.trace().emit(TraceEvent::AdaptiveWindow, k.eventQueue().now(),
                       kInvalidNode,
                       static_cast<std::uint32_t>(std::lround(biased)));

        scoreSum_ += score;
        scoreWindows_++;
        if (scoreWindows_ >= acfg_.profileWindows) {
            const double measurement =
                scoreSum_ / static_cast<double>(scoreWindows_);
            scoreSum_ = 0.0;
            scoreWindows_ = 0;
            handleMeasurement(measurement);
        }
    }

    prev_ = cur;
    kernel_->eventQueue().scheduleAfter(acfg_.windowPeriod,
                                        [this] { windowTick(); });
}

void
AdaptivePolicy::handleMeasurement(double m)
{
    Kernel &k = *kernel_;
    switch (stage_) {
      case Stage::Baseline:
        baseScore_ = m;
        haveBase_ = true;
        proposeStep();
        break;

      case Stage::Trial: {
        // Hysteresis: a trial must clearly beat the incumbent, with an
        // absolute floor so a near-zero base score cannot make every
        // wiggle look like progress.
        const double margin = std::max(
            0.005, std::fabs(baseScore_) * acfg_.hysteresisPct / 100.0);
        if (m > baseScore_ + margin) {
            baseScore_ = m;
            // Keep climbing the paying knob in the paying direction.
            // Knobs already exhausted this round stay parked — one
            // noisy win must not restart the whole round, or a phasey
            // workload never settles at all.
            triedBoth_[pendingKnob_] = false;
            knobCursor_ = pendingKnob_;
        } else {
            const auto knob = static_cast<AdaptiveKnob>(pendingKnob_);
            applyKnob(knob, pendingOld_);
            emitKnobEvent(TraceEvent::AdaptiveRevert, knob, pendingOld_);
            k.vmstat().inc(Vm::AdaptiveRevert);
            if (!triedBoth_[pendingKnob_]) {
                triedBoth_[pendingKnob_] = true;
                dir_[pendingKnob_] = -dir_[pendingKnob_];
                knobCursor_ = pendingKnob_;
            } else {
                exhausted_[pendingKnob_] = true;
                knobCursor_ = (pendingKnob_ + 1) % kNumAdaptiveKnobs;
            }
        }
        proposeStep();
        break;
      }

      case Stage::Settled: {
        const double drift = std::max(
            0.01, std::fabs(settledScore_) * acfg_.wakeDriftPct / 100.0);
        if (std::fabs(m - settledScore_) > drift) {
            // Phase change detected: the workload the settled knobs
            // were tuned for is gone. Jump to the phase book's entry
            // for the phase we are entering — or back to the stock
            // baseline for a never-seen phase — then re-open the grid
            // and re-baseline before climbing again.
            k.vmstat().inc(Vm::AdaptiveWake);
            k.trace().emit(TraceEvent::AdaptiveWake,
                           k.eventQueue().now(), kInvalidNode);
            const auto it = phaseBook_.find(phaseSignature());
            restoreKnobs(it != phaseBook_.end() ? it->second
                                                : initialKnobs_);
            triedBoth_.fill(false);
            exhausted_.fill(false);
            haveBase_ = false;
            stage_ = Stage::Baseline;
        }
        break;
      }
    }
}

void
AdaptivePolicy::proposeStep()
{
    Kernel &k = *kernel_;
    for (std::size_t probe = 0; probe < kNumAdaptiveKnobs; ++probe) {
        const std::size_t i = (knobCursor_ + probe) % kNumAdaptiveKnobs;
        if (exhausted_[i])
            continue;
        const auto knob = static_cast<AdaptiveKnob>(i);
        const double cur = knobValue(knob);
        double next = steppedValue(knob, cur, dir_[i]);
        if (next == cur) {
            // Grid edge: try the other direction once, then give up on
            // this knob for the round.
            if (!triedBoth_[i]) {
                triedBoth_[i] = true;
                dir_[i] = -dir_[i];
                next = steppedValue(knob, cur, dir_[i]);
            }
            if (next == cur) {
                exhausted_[i] = true;
                continue;
            }
        }
        pendingKnob_ = i;
        pendingOld_ = cur;
        applyKnob(knob, next);
        emitKnobEvent(TraceEvent::AdaptiveTune, knob, next);
        k.vmstat().inc(Vm::AdaptiveTune);
        knobCursor_ = i;
        stage_ = Stage::Trial;
        return;
    }

    // Every knob failed both directions (or sits pinned at an edge):
    // the descent has converged. Remember the operating point for this
    // phase, then park until the score drifts.
    stage_ = Stage::Settled;
    settledScore_ = baseScore_;
    triedBoth_.fill(false);
    std::array<double, kNumAdaptiveKnobs> point;
    for (std::size_t i = 0; i < kNumAdaptiveKnobs; ++i)
        point[i] = knobValue(static_cast<AdaptiveKnob>(i));
    phaseBook_[phaseSignature()] = point;
    k.vmstat().inc(Vm::AdaptiveSettled);
    k.trace().emit(TraceEvent::AdaptiveSettle, k.eventQueue().now(),
                   kInvalidNode);
}

double
AdaptivePolicy::knobValue(AdaptiveKnob knob) const
{
    switch (knob) {
      case AdaptiveKnob::PromoteThreshold:
        return static_cast<double>(acfg_.promoteThreshold);
      case AdaptiveKnob::ScanSize:
        return parseNumber(kernel_->sysctl().get(
            "kernel.numa_balancing_scan_size_pages"));
      case AdaptiveKnob::DemoteScale:
        return parseNumber(
            kernel_->sysctl().get("vm.demote_scale_factor"));
      case AdaptiveKnob::NumKnobs:
        break;
    }
    tpp_panic("knobValue: bad knob %u", static_cast<unsigned>(knob));
}

double
AdaptivePolicy::steppedValue(AdaptiveKnob knob, double current,
                             int dir) const
{
    switch (knob) {
      case AdaptiveKnob::PromoteThreshold:
        return std::clamp(
            current + static_cast<double>(dir), 1.0,
            static_cast<double>(acfg_.promoteThresholdMax));
      case AdaptiveKnob::ScanSize:
        return std::clamp(dir > 0 ? current * 2.0 : current / 2.0,
                          static_cast<double>(acfg_.scanSizeMin),
                          static_cast<double>(acfg_.scanSizeMax));
      case AdaptiveKnob::DemoteScale:
        return std::clamp(current + static_cast<double>(dir),
                          acfg_.demoteScaleMin, acfg_.demoteScaleMax);
      case AdaptiveKnob::NumKnobs:
        break;
    }
    tpp_panic("steppedValue: bad knob %u", static_cast<unsigned>(knob));
}

void
AdaptivePolicy::applyKnob(AdaptiveKnob knob, double value)
{
    // All three knobs go through the sysctl surface so an operator
    // watching /proc/sys sees exactly what the tuner is doing and can
    // override any of them live.
    char buf[64];
    const char *name = nullptr;
    switch (knob) {
      case AdaptiveKnob::PromoteThreshold:
        name = "vm.adaptive.promote_threshold";
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(
                          std::llround(value)));
        break;
      case AdaptiveKnob::ScanSize:
        name = "kernel.numa_balancing_scan_size_pages";
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(
                          std::llround(value)));
        break;
      case AdaptiveKnob::DemoteScale:
        name = "vm.demote_scale_factor";
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        break;
      case AdaptiveKnob::NumKnobs:
        tpp_panic("applyKnob: bad knob %u",
                  static_cast<unsigned>(knob));
    }
    if (!kernel_->sysctl().set(name, buf))
        tpp_fatal("adaptive: sysctl %s rejected '%s'", name, buf);
}

std::uint32_t
AdaptivePolicy::packKnobAux(AdaptiveKnob knob, double value) const
{
    const std::uint32_t encoded =
        knob == AdaptiveKnob::DemoteScale
            ? static_cast<std::uint32_t>(std::lround(value * 10.0))
            : static_cast<std::uint32_t>(std::lround(value));
    return (static_cast<std::uint32_t>(knob) << 24) |
           (encoded & 0xffffff);
}

void
AdaptivePolicy::emitKnobEvent(TraceEvent event, AdaptiveKnob knob,
                              double value)
{
    kernel_->trace().emit(event, kernel_->eventQueue().now(),
                          kInvalidNode, packKnobAux(knob, value));
}

std::uint32_t
AdaptivePolicy::phaseSignature() const
{
    // Eight local-share buckets tell the alternating phases of the
    // ablation workloads apart without being so fine that run-to-run
    // noise mints a fresh signature per flip.
    return static_cast<std::uint32_t>(
        std::min(7.0, lastLocalShare_ * 8.0));
}

void
AdaptivePolicy::restoreKnobs(
    const std::array<double, kNumAdaptiveKnobs> &target)
{
    Kernel &k = *kernel_;
    for (std::size_t i = 0; i < kNumAdaptiveKnobs; ++i) {
        const auto knob = static_cast<AdaptiveKnob>(i);
        if (knobValue(knob) == target[i])
            continue;
        applyKnob(knob, target[i]);
        emitKnobEvent(TraceEvent::AdaptiveTune, knob, target[i]);
        k.vmstat().inc(Vm::AdaptiveTune);
    }
}

double
AdaptivePolicy::onHintFault(Pfn pfn, NodeId task_nid)
{
    if (!acfg_.enable)
        return TppPolicy::onHintFault(pfn, task_nid);

    Kernel &k = *kernel_;
    const PageFrame &frame = k.mem().frame(pfn);
    if (k.mem().tiers().isToptier(frame.nid))
        return TppPolicy::onHintFault(pfn, task_nid);

    const auto &cold = k.mem().frameCold(pfn);
    std::uint64_t threshold = acfg_.promoteThreshold;
    if (acfg_.flapBias > 0 &&
        k.ppt().flipsFor(cold.ownerAsid, cold.ownerVpn) >=
            acfg_.flapFlips) {
        // Known flapper (PPT history): demand extra evidence before
        // promoting it yet again — the first read of that table beyond
        // the admission path itself.
        threshold += acfg_.flapBias;
        k.vmstat().inc(Vm::AdaptiveFlapBias);
    }

    if (threshold > 1) {
        Touch &touch = touches_(cold.ownerAsid, cold.ownerVpn);
        if (touch.epoch + 1 < windowEpoch_)
            touch.count = 0; // outside the sliding two-window span
        touch.epoch = windowEpoch_;
        touch.count++;
        if (touch.count < threshold) {
            // Below the evidence bar: remember the fault (so recency
            // filters still see it) but hold the promotion.
            k.mem().frameCold(pfn).lastHintFault = k.eventQueue().now();
            k.vmstat().inc(Vm::AdaptiveFiltered);
            return 0.0;
        }
        touch.count = 0; // spent: the next promotion starts over
    }

    return TppPolicy::onHintFault(pfn, task_nid);
}

TPP_REGISTER_POLICY(adaptive, [](const PolicyParams &p) {
    return std::make_unique<AdaptivePolicy>(p);
});

} // namespace tpp
