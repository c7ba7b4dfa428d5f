#include "workloads/synthetic.hh"

#include <algorithm>
#include <cmath>

#include "mm/kernel.hh"
#include "sim/logging.hh"

namespace tpp {

SyntheticWorkload::SyntheticWorkload(WorkloadProfile profile)
    : profile_(std::move(profile)),
      think_(profile_.thinkTimePerOpNs, profile_.loadRampSeconds,
             profile_.loadRampStart),
      rng_(profile_.seed)
{
    if (profile_.regions.empty())
        tpp_fatal("synthetic workload needs at least one region");
}

void
SyntheticWorkload::init(Kernel &kernel)
{
    if (inited_)
        tpp_panic("SyntheticWorkload::init called twice");
    inited_ = true;
    asid_ = kernel.createProcess();

    double acc = 0.0;
    for (const RegionSpec &spec : profile_.regions) {
        // The region pick searches the running sum, which a negative
        // or NaN weight would leave unsorted.
        if (!(spec.accessWeight >= 0.0))
            tpp_fatal("region %s: accessWeight must be >= 0, got %g",
                      spec.label.c_str(), spec.accessWeight);
        RegionState state;
        state.spec = spec;
        state.base = kernel.mmap(asid_, spec.pages, spec.type, spec.label,
                                 spec.diskBacked);
        state.createdAt = kernel.eventQueue().now();
        state.lastChurn = state.createdAt;
        regions_.push_back(std::move(state));
        acc += spec.accessWeight;
        weightPrefix_.push_back(acc);
        if (spec.phasePeriod != 0) {
            if (spec.phaseDuty <= 0.0 || spec.phaseDuty > 1.0)
                tpp_fatal("phaseDuty must be in (0, 1]");
            anyPhased_ = true;
        }
    }
    if (anyPhased_ && regions_.size() > 64)
        tpp_fatal("phase gating supports at most 64 regions");

    // Regions without sequential warm-up are skipped by the cursor.
    while (warmupCursorRegion_ < regions_.size() &&
           !regions_[warmupCursorRegion_].spec.sequentialWarmup) {
        warmupCursorRegion_++;
    }
    lastTransientTick_ = kernel.eventQueue().now();
}

std::uint64_t
SyntheticWorkload::totalReservedPages() const
{
    std::uint64_t total = 0;
    for (const RegionSpec &spec : profile_.regions)
        total += spec.pages;
    return total;
}

double
SyntheticWorkload::issueAccess(Kernel &kernel, Vpn vpn, AccessKind kind,
                               BatchResult &result)
{
    const AccessResult res = kernel.access(asid_, vpn, kind, taskNode_);
    result.accesses++;
    result.memLatencyNs += res.latencyNs;
    return res.latencyNs;
}

std::uint64_t
SyntheticWorkload::activePages(const RegionState &region, Tick now) const
{
    const RegionSpec &spec = region.spec;
    const double elapsed_sec =
        static_cast<double>(now - region.lastChurn) /
        static_cast<double>(kSecond);
    const double active =
        static_cast<double>(spec.pages) * spec.initialActiveFraction +
        spec.growthPagesPerSec * elapsed_sec;
    const std::uint64_t count = static_cast<std::uint64_t>(active);
    return std::clamp<std::uint64_t>(count, 1, spec.pages);
}

bool
SyntheticWorkload::regionPhaseOn(const RegionSpec &spec, Tick now) const
{
    if (spec.phasePeriod == 0)
        return true;
    const Tick pos = (now + spec.phaseOffset) % spec.phasePeriod;
    return static_cast<double>(pos) <
           spec.phaseDuty * static_cast<double>(spec.phasePeriod);
}

Tick
SyntheticWorkload::nextPhaseEdge(const RegionSpec &spec, Tick now) const
{
    // The region is on while pos < duty * period, so its state is
    // constant on [0, K) and [K, period) with K the ceiling of that
    // product. K is floor or floor + 1: taking the first of both (and
    // the wrap) past pos is never later than the real edge.
    const Tick pos = (now + spec.phaseOffset) % spec.phasePeriod;
    const Tick floor_on = static_cast<Tick>(
        spec.phaseDuty * static_cast<double>(spec.phasePeriod));
    Tick edge = spec.phasePeriod;
    for (const Tick candidate : {floor_on, floor_on + 1}) {
        if (candidate > pos && candidate < edge)
            edge = candidate;
    }
    return now + (edge - pos);
}

void
SyntheticWorkload::refreshPhaseWeights(Tick now)
{
    // Rebuild the prefix table only on the batch where some region
    // crossed a phase edge, and look at the regions only once one can
    // have.
    if (now < phaseValidUntil_)
        return;
    std::uint64_t mask = 0;
    phaseValidUntil_ = kMaxTick;
    for (std::size_t i = 0; i < regions_.size(); ++i) {
        const RegionSpec &spec = regions_[i].spec;
        if (regionPhaseOn(spec, now))
            mask |= std::uint64_t{1} << i;
        if (spec.phasePeriod != 0) {
            phaseValidUntil_ =
                std::min(phaseValidUntil_, nextPhaseEdge(spec, now));
        }
    }
    if (mask == phaseMask_)
        return;
    phaseMask_ = mask;
    double acc = 0.0;
    for (std::size_t i = 0; i < regions_.size(); ++i) {
        const RegionSpec &spec = regions_[i].spec;
        const bool on = (mask >> i) & 1;
        // Keep every region minimally sample-able so the pick stays
        // well-defined even if all weights are gated off at once.
        const double eff = std::max(
            on ? spec.accessWeight : spec.accessWeight * spec.phaseOffWeight,
            1e-9);
        acc += eff;
        weightPrefix_[i] = acc;
    }
}

void
SyntheticWorkload::refreshGeometry(Tick now)
{
    // Geometry is a function of the ticks since the region's last churn
    // alone, through its active pages and its rotation step count. Skip
    // the work until one of them can move. Nothing else moves hotPages
    // or active, so the lazy Zipf check of sampleRegionVpn() would
    // repeat its last answer until then and keeps its zipfChecked flag.
    if (now < geometryValidUntil_)
        return;
    geometryValidUntil_ = kMaxTick;
    for (RegionState &region : regions_) {
        const RegionSpec &spec = region.spec;
        const std::uint64_t active = activePages(region, now);
        const std::uint64_t hot_pages = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(spec.hotFraction *
                                          static_cast<double>(active)));
        std::uint64_t hot_start = 0;
        if (spec.hotFollowsGrowth && active > hot_pages)
            hot_start = active - hot_pages;
        if (spec.rotationPeriod != 0) {
            const std::uint64_t steps =
                (now - region.lastChurn) / spec.rotationPeriod;
            const double step_pages =
                spec.rotationStep * static_cast<double>(hot_pages);
            hot_start = (hot_start +
                         static_cast<std::uint64_t>(
                             static_cast<double>(steps) * step_pages)) %
                        active;
            geometryValidUntil_ =
                std::min(geometryValidUntil_,
                         region.lastChurn +
                             (steps + 1) * spec.rotationPeriod);
        }
        // A region growing toward its reservation may gain a page at
        // any tick; one that has reached it stays there until a churn.
        const bool growing =
            spec.growthPagesPerSec < 0.0 ||
            (spec.growthPagesPerSec > 0.0 && active < spec.pages);
        if (growing)
            geometryValidUntil_ = std::min(geometryValidUntil_, now + 1);
        region.active = active;
        region.hotPages = hot_pages;
        region.hotStart = hot_start;
        region.uniformThreshold = (0 - active) % active;
        region.zipfChecked = false;
    }
}

void
SyntheticWorkload::checkZipf(RegionState &region)
{
    // Rebuild the Zipf sampler only when the hot-set size moved
    // noticeably; construction is cheap but not free. Decided at the
    // first hot draw after the geometry was computed: deciding at batch
    // start would also rebuild in batches that draw nothing hot here,
    // which changes the stream.
    const std::uint64_t hot_pages = region.hotPages;
    if (!region.zipf ||
        (region.cachedHotPages != hot_pages &&
         (hot_pages > region.cachedHotPages + region.cachedHotPages / 64 ||
          hot_pages + hot_pages / 64 < region.cachedHotPages))) {
        region.zipf.emplace(hot_pages, region.spec.zipfTheta);
        region.cachedHotPages = hot_pages;
    }
    region.zipfChecked = true;
    region.wrapOnce =
        hot_pages <= region.active && region.zipf->size() <= region.active;
}

inline Vpn
SyntheticWorkload::sampleRegionVpn(RegionState &region, Rng &rng)
{
    const RegionSpec &spec = region.spec;
    const std::uint64_t active = region.active;
    std::uint64_t offset;
    const double roll = rng.nextDouble();
    if (roll < spec.hotAccessShare + spec.echoShare) {
        if (!region.zipfChecked)
            checkZipf(region);
        if (roll < spec.hotAccessShare) {
            ZipfDistribution &zipf = *region.zipf;
            std::uint64_t rank;
            if (zipf.tabled()) {
                rank = zipf.drawTabled(rng);
            } else {
                // Out of line on a copy, so that `rng` is never passed
                // by address and can stay in registers.
                Rng state = rng;
                rank = zipf(state);
                rng = state;
            }
            offset = region.hotStart + rank;
        } else {
            // Echo zone: uniform over the window-sized span of pages the
            // drifting window most recently left behind.
            const std::uint64_t back = 1 + rng.nextBounded(region.hotPages);
            offset = region.hotStart + active - back;
        }
        if (!region.wrapOnce)
            offset %= active;
        else if (offset >= active)
            offset -= active;
    } else {
        offset = rng.nextBounded(active, region.uniformThreshold);
    }
    return region.base + offset;
}

void
SyntheticWorkload::drawChunk(std::size_t n)
{
    // Draw from a local copy of the Rng, written back once. Nothing in
    // this loop takes its address, so it can stay in registers.
    Rng rng = rng_;
    const double *prefix = weightPrefix_.data();
    const std::size_t count = weightPrefix_.size();
    const double total_weight = prefix[count - 1];
    for (std::size_t i = 0; i < n; ++i) {
        const double pick = rng.nextDouble() * total_weight;
        RegionState &region = regions_[pickWeighted(prefix, count, pick)];
        const Vpn vpn = sampleRegionVpn(region, rng);
        const AccessKind kind = rng.nextBool(region.spec.storeShare)
                                    ? AccessKind::Store
                                    : AccessKind::Load;
        chunk_[i] = DrawnAccess{vpn, kind};
    }
    rng_ = rng;
}

double
SyntheticWorkload::runWarmupChunk(Kernel &kernel, BatchResult &result)
{
    // Warm-up covers a region's initially active pages; later growth
    // faults the rest in on demand.
    const auto warm_limit = [](const RegionSpec &spec) {
        return std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   static_cast<double>(spec.pages) *
                   spec.initialActiveFraction));
    };
    double duration = 0.0;
    std::uint64_t touched = 0;
    while (touched < profile_.warmupChunkPages &&
           warmupCursorRegion_ < regions_.size()) {
        RegionState &region = regions_[warmupCursorRegion_];
        if (warmupCursorPage_ >= warm_limit(region.spec)) {
            warmupCursorPage_ = 0;
            do {
                warmupCursorRegion_++;
            } while (warmupCursorRegion_ < regions_.size() &&
                     !regions_[warmupCursorRegion_].spec.sequentialWarmup);
            continue;
        }
        const Vpn vpn = region.base + warmupCursorPage_;
        // Preloading reads the file in and writes nothing.
        duration += issueAccess(kernel, vpn, AccessKind::Load, result);
        warmupCursorPage_++;
        touched++;
    }
    // If the chunk ended exactly on a region boundary, advance the
    // cursor now so warmedUp() flips without an empty extra chunk.
    while (warmupCursorRegion_ < regions_.size() &&
           warmupCursorPage_ >=
               warm_limit(regions_[warmupCursorRegion_].spec)) {
        warmupCursorPage_ = 0;
        do {
            warmupCursorRegion_++;
        } while (warmupCursorRegion_ < regions_.size() &&
                 !regions_[warmupCursorRegion_].spec.sequentialWarmup);
    }
    return duration;
}

double
SyntheticWorkload::maintainTransients(Kernel &kernel, Tick now,
                                      BatchResult &result)
{
    const TransientSpec &spec = profile_.transient;
    double duration = 0.0;

    // Retire dead request regions.
    while (!transients_.empty() && transients_.front().diesAt <= now) {
        const TransientRegion &region = transients_.front();
        kernel.munmap(asid_, region.base, region.pages);
        transients_.pop_front();
    }

    if (spec.regionsPerSecond <= 0.0)
        return 0.0;

    // Allocate new request regions at the configured rate.
    const double elapsed_sec =
        static_cast<double>(now - lastTransientTick_) /
        static_cast<double>(kSecond);
    lastTransientTick_ = now;
    transientCredit_ += elapsed_sec * spec.regionsPerSecond;
    while (transientCredit_ >= 1.0) {
        transientCredit_ -= 1.0;
        const Vpn base =
            kernel.mmap(asid_, spec.regionPages, PageType::Anon, "request");
        const std::uint64_t touches = static_cast<std::uint64_t>(
            spec.touchesPerPage * static_cast<double>(spec.regionPages));
        for (std::uint64_t i = 0; i < touches; ++i) {
            const Vpn vpn = base + rng_.nextBounded(spec.regionPages);
            duration += issueAccess(kernel, vpn, AccessKind::Store, result);
        }
        transients_.push_back(
            TransientRegion{base, spec.regionPages, now + spec.lifetime});
    }
    return duration;
}

double
SyntheticWorkload::maintainChurn(Kernel &kernel, Tick now)
{
    double duration = 0.0;
    BatchResult churn_result;
    for (RegionState &region : regions_) {
        const RegionSpec &spec = region.spec;
        if (spec.churnPeriod == 0)
            continue;
        const Tick since = now - region.lastChurn;
        const bool first_churn = region.lastChurn == region.createdAt;
        const Tick due = first_churn && spec.churnPhase < spec.churnPeriod
                             ? spec.churnPeriod - spec.churnPhase
                             : spec.churnPeriod;
        if (since < due)
            continue;
        // A new batch stage: drop the old data set, allocate a fresh one.
        kernel.munmap(asid_, region.base, spec.pages);
        region.base = kernel.mmap(asid_, spec.pages, spec.type, spec.label,
                                  spec.diskBacked);
        region.lastChurn = now;
        region.zipf.reset();
        region.cachedHotPages = 0;
        geometryValidUntil_ = 0;
        if (spec.populateOnChurn) {
            for (std::uint64_t i = 0; i < spec.pages; ++i) {
                duration += issueAccess(kernel, region.base + i,
                                        AccessKind::Store, churn_result);
            }
        }
    }
    return duration;
}

BatchResult
SyntheticWorkload::runBatch(Kernel &kernel)
{
    return runOps(kernel, profile_.opsPerBatch);
}

BatchResult
SyntheticWorkload::runOps(Kernel &kernel, std::uint64_t ops)
{
    BatchResult result;
    const Tick now = kernel.eventQueue().now();

    if (!warmedUp()) {
        result.durationNs = runWarmupChunk(kernel, result);
        // Warm-up consumes time but completes no application operations.
        if (result.durationNs <= 0.0)
            result.durationNs = 1.0;
        return result;
    }

    double duration = 0.0;
    duration += maintainChurn(kernel, now);
    duration += maintainTransients(kernel, now, result);
    if (anyPhased_)
        refreshPhaseWeights(now);
    // A batch runs at one simulated tick: nothing it calls advances the
    // event queue, so each region's geometry holds for the whole batch
    // (and, until refreshGeometry() says otherwise, for later batches).
    // The check below keeps that true.
    refreshGeometry(now);

    const double think = think_.perOpNs(now);
    const std::uint64_t per_op = profile_.accessesPerOp;
    if (per_op == 0) {
        for (std::uint64_t op = 0; op < ops; ++op)
            duration += think;
    }
    // The batch's accesses run in chunks of whole ops, unless one op
    // alone is longer than a chunk. Pass 1 draws a chunk, pass 2 issues
    // it: the draws, the kernel accesses and the sum (think time, then
    // each access's latency, op by op) keep the order of one loop that
    // draws and issues each access in turn.
    const std::uint64_t chunk =
        per_op == 0 || per_op > kChunkAccesses
            ? kChunkAccesses
            : kChunkAccesses - kChunkAccesses % per_op;
    std::uint64_t in_op = 0;
    for (std::uint64_t left = ops * per_op; left != 0;) {
        const std::size_t n = static_cast<std::size_t>(std::min(left, chunk));
        drawChunk(n);
        for (std::size_t i = 0; i < n; ++i) {
            if (in_op == 0)
                duration += think;
            duration += issueAccess(kernel, chunk_[i].vpn, chunk_[i].kind,
                                    result);
            if (++in_op == per_op)
                in_op = 0;
        }
        left -= n;
    }
    if (kernel.eventQueue().now() != now)
        tpp_panic("simulated time moved inside a %s batch",
                  profile_.name.c_str());
    result.ops = ops;
    result.durationNs = std::max(duration, 1.0);
    return result;
}

} // namespace tpp
