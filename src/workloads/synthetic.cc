#include "workloads/synthetic.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <system_error>
#include <thread>

#include "mm/kernel.hh"
#include "sim/logging.hh"
#include "sim/spare_cpu.hh"

namespace tpp {

namespace {

std::atomic<SyntheticWorkload::DrawAhead> drawAheadMode{
    SyntheticWorkload::DrawAhead::Auto};

/**
 * How long a side checks a counter between yields of its CPU before it
 * sleeps. Waking a sleeper takes tens of microseconds on a virtual
 * machine, longer than a chunk takes to draw. The caller waits only for
 * a chunk or for the helper to stop, so it waits long enough to outlast
 * a slow draw. The helper waits for a ring slot or a new session, which
 * take as long as the caller needs to issue a chunk or run a preamble:
 * it checks for about the cost of a wake while its waits end that soon,
 * and sleeps at once after a wait that outlasted that.
 */
constexpr std::chrono::microseconds kCallerWait{2000};
constexpr std::chrono::microseconds kHelperWait{50};

/**
 * Wait until `done` holds for the value of `counter`, read with acquire
 * order, and return that value. Check between yields of the CPU, so a
 * thread waiting for it runs first, until `wait` has passed; then sleep
 * in atomic::wait until the counter changes, with `asleep` (if given)
 * set meanwhile.
 */
template <typename Done>
std::uint32_t
awaitCounter(const std::atomic<std::uint32_t> &counter, Done &&done,
             std::chrono::microseconds wait,
             std::atomic<bool> *asleep = nullptr)
{
    using Clock = std::chrono::steady_clock;
    std::uint32_t value = counter.load(std::memory_order_acquire);
    if (done(value))
        return value;
    const Clock::time_point start = Clock::now();
    while (Clock::now() - start < wait) {
        std::this_thread::yield();
        value = counter.load(std::memory_order_acquire);
        if (done(value))
            return value;
    }
    if (asleep)
        asleep->store(true, std::memory_order_relaxed);
    do {
        counter.wait(value, std::memory_order_acquire);
        value = counter.load(std::memory_order_acquire);
    } while (!done(value));
    if (asleep)
        asleep->store(false, std::memory_order_relaxed);
    return value;
}

} // namespace

/**
 * The draw stream of one workload: a helper thread draws the workload's
 * accesses into a ring of chunks ahead of the calling thread, which
 * issues them in order across chunk and call boundaries. A session is
 * a stretch in which the helper may draw. The caller starts one after
 * any preamble, and it ends when the caller parks it before a preamble
 * that writes the draw state, or when the helper reaches a hot draw of
 * a region whose lazy Zipf check has not run: only the caller runs
 * that check, once it reaches the draw. During a session only the
 * helper touches the draw state (rng_, weightPrefix_, draws_), and
 * between sessions only the caller. Each counter is written by one
 * side, with release order, and read with acquire order:
 *  - session (caller): a new session's start carries every preamble
 *    write to the draw state to the helper;
 *  - consumed (caller): chunks issued, so the caller's reads of a slot
 *    come before the helper draws over it;
 *  - drawn (helper): chunks published, each before the caller issues
 *    it;
 *  - ended (helper): the last session in which the helper has stopped
 *    drawing, with rng_ at its first undrawn access, before the caller
 *    touches the draw state again.
 * The helper sleeps on control, which the caller bumps after each
 * change to session or consumed.
 */
struct SyntheticWorkload::Stream {
    static constexpr std::uint32_t kRingChunks = 8;
    /** The session value that makes the helper exit. */
    static constexpr std::uint32_t kShutdown = ~std::uint32_t{0};

    struct Chunk {
        /** The Rng before the chunk's first draw. */
        Rng start;
        std::uint32_t count = 0; //!< accesses drawn
        /** The region whose Zipf check ended the session after the
         *  chunk, or kNoCheck. */
        std::uint32_t check = kNoCheck;
        std::array<DrawnAccess, kChunkAccesses> accesses;
    };

    std::array<Chunk, kRingChunks> ring;
    // Written by the caller.
    /** Odd while a session runs, even once parked, or kShutdown. */
    alignas(64) std::atomic<std::uint32_t> session{0};
    /** Chunks issued; the helper draws over a slot only after. */
    std::atomic<std::uint32_t> consumed{0};
    std::atomic<std::uint32_t> control{0};
    // Written by the helper.
    alignas(64) std::atomic<std::uint32_t> drawn{0};
    /** The helper sleeps (it is not runnable). */
    std::atomic<bool> asleep{false};
    alignas(64) std::atomic<std::uint32_t> ended{0};

    // The caller's own.
    alignas(64) std::uint32_t next = 0; //!< the chunk being issued
    std::uint32_t read = 0;             //!< its accesses issued
    std::uint32_t published = 0;        //!< drawn, as last acquired
    bool running = false;               //!< a session runs
    bool claimed = false; //!< holds a CPU from claimSpareCpu()
    std::thread thread;

    /** Wake the helper to a change of session or consumed. */
    void
    signal()
    {
        control.fetch_add(1, std::memory_order_release);
        control.notify_one();
    }

    /** Wait until the helper has stopped drawing in session `id`. */
    void
    awaitEnded(std::uint32_t id)
    {
        awaitCounter(
            ended, [id](std::uint32_t value) { return value == id; },
            kCallerWait);
        running = false;
    }
};

SyntheticWorkload::SyntheticWorkload(WorkloadProfile profile)
    : profile_(std::move(profile)),
      think_(profile_.thinkTimePerOpNs, profile_.loadRampSeconds,
             profile_.loadRampStart),
      rng_(profile_.seed)
{
    if (profile_.regions.empty())
        tpp_fatal("synthetic workload needs at least one region");
}

SyntheticWorkload::~SyntheticWorkload()
{
    if (!stream_)
        return;
    Stream &s = *stream_;
    s.session.store(Stream::kShutdown, std::memory_order_release);
    s.signal();
    s.thread.join();
    if (s.claimed)
        releaseSpareCpu();
}

void
SyntheticWorkload::setDrawAheadForTest(DrawAhead mode)
{
    drawAheadMode.store(mode, std::memory_order_relaxed);
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
        state.createdAt = kernel.eventQueue().now();
        state.lastChurn = state.createdAt;
        regions_.push_back(std::move(state));
        RegionDraw draw;
        draw.base = kernel.mmap(asid_, spec.pages, spec.type, spec.label,
                                spec.diskBacked);
        draw.hotShare = spec.hotAccessShare;
        draw.hotOrEchoShare = spec.hotAccessShare + spec.echoShare;
        draw.storeShare = spec.storeShare;
        draw.zipfTheta = spec.zipfTheta;
        draws_.push_back(std::move(draw));
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
    // Rebuild the prefix table only on the call where some region
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
    parkStream();
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
    // the work until one of them can move. A region whose geometry comes
    // out as it was keeps its draw state, check flag included: nothing
    // else moves hotPages or active, so its lazy Zipf check would repeat
    // its last answer.
    if (now < geometryValidUntil_)
        return;
    geometryValidUntil_ = kMaxTick;
    for (std::size_t i = 0; i < regions_.size(); ++i) {
        const RegionState &region = regions_[i];
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
        RegionDraw &draw = draws_[i];
        if (draw.active == active && draw.hotPages == hot_pages &&
            draw.hotStart == hot_start)
            continue;
        parkStream();
        draw.active = active;
        draw.hotPages = hot_pages;
        draw.hotStart = hot_start;
        draw.uniformThreshold = (0 - active) % active;
        draw.zipfChecked = false;
    }
}

void
SyntheticWorkload::checkZipf(RegionDraw &region)
{
    // Rebuild the Zipf sampler only when the hot-set size moved
    // noticeably; construction is cheap but not free. Decided at the
    // first hot draw after the geometry moved: deciding at call start
    // would also rebuild in calls that draw nothing hot here, which
    // changes the stream.
    const std::uint64_t hot_pages = region.hotPages;
    if (!region.zipf ||
        (region.cachedHotPages != hot_pages &&
         (hot_pages > region.cachedHotPages + region.cachedHotPages / 64 ||
          hot_pages + hot_pages / 64 < region.cachedHotPages))) {
        region.zipf.emplace(hot_pages, region.zipfTheta);
        region.cachedHotPages = hot_pages;
    }
    region.zipfChecked = true;
    region.wrapOnce =
        hot_pages <= region.active && region.zipf->size() <= region.active;
}

inline Vpn
SyntheticWorkload::sampleRegionVpn(RegionDraw &region, double roll,
                                   Rng &rng)
{
    const std::uint64_t active = region.active;
    std::uint64_t offset;
    if (roll < region.hotOrEchoShare) {
        if (roll < region.hotShare) {
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

template <bool kStopAtCheck>
inline std::size_t
SyntheticWorkload::drawAccesses(DrawnAccess *out, std::size_t n,
                                Rng &state, std::uint32_t &check)
{
    // Draw from a local copy of the Rng, written back once. Nothing in
    // this loop takes its address, so it can stay in registers.
    Rng rng = state;
    const double *prefix = weightPrefix_.data();
    const std::size_t count = weightPrefix_.size();
    const double total_weight = prefix[count - 1];
    std::size_t i = 0;
    for (; i < n; ++i) {
        const Rng start = rng;
        const double pick = rng.nextDouble() * total_weight;
        const std::size_t index = pickWeighted(prefix, count, pick);
        RegionDraw &region = draws_[index];
        const double roll = rng.nextDouble();
        if (roll < region.hotOrEchoShare && !region.zipfChecked)
            [[unlikely]] {
            if constexpr (kStopAtCheck) {
                rng = start;
                check = static_cast<std::uint32_t>(index);
                break;
            } else {
                checkZipf(region);
            }
        }
        const Vpn vpn = sampleRegionVpn(region, roll, rng);
        const AccessKind kind = rng.nextBool(region.storeShare)
                                    ? AccessKind::Store
                                    : AccessKind::Load;
        out[i] = DrawnAccess{vpn, kind};
    }
    state = rng;
    return i;
}

bool
SyntheticWorkload::startStream()
{
    mayStart_ = false;
    bool claimed = false;
    switch (drawAheadMode.load(std::memory_order_relaxed)) {
      case DrawAhead::Auto:
        // A helper waiting awake is among the runnable threads already.
        if (!claimSpareCpu(!stream_ ||
                           stream_->asleep.load(std::memory_order_relaxed)))
            return false;
        claimed = true;
        break;
      case DrawAhead::Never:
        return false;
      case DrawAhead::Always:
        break;
    }
    if (!stream_) {
        auto stream = std::make_unique<Stream>();
        try {
            stream->thread =
                std::thread([this, &s = *stream] { drawAheadLoop(s); });
        } catch (const std::system_error &) {
            // No thread to be had: draw inline, as on a busy machine.
            if (claimed)
                releaseSpareCpu();
            return false;
        }
        stream_ = std::move(stream);
    }
    stream_->claimed = claimed;
    startSession();
    return true;
}

void
SyntheticWorkload::startSession()
{
    Stream &s = *stream_;
    // The next odd value: a session that ended by itself is still odd.
    s.session.store((s.session.load(std::memory_order_relaxed) + 1) | 1,
                    std::memory_order_release);
    s.running = true;
    s.signal();
}

void
SyntheticWorkload::parkStream()
{
    mayStart_ = true;
    if (!stream_ || !stream_->running)
        return;
    Stream &s = *stream_;
    const std::uint32_t id = s.session.load(std::memory_order_relaxed);
    s.session.store(id + 1, std::memory_order_release);
    s.signal();
    s.awaitEnded(id);
    // Rewind rng_ to the first access not yet issued: to the start of
    // the chunk in hand, then past its issued accesses, which draw as
    // they did (their regions' checks have run, and nothing moved
    // since). Without a chunk in hand, the helper left it there.
    const std::uint32_t drawn = s.drawn.load(std::memory_order_relaxed);
    if (s.next != drawn) {
        rng_ = s.ring[s.next % Stream::kRingChunks].start;
        std::uint32_t check = kNoCheck;
        if (drawAccesses<true>(chunk_.data(), s.read, rng_, check) != s.read)
            tpp_panic("%s: an issued draw needs a Zipf check on rewind",
                      profile_.name.c_str());
    }
    s.next = s.published = drawn;
    s.read = 0;
    s.consumed.store(drawn, std::memory_order_release);
    if (s.claimed) {
        releaseSpareCpu();
        s.claimed = false;
    }
}

const SyntheticWorkload::DrawnAccess *
SyntheticWorkload::nextAccesses(std::size_t &n)
{
    if (!(stream_ && stream_->running) && !(mayStart_ && startStream())) {
        std::uint32_t check = kNoCheck;
        drawAccesses<false>(chunk_.data(), n, rng_, check);
        return chunk_.data();
    }
    Stream &s = *stream_;
    for (;;) {
        if (s.next == s.published) {
            s.published = awaitCounter(
                s.drawn, [&s](std::uint32_t drawn) { return drawn != s.next; },
                kCallerWait);
            continue;
        }
        const Stream::Chunk &chunk = s.ring[s.next % Stream::kRingChunks];
        if (s.read < chunk.count) {
            n = std::min<std::size_t>(n, chunk.count - s.read);
            const DrawnAccess *out = chunk.accesses.data() + s.read;
            s.read += static_cast<std::uint32_t>(n);
            return out;
        }
        // The chunk is issued: hand its slot back.
        const std::uint32_t check = chunk.check;
        s.consumed.store(++s.next, std::memory_order_release);
        s.read = 0;
        if (check == kNoCheck) {
            s.signal();
            continue;
        }
        // The helper stopped before the next access, a hot draw of a
        // region whose Zipf check has not run. That draw is now sure to
        // be issued, so the check runs here, and the stream goes on.
        s.awaitEnded(s.session.load(std::memory_order_relaxed));
        checkZipf(draws_[check]);
        startSession();
    }
}

void
SyntheticWorkload::drawAheadLoop(Stream &s)
{
    // Only allocation can throw in a draw (a Zipf sampler's table).
    // Escaping here, it ends the program, as it would through the sweep
    // from the inline loop.
    using Clock = std::chrono::steady_clock;
    std::chrono::microseconds spin = kHelperWait;
    const auto await_control = [&](auto &&done) {
        const Clock::time_point start = Clock::now();
        awaitCounter(s.control, done, spin, &s.asleep);
        spin = Clock::now() - start <= kHelperWait
                   ? kHelperWait
                   : std::chrono::microseconds{0};
    };
    std::uint32_t last = 0;
    for (;;) {
        std::uint32_t id = 0;
        await_control([&](std::uint32_t) {
            id = s.session.load(std::memory_order_acquire);
            return id != last && id % 2 == 1;
        });
        if (id == Stream::kShutdown)
            return;
        last = id;
        Rng rng = rng_;
        std::uint32_t drawn = s.drawn.load(std::memory_order_relaxed);
        for (;;) {
            // A slot is free once the caller has issued the chunk drawn
            // into it one ring earlier.
            bool parked = false;
            await_control([&](std::uint32_t) {
                parked = s.session.load(std::memory_order_relaxed) != id;
                return parked ||
                       drawn - s.consumed.load(std::memory_order_acquire) <
                           Stream::kRingChunks;
            });
            if (parked)
                break;
            Stream::Chunk &chunk = s.ring[drawn % Stream::kRingChunks];
            chunk.start = rng;
            chunk.check = kNoCheck;
            chunk.count = static_cast<std::uint32_t>(drawAccesses<true>(
                chunk.accesses.data(), kChunkAccesses, rng, chunk.check));
            s.drawn.store(++drawn, std::memory_order_release);
            s.drawn.notify_one();
            if (chunk.check != kNoCheck)
                break;
        }
        rng_ = rng;
        s.ended.store(id, std::memory_order_release);
        s.ended.notify_one();
    }
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
        const RegionState &region = regions_[warmupCursorRegion_];
        if (warmupCursorPage_ >= warm_limit(region.spec)) {
            warmupCursorPage_ = 0;
            do {
                warmupCursorRegion_++;
            } while (warmupCursorRegion_ < regions_.size() &&
                     !regions_[warmupCursorRegion_].spec.sequentialWarmup);
            continue;
        }
        const Vpn vpn = draws_[warmupCursorRegion_].base + warmupCursorPage_;
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
    // The allocations' touches draw from rng_.
    if (transientCredit_ >= 1.0)
        parkStream();
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
    for (std::size_t r = 0; r < regions_.size(); ++r) {
        RegionState &region = regions_[r];
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
        parkStream();
        RegionDraw &draw = draws_[r];
        kernel.munmap(asid_, draw.base, spec.pages);
        draw.base = kernel.mmap(asid_, spec.pages, spec.type, spec.label,
                                spec.diskBacked);
        region.lastChurn = now;
        draw.zipf.reset();
        draw.cachedHotPages = 0;
        draw.zipfChecked = false;
        geometryValidUntil_ = 0;
        if (spec.populateOnChurn) {
            for (std::uint64_t i = 0; i < spec.pages; ++i) {
                duration += issueAccess(kernel, draw.base + i,
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

    // The preamble. Each step that writes the draw state parks the
    // stream first, and the first draw after it starts the stream again.
    double duration = 0.0;
    duration += maintainChurn(kernel, now);
    duration += maintainTransients(kernel, now, result);
    if (anyPhased_)
        refreshPhaseWeights(now);
    // A call runs at one simulated tick: nothing it calls advances the
    // event queue, so each region's geometry holds for the whole call
    // (and, until refreshGeometry() says otherwise, for later calls).
    // The check below keeps that true.
    refreshGeometry(now);

    const double think = think_.perOpNs(now);
    const std::uint64_t per_op = profile_.accessesPerOp;
    if (per_op == 0) {
        for (std::uint64_t op = 0; op < ops; ++op)
            duration += think;
    }
    // The accesses run in chunks: take a chunk of drawn accesses, then
    // issue it. The draws, the kernel accesses and the sum (think time,
    // then each access's latency, op by op) keep the order of one loop
    // that draws and issues each access in turn, wherever a draw ran.
    std::uint64_t in_op = 0;
    for (std::uint64_t left = ops * per_op; left != 0;) {
        std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(left, kChunkAccesses));
        const DrawnAccess *drawn = nextAccesses(n);
        for (std::size_t i = 0; i < n; ++i) {
            if (in_op == 0)
                duration += think;
            duration += issueAccess(kernel, drawn[i].vpn, drawn[i].kind,
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
