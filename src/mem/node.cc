#include "mem/node.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace tpp {

namespace {
/** EWMA smoothing factor per window. */
constexpr double kUtilAlpha = 0.3;
} // namespace

Watermarks
Watermarks::forCapacity(std::uint64_t capacity_pages,
                        double demote_scale_factor)
{
    Watermarks wm;
    // The kernel sizes min from min_free_kbytes ~ 4*sqrt(mem); for the
    // node sizes we simulate a simple fraction captures the behaviour:
    // min ~0.25 %, low ~0.5 %, high ~0.75 % of capacity, all >= 8 pages.
    auto frac = [capacity_pages](double f) {
        return std::max<std::uint64_t>(
            8, static_cast<std::uint64_t>(
                   static_cast<double>(capacity_pages) * f));
    };
    wm.min = frac(0.0025);
    // Keep the ladder strictly ordered even on tiny nodes where the
    // fractional marks would collapse onto the floor value.
    wm.low = std::max(wm.min + 4, frac(0.0050));
    wm.high = std::max(wm.low + 4, frac(0.0075));
    // TPP requires the demotion watermark above the allocation one, and
    // demotes a little past the trigger so the node gains real headroom
    // before the daemon goes back to sleep.
    wm.demoteTrigger =
        std::max(wm.high + 8, frac(demote_scale_factor / 100.0));
    wm.demoteTarget = std::max(wm.demoteTrigger + 8,
                               frac(demote_scale_factor * 1.5 / 100.0));
    return wm;
}

MemoryNode::MemoryNode(NodeId id, Pfn first_pfn,
                       std::uint64_t capacity_pages, NodeProfile profile)
    : id_(id), firstPfn_(first_pfn), capacity_(capacity_pages),
      profile_(std::move(profile)),
      watermarks_(Watermarks::forCapacity(capacity_pages))
{
    if (capacity_pages == 0)
        tpp_fatal("memory node %u configured with zero capacity", id);
}

Pfn
MemoryNode::takeFree()
{
    // Recycled frames first (LIFO), then the bump cursor ascending from
    // firstPfn — exactly the order the old pre-materialised free list
    // produced, so allocation-order-sensitive goldens are unaffected.
    Pfn pfn;
    if (!recycled_.empty()) {
        pfn = recycled_.back();
        recycled_.pop_back();
    } else if (bump_ < capacity_) {
        pfn = firstPfn_ + static_cast<Pfn>(bump_++);
    } else {
        return kInvalidPfn;
    }
    if (frames_) {
        // Lazy init: the calloc'ed frame starts all-zero; stamp its
        // identity the first time it is handed out (idempotent after).
        PageFrame &f = frames_[pfn];
        f.pfn = pfn;
        f.nid = id_;
    }
    return pfn;
}

void
MemoryNode::putFree(Pfn pfn)
{
    if (!ownsPfn(pfn))
        tpp_panic("putFree: pfn %u does not belong to node %u", pfn, id_);
    if (recycled_.size() >= bump_)
        tpp_panic("putFree: node %u free list overflow", id_);
    recycled_.push_back(pfn);
}

void
MemoryNode::decayTraffic(Tick now) const
{
    while (now >= trafficWindowStart_ + kTrafficWindow) {
        const double window_seconds =
            static_cast<double>(kTrafficWindow) /
            static_cast<double>(kSecond);
        const double gbps = windowBytes_ / window_seconds / 1e9;
        const double util =
            std::min(1.0, gbps / std::max(1e-9, profile_.bandwidthGBps));
        utilEwma_ = kUtilAlpha * util + (1.0 - kUtilAlpha) * utilEwma_;
        windowBytes_ = 0.0;
        trafficWindowStart_ += kTrafficWindow;
        // Fast-forward across long idle gaps.
        if (now - trafficWindowStart_ > 64 * kTrafficWindow) {
            utilEwma_ = 0.0;
            trafficWindowStart_ = now - (now % kTrafficWindow);
            break;
        }
    }
}

void
MemoryNode::recordTraffic(Tick now, std::uint64_t bytes)
{
    decayTraffic(now);
    windowBytes_ += static_cast<double>(bytes);
}

double
MemoryNode::utilization(Tick now) const
{
    decayTraffic(now);
    return utilEwma_;
}

} // namespace tpp
