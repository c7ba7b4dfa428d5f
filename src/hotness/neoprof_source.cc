#include "hotness/neoprof_source.hh"

#include <algorithm>
#include <cmath>

#include "mm/kernel.hh"

namespace tpp {

NeoProfSource::~NeoProfSource()
{
    if (kernel_)
        kernel_->removeAccessTap(*this);
}

void
NeoProfSource::attach(Kernel &kernel)
{
    HotnessSource::attach(kernel);
    threshold_ = std::max<double>(1.0, static_cast<double>(cfg_.hotThreshold));
    kernel.addAccessTap(*this);
}

void
NeoProfSource::onKernelAccess(const AccessEvent &event)
{
    // The device only snoops the CXL link: toptier traffic never
    // reaches it, which is what makes the counters free for the CPU.
    // An access that found no frame (OOM) crossed no link at all.
    if (event.pfn == kInvalidPfn ||
        kernel_->mem().tiers().isToptier(event.nid))
        return;
    track(event.pfn);
}

void
NeoProfSource::track(Pfn pfn)
{
    auto it = table_.find(pfn);
    if (it != table_.end()) {
        it->second.count += 1.0;
        lru_.splice(lru_.begin(), lru_, it->second.lruPos);
        return;
    }
    while (cfg_.counterTableSize > 0 && table_.size() >= cfg_.counterTableSize)
        evictOne();
    lru_.push_front(pfn);
    Counter counter;
    counter.count = 1.0;
    counter.lruPos = lru_.begin();
    table_.emplace(pfn, counter);
}

void
NeoProfSource::evictOne()
{
    const Pfn victim = lru_.back();
    kernel_->vmstat().inc(Vm::HotnessCounterEvict);
    const PageFrame &frame = kernel_->mem().frame(victim);
    const PageFrameCold &cold = kernel_->mem().frameCold(victim);
    kernel_->trace().emitPage(TraceEvent::HotnessEvict,
                              kernel_->eventQueue().now(), frame.nid,
                              frame.type, victim, cold.ownerAsid,
                              cold.ownerVpn);
    erase(victim);
}

void
NeoProfSource::erase(Pfn pfn)
{
    const auto it = table_.find(pfn);
    if (it == table_.end())
        return;
    lru_.erase(it->second.lruPos);
    table_.erase(it);
}

double
NeoProfSource::temperature(Pfn pfn) const
{
    const auto it = table_.find(pfn);
    return it == table_.end() ? 0.0 : it->second.count;
}

std::uint64_t
NeoProfSource::targetHotPages() const
{
    // The device aims its hot set at the frames the kernel could
    // actually accept: local free pages above the high watermark.
    std::uint64_t target = 0;
    for (const NodeId nid : kernel_->mem().tiers().toptierNodes()) {
        const MemoryNode &node = kernel_->mem().node(nid);
        const std::uint64_t free = node.freePages();
        const std::uint64_t high = node.watermarks().high;
        if (free > high)
            target += free - high;
    }
    if (cfg_.targetQuantile > 0.0 && cfg_.targetQuantile < 1.0) {
        // Optional override: keep only the top (1-q) fraction of the
        // tracked population hot, regardless of headroom.
        // Round the cap up: a tiny tracked population must still be
        // allowed its hottest page, not starved to zero by truncation.
        const auto cap = static_cast<std::uint64_t>(
            std::ceil((1.0 - cfg_.targetQuantile) *
                      static_cast<double>(table_.size())));
        target = std::min(target, cap);
    }
    return target;
}

void
NeoProfSource::retuneThreshold()
{
    histogram_.fill(0);
    for (const auto &[pfn, counter] : table_) {
        const auto bucket = counter.count < 1.0
                                ? 0u
                                : std::min<std::uint32_t>(
                                      kHistogramBuckets - 1,
                                      1 + static_cast<std::uint32_t>(
                                              std::log2(counter.count)));
        histogram_[bucket]++;
    }

    const std::uint64_t target = targetHotPages();
    // No headroom: park the threshold above every bucket so extractHot
    // returns nothing until the local tier frees up.
    double tuned = std::exp2(kHistogramBuckets - 1);
    if (target > 0) {
        std::uint64_t cum = 0;
        tuned = 1.0; // all buckets together still miss the target
        for (std::uint32_t b = kHistogramBuckets; b-- > 0;) {
            const std::uint64_t above = cum;
            cum += histogram_[b];
            if (cum >= target) {
                // Round conservatively: admit only the buckets strictly
                // above the crossing one, never the whole crossing
                // bucket — the device must not ask for more migration
                // bandwidth than the local tier has headroom to absorb.
                // Unless nothing sits above it: then the hottest bucket
                // itself must flow (its lower bound), or a homogeneous
                // population would deadlock the promoter.
                if (above > 0)
                    tuned = std::exp2(static_cast<double>(b));
                else
                    tuned = b == 0 ? 1.0
                                   : std::exp2(static_cast<double>(b - 1));
                break;
            }
        }
    }

    if (tuned != threshold_) {
        kernel_->vmstat().inc(tuned > threshold_ ? Vm::HotnessThresholdRaise
                                                 : Vm::HotnessThresholdLower);
        threshold_ = tuned;
        kernel_->trace().emit(TraceEvent::HotnessThreshold,
                              kernel_->eventQueue().now(), kInvalidNode,
                              static_cast<std::uint32_t>(std::min(
                                  threshold_,
                                  static_cast<double>(UINT32_MAX))));
    }
}

void
NeoProfSource::advanceEpoch()
{
    if (cfg_.decayHalfLife > 0) {
        const double factor =
            std::exp2(-static_cast<double>(cfg_.epochPeriod) /
                      static_cast<double>(cfg_.decayHalfLife));
        for (auto it = table_.begin(); it != table_.end();) {
            it->second.count *= factor;
            if (it->second.count < 0.5) {
                // Decayed to noise: drop silently — this is forgetting,
                // not capacity pressure, so no evict counter.
                lru_.erase(it->second.lruPos);
                it = table_.erase(it);
            } else {
                ++it;
            }
        }
    }
    retuneThreshold();
}

std::vector<HotPage>
NeoProfSource::extractHot(std::uint64_t max_pages)
{
    std::vector<HotPage> hot;
    for (const auto &[pfn, counter] : table_) {
        if (counter.count < threshold_)
            continue;
        if (!cxlResident(pfn))
            continue;
        HotPage page;
        page.pfn = pfn;
        page.nid = kernel_->mem().frame(pfn).nid;
        page.temperature = counter.count;
        hot.push_back(page);
    }
    std::sort(hot.begin(), hot.end(),
              [](const HotPage &a, const HotPage &b) {
                  return a.temperature != b.temperature
                             ? a.temperature > b.temperature
                             : a.pfn < b.pfn;
              });
    if (hot.size() > max_pages)
        hot.resize(max_pages);
    for (const HotPage &page : hot)
        erase(page.pfn);
    return hot;
}

} // namespace tpp
