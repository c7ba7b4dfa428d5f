#include "chameleon/chameleon.hh"

#include <algorithm>
#include <bit>

#include "mm/kernel.hh"
#include "sim/logging.hh"

namespace tpp {

namespace {

std::uint64_t
pageKey(Asid asid, Vpn vpn)
{
    return (static_cast<std::uint64_t>(asid) << 48) | (vpn & 0xffffffffffffULL);
}

Asid
keyAsid(std::uint64_t key)
{
    return static_cast<Asid>(key >> 48);
}

Vpn
keyVpn(std::uint64_t key)
{
    return key & 0xffffffffffffULL;
}

} // namespace

Chameleon::Chameleon(Kernel &kernel, ChameleonConfig cfg)
    : kernel_(kernel), cfg_(cfg)
{
    if (cfg_.samplePeriod == 0)
        tpp_fatal("Chameleon sample period must be >= 1");
    if (cfg_.numCoreGroups == 0)
        tpp_fatal("Chameleon needs at least one core group");
    if (cfg_.bitsPerInterval == 0 || cfg_.bitsPerInterval > 8 ||
        64 % cfg_.bitsPerInterval != 0) {
        tpp_fatal("bitsPerInterval must divide 64 and be in [1, 8]");
    }
    kernel_.addAccessTap(*this);
}

Chameleon::~Chameleon()
{
    kernel_.removeAccessTap(*this);
}

bool
Chameleon::samplingLive(Tick tick) const
{
    if (!cfg_.dutyCycle || cfg_.numCoreGroups == 1)
        return true;
    // The Collector enables sampling on one core group at a time and
    // rotates every mini_interval; a single observed stream is therefore
    // live for 1/numCoreGroups of the time.
    const std::uint64_t slice = tick / cfg_.miniInterval;
    return (slice % cfg_.numCoreGroups) == 0;
}

void
Chameleon::onKernelAccess(const AccessEvent &event)
{
    totalEvents_++;
    if (!samplingLive(event.tick))
        return;
    // PMU counter overflow every samplePeriod events.
    if (++eventCounter_ < cfg_.samplePeriod)
        return;
    eventCounter_ = 0;
    totalSamples_++;
    tables_[currentTable_][pageKey(event.asid, event.vpn)]++;
}

void
Chameleon::start()
{
    kernel_.eventQueue().scheduleAfter(cfg_.interval,
                                       [this] { intervalTick(); });
}

void
Chameleon::intervalTick()
{
    // Collector: retire the active table and hand it to the Worker,
    // pointing new samples at the other one.
    auto &retired = tables_[currentTable_];
    currentTable_ ^= 1;

    ChameleonIntervalStats stats;
    stats.tick = kernel_.eventQueue().now();

    // Worker: shift every tracked page's bitmap one interval left.
    const std::uint32_t bits = cfg_.bitsPerInterval;
    const std::uint64_t field_mask = (bits == 64) ? ~0ULL
                                                  : ((1ULL << bits) - 1);
    for (auto &[key, hist] : history_)
        hist.bitmap <<= bits;

    // Mark pages sampled this interval and collect gap statistics.
    for (const auto &[key, count] : retired) {
        PageHistory &hist = history_[key];
        const std::uint64_t previous = hist.bitmap;
        if (previous != 0) {
            // Gap = index of the most recent prior interval with a
            // touch (interval field width = bitsPerInterval).
            const std::uint32_t fields = 64 / bits;
            for (std::uint32_t gap = 1; gap < fields; ++gap) {
                if ((previous >> (gap * bits)) & field_mask) {
                    if (gap < stats.reaccessGap.size())
                        stats.reaccessGap[gap]++;
                    break;
                }
            }
        }
        hist.bitmap |= std::min<std::uint64_t>(count, field_mask);
        if (count >= cfg_.frequentThreshold)
            stats.frequentTotal++;
        // Resolve the page type through the kernel-provided mapping
        // (the /proc/$PID/maps equivalent).
        const Asid asid = keyAsid(key);
        const Vpn vpn = keyVpn(key);
        const AddressSpace &as = kernel_.addressSpace(asid);
        if (vpn < as.tableSize())
            hist.type = as.pte(vpn).type;
        stats.touchedByType[static_cast<std::size_t>(hist.type)]++;
        stats.touchedTotal++;
    }
    retired.clear();

    // Residency via the kernel's per-process accounting.
    for (std::size_t p = 0; p < kernel_.numProcesses(); ++p) {
        const AddressSpace &as = kernel_.addressSpace(static_cast<Asid>(p));
        stats.residentTotal += as.residentPages();
        for (std::size_t t = 0; t < kNumPageTypes; ++t) {
            stats.residentByType[t] +=
                as.residentPages(static_cast<PageType>(t));
        }
    }

    intervals_.push_back(stats);
    kernel_.eventQueue().scheduleAfter(cfg_.interval,
                                       [this] { intervalTick(); });
}

double
Chameleon::meanHotFraction(PageType type) const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &stats : intervals_) {
        const std::uint64_t resident =
            stats.residentByType[static_cast<std::size_t>(type)];
        if (resident == 0)
            continue;
        sum += static_cast<double>(
                   stats.touchedByType[static_cast<std::size_t>(type)]) /
               static_cast<double>(resident);
        n++;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

double
Chameleon::meanHotFraction() const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &stats : intervals_) {
        if (stats.residentTotal == 0)
            continue;
        sum += static_cast<double>(stats.touchedTotal) /
               static_cast<double>(stats.residentTotal);
        n++;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

std::uint64_t
Chameleon::activityWord(Asid asid, Vpn vpn) const
{
    const auto it = history_.find(pageKey(asid, vpn));
    return it == history_.end() ? 0 : it->second.bitmap;
}

std::vector<ChameleonPageActivity>
Chameleon::activitySnapshot() const
{
    std::vector<ChameleonPageActivity> out;
    out.reserve(history_.size());
    for (const auto &[key, hist] : history_) {
        ChameleonPageActivity page;
        page.asid = keyAsid(key);
        page.vpn = keyVpn(key);
        page.bitmap = hist.bitmap;
        page.type = hist.type;
        out.push_back(page);
    }
    std::sort(out.begin(), out.end(),
              [](const ChameleonPageActivity &a,
                 const ChameleonPageActivity &b) {
                  return a.asid != b.asid ? a.asid < b.asid
                                          : a.vpn < b.vpn;
              });
    return out;
}

double
Chameleon::reaccessCdf(std::uint32_t max_gap) const
{
    std::uint64_t total = 0;
    std::uint64_t within = 0;
    for (const auto &stats : intervals_) {
        for (std::size_t g = 1; g < stats.reaccessGap.size(); ++g) {
            total += stats.reaccessGap[g];
            if (g <= max_gap)
                within += stats.reaccessGap[g];
        }
    }
    if (total == 0)
        return 0.0;
    return static_cast<double>(within) / static_cast<double>(total);
}

} // namespace tpp
