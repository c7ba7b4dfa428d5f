/**
 * @file
 * PingPongThrottle implementation: the bounded history arena, the
 * cooldown/escalation arithmetic and the vm.ppt.* knobs.
 */

#include "mm/ppt/ppt.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>

#include "sim/logging.hh"

namespace tpp {

namespace {

/** History-table capacity ceiling: 16 Mi entries (~640 MiB) is already
 *  far past any simulated machine; the cap keeps a typo'd sysctl from
 *  attempting an absurd reservation. */
constexpr std::uint64_t kMaxHistoryPages = std::uint64_t{1} << 24;

/** Cooldown knob ceiling in ms (~17 minutes of simulated time). */
constexpr std::uint64_t kMaxCooldownKnobMs = std::uint64_t{1} << 20;

/**
 * Parse an unsigned knob value with registerU64's strictness: no sign,
 * no leading whitespace, no trailing garbage, no overflow. Local copy
 * because the cross-field checks below need registerKnob's custom
 * setter form, which bypasses the registry's own parser.
 */
bool
parseU64(const std::string &text, std::uint64_t *out)
{
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    *out = parsed;
    return true;
}

} // namespace

PingPongThrottle::PingPongThrottle(VmStat &vmstat, TraceBuffer &trace,
                                   PptConfig cfg)
    : cfg_(cfg), vmstat_(vmstat), trace_(trace)
{
    if (cfg_.historyPages == 0)
        tpp_fatal("ppt: history_pages must be >= 1");
    if (cfg_.cooldownMs == 0 || cfg_.cooldownMs > cfg_.maxCooldownMs)
        tpp_fatal("ppt: need 1 <= cooldown_ms <= max_cooldown_ms");
    if (cfg_.repeatThreshold == 0)
        tpp_fatal("ppt: repeat_threshold must be >= 1");
}

void
PingPongThrottle::registerSysctls(SysctlRegistry &sysctl)
{
    sysctl.registerBool("vm.ppt.enable", &cfg_.enable);
    // cooldown_ms and max_cooldown_ms validate against each other, so
    // both need the custom-knob form: the pair must always satisfy
    // 1 <= cooldown_ms <= max_cooldown_ms (tighten the ceiling before
    // raising the base, and vice versa).
    sysctl.registerKnob(
        "vm.ppt.cooldown_ms",
        [this] { return std::to_string(cfg_.cooldownMs); },
        [this](const std::string &text) {
            std::uint64_t v = 0;
            if (!parseU64(text, &v))
                return false;
            if (v < 1 || v > kMaxCooldownKnobMs || v > cfg_.maxCooldownMs)
                return false;
            cfg_.cooldownMs = v;
            return true;
        });
    sysctl.registerKnob(
        "vm.ppt.max_cooldown_ms",
        [this] { return std::to_string(cfg_.maxCooldownMs); },
        [this](const std::string &text) {
            std::uint64_t v = 0;
            if (!parseU64(text, &v))
                return false;
            if (v < cfg_.cooldownMs || v > kMaxCooldownKnobMs)
                return false;
            cfg_.maxCooldownMs = v;
            return true;
        });
    sysctl.registerU64("vm.ppt.history_pages", &cfg_.historyPages,
                       [this] { trimToCapacity(); },
                       /*min=*/1, /*max=*/kMaxHistoryPages);
    sysctl.registerU64("vm.ppt.repeat_threshold", &cfg_.repeatThreshold,
                       nullptr, /*min=*/1);
}

Tick
PingPongThrottle::maxCooldownNs() const
{
    return cfg_.maxCooldownMs * kMillisecond;
}

Tick
PingPongThrottle::cooldownNs(const Entry &e) const
{
    // Escalate in ms-space, saturating at the ceiling before the ns
    // conversion so no shift or multiply can overflow 64 bits (the
    // knob parser caps cooldownMs at 2^20 and escalation stops once
    // the ceiling is reached, but belt-and-braces here is one branch).
    if (e.escalation >= 32)
        return maxCooldownNs();
    const std::uint64_t ms = cfg_.cooldownMs << e.escalation;
    if (ms >= cfg_.maxCooldownMs || (ms >> e.escalation) != cfg_.cooldownMs)
        return maxCooldownNs();
    return ms * kMillisecond;
}

const PingPongThrottle::Entry *
PingPongThrottle::entryOf(Asid asid, Vpn vpn) const
{
    const std::uint32_t *slot = index_.find(asid, vpn);
    return slot && *slot ? &pool_[*slot - 1] : nullptr;
}

bool
PingPongThrottle::admit(Asid asid, Vpn vpn, PptHop dir, Tick now,
                        NodeId node, PageType type, Pfn pfn)
{
    if (!cfg_.enable)
        return true;
    lastTick_ = now;
    const Entry *e = entryOf(asid, vpn);
    if (!e)
        return true;
    if (e->lastDir == dir)
        return true; // same direction: chained hops stay free
    if (now - e->lastHopAt >= cooldownNs(*e))
        return true;
    // Denied: the page is still inside its reverse-hop cooldown. Keep
    // the offender's history hot in the LRU — evicting it mid-cooldown
    // would forget exactly the page the table exists to remember.
    const auto idx = static_cast<std::uint32_t>(e - pool_.data());
    lruUnlink(idx);
    lruPushFront(idx);
    vmstat_.inc(dir == PptHop::Promote ? Vm::PptThrottledPromote
                                       : Vm::PptThrottledDemote);
    trace_.emitPage(TraceEvent::PptThrottle, now, node, type, pfn, asid,
                    vpn, static_cast<std::uint32_t>(dir));
    return false;
}

void
PingPongThrottle::recordHop(Asid asid, Vpn vpn, PptHop dir, Tick now,
                            NodeId node, PageType type, Pfn pfn)
{
    if (!cfg_.enable)
        return;
    lastTick_ = now;
    // Address spaces hand out dense low vpns; one this far out is a
    // bug upstream, and would size the slot table past any machine.
    if (vpn >> 48)
        tpp_panic("ppt: vpn %llu is past the history table's range",
                  static_cast<unsigned long long>(vpn));
    std::uint32_t &slot = index_(asid, vpn);
    if (slot == 0) {
        // allocEntry() may evict another page, clearing that page's
        // slot; this one stays valid.
        const std::uint32_t idx = allocEntry(now, node);
        Entry &e = pool_[idx];
        e.vpn = vpn;
        e.asid = asid;
        e.lastHopAt = now;
        e.flips = 0;
        e.lastDir = dir;
        e.escalation = 0;
        slot = idx + 1;
        tracked_++;
        lruPushFront(idx);
        return;
    }

    const std::uint32_t idx = slot - 1;
    Entry &e = pool_[idx];
    if (e.lastDir != dir) {
        e.flips++;
        totalFlips_++;
        // Hysteresis: past the repeat threshold every further flip
        // doubles the cooldown until it saturates at the ceiling.
        if (e.flips >= cfg_.repeatThreshold &&
            cooldownNs(e) < maxCooldownNs()) {
            e.escalation++;
            vmstat_.inc(Vm::PptEscalated);
            trace_.emitPage(
                TraceEvent::PptEscalate, now, node, type, pfn, asid, vpn,
                static_cast<std::uint32_t>(cooldownNs(e) / kMillisecond));
        }
    }
    e.lastDir = dir;
    e.lastHopAt = now;
    lruUnlink(idx);
    lruPushFront(idx);
}

void
PingPongThrottle::clear()
{
    pool_.clear();
    freeList_.clear();
    index_.clear();
    tracked_ = 0;
    lruHead_ = kNil;
    lruTail_ = kNil;
}

Tick
PingPongThrottle::cooldownNsFor(Asid asid, Vpn vpn) const
{
    const Entry *e = entryOf(asid, vpn);
    return e ? cooldownNs(*e) : 0;
}

std::uint64_t
PingPongThrottle::flipsFor(Asid asid, Vpn vpn) const
{
    const Entry *e = entryOf(asid, vpn);
    return e ? e->flips : 0;
}

bool
PingPongThrottle::tracks(Asid asid, Vpn vpn) const
{
    return entryOf(asid, vpn) != nullptr;
}

std::uint32_t
PingPongThrottle::allocEntry(Tick now, NodeId node)
{
    if (!freeList_.empty()) {
        const std::uint32_t idx = freeList_.back();
        freeList_.pop_back();
        return idx;
    }
    if (pool_.size() < cfg_.historyPages) {
        pool_.emplace_back();
        return static_cast<std::uint32_t>(pool_.size() - 1);
    }
    evictLru(now, node);
    const std::uint32_t idx = freeList_.back();
    freeList_.pop_back();
    return idx;
}

void
PingPongThrottle::evictLru(Tick now, NodeId node)
{
    if (lruTail_ == kNil)
        tpp_panic("ppt: eviction from an empty history table");
    const std::uint32_t idx = lruTail_;
    lruUnlink(idx);
    index_(pool_[idx].asid, pool_[idx].vpn) = 0;
    tracked_--;
    freeList_.push_back(idx);
    vmstat_.inc(Vm::PptHistoryEvict);
    trace_.emit(TraceEvent::PptEvict, now, node);
}

void
PingPongThrottle::trimToCapacity()
{
    // Sysctl shrink: forget coldest-first until we fit. The pool keeps
    // its high-water allocation (entries just park on the free list);
    // a later capacity raise grows into it again.
    while (tracked_ > cfg_.historyPages)
        evictLru(lastTick_, kInvalidNode);
}

void
PingPongThrottle::lruUnlink(std::uint32_t idx)
{
    Entry &e = pool_[idx];
    if (e.lruPrev != kNil)
        pool_[e.lruPrev].lruNext = e.lruNext;
    else if (lruHead_ == idx)
        lruHead_ = e.lruNext;
    if (e.lruNext != kNil)
        pool_[e.lruNext].lruPrev = e.lruPrev;
    else if (lruTail_ == idx)
        lruTail_ = e.lruPrev;
    e.lruPrev = kNil;
    e.lruNext = kNil;
}

void
PingPongThrottle::lruPushFront(std::uint32_t idx)
{
    Entry &e = pool_[idx];
    e.lruPrev = kNil;
    e.lruNext = lruHead_;
    if (lruHead_ != kNil)
        pool_[lruHead_].lruPrev = idx;
    lruHead_ = idx;
    if (lruTail_ == kNil)
        lruTail_ = idx;
}

} // namespace tpp
