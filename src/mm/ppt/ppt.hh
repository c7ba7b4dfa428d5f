/**
 * @file
 * Ping-pong throttling (PPT): a per-page migration-history subsystem
 * that prevents tier thrashing.
 *
 * TPP's decoupled promote/demote paths can livelock a borderline-hot
 * page into a promote -> demote -> promote cycle; each wasted hop
 * carries real transactional copy cost (Nomad), and hysteresis on the
 * migration decision is what keeps dynamic placement stable ("Dynamic
 * Page Placement on Real Persistent Memory Systems"). PPT supplies that
 * hysteresis as a mechanism the MigrationEngine consults on admission:
 *
 *  - a bounded, LRU-evicted history table keyed by stable page identity
 *    (asid, vpn) — the key that survives migration, unlike a pfn —
 *    recording the direction and timestamp of each page's last hop.
 *    The table is its own arena beside the SoA frame table: history is
 *    cold metadata for a small set of suspects, so it must not widen
 *    the 16-byte hot frame records every page pays for. A dense
 *    per-(asid, vpn) slot table (PageSlots) finds a page's entry;
 *  - a cooldown window: a reverse-direction migration within
 *    vm.ppt.cooldown_ms of the prior hop is denied (the deciding
 *    policy simply retries later, exactly like a token-bucket defer);
 *  - hysteresis: once a page has flipped direction
 *    vm.ppt.repeat_threshold times, every further flip doubles its
 *    cooldown, up to vm.ppt.max_cooldown_ms.
 *
 * Same-direction hops are never throttled (a demotion chain A->B->C
 * must stay cheap), and pages with no history are admitted for free.
 * Disabled (the default) the subsystem is a single branch with no
 * allocation and no state, so runs are bit-identical with it off.
 *
 * The class is deliberately standalone — it takes the counters, the
 * trace ring and explicit timestamps rather than a Kernel — so unit
 * tests can drive the cooldown clock directly.
 */

#ifndef TPP_MM_PPT_PPT_HH
#define TPP_MM_PPT_PPT_HH

#include <cstdint>
#include <vector>

#include "mm/sysctl.hh"
#include "mm/vmstat.hh"
#include "sim/page_slots.hh"
#include "sim/types.hh"
#include "trace/trace.hh"

namespace tpp {

/** Direction of one tier hop, as PPT records it. */
enum class PptHop : std::uint8_t {
    Demote = 0, //!< toward the slower tier
    Promote = 1, //!< toward the faster tier
};

/** Tunables behind the vm.ppt.* sysctls. */
struct PptConfig {
    /** Master switch; off means no state, no cost, no behaviour change. */
    bool enable = false;
    /** Base cooldown a reverse hop must wait out, in milliseconds. */
    std::uint64_t cooldownMs = 1000;
    /** History-table capacity in pages (LRU-evicted beyond this). */
    std::uint64_t historyPages = 16384;
    /** Flips after which each further flip escalates the cooldown. */
    std::uint64_t repeatThreshold = 2;
    /** Ceiling the escalated cooldown saturates at, in milliseconds. */
    std::uint64_t maxCooldownMs = 16000;
};

/**
 * The migration-history table and its admission test. One instance per
 * Kernel, owned beside the MigrationEngine that consults it.
 */
class PingPongThrottle
{
  public:
    PingPongThrottle(VmStat &vmstat, TraceBuffer &trace,
                     PptConfig cfg = {});

    PingPongThrottle(const PingPongThrottle &) = delete;
    PingPongThrottle &operator=(const PingPongThrottle &) = delete;

    /** Register the vm.ppt.* knobs (called once by the Kernel). */
    void registerSysctls(SysctlRegistry &sysctl);

    bool enabled() const { return cfg_.enable; }
    const PptConfig &config() const { return cfg_; }

    /**
     * Admission test: may (asid, vpn) hop in direction `dir` at `now`?
     * Allowed when disabled, untracked, same-direction, or the
     * (possibly escalated) cooldown has expired. A denial bumps
     * ppt_throttled_{promote,demote} and fires the ppt_throttle
     * tracepoint; `node`/`type`/`pfn` only scope that tracepoint.
     */
    bool admit(Asid asid, Vpn vpn, PptHop dir, Tick now, NodeId node,
               PageType type, Pfn pfn);

    /**
     * Record one *completed* hop. Creates or refreshes the page's
     * history entry; a direction flip past the repeat threshold
     * escalates the cooldown (ppt_escalated / ppt_escalate).
     */
    void recordHop(Asid asid, Vpn vpn, PptHop dir, Tick now, NodeId node,
                   PageType type, Pfn pfn);

    /** Drop all history (counters and config are untouched). */
    void clear();

    // ---- introspection (tests, benches) -----------------------------

    /** Pages currently tracked in the history table. */
    std::size_t trackedPages() const { return tracked_; }
    /** Effective cooldown of a tracked page in ns; 0 when untracked. */
    Tick cooldownNsFor(Asid asid, Vpn vpn) const;
    /** Direction flips recorded for a page; 0 when untracked. */
    std::uint64_t flipsFor(Asid asid, Vpn vpn) const;
    /** True when the table still remembers (asid, vpn). */
    bool tracks(Asid asid, Vpn vpn) const;
    /**
     * Direction flips recorded since construction, over every page —
     * monotonic, survives LRU eviction of individual entries. This is
     * the machine-wide ping-pong signal consumers outside the admission
     * path (the adaptive tuner) read each profiling window.
     */
    std::uint64_t totalFlips() const { return totalFlips_; }

  private:
    /** One page's history: 40 bytes, pooled, index-linked LRU. */
    struct Entry {
        Vpn vpn = 0;
        Tick lastHopAt = 0;
        Asid asid = 0;
        std::uint32_t flips = 0;
        std::uint32_t lruPrev = kNil;
        std::uint32_t lruNext = kNil;
        PptHop lastDir = PptHop::Demote;
        /** log2 of the cooldown multiplier (saturating). */
        std::uint8_t escalation = 0;
    };

    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** The tracked entry of (asid, vpn), or nullptr. */
    const Entry *entryOf(Asid asid, Vpn vpn) const;
    Tick cooldownNs(const Entry &e) const;
    Tick maxCooldownNs() const;
    std::uint32_t allocEntry(Tick now, NodeId node);
    void evictLru(Tick now, NodeId node);
    void trimToCapacity();
    void lruUnlink(std::uint32_t idx);
    void lruPushFront(std::uint32_t idx);

    PptConfig cfg_;
    VmStat &vmstat_;
    TraceBuffer &trace_;

    /** Entry arena; grows lazily up to cfg_.historyPages and is then
     *  recycled through the free list / LRU eviction. */
    std::vector<Entry> pool_;
    std::vector<std::uint32_t> freeList_;
    /** Per page: its pool_ index plus one, or 0 when untracked. */
    PageSlots<std::uint32_t> index_;
    /** Entries index_ points at. */
    std::size_t tracked_ = 0;
    std::uint32_t lruHead_ = kNil;
    std::uint32_t lruTail_ = kNil;
    /** Most recent timestamp seen; stamps sysctl-driven evictions. */
    Tick lastTick_ = 0;
    /** Lifetime flip count across all pages (see totalFlips()). */
    std::uint64_t totalFlips_ = 0;
};

} // namespace tpp

#endif // TPP_MM_PPT_PPT_HH
