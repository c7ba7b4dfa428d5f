/**
 * @file
 * The simulated OS memory manager.
 *
 * Kernel owns every mm mechanism — page allocation with zone fallback
 * and watermark gates, per-node LRU lists, background (kswapd) and
 * direct reclaim, swap-out/in, page migration, NUMA-hint sampling and
 * the fault path — and delegates placement decisions to an attached
 * PlacementPolicy. TPP and the baselines are all policies over this one
 * mechanism layer, mirroring how the real patch set modifies Linux.
 *
 * The implementation is split across kernel.cc (core / fault path),
 * kernel_alloc.cc, kernel_reclaim.cc and kernel_migrate.cc.
 */

#ifndef TPP_MM_KERNEL_HH
#define TPP_MM_KERNEL_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/memory_system.hh"
#include "mm/access_tap.hh"
#include "mm/address_space.hh"
#include "mm/lru.hh"
#include "mm/memcg/memcg.hh"
#include "mm/migration/migration_config.hh"
#include "mm/placement_policy.hh"
#include "mm/sysctl.hh"
#include "mm/vmstat.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "trace/trace.hh"

namespace tpp {

class MigrationEngine;
class PingPongThrottle;

/** Latency constants of the mm code paths, in nanoseconds. */
struct MmCosts {
    double minorFault = 900.0;      //!< alloc + map + zeroing
    double majorFaultFixed = 2000.0;//!< fault path before device wait
    double diskReadNs = 80000.0;    //!< refault of a dropped file page
    double hintFaultFixed = 800.0;  //!< NUMA hint fault handling
    double scanPage = 150.0;        //!< reclaim scan per page
    double unmapCleanFile = 2000.0; //!< drop clean file page (TLB flush)
    double swapOutPage = 30000.0;   //!< write one page to swap
    double migratePage = 700.0;     //!< move one page to another node
    double kswapdWakeup = 10000.0;  //!< wake-to-run latency
    /**
     * Workingset-refault window: a page evicted and refaulted within
     * this interval was part of the working set, so it re-enters on the
     * active list (Linux's workingset.c shadow-entry logic, with the
     * refault-distance test simplified to a time window).
     */
    Tick workingsetWindow = 2 * kSecond;
};

/** Why a page is being allocated; selects the watermark gate. */
enum class AllocReason : std::uint8_t {
    App,       //!< process fault
    Promotion, //!< migration target for a promoted page
    Demotion,  //!< migration target for a demoted page
    SwapIn,    //!< major-fault refill
};

/** Result of one memory access through Kernel::access(). */
struct AccessResult {
    double latencyNs = 0.0;     //!< total latency charged to the access
    NodeId servedBy = kInvalidNode; //!< node that held the page
    bool minorFault = false;
    bool majorFault = false;
    bool hintFault = false;
    bool oom = false;           //!< allocation failed outright
};

/** Per-node access traffic accounting (drives Fig 15/16/19 rows). */
struct NodeTraffic {
    std::uint64_t accesses = 0;
    std::uint64_t accessesByType[kNumPageTypes] = {0, 0};
    /** Application (fault-path) page allocations served by this node. */
    std::uint64_t appAllocs = 0;
};

/**
 * The OS memory-management simulator.
 */
class Kernel
{
  public:
    /**
     * @param mem        physical memory (nodes, frames, swap)
     * @param eq         simulation event queue for daemons
     * @param policy     placement policy; Kernel takes ownership
     * @param costs      mm code-path latency constants
     * @param migration  MigrationEngine mode; the default is the
     *                   synchronous compat mode (bit-identical to the
     *                   pre-engine kernel)
     */
    Kernel(MemorySystem &mem, EventQueue &eq,
           std::unique_ptr<PlacementPolicy> policy, MmCosts costs = {},
           MigrationConfig migration = {});
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    // ---- component access -------------------------------------------

    MemorySystem &mem() { return mem_; }
    const MemorySystem &mem() const { return mem_; }
    EventQueue &eventQueue() { return eq_; }
    VmStat &vmstat() { return vmstat_; }
    const VmStat &vmstat() const { return vmstat_; }

    /** Tracepoint ring; disabled (and free) unless a client enables it. */
    TraceBuffer &trace() { return trace_; }
    const TraceBuffer &trace() const { return trace_; }
    PlacementPolicy &policy() { return *policy_; }
    const MmCosts &costs() const { return costs_; }

    /** /proc/sys-style knob registry (policies add theirs at attach). */
    SysctlRegistry &sysctl() { return sysctl_; }
    const SysctlRegistry &sysctl() const { return sysctl_; }

    /** Memory cgroups: per-tenant accounting, protection, budgets. */
    MemcgController &memcg() { return memcg_; }
    const MemcgController &memcg() const { return memcg_; }

    /**
     * Attach `tap` (mm/access_tap.hh): from now on it sees every
     * access once, in attach order with the other taps. A tap detaches
     * itself before it dies; detaching an unattached tap is a no-op.
     */
    void addAccessTap(KernelAccessTap &tap) { taps_.push_back(&tap); }
    void removeAccessTap(KernelAccessTap &tap) { std::erase(taps_, &tap); }

    LruSet &lru(NodeId nid) { return lrus_[nid]; }
    const LruSet &lru(NodeId nid) const { return lrus_[nid]; }

    /** Start policy daemons; call once before the first access. */
    void start();

    // ---- processes ---------------------------------------------------

    /** Create a process. @return its asid. */
    Asid createProcess();

    AddressSpace &addressSpace(Asid asid);
    const AddressSpace &addressSpace(Asid asid) const;
    std::size_t numProcesses() const { return spaces_.size(); }

    /** Reserve a virtual region (see AddressSpace::mmap). */
    Vpn mmap(Asid asid, std::uint64_t pages, PageType type,
             std::string label = "", bool disk_backed = false);

    /**
     * Release a virtual region: frees resident frames, releases swap
     * slots, then drops the VMA.
     */
    void munmap(Asid asid, Vpn start, std::uint64_t pages);

    // ---- the access path ---------------------------------------------

    /**
     * One memory access by a task running on `task_nid`. Handles minor
     * faults (allocation), major faults (swap-in / disk refault) and
     * NUMA hint faults, updates LRU/referenced state and traffic
     * accounting, and returns the modelled latency.
     *
     * Defined inline below: a resident page that is neither armed for
     * a hint fault nor under migration takes the fast path, one
     * page-table walk and serveAccess(). Any other page state goes to
     * accessSlow(), which also owns every bounds check's panic. Both
     * report the access to the taps just before serveAccess(): after
     * it, asid, vpn and kind stay live and the inline path is ~10% slower.
     */
    AccessResult access(Asid asid, Vpn vpn, AccessKind kind,
                        NodeId task_nid);

    // ---- allocation (kernel_alloc.cc) ---------------------------------

    /**
     * Allocate one frame. Applies the gate on the preferred node, falls
     * back across the zonelist, wakes kswapd, and for App allocations
     * enters direct reclaim rather than failing.
     *
     * @return frame number, or kInvalidPfn on OOM. `stall_ns` is
     *         incremented by any direct-reclaim latency incurred.
     */
    Pfn allocPage(NodeId preferred, PageType type, AllocReason reason,
                  double *stall_ns = nullptr);

    /** Watermark gate applied to `reason` allocations. */
    WatermarkGate gateFor(AllocReason reason) const;

    /** Promotion allocations bypass allocation watermarks when true. */
    void setPromotionIgnoresWatermark(bool v)
    {
        promotionIgnoresWatermark_ = v;
    }

    /** Free one mapped frame: unlink LRU, clear PTE, return to node. */
    void freeFrame(Pfn pfn);

    // ---- reclaim (kernel_reclaim.cc) -----------------------------------

    /** Wake the background reclaimer of `nid` if it is sleeping. */
    void wakeKswapd(NodeId nid);

    /** @return true when `nid`'s kswapd is actively reclaiming. */
    bool kswapdActive(NodeId nid) const;

    /**
     * Synchronous direct reclaim of up to `nr_pages` on `nid`.
     * @return {pages reclaimed, latency ns}.
     */
    std::pair<std::uint64_t, double> directReclaim(NodeId nid,
                                                   std::uint64_t nr_pages);

    // ---- migration (mm/migration/, kernel_migrate.cc) ------------------

    /** The migration subsystem (queues, admission, transactions). */
    MigrationEngine &migration() { return *migration_; }
    const MigrationEngine &migration() const { return *migration_; }

    /** Ping-pong throttling: per-page migration-history admission. */
    PingPongThrottle &ppt() { return *ppt_; }
    const PingPongThrottle &ppt() const { return *ppt_; }

    /**
     * Demote one page to the first CXL node (by distance) with room.
     * Routed through the MigrationEngine: may queue in async mode; on
     * sync failure falls back to classic reclaim of that page.
     * @return {freed-on-src, latency ns}.
     */
    std::pair<bool, double> demotePage(Pfn pfn);

    /**
     * Promote one page to `dst`. Applies the promotion gate.
     * @return {promoted, latency ns}. Updates promotion counters.
     */
    std::pair<bool, double> promotePage(Pfn pfn, NodeId dst);

    /**
     * Promote with the source node the caller examined: failure
     * accounting stays correctly node-scoped even when the frame is
     * freed or isolated between the caller's check and the attempt.
     */
    std::pair<bool, double> promotePage(Pfn pfn, NodeId src, NodeId dst);

    /**
     * Raw migration mechanism used by the engine's synchronous paths
     * and by policies that move pages directly (AutoTiering).
     * `stall_ns` accumulates any direct-reclaim latency paid while
     * allocating the migration target.
     * @return destination pfn or kInvalidPfn.
     */
    Pfn migratePage(Pfn pfn, NodeId dst, AllocReason reason,
                    double *stall_ns = nullptr);

    /**
     * Account a hint-faulted page accepted as a promotion candidate:
     * bumps the pgpromote_candidate counter family (split by type and
     * PG_demoted) and fires the PromoteCandidate tracepoint. Policies
     * call this instead of duplicating the counter choreography.
     */
    void notePromoteCandidate(const PageFrame &frame);

    // ---- NUMA-hint sampling --------------------------------------------

    /**
     * Sample up to `batch` mapped pages on `nid`: set prot_none so their
     * next access takes a hint fault. Uses a per-node circular cursor.
     * @return pages actually sampled.
     */
    std::uint64_t sampleNode(NodeId nid, std::uint64_t batch);

    // ---- statistics -----------------------------------------------------

    const NodeTraffic &traffic(NodeId nid) const { return traffic_[nid]; }
    void resetTraffic();

    /** Resident pages of `type` on node `nid` (via LRU counts). */
    std::uint64_t residentPages(NodeId nid, PageType type) const;

    /** Fraction of all recorded accesses served by `nid` (0 when none). */
    double trafficShare(NodeId nid) const;

  private:
    friend class KernelTestPeer;
    /** The engine is the extracted half of this class: it drives the
     *  same LRU / allocator / counter internals kernel_migrate.cc did. */
    friend class MigrationEngine;

    // kernel.cc
    /** access() for every page state the fast path does not cover. */
    AccessResult accessSlow(Asid asid, Vpn vpn, AccessKind kind,
                            NodeId task_nid);
    double faultIn(AddressSpace &as, Vpn vpn, Pte &pte, NodeId task_nid,
                   AccessResult &res);
    /**
     * The tail both access paths share, once `frame` serves the
     * access: node bandwidth accounting, referenced/dirty bits and
     * traffic counters. @return the node's loaded latency.
     */
    double serveAccess(PageFrame &frame, AccessKind kind);
    /** Report one access to every attached tap. */
    void
    notifyTaps(const AccessEvent &event)
    {
        for (KernelAccessTap *tap : taps_)
            tap->onKernelAccess(event);
    }

    // kernel_alloc.cc
    bool nodePassesGate(NodeId nid, WatermarkGate gate) const;
    Pfn takeFrameFrom(NodeId nid, AllocReason reason);
    void maybeWakeKswapd(NodeId nid);

    // kernel_reclaim.cc
    struct KswapdState {
        bool running = false;
        EventId event = 0;
    };
    void kswapdChunk(NodeId nid);
    /**
     * Core of shrink_node: scan inactive tails (file/anon proportional),
     * age active lists, and reclaim (demote / drop / swap) up to
     * `nr_to_reclaim` pages.
     * @return {reclaimed, cost ns}
     */
    std::pair<std::uint64_t, double> shrinkNode(NodeId nid,
                                                std::uint64_t nr_to_reclaim,
                                                bool background);
    /**
     * One scan pass of shrinkNode. When `honor_protection` is set,
     * pages of cgroups under their memory.low floor on this node are
     * rotated past (counted into `*protected_skips`); when
     * `count_breach` is set, reclaimed under-floor pages are accounted
     * as floor breaches (the second, floor-breaking pass).
     */
    std::pair<std::uint64_t, double>
    shrinkNodePass(NodeId nid, std::uint64_t nr_to_reclaim,
                   bool background, bool honor_protection,
                   bool count_breach, std::uint64_t *protected_skips);
    std::pair<bool, double> reclaimOnePage(Pfn pfn, bool demote_mode);
    /** Account one pass-2 reclaim of a page under its cgroup's floor. */
    void noteReclaimBreach(Asid asid, NodeId nid);
    bool inactiveIsLow(NodeId nid, PageType type) const;
    void shrinkActiveList(NodeId nid, PageType type, std::uint64_t batch,
                          double *cost_ns);

    // shared helpers
    Pte &pteOf(const PageFrame &frame);
    void unmapFrame(PageFrame &frame);

    MemorySystem &mem_;
    EventQueue &eq_;
    /** Declared before policy_: a policy's taps detach as it dies. */
    std::vector<KernelAccessTap *> taps_;
    std::unique_ptr<PlacementPolicy> policy_;
    std::unique_ptr<PingPongThrottle> ppt_;
    std::unique_ptr<MigrationEngine> migration_;
    MmCosts costs_;
    VmStat vmstat_;
    SysctlRegistry sysctl_;
    MemcgController memcg_;
    TraceBuffer trace_;

    std::vector<LruSet> lrus_;
    std::vector<std::unique_ptr<AddressSpace>> spaces_;
    std::vector<NodeTraffic> traffic_;
    /**
     * Per node: the access latency last computed and the bits of the
     * utilisation EWMA it was computed from. The EWMA moves only when
     * a 1 ms window rolls, so inflate() runs once per window. The key
     * is the EWMA, not the tick: an EventQueue::reset() revisits ticks.
     */
    struct LatencyMemo {
        std::uint64_t utilBits = ~std::uint64_t{0}; //!< a NaN: never hit
        double latencyNs = 0.0;
    };
    std::vector<LatencyMemo> latencyMemo_;
    std::vector<KswapdState> kswapd_;
    std::vector<Pfn> scanCursor_;

    bool promotionIgnoresWatermark_ = false;
    bool started_ = false;
};

inline AccessResult
Kernel::access(Asid asid, Vpn vpn, AccessKind kind, NodeId task_nid)
{
    if (asid < spaces_.size()) {
        AddressSpace &as = *spaces_[asid];
        if (vpn < as.tableSize()) {
            const Pte &pte = as.pte(vpn);
            if (pte.present() && !pte.protNone()) {
                PageFrame &frame = mem_.frame(pte.pfn);
                if (!frame.underMigration()) {
                    if (!taps_.empty()) {
                        notifyTaps({asid, vpn, kind, eq_.now(), pte.pfn,
                                    frame.nid});
                    }
                    AccessResult res;
                    res.latencyNs = serveAccess(frame, kind);
                    res.servedBy = frame.nid;
                    return res;
                }
            }
        }
    }
    return accessSlow(asid, vpn, kind, task_nid);
}

inline double
Kernel::serveAccess(PageFrame &frame, AccessKind kind)
{
    const NodeId nid = frame.nid;
    const Tick now = eq_.now();
    MemoryNode &node = mem_.node(nid);
    const double util = node.recordAccess(now, 64);
    LatencyMemo &memo = latencyMemo_[nid];
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(util);
    if (bits != memo.utilBits) {
        memo.utilBits = bits;
        memo.latencyNs = mem_.latencyModel().inflate(
            node.profile().idleLatencyNs, util);
    }
    const double latency = memo.latencyNs;

    frame.setFlag(PageFrame::FlagReferenced);
    if (kind == AccessKind::Store)
        frame.setFlag(PageFrame::FlagDirty);

    NodeTraffic &t = traffic_[nid];
    t.accesses++;
    t.accessesByType[static_cast<std::size_t>(frame.type)]++;
    return latency;
}

} // namespace tpp

#endif // TPP_MM_KERNEL_HH
