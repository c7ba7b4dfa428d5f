/**
 * @file
 * A memory node: a contiguous range of physical frames with free-list,
 * watermarks and a latency/bandwidth profile. CPU-less nodes model
 * CXL-attached expansion memory.
 */

#ifndef TPP_MEM_NODE_HH
#define TPP_MEM_NODE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/page.hh"
#include "sim/types.hh"

namespace tpp {

/**
 * Zone watermarks, in pages, as in the kernel plus TPP's extension.
 *
 * Classic kernel behaviour couples allocation and reclaim around
 * {min, low, high}. TPP adds a separate, higher demotion trigger/target
 * pair so background demotion keeps running after allocation is already
 * permitted again (§5.2 of the paper).
 */
struct Watermarks {
    std::uint64_t min = 0;   //!< below: only atomic/emergency allocations
    std::uint64_t low = 0;   //!< below: wake background reclaim
    std::uint64_t high = 0;  //!< classic reclaim stop / allocation target
    std::uint64_t demoteTrigger = 0; //!< TPP: wake demotion below this
    std::uint64_t demoteTarget = 0;  //!< TPP: demote until free reaches this

    /**
     * Derive classic watermarks from capacity the way the kernel scales
     * them from min_free_kbytes, and TPP marks from demote_scale_factor.
     *
     * @param capacity_pages        node size in pages
     * @param demote_scale_factor   percent of capacity kept free by the
     *                              TPP demotion daemon (default 2, per
     *                              /proc/sys/vm/demote_scale_factor)
     */
    static Watermarks forCapacity(std::uint64_t capacity_pages,
                                  double demote_scale_factor = 2.0);
};

/** Static performance profile of one memory node. */
struct NodeProfile {
    /** Unloaded access latency in nanoseconds. */
    double idleLatencyNs = 80.0;
    /** Peak sustainable bandwidth in GB/s. */
    double bandwidthGBps = 100.0;
    /** True for CXL / CPU-less nodes (no local CPUs). */
    bool cpuLess = false;
    /** Human-readable label for reports. */
    std::string name = "node";
};

/**
 * One NUMA node's frame inventory and performance profile.
 *
 * The node owns the frame numbers [firstPfn, firstPfn + capacity). The
 * actual PageFrame structs live in the MemorySystem frame table; the
 * node tracks which of its frames are free.
 *
 * The free "list" is a bump cursor over the never-yet-allocated tail of
 * the range plus a LIFO stack of recycled frames, so a fresh node costs
 * O(1) to set up instead of materialising a capacity-sized vector. The
 * handout order is identical to the historical behaviour (ascending
 * from firstPfn initially, most-recently-freed first after that), which
 * golden-fingerprint tests rely on.
 */
class MemoryNode
{
  public:
    MemoryNode(NodeId id, Pfn first_pfn, std::uint64_t capacity_pages,
               NodeProfile profile);

    NodeId id() const { return id_; }
    const NodeProfile &profile() const { return profile_; }
    bool cpuLess() const { return profile_.cpuLess; }

    Pfn firstPfn() const { return firstPfn_; }
    std::uint64_t capacity() const { return capacity_; }

    std::uint64_t
    freePages() const
    {
        return capacity_ - bump_ + recycled_.size();
    }

    std::uint64_t usedPages() const { return bump_ - recycled_.size(); }

    /**
     * Point the node at the global frame table so takeFree can stamp
     * pfn/nid lazily on first handout (the calloc'ed table starts
     * all-zero). Called once by MemorySystem during construction.
     */
    void attachFrames(PageFrame *frames) { frames_ = frames; }

    bool
    ownsPfn(Pfn pfn) const
    {
        return pfn >= firstPfn_ && pfn < firstPfn_ + capacity_;
    }

    const Watermarks &watermarks() const { return watermarks_; }
    void setWatermarks(const Watermarks &wm) { watermarks_ = wm; }

    /**
     * Pop one free frame number.
     * @return kInvalidPfn when the node is exhausted.
     */
    Pfn takeFree();

    /** Return a frame to the free list. Caller must own the pfn. */
    void putFree(Pfn pfn);

    /** @return true when free page count exceeds `mark` (+ request). */
    bool
    aboveWatermark(std::uint64_t mark, std::uint64_t request = 1) const
    {
        return freePages() >= mark + request;
    }

    /**
     * Bandwidth accounting: record bytes moved to/from this node so the
     * latency model can inflate under load.
     */
    void recordTraffic(Tick now, std::uint64_t bytes);

    /**
     * Estimated utilisation of the node's bandwidth in [0, 1], an EWMA
     * over ~1 ms windows.
     */
    double utilization(Tick now) const;

    /**
     * One memory access's accounting: utilization(now), then
     * recordTraffic(now, bytes), with one window check between them
     * instead of two. @return the utilisation the access sees.
     */
    double
    recordAccess(Tick now, std::uint64_t bytes)
    {
        if (now >= trafficWindowStart_ + kTrafficWindow)
            decayTraffic(now);
        windowBytes_ += static_cast<double>(bytes);
        return utilEwma_;
    }

  private:
    /** Bandwidth EWMA window length. */
    static constexpr Tick kTrafficWindow = 1 * kMillisecond;

    void decayTraffic(Tick now) const;

    NodeId id_;
    Pfn firstPfn_;
    std::uint64_t capacity_;
    NodeProfile profile_;
    Watermarks watermarks_;
    /** Count of frames ever handed out: [firstPfn, firstPfn+bump_). */
    std::uint64_t bump_ = 0;
    /** Freed frames, popped LIFO before the bump cursor advances. */
    std::vector<Pfn> recycled_;
    /** Global frame table, for lazy pfn/nid stamping. May be null in
     *  unit tests that exercise the inventory alone. */
    PageFrame *frames_ = nullptr;

    // Bandwidth EWMA state.
    mutable Tick trafficWindowStart_ = 0;
    mutable double windowBytes_ = 0.0;
    mutable double utilEwma_ = 0.0;
};

} // namespace tpp

#endif // TPP_MEM_NODE_HH
