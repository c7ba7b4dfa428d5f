/**
 * @file
 * Per-node LRU lists: active/inactive x anon/file, intrusively linked
 * through the frame table, as in the kernel's per-node lruvec.
 *
 * TPP leans on this structure twice: reclaim picks demotion candidates
 * from the inactive tails, and the promotion filter asks whether a
 * hint-faulted page has reached an active list (§5.3).
 */

#ifndef TPP_MM_LRU_HH
#define TPP_MM_LRU_HH

#include <array>
#include <cstdint>

#include "mem/memory_system.hh"
#include "mem/page.hh"
#include "sim/types.hh"

namespace tpp {

/**
 * The four LRU lists of one memory node.
 */
class LruSet
{
  public:
    LruSet(MemorySystem &mem, NodeId nid);

    NodeId nodeId() const { return nid_; }

    /** Insert a frame at the head (MRU end) of `list`. */
    void addHead(LruListId list, Pfn pfn);

    /** Insert a frame at the tail (LRU end) of `list`. */
    void addTail(LruListId list, Pfn pfn);

    /** Detach a frame from whatever list it is on. */
    void remove(Pfn pfn);

    /** @return the tail (oldest) frame of `list`, kInvalidPfn if empty. */
    Pfn tail(LruListId list) const { return tails_[index(list)]; }

    /** @return the head (youngest) frame of `list`, kInvalidPfn if empty. */
    Pfn head(LruListId list) const { return heads_[index(list)]; }

    /** Move an inactive frame to the head of its active list. */
    void activate(Pfn pfn);

    /** Move an active frame to the head of its inactive list. */
    void deactivate(Pfn pfn);

    /** Rotate a frame to the head of its current list (second chance). */
    void rotate(Pfn pfn);

    std::uint64_t count(LruListId list) const { return counts_[index(list)]; }

    /** Pages of `type` on this node's LRUs (active + inactive). */
    std::uint64_t countType(PageType type) const;

    /** All pages on this node's LRUs. */
    std::uint64_t countAll() const;

    /** Anonymous + file inactive totals (reclaim scan targets). */
    std::uint64_t
    countInactive() const
    {
        return count(LruListId::InactiveAnon) +
               count(LruListId::InactiveFile);
    }

    /**
     * Walk a list from the tail towards the head.
     * @param fn   callback taking Pfn, returning false to stop the walk.
     */
    template <typename Fn>
    void
    walkFromTail(LruListId list, Fn &&fn) const
    {
        Pfn cur = tails_[index(list)];
        while (cur != kInvalidPfn) {
            Pfn prev = frames_[cur].lruPrev;
            if (!fn(cur))
                break;
            cur = prev;
        }
    }

    /** Verify intrusive-list invariants; panics on corruption (tests). */
    void checkConsistency() const;

  private:
    static std::size_t
    index(LruListId list)
    {
        return static_cast<std::size_t>(list) - 1;
    }

    /**
     * Base of the hot frame array, cached at construction (the arena
     * never reallocates). List surgery is pure indexed access on 16-byte
     * records — no per-op bounds re-check on a path that runs millions
     * of times per simulated second.
     */
    PageFrame *frames_;
    NodeId nid_;
    std::array<Pfn, kNumLruLists> heads_;
    std::array<Pfn, kNumLruLists> tails_;
    std::array<std::uint64_t, kNumLruLists> counts_;
};

} // namespace tpp

#endif // TPP_MM_LRU_HH
