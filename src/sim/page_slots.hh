/**
 * @file
 * Per-page side state in a dense table indexed by asid, then vpn.
 *
 * Address spaces hand out dense low vpns, so a value kept per page (a
 * counter, an index into a pool) is cheaper in an array per address
 * space than in a hash map keyed by the packed (asid, vpn): a lookup is
 * two indexed loads and no hash. Like AddressSpace's page table, each
 * space's array is a list of fixed-size chunks, calloc-backed
 * (ZeroedArena) and allocated on the first write into their span. A
 * slot reads as zero until written, and a read never allocates.
 */

#ifndef TPP_SIM_PAGE_SLOTS_HH
#define TPP_SIM_PAGE_SLOTS_HH

#include <cstdint>
#include <vector>

#include "sim/arena.hh"
#include "sim/types.hh"

namespace tpp {

/** One T per (asid, vpn), zero until written; see the file comment. */
template <typename T>
class PageSlots
{
  public:
    /** Slots per chunk. */
    static constexpr std::uint64_t kChunkBits = 12;
    static constexpr std::uint64_t kChunkSlots = std::uint64_t{1}
                                                 << kChunkBits;

    /** The slot of (asid, vpn), or nullptr when no write reached its
     *  chunk (the slot then reads as zero). Never allocates. */
    const T *
    find(Asid asid, Vpn vpn) const
    {
        if (asid >= spaces_.size())
            return nullptr;
        const std::vector<ZeroedArena<T>> &chunks = spaces_[asid];
        const std::uint64_t c = vpn >> kChunkBits;
        if (c >= chunks.size() || chunks[c].empty())
            return nullptr;
        return &chunks[c][vpn & kChunkMask];
    }

    /** The slot of (asid, vpn), allocating its chunk on first use.
     *  A chunk never moves, so the reference lasts until clear(). */
    T &
    operator()(Asid asid, Vpn vpn)
    {
        if (asid >= spaces_.size())
            spaces_.resize(static_cast<std::size_t>(asid) + 1);
        std::vector<ZeroedArena<T>> &chunks = spaces_[asid];
        const std::uint64_t c = vpn >> kChunkBits;
        if (c >= chunks.size())
            chunks.resize(c + 1);
        if (chunks[c].empty())
            chunks[c] = ZeroedArena<T>(kChunkSlots);
        return chunks[c][vpn & kChunkMask];
    }

    /** Free every chunk: all slots read as zero again. */
    void clear() { spaces_.clear(); }

    /** Call fn(asid, vpn, value) for every slot of every allocated
     *  chunk, zeros included, in (asid, vpn) order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t asid = 0; asid < spaces_.size(); ++asid) {
            const std::vector<ZeroedArena<T>> &chunks = spaces_[asid];
            for (std::uint64_t c = 0; c < chunks.size(); ++c) {
                for (std::uint64_t i = 0; i < chunks[c].size(); ++i)
                    fn(static_cast<Asid>(asid), (c << kChunkBits) | i,
                       chunks[c][i]);
            }
        }
    }

  private:
    static constexpr std::uint64_t kChunkMask = kChunkSlots - 1;

    std::vector<std::vector<ZeroedArena<T>>> spaces_;
};

} // namespace tpp

#endif // TPP_SIM_PAGE_SLOTS_HH
