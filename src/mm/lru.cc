#include "mm/lru.hh"

#include "sim/logging.hh"

namespace tpp {

LruSet::LruSet(MemorySystem &mem, NodeId nid)
    : frames_(mem.frameData()), nid_(nid)
{
    heads_.fill(kInvalidPfn);
    tails_.fill(kInvalidPfn);
    counts_.fill(0);
}

void
LruSet::addHead(LruListId list, Pfn pfn)
{
    PageFrame &f = frames_[pfn];
    if (f.lru != LruListId::None)
        tpp_panic("addHead: frame %u already on a list", pfn);
    if (f.nid != nid_)
        tpp_panic("addHead: frame %u belongs to node %u, not %u", pfn,
                  f.nid, nid_);
    const std::size_t i = index(list);
    f.lru = list;
    f.lruPrev = kInvalidPfn;
    f.lruNext = heads_[i];
    if (heads_[i] != kInvalidPfn)
        frames_[heads_[i]].lruPrev = pfn;
    heads_[i] = pfn;
    if (tails_[i] == kInvalidPfn)
        tails_[i] = pfn;
    counts_[i]++;
}

void
LruSet::addTail(LruListId list, Pfn pfn)
{
    PageFrame &f = frames_[pfn];
    if (f.lru != LruListId::None)
        tpp_panic("addTail: frame %u already on a list", pfn);
    if (f.nid != nid_)
        tpp_panic("addTail: frame %u belongs to node %u, not %u", pfn,
                  f.nid, nid_);
    const std::size_t i = index(list);
    f.lru = list;
    f.lruNext = kInvalidPfn;
    f.lruPrev = tails_[i];
    if (tails_[i] != kInvalidPfn)
        frames_[tails_[i]].lruNext = pfn;
    tails_[i] = pfn;
    if (heads_[i] == kInvalidPfn)
        heads_[i] = pfn;
    counts_[i]++;
}

void
LruSet::remove(Pfn pfn)
{
    PageFrame &f = frames_[pfn];
    if (f.lru == LruListId::None)
        tpp_panic("remove: frame %u not on any list", pfn);
    const std::size_t i = index(f.lru);
    if (f.lruPrev != kInvalidPfn)
        frames_[f.lruPrev].lruNext = f.lruNext;
    else
        heads_[i] = f.lruNext;
    if (f.lruNext != kInvalidPfn)
        frames_[f.lruNext].lruPrev = f.lruPrev;
    else
        tails_[i] = f.lruPrev;
    counts_[i]--;
    f.lru = LruListId::None;
    f.lruPrev = f.lruNext = kInvalidPfn;
}

void
LruSet::activate(Pfn pfn)
{
    PageFrame &f = frames_[pfn];
    if (lruIsActive(f.lru))
        tpp_panic("activate: frame %u already active", pfn);
    const PageType type = f.type;
    remove(pfn);
    addHead(lruListFor(type, true), pfn);
}

void
LruSet::deactivate(Pfn pfn)
{
    PageFrame &f = frames_[pfn];
    if (!lruIsActive(f.lru))
        tpp_panic("deactivate: frame %u not active", pfn);
    const PageType type = f.type;
    remove(pfn);
    addHead(lruListFor(type, false), pfn);
}

void
LruSet::rotate(Pfn pfn)
{
    PageFrame &f = frames_[pfn];
    const LruListId list = f.lru;
    if (list == LruListId::None)
        tpp_panic("rotate: frame %u not on any list", pfn);
    remove(pfn);
    addHead(list, pfn);
}

std::uint64_t
LruSet::countType(PageType type) const
{
    return count(lruListFor(type, true)) + count(lruListFor(type, false));
}

std::uint64_t
LruSet::countAll() const
{
    std::uint64_t total = 0;
    for (auto c : counts_)
        total += c;
    return total;
}

void
LruSet::checkConsistency() const
{
    for (std::size_t i = 0; i < kNumLruLists; ++i) {
        const LruListId list = static_cast<LruListId>(i + 1);
        std::uint64_t seen = 0;
        Pfn prev = kInvalidPfn;
        Pfn cur = heads_[i];
        while (cur != kInvalidPfn) {
            const PageFrame &f = frames_[cur];
            if (f.lru != list)
                tpp_panic("consistency: frame %u on wrong list", cur);
            if (f.lruPrev != prev)
                tpp_panic("consistency: frame %u bad prev link", cur);
            if (f.nid != nid_)
                tpp_panic("consistency: frame %u on foreign node list",
                          cur);
            seen++;
            if (seen > counts_[i])
                tpp_panic("consistency: list %zu longer than count", i);
            prev = cur;
            cur = f.lruNext;
        }
        if (seen != counts_[i])
            tpp_panic("consistency: list %zu count %llu != walked %llu", i,
                      static_cast<unsigned long long>(counts_[i]),
                      static_cast<unsigned long long>(seen));
        if (tails_[i] != prev)
            tpp_panic("consistency: list %zu bad tail", i);
    }
}

} // namespace tpp
