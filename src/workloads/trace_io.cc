#include "workloads/trace_io.hh"

#include <istream>
#include <ostream>
#include <sstream>

#include "sim/logging.hh"

namespace tpp {

void
TraceRecorder::onKernelAccess(const AccessEvent &event)
{
    if (event.vpn < base_)
        return; // outside the traced region
    if (maxEntries_ != 0 && entries_.size() >= maxEntries_) {
        dropped_++;
        return;
    }
    const std::uint64_t index = event.vpn - base_;
    entries_.push_back(TraceEntry{index, event.kind});
    if (index + 1 > regionPages_)
        regionPages_ = index + 1;
}

void
saveTrace(std::ostream &out, std::uint64_t region_pages,
          const std::vector<TraceEntry> &entries)
{
    out << "tpp-trace v1 " << region_pages << ' ' << entries.size()
        << '\n';
    for (const TraceEntry &entry : entries) {
        out << entry.pageIndex << ' '
            << (entry.kind == AccessKind::Store ? 'S' : 'L') << '\n';
    }
}

std::pair<std::uint64_t, std::vector<TraceEntry>>
loadTrace(std::istream &in)
{
    std::string magic, version;
    std::uint64_t region_pages = 0;
    std::size_t count = 0;
    in >> magic >> version >> region_pages >> count;
    if (!in || magic != "tpp-trace" || version != "v1")
        tpp_fatal("not a tpp-trace v1 stream");
    std::vector<TraceEntry> entries;
    entries.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t index = 0;
        char kind = 0;
        in >> index >> kind;
        if (!in)
            tpp_fatal("trace truncated at entry %zu of %zu", i, count);
        if (kind != 'L' && kind != 'S')
            tpp_fatal("bad access kind '%c' in trace", kind);
        if (index >= region_pages)
            tpp_fatal("trace entry beyond region end");
        entries.push_back(TraceEntry{
            index, kind == 'S' ? AccessKind::Store : AccessKind::Load});
    }
    return {region_pages, std::move(entries)};
}

} // namespace tpp
