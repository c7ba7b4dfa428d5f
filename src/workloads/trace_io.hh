/**
 * @file
 * Trace capture and persistence.
 *
 * TraceRecorder is a kernel access tap that captures the reference
 * stream; saveTrace/loadTrace persist it in a simple text format
 * ("tpp-trace v1"). Together with TraceWorkload this closes the
 * loop: record any synthetic run, replay it later under a different
 * policy or topology.
 */

#ifndef TPP_WORKLOADS_TRACE_IO_HH
#define TPP_WORKLOADS_TRACE_IO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "mm/kernel.hh"
#include "workloads/trace.hh"

namespace tpp {

/**
 * Captures the accesses of one kernel, relative to a base vpn, from its
 * construction to its end.
 */
class TraceRecorder : public KernelAccessTap
{
  public:
    /**
     * @param kernel     the kernel whose accesses to record
     * @param base_vpn   subtracted from every recorded vpn
     * @param max_entries stop recording beyond this many (0 = no cap)
     */
    explicit TraceRecorder(Kernel &kernel, Vpn base_vpn = 0,
                           std::size_t max_entries = 0)
        : kernel_(kernel), base_(base_vpn), maxEntries_(max_entries)
    {
        kernel_.addAccessTap(*this);
    }
    ~TraceRecorder() override { kernel_.removeAccessTap(*this); }

    void onKernelAccess(const AccessEvent &event) override;

    const std::vector<TraceEntry> &entries() const { return entries_; }
    std::size_t dropped() const { return dropped_; }

    /** Largest page index seen + 1 (the region size a replay needs). */
    std::uint64_t regionPages() const { return regionPages_; }

  private:
    Kernel &kernel_;
    Vpn base_;
    std::size_t maxEntries_;
    std::vector<TraceEntry> entries_;
    std::size_t dropped_ = 0;
    std::uint64_t regionPages_ = 0;
};

/** Serialise a trace. Format: header line, then "index L|S" lines. */
void saveTrace(std::ostream &out, std::uint64_t region_pages,
               const std::vector<TraceEntry> &entries);

/** Parse a trace; fatal on malformed input.
 *  @return {region_pages, entries} */
std::pair<std::uint64_t, std::vector<TraceEntry>>
loadTrace(std::istream &in);

} // namespace tpp

#endif // TPP_WORKLOADS_TRACE_IO_HH
