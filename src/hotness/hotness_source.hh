/**
 * @file
 * HotnessSource: one interface over every page-temperature signal the
 * repo carries, so policies can consume "which pages are hot on the
 * CXL tier?" without caring how the answer was measured.
 *
 * Four implementations ship with the subsystem:
 *
 *  - HintFaultSource   — the kernel's NUMA-hint sampling (TPP §5.3),
 *                        windowed two-touch counting per page;
 *  - DamonSource       — DAMON-lite region aggregates (mm/damon.hh),
 *                        temperature = containing region's nrAccesses;
 *  - ChameleonSource   — the PEBS-style profiler's per-page activity
 *                        bitmaps (chameleon/), recency-weighted;
 *  - NeoProfSource     — NeoMem's CXL-device counter engine: a bounded
 *                        per-page counter table with LRU eviction, a
 *                        decaying log-scale histogram and a hot
 *                        threshold auto-tuned per epoch from the
 *                        local tier's free headroom.
 *
 * A source that watches the access stream (chameleon, neoprof) adds a
 * tap to the kernel's one access-event pipe (mm/access_tap.hh) when it
 * attaches; the hint-fault source is fed by its policy instead.
 *
 * The consumer contract: every epochPeriod the owning policy calls
 * advanceEpoch() (decay, histogram rebuild, threshold retune), then
 * extractHot(k) for up to k CXL-resident pages, hottest first, which it
 * feeds to the MigrationEngine as promotion requests. Extraction
 * consumes the returned pages' accumulated state: a promoted page
 * re-earns its temperature from scratch, and a failed promotion gets
 * retried only once the page proves itself hot again.
 */

#ifndef TPP_HOTNESS_HOTNESS_SOURCE_HH
#define TPP_HOTNESS_HOTNESS_SOURCE_HH

#include <memory>
#include <string>
#include <vector>

#include "mm/policy_params.hh"
#include "sim/types.hh"

namespace tpp {

class Kernel;

/** One promotion candidate from extractHot(), hottest first. */
struct HotPage {
    Pfn pfn = kInvalidPfn;
    NodeId nid = kInvalidNode;  //!< CXL node the page resides on
    double temperature = 0.0;   //!< source-specific hotness score
};

/**
 * A pluggable page-temperature signal.
 */
class HotnessSource
{
  public:
    virtual ~HotnessSource() = default;

    /** Registered source name ("hintfault", "neoprof", ...). */
    virtual std::string name() const = 0;

    /** Called once when the owning policy attaches to a kernel. */
    virtual void attach(Kernel &kernel) { kernel_ = &kernel; }

    /** Called at simulation start; sources schedule daemons here. */
    virtual void start() {}

    /** Current temperature of one page; 0 when untracked/cold. */
    virtual double temperature(Pfn pfn) const = 0;

    /**
     * Up to `max_pages` CXL-resident hot pages, hottest first.
     * Consumes the returned pages' accumulated hotness state.
     */
    virtual std::vector<HotPage> extractHot(std::uint64_t max_pages) = 0;

    /** Epoch boundary: decay, expire, retune thresholds. */
    virtual void advanceEpoch() {}

    /** Hint-fault feed; only meaningful when wantsHintFaults(). */
    virtual void
    noteHintFault(Pfn pfn, NodeId task_nid)
    {
        (void)pfn;
        (void)task_nid;
    }

    /** True when this source needs NUMA-hint sampling to run. */
    virtual bool wantsHintFaults() const { return false; }

  protected:
    /** @return true when `pfn` maps a live page on a CXL node. */
    bool cxlResident(Pfn pfn) const;

    Kernel *kernel_ = nullptr;
};

/**
 * Build a source by `cfg.source` name. The config reference must
 * outlive the source (the owning policy keeps both, so sysctl writes to
 * the config are live). Unknown names fatal() with the known list.
 */
std::unique_ptr<HotnessSource> makeHotnessSource(const HotnessConfig &cfg);

/** Names makeHotnessSource accepts, sorted. */
std::vector<std::string> hotnessSourceNames();

} // namespace tpp

#endif // TPP_HOTNESS_HOTNESS_SOURCE_HH
