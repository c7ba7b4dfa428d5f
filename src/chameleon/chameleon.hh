/**
 * @file
 * Chameleon: the user-space memory characterisation tool of §3.
 *
 * The real tool rides the CPU's PEBS machinery; here the "hardware
 * events" are the simulated access stream. The structure mirrors the
 * paper's Figure 6:
 *
 *  - the Sampler models PEBS: it sees every access (it is a kernel
 *    access tap), emits one record every `samplePeriod` events, and
 *    duty-cycles across core groups (sampling is only live for one
 *    group's time slice at a time);
 *  - the Collector double-buffers sampled records into one of two hash
 *    tables, swapping them every interval;
 *  - the Worker turns the retired table into per-page 64-bit activity
 *    bitmaps and produces the interval statistics behind Figures 7-11:
 *    touched pages by type, resident pages by type, and the re-access
 *    gap histogram.
 */

#ifndef TPP_CHAMELEON_CHAMELEON_HH
#define TPP_CHAMELEON_CHAMELEON_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mm/access_tap.hh"
#include "sim/types.hh"

namespace tpp {

class Kernel;

/** Chameleon tunables (defaults follow §3.1). */
struct ChameleonConfig {
    /** One sample per this many access events ("1 in 200"). */
    std::uint64_t samplePeriod = 200;
    /** Core groups for duty cycling; sampling live 1/N of the time. */
    std::uint32_t numCoreGroups = 4;
    /** mini_interval: how long one core group stays live. */
    Tick miniInterval = 50 * kMillisecond;
    /** Worker interval: bitmap shift + statistics cadence. */
    Tick interval = 1 * kSecond;
    /** Disable duty cycling (sample all the time) for tests. */
    bool dutyCycle = true;
    /**
     * Bits of the 64-bit activity word spent per interval (§3.1: "one
     * can configure the Worker to use multiple bits for one interval to
     * capture the difference in page access frequency, at the cost of
     * supporting shorter history"). With b bits the per-interval sample
     * count saturates at 2^b - 1 and history covers 64/b intervals.
     */
    std::uint32_t bitsPerInterval = 1;
    /** Sample count for a page to count as "frequent" in an interval. */
    std::uint32_t frequentThreshold = 2;

    bool operator==(const ChameleonConfig &) const = default;
};

/** One tracked page's folded activity word (Worker state). */
struct ChameleonPageActivity {
    Asid asid = 0;
    Vpn vpn = 0;
    /** Per-interval sample counts packed at bitsPerInterval each,
     *  most recent interval in the lowest field. */
    std::uint64_t bitmap = 0;
    PageType type = PageType::Anon;
};

/** Per-interval statistics produced by the Worker. */
struct ChameleonIntervalStats {
    Tick tick = 0;
    /** Distinct pages with >= 1 sample this interval, by type. */
    std::uint64_t touchedByType[kNumPageTypes] = {0, 0};
    std::uint64_t touchedTotal = 0;
    /** Pages sampled >= frequentThreshold times (multi-bit mode). */
    std::uint64_t frequentTotal = 0;
    /** Resident (present) pages of the observed process, by type. */
    std::uint64_t residentByType[kNumPageTypes] = {0, 0};
    std::uint64_t residentTotal = 0;
    /**
     * Re-access gap histogram: entry g counts pages touched this
     * interval whose previous touch was g intervals ago (g in [1, 63]).
     */
    std::array<std::uint64_t, 64> reaccessGap{};
};

/**
 * The profiler facade: constructing it attaches it to the kernel's
 * access taps; start() it and read interval statistics afterwards.
 */
class Chameleon : public KernelAccessTap
{
  public:
    Chameleon(Kernel &kernel, ChameleonConfig cfg = {});
    ~Chameleon() override;

    /** The Sampler: one access event. */
    void onKernelAccess(const AccessEvent &event) override;

    /** Schedule the interval timer; call once. */
    void start();

    const std::vector<ChameleonIntervalStats> &intervals() const
    {
        return intervals_;
    }

    /** Mean touched/resident fraction over all intervals, by type. */
    double meanHotFraction(PageType type) const;

    /** Mean touched/resident over all intervals, all types. */
    double meanHotFraction() const;

    /**
     * Re-access CDF over the whole run: fraction of re-accessed pages
     * whose gap was <= `max_gap` intervals.
     */
    double reaccessCdf(std::uint32_t max_gap) const;

    /** Total samples the collector accepted (for overhead accounting). */
    std::uint64_t totalSamples() const { return totalSamples_; }

    /** Total access events seen by the sampler. */
    std::uint64_t totalEvents() const { return totalEvents_; }

    /** Intervals of history one activity word covers. */
    std::uint32_t
    historyIntervals() const
    {
        return 64 / cfg_.bitsPerInterval;
    }

    const ChameleonConfig &config() const { return cfg_; }

    /** Folded activity word for one page; 0 when untracked. */
    std::uint64_t activityWord(Asid asid, Vpn vpn) const;

    /**
     * Snapshot of every tracked page's activity word, sorted by
     * (asid, vpn) so consumers iterate deterministically. This is the
     * Worker-state export a hotness source reads (src/hotness).
     */
    std::vector<ChameleonPageActivity> activitySnapshot() const;

  private:
    struct PageHistory {
        std::uint64_t bitmap = 0;
        PageType type = PageType::Anon;
    };

    void intervalTick();
    bool samplingLive(Tick tick) const;

    Kernel &kernel_;
    ChameleonConfig cfg_;

    // Sampler state.
    std::uint64_t eventCounter_ = 0;
    std::uint64_t totalEvents_ = 0;
    std::uint64_t totalSamples_ = 0;

    // Collector: double-buffered (asid<<48|vpn) -> sample count.
    std::unordered_map<std::uint64_t, std::uint32_t> tables_[2];
    std::uint32_t currentTable_ = 0;

    // Worker state.
    std::unordered_map<std::uint64_t, PageHistory> history_;
    std::vector<ChameleonIntervalStats> intervals_;
};

} // namespace tpp

#endif // TPP_CHAMELEON_CHAMELEON_HH
