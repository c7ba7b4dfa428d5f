/**
 * @file
 * NeoProfSource: NeoMem's CXL-device counter engine ("NeoProf") as a
 * HotnessSource. The modelled device sits on the CXL path and sees
 * every access to the far tier — no sampling — but has bounded SRAM:
 *
 *  - a counter table of cfg.counterTableSize entries, LRU-evicted, one
 *    fractional counter per tracked page (evictions are counted in
 *    vmstat and traced, so a too-small table is visible);
 *  - exponential decay each epoch with half-life cfg.decayHalfLife, so
 *    counts are a rate estimate, not an all-time total;
 *  - a log2-bucketed hotness histogram rebuilt each epoch, from which
 *    the hot threshold is retuned: walk buckets hottest-first until the
 *    cumulative page count covers the local tier's free headroom (the
 *    device aims to fill exactly the frames the kernel can accept).
 *
 * This is the top rung of the source ladder: full visibility at page
 * granularity, with the table bound and decay standing in for the real
 * device's SRAM limits.
 */

#ifndef TPP_HOTNESS_NEOPROF_SOURCE_HH
#define TPP_HOTNESS_NEOPROF_SOURCE_HH

#include <array>
#include <list>
#include <unordered_map>

#include "hotness/hotness_source.hh"
#include "mm/access_tap.hh"

namespace tpp {

class NeoProfSource : public HotnessSource, public KernelAccessTap
{
  public:
    /** Log2 buckets: 0 = [0,1), b>=1 = [2^(b-1), 2^b). */
    static constexpr std::uint32_t kHistogramBuckets = 32;

    explicit NeoProfSource(const HotnessConfig &cfg) : cfg_(cfg) {}
    ~NeoProfSource() override;

    std::string name() const override { return "neoprof"; }

    /** Also attaches the device to the kernel's access taps. */
    void attach(Kernel &kernel) override;

    double temperature(Pfn pfn) const override;
    std::vector<HotPage> extractHot(std::uint64_t max_pages) override;
    void advanceEpoch() override;

    void onKernelAccess(const AccessEvent &event) override;

    double hotThreshold() const { return threshold_; }
    std::size_t trackedPages() const { return table_.size(); }
    const std::array<std::uint64_t, kHistogramBuckets> &
    histogram() const
    {
        return histogram_;
    }

  private:
    struct Counter {
        double count = 0.0;
        std::list<Pfn>::iterator lruPos;
    };

    void track(Pfn pfn);
    void evictOne();
    void erase(Pfn pfn);
    void retuneThreshold();
    std::uint64_t targetHotPages() const;

    const HotnessConfig &cfg_;
    std::list<Pfn> lru_; //!< front = most recently touched
    std::unordered_map<Pfn, Counter> table_;
    std::array<std::uint64_t, kHistogramBuckets> histogram_{};
    double threshold_ = 1.0;
};

} // namespace tpp

#endif // TPP_HOTNESS_NEOPROF_SOURCE_HH
