/**
 * @file
 * ChameleonSource: the PEBS-style user-space profiler (chameleon/) as a
 * HotnessSource. The source owns a Chameleon instance tuned for
 * promotion duty — multi-bit activity fields, no duty cycling, interval
 * locked to the hotness epoch — and scores a page by its activity word
 * with recent intervals weighted heaviest.
 *
 * Unlike the device-side NeoProf counter engine this source only sees
 * the sampled access stream (1 in samplePeriod events), so its recall
 * bounds what a sampling profiler can deliver at a given overhead.
 */

#ifndef TPP_HOTNESS_CHAMELEON_SOURCE_HH
#define TPP_HOTNESS_CHAMELEON_SOURCE_HH

#include <memory>

#include "chameleon/chameleon.hh"
#include "hotness/hotness_source.hh"

namespace tpp {

class ChameleonSource : public HotnessSource
{
  public:
    explicit ChameleonSource(const HotnessConfig &cfg) : cfg_(cfg) {}

    std::string name() const override { return "chameleon"; }

    void attach(Kernel &kernel) override;
    void start() override;

    double temperature(Pfn pfn) const override;
    std::vector<HotPage> extractHot(std::uint64_t max_pages) override;

    const Chameleon &chameleon() const { return *chameleon_; }

    /** Recency-weighted score of one activity word. */
    static double score(std::uint64_t bitmap, std::uint32_t bits_per_interval);

  private:
    const HotnessConfig &cfg_;
    std::unique_ptr<Chameleon> chameleon_;
};

} // namespace tpp

#endif // TPP_HOTNESS_CHAMELEON_SOURCE_HH
