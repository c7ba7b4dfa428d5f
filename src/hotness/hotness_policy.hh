/**
 * @file
 * HotnessPolicy: TPP's demotion machinery with promotion driven by a
 * pluggable HotnessSource instead of instant hint-fault promotion.
 *
 * Demotion, watermark decoupling and type-aware allocation are
 * inherited from TppPolicy unchanged — the experiment this policy
 * exists for varies only the promotion signal. On the promotion side
 * the policy runs an epoch loop: every cfg.hotness.epochPeriod it calls
 * source->advanceEpoch() (decay / threshold retune) then
 * source->extractHot(promoteBatch) and feeds the batch to the kernel's
 * promotion path, rate limit and all. Hint faults are downgraded from
 * promotion triggers to temperature samples: when the source wants them
 * the NUMA scanner keeps running, but onHintFault() only records the
 * fault with the source and never migrates inline.
 */

#ifndef TPP_HOTNESS_HOTNESS_POLICY_HH
#define TPP_HOTNESS_HOTNESS_POLICY_HH

#include <memory>

#include "core/tpp_policy.hh"
#include "hotness/hotness_source.hh"

namespace tpp {

class HotnessPolicy : public TppPolicy
{
  public:
    explicit HotnessPolicy(const PolicyParams &params)
        : TppPolicy(params.tpp), hcfg_(params.hotness)
    {
    }

    std::string name() const override { return "hotness"; }

    void attach(Kernel &kernel) override;
    void start() override;

    bool scanNode(NodeId nid) const override;
    double onHintFault(Pfn pfn, NodeId task_nid) override;

    HotnessSource &source() { return *source_; }
    const HotnessSource &source() const { return *source_; }
    const HotnessConfig &hotnessConfig() const { return hcfg_; }
    std::uint64_t epochs() const { return epochs_; }

  private:
    void epochTick();

    HotnessConfig hcfg_;
    std::unique_ptr<HotnessSource> source_;
    std::uint64_t epochs_ = 0;
};

} // namespace tpp

#endif // TPP_HOTNESS_HOTNESS_POLICY_HH
