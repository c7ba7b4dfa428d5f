/**
 * @file
 * Parallel sweep engine for the experiment harness.
 *
 * Every paper figure is a set of *independent, deterministic*
 * simulations. SweepRunner fans a vector of ExperimentConfigs out
 * across a ThreadPool — each simulation is seeded and its results do
 * not depend on threads, so they are bit-for-bit identical to a serial
 * runExperiment() loop — and returns results in submission order.
 *
 * Configs that compare equal (ExperimentConfig::operator==, every
 * field) are simulated once per sweep; each copy gets its leader's
 * result.
 */

#ifndef TPP_HARNESS_SWEEP_HH
#define TPP_HARNESS_SWEEP_HH

#include <vector>

#include "harness/experiment.hh"

namespace tpp {

/**
 * The all-local twin of `cfg`: same workload, size and clock, but a
 * single local node under default Linux, no profiler and no sysctls
 * (policy-specific knobs do not exist on the baseline kernel). This is
 * the paper's "all from local" reference machine. Twins of a sweep's
 * arms that differ only in what the twin strips compare equal, so the
 * sweep runs their baseline once.
 */
ExperimentConfig allLocalTwin(const ExperimentConfig &cfg);

/** Knobs for one sweep. */
struct SweepOptions {
    /** Worker threads; 0 = all hardware threads. */
    unsigned jobs = 1;
    /** \r-style progress meter on stderr while runs complete. */
    bool progress = false;
};

/**
 * Runs a batch of experiments, possibly in parallel.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {});

    /**
     * Run every config and return results in submission order. A
     * config that fails validate() comes back failed() with a
     * diagnostic on stderr; the others still run.
     */
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentConfig> &configs);

  private:
    SweepOptions opts_;
};

} // namespace tpp

#endif // TPP_HARNESS_SWEEP_HH
