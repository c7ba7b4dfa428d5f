/**
 * @file
 * Open-loop arrival processes.
 *
 * A closed-loop driver lets the op rate follow latency: when placement
 * is bad the workload simply slows down, and the damage hides in a
 * lower throughput number. Production traffic is open-loop — requests
 * arrive whether or not the service is keeping up — so a bad policy
 * shows up where it hurts: queueing delay and the latency tail.
 *
 * ArrivalProcess generates the inter-arrival gaps for such a stream in
 * virtual time. Three shapes cover the evaluation axes:
 *
 *  - poisson:  memoryless arrivals at a fixed mean rate (the M/…/1
 *              textbook baseline);
 *  - bursty:   an on/off modulated Poisson — burst windows at
 *              `burstFactor`× the mean rate, quiet windows scaled so
 *              the long-run mean stays `qps` (traffic spikes);
 *  - diurnal:  a sinusoidal rate swing around `qps` (the slow
 *              day/night ramp of a user-facing service).
 *
 * The non-homogeneous shapes are generated by thinning (Lewis &
 * Shedler): candidates at the peak rate, accepted with probability
 * rate(t)/peak — exact for any bounded rate function. Every process
 * draws from its own seeded Rng, so runs stay bit-reproducible.
 */

#ifndef TPP_WORKLOADS_ARRIVAL_HH
#define TPP_WORKLOADS_ARRIVAL_HH

#include <cstdint>
#include <memory>
#include <string>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace tpp {

/**
 * Open-loop traffic description for one workload (or one tenant).
 * `qps == 0` keeps the driver closed-loop; everything else only
 * matters once a rate is set.
 */
struct OpenLoopSpec {
    /** Mean offered load in requests per second; 0 = closed loop. */
    double qps = 0.0;
    /** Arrival shape: "poisson", "bursty" or "diurnal". */
    std::string arrival = "poisson";
    /** p99 latency target in microseconds; 0 = no SLO. */
    double sloP99Us = 0.0;

    // Shape knobs (defaults tuned for second-scale simulations).
    /** Burst rate as a multiple of `qps` (bursty). */
    double burstFactor = 3.0;
    /** Fraction of each period spent bursting (bursty). */
    double burstOnFraction = 0.25;
    /** On/off cycle length (bursty). */
    Tick burstPeriod = 1 * kSecond;
    /** Day length of the sinusoidal swing (diurnal). */
    Tick diurnalPeriod = 8 * kSecond;
    /** Peak-to-mean swing in [0, 1] (diurnal). */
    double diurnalAmplitude = 0.8;

    bool enabled() const { return qps > 0.0; }

    bool operator==(const OpenLoopSpec &) const = default;
};

/**
 * Generates successive inter-arrival gaps in virtual time.
 */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    virtual std::string name() const = 0;

    /**
     * @param now the current virtual time (arrivals may be rate-
     *            modulated by wall-clock phase)
     * @return ticks until the next arrival (always >= 1)
     */
    virtual Tick nextGap(Tick now) = 0;

    /** @return true when `kind` names a registered arrival shape. */
    static bool known(const std::string &kind);

    /** The registered shape names, for diagnostics. */
    static const char *knownNames();

    /**
     * Build the process described by `spec` (spec.enabled() must
     * hold). Unknown shapes are a caller bug — validate first.
     */
    static std::unique_ptr<ArrivalProcess> make(const OpenLoopSpec &spec,
                                                std::uint64_t seed);
};

} // namespace tpp

#endif // TPP_WORKLOADS_ARRIVAL_HH
