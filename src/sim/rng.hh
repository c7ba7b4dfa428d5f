/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component of the simulator draws from an explicitly
 * seeded Rng so that runs are reproducible bit-for-bit. The generator is
 * xoshiro256** (Blackman & Vigna), seeded through SplitMix64.
 */

#ifndef TPP_SIM_RNG_HH
#define TPP_SIM_RNG_HH

#include <bit>
#include <cstdint>

namespace tpp {

/**
 * xoshiro256** pseudo-random generator.
 *
 * Satisfies the UniformRandomBitGenerator concept so it can also feed
 * standard-library distributions when convenient.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    // The draws are defined inline: the workload engine makes three or
    // four of them per simulated memory access.

    /** @return the next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);

        return result;
    }

    /** UniformRandomBitGenerator interface. */
    result_type operator()() { return next(); }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** @return an unbiased integer in [0, bound). bound must be > 0. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        return nextBounded(bound, (0 - bound) % bound);
    }

    /**
     * nextBounded(bound) with its rejection threshold, which must be
     * (0 - bound) % bound, computed once by a caller that draws many
     * times from one bound.
     */
    std::uint64_t
    nextBounded(std::uint64_t bound, std::uint64_t threshold)
    {
        // Lemire-style rejection to avoid modulo bias.
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** @return a double uniform in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return true with probability p (p clamped to [0,1]). */
    bool
    nextBool(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

  private:
    std::uint64_t s_[4];
};

} // namespace tpp

#endif // TPP_SIM_RNG_HH
