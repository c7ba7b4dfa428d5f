/**
 * @file
 * Sampling distributions used by workload generators.
 *
 * ZipfDistribution: datacenter access skew (hot keys in Cache, hot heap
 * objects in Web) is conventionally modelled as Zipfian. Sampling uses
 * the rejection-inversion method of Hörmann & Derflinger, which is O(1)
 * per sample and needs no O(n) table. A distribution that keeps drawing
 * decides most draws from a small cubic table of the inverse instead of
 * libm, with the same result and the same Rng draws (see operator()).
 */

#ifndef TPP_SIM_DISTRIBUTIONS_HH
#define TPP_SIM_DISTRIBUTIONS_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/rng.hh"

namespace tpp {

/**
 * Zipf-distributed integers over [0, n). Rank 0 is the most popular.
 *
 * P(k) proportional to 1 / (k + 1)^theta.
 */
class ZipfDistribution
{
  public:
    /**
     * @param n      population size, must be >= 1
     * @param theta  skew exponent, finite and >= 0; 0 degenerates to
     *               uniform, ~0.99 is the YCSB default, larger is more
     *               skewed
     */
    ZipfDistribution(std::uint64_t n, double theta);

    /**
     * Draw one rank in [0, n). Returns what sampleExact() returns from
     * the same Rng state and leaves the Rng in the same state, so the
     * stream is rejection-inversion's. After kExactDrawsBeforeTable
     * draws the distribution builds a cubic table of the inverse and
     * decides each attempt from it when the table's certified error
     * bound allows, else by the exact attempt on the same variate.
     *
     * The table path is inline (drawTabled()); the draws before the
     * table exists, the table build and the exact fallback stay out of
     * line.
     */
    std::uint64_t operator()(Rng &rng);

    /** True once the table exists, so drawTabled() may draw. */
    bool tabled() const { return !table_.empty(); }

    /**
     * operator() on a tabled() distribution. It never passes the Rng
     * out of line, so a caller's local Rng can stay in registers
     * across draws.
     */
    std::uint64_t drawTabled(Rng &rng) const;

    /** Draw one rank by rejection-inversion alone: the reference. */
    std::uint64_t sampleExact(Rng &rng) const;

    std::uint64_t size() const { return n_; }

  private:
    friend class ZipfDistributionTestPeer;

    /**
     * One piece of the cubic Hermite interpolant of x(u) = H^-1(u):
     * x ~ c0 + t (c1 + t (c2 + t c3)) for t in [0, 1) across the
     * segment, within eps of hIntegralInverse(u).
     */
    struct Segment {
        double c0, c1, c2, c3;
        double eps;
    };

    /** Segments in the table, spread evenly over the variate's range. */
    static constexpr int kSegments = 512;
    /** Exact draws made before the table is built. The build costs no
     *  more than this many exact draws, and a distribution replaced
     *  sooner (ycsb rebuilds its one on every insert) never pays for a
     *  table it would not use. */
    static constexpr std::uint32_t kExactDrawsBeforeTable = 2048;

    /** operator() while no table exists: exact draws, and the build
     *  once kExactDrawsBeforeTable of them were made. */
    std::uint64_t drawBeforeTable(Rng &rng);
    /** The uniform variate one attempt inverts. */
    double drawU(Rng &rng) const;
    /** One rejection-inversion attempt: the rank plus one, or 0 when
     *  the attempt is rejected. */
    std::uint64_t attemptExact(double u) const;
    /** attemptExact(u) decided from the table where it can be. */
    std::uint64_t attemptTable(double u) const;
    /** The attempt's acceptance test for a candidate k past the
     *  squeeze; it depends on k and u only. */
    bool acceptsTail(double u, double k) const;
    void buildTable();

    double hIntegral(double x) const;
    double hIntegralInverse(double x) const;
    double h(double x) const;

    std::uint64_t n_;
    double theta_;
    double hIntegralX1_;
    double hIntegralNumberOfElements_;
    double s_;

    std::uint32_t exactDraws_ = 0;
    /** Segments per unit of u; set with table_. */
    double segmentsPerU_ = 0.0;
    std::vector<Segment> table_;
};

inline std::uint64_t
ZipfDistribution::operator()(Rng &rng)
{
    if (!tabled()) [[unlikely]]
        return drawBeforeTable(rng);
    return drawTabled(rng);
}

inline std::uint64_t
ZipfDistribution::drawTabled(Rng &rng) const
{
    for (;;) {
        if (const std::uint64_t k = attemptTable(drawU(rng)))
            return k - 1;
    }
}

inline double
ZipfDistribution::drawU(Rng &rng) const
{
    return hIntegralNumberOfElements_ +
           rng.nextDouble() * (hIntegralX1_ - hIntegralNumberOfElements_);
}

inline std::uint64_t
ZipfDistribution::attemptTable(double u) const
{
    // Every test is written so that a NaN falls back too.
    const double t = (u - hIntegralX1_) * segmentsPerU_;
    if (!(t >= 0.0 && t < kSegments))
        return attemptExact(u);
    const int j = static_cast<int>(t);
    const Segment &seg = table_[j];
    const double tau = t - j;
    const double x = seg.c0 + tau * (seg.c1 + tau * (seg.c2 + tau * seg.c3));
    const double y = x + 0.5;
    // k = floor(y), which must lie in [1, n].
    if (!(y >= 1.0 && y < static_cast<double>(n_) + 1.0))
        return attemptExact(u);
    const auto k = static_cast<double>(static_cast<std::int64_t>(y));
    const double squeeze = k - x - s_;
    if (!(y - k > seg.eps && k + 1.0 - y > seg.eps &&
          std::abs(squeeze) > seg.eps))
        return attemptExact(u);
    if (squeeze < 0.0 || acceptsTail(u, k))
        return static_cast<std::uint64_t>(k);
    return 0;
}

} // namespace tpp

#endif // TPP_SIM_DISTRIBUTIONS_HH
