#include "sim/distributions.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace tpp {

// ZipfDistribution: rejection-inversion sampling after Hörmann &
// Derflinger, "Rejection-inversion to generate variates from monotone
// discrete distributions" (1996), as popularised by Apache Commons RNG.

ZipfDistribution::ZipfDistribution(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    if (n == 0)
        tpp_fatal("ZipfDistribution requires n >= 1");
    if (!std::isfinite(theta))
        tpp_fatal("ZipfDistribution requires a finite theta, got %g", theta);
    if (theta < 0.0)
        tpp_fatal("ZipfDistribution requires theta >= 0");
    hIntegralX1_ = hIntegral(1.5) - 1.0;
    hIntegralNumberOfElements_ = hIntegral(static_cast<double>(n) + 0.5);
    s_ = 2.0 - hIntegralInverse(hIntegral(2.5) - h(2.0));
}

double
ZipfDistribution::hIntegral(double x) const
{
    const double log_x = std::log(x);
    // Uses expm1/log1p-based helper to stay accurate when theta ~ 1.
    const double t = log_x * (1.0 - theta_);
    const double helper =
        (std::abs(t) > 1e-8) ? std::expm1(t) / t : 1.0 + t / 2.0 + t * t / 6.0;
    return helper * log_x;
}

double
ZipfDistribution::hIntegralInverse(double x) const
{
    double t = x * (1.0 - theta_);
    if (t < -1.0)
        t = -1.0;
    const double helper =
        (std::abs(t) > 1e-8) ? std::log1p(t) / t : 1.0 - t / 2.0 + t * t / 3.0;
    return std::exp(helper * x);
}

double
ZipfDistribution::h(double x) const
{
    return std::exp(-theta_ * std::log(x));
}

bool
ZipfDistribution::acceptsTail(double u, double k) const
{
    return u >= hIntegral(k + 0.5) - h(k);
}

std::uint64_t
ZipfDistribution::attemptExact(double u) const
{
    const double x = hIntegralInverse(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0)
        k = 1.0;
    else if (k > static_cast<double>(n_))
        k = static_cast<double>(n_);
    if (k - x <= s_ || acceptsTail(u, k))
        return static_cast<std::uint64_t>(k);
    return 0;
}

// The table path (attemptTable(), inline in distributions.hh). An
// attempt needs x = hIntegralInverse(u) only for two comparisons:
// which integer x + 0.5 lies above (k), and whether k - x <= s. So an
// approximation x' with |x' - x| <= eps decides both whenever x' + 0.5
// is more than eps from an integer and k - x' is more than eps from s,
// and then returns exactly what the exact attempt returns; past the
// squeeze, acceptsTail() depends on k and u alone.
// Every other attempt runs the exact one on the same u, so the rank and
// the Rng draws never differ from rejection-inversion's.
//
// x(u) is interpolated by a cubic Hermite per segment, from node values
// hIntegralInverse(u_j) and slopes dx/du = x^theta. Its error on a
// segment of width w is at most w^4/384 max|x''''|, where
// x'''' = theta (2 theta - 1) (3 theta - 2) x^(4 theta - 3) is monotone
// in u, so the larger of its values at the two nodes bounds it. eps
// doubles that, after adding 1e-12 theta to the coefficient to cover
// its rounding near its zeros (theta = 1/2, 2/3). It then adds 1e-12 of
// the segment's largest x and of its largest slope times the span of u:
// many times the rounding of libm, of the nodes, of the segment lookup
// and of the cubic's evaluation, which are all a few units in the last
// place of those scales.

void
ZipfDistribution::buildTable()
{
    const double lo = hIntegralX1_;
    const double span = hIntegralNumberOfElements_ - hIntegralX1_;
    const double width = span / kSegments;
    segmentsPerU_ = kSegments / span;
    const double d4 =
        std::abs(theta_ * (2.0 * theta_ - 1.0) * (3.0 * theta_ - 2.0)) +
        1e-12 * theta_;
    const double hermite = 2.0 * d4 * std::pow(width, 4) / 384.0;
    const double u_scale =
        std::abs(hIntegralX1_) + std::abs(hIntegralNumberOfElements_);

    table_.resize(kSegments);
    double x0 = hIntegralInverse(lo);
    double m0 = std::pow(x0, theta_);
    double p0 = std::pow(x0, 4.0 * theta_ - 3.0);
    for (int j = 0; j < kSegments; ++j) {
        const double x1 = hIntegralInverse(lo + (j + 1) * width);
        const double m1 = std::pow(x1, theta_);
        const double p1 = std::pow(x1, 4.0 * theta_ - 3.0);
        Segment &seg = table_[j];
        seg.c0 = x0;
        seg.c1 = width * m0;
        seg.c2 = 3.0 * (x1 - x0) - width * (2.0 * m0 + m1);
        seg.c3 = 2.0 * (x0 - x1) + width * (m0 + m1);
        seg.eps = hermite * std::max(p0, p1) +
                  1e-12 * (std::max(x0, x1) + u_scale * std::max(m0, m1));
        x0 = x1;
        m0 = m1;
        p0 = p1;
    }
}

std::uint64_t
ZipfDistribution::drawBeforeTable(Rng &rng)
{
    if (n_ == 1 || exactDraws_++ < kExactDrawsBeforeTable)
        return sampleExact(rng);
    buildTable();
    return drawTabled(rng);
}

std::uint64_t
ZipfDistribution::sampleExact(Rng &rng) const
{
    if (n_ == 1)
        return 0;
    for (;;) {
        if (const std::uint64_t k = attemptExact(drawU(rng)))
            return k - 1;
    }
}

} // namespace tpp
