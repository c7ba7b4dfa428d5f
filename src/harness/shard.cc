#include "harness/shard.hh"

#include <algorithm>

namespace tpp {

std::vector<double>
shardBudgetShares(const std::vector<double> &demand, double global_budget)
{
    const std::size_t n = demand.size();
    std::vector<double> shares(n, 0.0);
    if (n == 0 || global_budget <= 0.0)
        return shares;
    if (n == 1) {
        // One region owns the whole machine budget; the floor/pool
        // arithmetic below would only round it.
        shares[0] = global_budget;
        return shares;
    }
    double total_demand = 0.0;
    for (const double d : demand)
        total_demand += d;
    const double count = static_cast<double>(n);
    const double floor_share = 0.1 * global_budget / count;
    const double weighted_pool = 0.9 * global_budget;
    double handed_out = 0.0;
    for (std::size_t r = 0; r + 1 < n; ++r) {
        const double weight =
            total_demand > 0.0 ? demand[r] / total_demand : 1.0 / count;
        shares[r] = floor_share + weighted_pool * weight;
        handed_out += shares[r];
    }
    // The last region takes whatever is left rather than its own
    // independently rounded slice: summing n independently rounded
    // doubles drifts off the budget by a few ulps per epoch, and those
    // ulps compound into kernels collectively running over (or under)
    // the configured machine-wide limit. Every region's exact share is
    // at least the floor, far above rounding noise, so the clamp below
    // never fires in practice — it only guards a pathological budget.
    shares[n - 1] = std::max(0.0, global_budget - handed_out);
    return shares;
}

} // namespace tpp
