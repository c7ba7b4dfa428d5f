/**
 * @file
 * Migration-admission budget split across shard regions.
 *
 * runExperiment() runs `cfg.effectiveShardRegions()` region stacks,
 * each with its own event queue, memory system and kernel, in epoch
 * lockstep. At every epoch barrier it redistributes a machine-wide
 * migration rate limit (cfg.migration.rateLimitMBps > 0) across the
 * regions with shardBudgetShares(), serially and in fixed region order,
 * so the worker count never changes a result.
 */

#ifndef TPP_HARNESS_SHARD_HH
#define TPP_HARNESS_SHARD_HH

#include <vector>

namespace tpp {

/**
 * Demand-weighted split of the machine-wide migration-admission budget
 * across shard regions: every region keeps a 10% floor of the equal
 * share, the remaining 90% pool is divided by last-epoch migration
 * demand (equally when every region was idle). The returned shares sum
 * to *exactly* `global_budget` — the last region absorbs the
 * floating-point remainder — so the rebalance conserves the budget
 * bit-for-bit instead of leaking or minting bandwidth every epoch
 * (tests/test_shard.cc pins this, single-region and all-idle corners
 * included). A non-positive budget or empty demand vector yields all
 * zeros.
 */
std::vector<double> shardBudgetShares(const std::vector<double> &demand,
                                      double global_budget);

} // namespace tpp

#endif // TPP_HARNESS_SHARD_HH
