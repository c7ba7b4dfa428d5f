/**
 * @file
 * Declarative configuration for the MigrationEngine (mm/migration).
 *
 * Lives in its own lightweight header so config-consuming layers (the
 * experiment harness, benches, tests) can describe an engine mode
 * without pulling in the engine — mirroring mm/policy_params.hh.
 *
 * The default-constructed config is the **sync-compat mode**: queue
 * depth 1, no daemon, no admission control, flat per-page copy cost.
 * In that mode every demotion/promotion executes inline and the
 * simulation is bit-for-bit identical to the pre-engine kernel
 * (tests/test_migration_compat.cc pins this with golden fingerprints).
 */

#ifndef TPP_MM_MIGRATION_MIGRATION_CONFIG_HH
#define TPP_MM_MIGRATION_MIGRATION_CONFIG_HH

#include <cstdint>

#include "sim/types.hh"

namespace tpp {

/** Operating-mode knobs of the MigrationEngine. */
struct MigrationConfig {
    /**
     * Queue background migrations per node and drain them in batches
     * from a migrator daemon on the event queue. Off: every request
     * executes synchronously in the caller (today's Linux behaviour —
     * and the bit-identical compat mode). Direct reclaim always
     * demotes synchronously regardless, like the real kernel: the
     * allocating task needs pages *now*.
     */
    bool async = false;
    /**
     * Nomad-style two-phase transactional copy: a page being copied
     * carries PageFrame::FlagUnderMigration for the duration of the
     * modelled copy; an access to it during that window aborts the
     * transaction (vm event pgmigrate_fail_busy) and the page stays
     * put. Only meaningful with `async`.
     */
    bool transactional = false;
    /**
     * Charge the page copy through the latency model's
     * bandwidth-contention path (transfer time over the slower of the
     * two nodes, inflated by each node's utilisation) instead of the
     * flat MmCosts::migratePage constant.
     */
    bool bandwidthCost = false;
    /**
     * Per-(node, direction) queue capacity; a full queue defers the
     * request (vm.migration_queue_depth). Depth 1 with `async` off is
     * the compat mode.
     */
    std::uint64_t queueDepth = 1;
    /** Pages the migrator daemon moves per wakeup and queue. */
    std::uint64_t drainBatch = 32;
    /** Migrator daemon cadence while any queue holds requests. */
    Tick drainPeriod = 1 * kMillisecond;
    /**
     * TierBPF-style admission control: token-bucket budget, in MB/s of
     * page-copy traffic per destination node
     * (vm.migration_rate_limit_mbps). Requests beyond the budget are
     * deferred, never queued. 0 disables admission control.
     */
    double rateLimitMBps = 0.0;

    /** The bit-identical pre-engine behaviour (the default). */
    static MigrationConfig
    compat()
    {
        return MigrationConfig{};
    }

    /** The full asynchronous, transactional engine. */
    static MigrationConfig
    asyncEngine()
    {
        MigrationConfig cfg;
        cfg.async = true;
        cfg.transactional = true;
        cfg.bandwidthCost = true;
        cfg.queueDepth = 512;
        return cfg;
    }

    bool operator==(const MigrationConfig &) const = default;
};

} // namespace tpp

#endif // TPP_MM_MIGRATION_MIGRATION_CONFIG_HH
