/**
 * @file
 * A process-wide count of the threads that keep a CPU busy simulating:
 * every thread inside EventQueue::run() and every helper thread while
 * it draws a workload batch ahead of the thread that issues it. A helper
 * goes ahead only while the count leaves a CPU of the process's
 * affinity mask spare, so a sweep with a job per CPU, a one-CPU
 * container and `taskset -c 0` run every batch inline. The machine's
 * count of runnable threads must leave one spare too: it covers what
 * the process count cannot see, such as the test binaries `ctest -j4`
 * runs side by side, and helpers waiting between batches. The counts
 * decide where work runs, never what it computes.
 */

#ifndef TPP_SIM_SPARE_CPU_HH
#define TPP_SIM_SPARE_CPU_HH

namespace tpp {

/** CPUs in this process's affinity mask when first asked (at least 1). */
unsigned allowedCpus();

/**
 * Counts the calling thread busy while it lives; scopes nested on one
 * thread count it once. EventQueue::run() holds one.
 */
class BusyThreadScope
{
  public:
    BusyThreadScope();
    ~BusyThreadScope();

    BusyThreadScope(const BusyThreadScope &) = delete;
    BusyThreadScope &operator=(const BusyThreadScope &) = delete;
};

/**
 * Count one helper thread busy if a CPU is spare: the busy threads, the
 * caller (unless a BusyThreadScope counts it already) and the helper
 * must fit in allowedCpus(), and so must the machine's runnable threads
 * plus the helper if `wakes` (it sleeps now, so it is not among them).
 * @return true when counted; the caller hands it back with
 * releaseSpareCpu() once the helper is done.
 */
bool claimSpareCpu(bool wakes);

/** Hand back a CPU that claimSpareCpu() counted. */
void releaseSpareCpu();

} // namespace tpp

#endif // TPP_SIM_SPARE_CPU_HH
