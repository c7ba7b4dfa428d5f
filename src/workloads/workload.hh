/**
 * @file
 * Abstract workload interface.
 *
 * A workload runs closed-loop: the driver asks it to execute one batch
 * of application operations against the Kernel, the batch reports how
 * much simulated time it consumed (CPU think time + memory latency),
 * and the driver schedules the next batch after that much time. The
 * application's throughput therefore *emerges* from page placement —
 * precisely the feedback loop the paper's evaluation measures.
 *
 * A workload only issues accesses. Whatever watches them (Chameleon,
 * the hotness sources, a trace recorder) is one of the kernel's access
 * taps (mm/access_tap.hh), which see every access Kernel::access takes.
 */

#ifndef TPP_WORKLOADS_WORKLOAD_HH
#define TPP_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace tpp {

class Kernel;

/** Outcome of one batch. */
struct BatchResult {
    double durationNs = 0.0; //!< simulated time the batch consumed
    std::uint64_t ops = 0;   //!< application operations completed
    std::uint64_t accesses = 0;    //!< memory references issued
    double memLatencyNs = 0.0;     //!< summed memory latency
};

/**
 * Something that issues memory accesses in batches.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /** Create the process and reserve regions. Called once. */
    virtual void init(Kernel &kernel) = 0;

    /**
     * Run the warm-up phase (initial file loads etc.) to completion.
     * @return simulated time consumed in nanoseconds.
     */
    virtual double warmup(Kernel &kernel) { (void)kernel; return 0.0; }

    /** Execute one batch of operations. */
    virtual BatchResult runBatch(Kernel &kernel) = 0;

    /**
     * Execute exactly `ops` application operations (open-loop service).
     * The default falls back to runBatch() for workloads that cannot
     * size a batch on demand; real workloads override it so the driver
     * can serve precisely the requests that have arrived.
     */
    virtual BatchResult
    runOps(Kernel &kernel, std::uint64_t ops)
    {
        (void)ops;
        return runBatch(kernel);
    }

    /** @return true when the workload has nothing left to run. */
    virtual bool done() const { return false; }

    /** @return false while an initial warm-up phase is still running. */
    virtual bool warmedUp() const { return true; }

    /** The node whose CPUs execute this workload's threads. */
    NodeId taskNode() const { return taskNode_; }
    void setTaskNode(NodeId nid) { taskNode_ = nid; }

  protected:
    NodeId taskNode_ = 0;
};

} // namespace tpp

#endif // TPP_WORKLOADS_WORKLOAD_HH
