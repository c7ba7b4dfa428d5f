#include "workloads/trace.hh"

#include "mm/kernel.hh"
#include "sim/logging.hh"

namespace tpp {

TraceWorkload::TraceWorkload(std::uint64_t region_pages,
                             std::vector<TraceEntry> trace, PageType type,
                             std::uint64_t batch, double think_ns)
    : regionPages_(region_pages), trace_(std::move(trace)), type_(type),
      batch_(batch), think_(think_ns)
{
    if (regionPages_ == 0)
        tpp_fatal("trace workload needs a non-empty region");
    for (const TraceEntry &e : trace_) {
        if (e.pageIndex >= regionPages_)
            tpp_fatal("trace entry beyond region end");
    }
}

void
TraceWorkload::init(Kernel &kernel)
{
    asid_ = kernel.createProcess();
    base_ = kernel.mmap(asid_, regionPages_, type_, "trace");
}

BatchResult
TraceWorkload::runBatch(Kernel &kernel)
{
    return runOps(kernel, batch_);
}

BatchResult
TraceWorkload::runOps(Kernel &kernel, std::uint64_t ops)
{
    BatchResult result;
    const double think = think_.perOpNs(kernel.eventQueue().now());
    double duration = 0.0;
    std::uint64_t replayed = 0;
    while (cursor_ < trace_.size() && replayed < ops) {
        const TraceEntry &e = trace_[cursor_++];
        const AccessResult res =
            kernel.access(asid_, base_ + e.pageIndex, e.kind, taskNode_);
        result.accesses++;
        result.memLatencyNs += res.latencyNs;
        duration += think + res.latencyNs;
        replayed++;
    }
    result.ops = replayed;
    result.durationNs = std::max(duration, 1.0);
    return result;
}

} // namespace tpp
