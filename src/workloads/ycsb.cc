#include "workloads/ycsb.hh"

#include <algorithm>
#include <memory>

#include "mm/kernel.hh"
#include "sim/logging.hh"
#include "workloads/workload_registry.hh"

namespace tpp {

YcsbConfig
YcsbConfig::workloadA(std::uint64_t record_pages)
{
    YcsbConfig cfg;
    cfg.recordPages = record_pages;
    cfg.readShare = 0.5;
    return cfg;
}

YcsbConfig
YcsbConfig::workloadB(std::uint64_t record_pages)
{
    YcsbConfig cfg;
    cfg.recordPages = record_pages;
    cfg.readShare = 0.95;
    return cfg;
}

YcsbConfig
YcsbConfig::workloadC(std::uint64_t record_pages)
{
    YcsbConfig cfg;
    cfg.recordPages = record_pages;
    cfg.readShare = 1.0;
    return cfg;
}

YcsbConfig
YcsbConfig::workloadD(std::uint64_t record_pages)
{
    YcsbConfig cfg;
    cfg.recordPages = record_pages;
    cfg.readShare = 0.95;
    cfg.insertShare = 0.05;
    cfg.distribution = YcsbDistribution::Latest;
    return cfg;
}

YcsbWorkload::YcsbWorkload(YcsbConfig cfg)
    : cfg_(cfg), think_(cfg.thinkTimePerOpNs), rng_(cfg.seed)
{
    if (cfg_.recordPages == 0)
        tpp_fatal("ycsb: empty keyspace");
    if (cfg_.readShare < 0.0 || cfg_.readShare > 1.0 ||
        cfg_.insertShare < 0.0 ||
        cfg_.readShare + cfg_.insertShare > 1.0) {
        tpp_fatal("ycsb: bad operation mix");
    }
}

void
YcsbWorkload::init(Kernel &kernel)
{
    // Reserve headroom for inserts: 50 % over the initial keyspace.
    capacity_ = cfg_.recordPages + cfg_.recordPages / 2;
    asid_ = kernel.createProcess();
    base_ = kernel.mmap(asid_, capacity_, PageType::Anon, "records");
    populated_ = cfg_.recordPages;
}

Vpn
YcsbWorkload::sampleKey()
{
    switch (cfg_.distribution) {
      case YcsbDistribution::Uniform:
        return base_ + rng_.nextBounded(populated_);
      case YcsbDistribution::Zipfian: {
        if (!zipf_ || zipfDomain_ != populated_) {
            zipf_.emplace(populated_, cfg_.zipfTheta);
            zipfDomain_ = populated_;
        }
        return base_ + (*zipf_)(rng_);
      }
      case YcsbDistribution::Latest: {
        // Rank 0 = most recently inserted record.
        if (!zipf_ || zipfDomain_ != populated_) {
            zipf_.emplace(populated_, cfg_.zipfTheta);
            zipfDomain_ = populated_;
        }
        const std::uint64_t back = (*zipf_)(rng_);
        return base_ + (populated_ - 1 - back);
      }
    }
    tpp_panic("bad ycsb distribution");
}

BatchResult
YcsbWorkload::runBatch(Kernel &kernel)
{
    return runOps(kernel, cfg_.opsPerBatch);
}

BatchResult
YcsbWorkload::runOps(Kernel &kernel, std::uint64_t ops)
{
    BatchResult result;
    const double think = think_.perOpNs(kernel.eventQueue().now());
    double duration = 0.0;
    for (std::uint64_t op = 0; op < ops; ++op) {
        duration += think;
        const double roll = rng_.nextDouble();
        AccessKind kind = AccessKind::Load;
        Vpn vpn;
        if (roll >= cfg_.readShare &&
            roll < cfg_.readShare + cfg_.insertShare &&
            populated_ < capacity_) {
            // Insert: touch a brand-new record page.
            vpn = base_ + populated_;
            populated_++;
            kind = AccessKind::Store;
            zipf_.reset(); // domain changed
        } else {
            vpn = sampleKey();
            kind = roll < cfg_.readShare ? AccessKind::Load
                                         : AccessKind::Store;
        }
        for (std::uint32_t a = 0; a < cfg_.pagesPerOp; ++a) {
            const AccessResult res = kernel.access(
                asid_, a == 0 ? vpn
                              : base_ + rng_.nextBounded(populated_),
                kind, taskNode_);
            duration += res.latencyNs;
            result.accesses++;
            result.memLatencyNs += res.latencyNs;
        }
    }
    result.ops = ops;
    result.durationNs = std::max(duration, 1.0);
    return result;
}

namespace {

/**
 * WorkloadRegistry factory for one canned YCSB mix. The keyspace takes
 * 90 % of the working-set reservation (the sizing the lab and zoo
 * binaries always used), and the run's seed feeds the key-pick RNG.
 */
WorkloadRegistry::Factory
ycsbFactory(YcsbConfig (*mix)(std::uint64_t))
{
    return [mix](const WorkloadSpec &spec) {
        YcsbConfig cfg = mix(spec.wssPages * 9 / 10);
        cfg.seed = spec.seed;
        return std::make_unique<YcsbWorkload>(cfg);
    };
}

} // namespace

TPP_REGISTER_WORKLOAD_AS(ycsbA, "ycsb-a", ycsbFactory(&YcsbConfig::workloadA));
TPP_REGISTER_WORKLOAD_AS(ycsbB, "ycsb-b", ycsbFactory(&YcsbConfig::workloadB));
TPP_REGISTER_WORKLOAD_AS(ycsbC, "ycsb-c", ycsbFactory(&YcsbConfig::workloadC));
TPP_REGISTER_WORKLOAD_AS(ycsbD, "ycsb-d", ycsbFactory(&YcsbConfig::workloadD));

} // namespace tpp
