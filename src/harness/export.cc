#include "harness/export.hh"

#include <algorithm>
#include <iomanip>

#include "trace/trace_io.hh"

namespace tpp {

namespace {

/** Minimal JSON string escaping (names here are ASCII identifiers). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

std::string
csvField(const std::string &value)
{
    if (value.find_first_of(",\"\n\r") == std::string::npos)
        return value;
    std::string out;
    out.reserve(value.size() + 2);
    out.push_back('"');
    for (char c : value) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

void
writeResultsCsv(std::ostream &out,
                const std::vector<ExperimentResult> &results)
{
    // Open-loop, per-node and error columns appear only when some run
    // carries them, so closed-loop two-node outputs stay byte-identical
    // to before those layers existed.
    bool open = false;
    bool errors = false;
    std::size_t node_cols = 0;
    for (const ExperimentResult &r : results) {
        open = open || r.openLoop.enabled;
        errors = errors || r.failed();
        node_cols = std::max(node_cols, r.nodes.size());
    }
    out << "workload,policy,throughput_ops_s,mean_access_latency_ns,"
           "local_traffic_share,cxl_traffic_share,anon_local_residency,"
           "file_local_residency,hot_set_recall";
    if (open) {
        out << ",offered_qps,p50_us,p99_us,p999_us,mean_queue_depth,"
               "goodput_ops_s,slo_attainment";
    }
    for (std::size_t i = 0; i < node_cols; ++i) {
        out << ",node" << i << "_name,node" << i << "_tier,node" << i
            << "_anon,node" << i << "_file,node" << i << "_free,node"
            << i << "_traffic_share";
    }
    if (errors)
        out << ",error";
    out << '\n';
    for (const ExperimentResult &r : results) {
        out << csvField(r.workload) << ',' << csvField(r.policy) << ','
            << std::fixed << std::setprecision(3) << r.throughput << ','
            << r.meanAccessLatencyNs << ',' << r.localTrafficShare << ','
            << r.cxlTrafficShare << ',' << r.anonLocalResidency << ','
            << r.fileLocalResidency << ',' << r.hotSetRecall;
        if (open) {
            const OpenLoopResult &ol = r.openLoop;
            out << ',' << ol.offeredQps << ',' << ol.p50Ns / 1000.0
                << ',' << ol.p99Ns / 1000.0 << ',' << ol.p999Ns / 1000.0
                << ',' << ol.meanQueueDepth << ',' << ol.goodputQps
                << ',' << std::setprecision(4) << ol.sloAttainment
                << std::setprecision(3);
        }
        for (std::size_t i = 0; i < node_cols; ++i) {
            if (i < r.nodes.size()) {
                const NodeResult &n = r.nodes[i];
                out << ',' << csvField(n.name) << ',' << n.tierRank
                    << ',' << n.anonPages << ',' << n.filePages << ','
                    << n.freePages << ',' << std::setprecision(4)
                    << n.trafficShare << std::setprecision(3);
            } else {
                // Mixed machine sizes in one sweep: pad the short rows.
                out << ",,,,,,";
            }
        }
        if (errors)
            out << ',' << csvField(r.error);
        out << '\n';
    }
}

void
writeTenantsCsv(std::ostream &out,
                const std::vector<ExperimentResult> &results)
{
    bool open = false;
    for (const ExperimentResult &r : results)
        for (const TenantResult &t : r.tenants)
            open = open || t.openLoop.enabled;
    out << "run_workload,policy,tenant,tenant_workload,"
           "throughput_ops_s,mean_access_latency_ns,local_residency,"
           "pages_local,pages_total,hot_set_recall,promote_success,"
           "demotions,reclaim_protected,reclaim_low,migrate_throttled";
    if (open) {
        out << ",offered_qps,arrival,requests,dropped,p50_us,p99_us,"
               "p999_us,mean_queue_depth,goodput_ops_s,slo_p99_us,"
               "slo_attainment";
    }
    out << '\n';
    for (const ExperimentResult &r : results) {
        for (const TenantResult &t : r.tenants) {
            out << csvField(r.workload) << ',' << csvField(r.policy)
                << ',' << csvField(t.name) << ','
                << csvField(t.workload) << ',' << std::fixed
                << std::setprecision(3) << t.throughput << ','
                << t.meanAccessLatencyNs << ',' << t.localResidency
                << ',' << t.pagesLocal << ',' << t.pagesTotal << ','
                << t.hotSetRecall << ',' << t.memcg.promoteSuccess << ','
                << t.memcg.demotions << ','
                << t.memcg.reclaimProtected << ',' << t.memcg.reclaimLow
                << ',' << t.memcg.migrateThrottled;
            if (open) {
                const OpenLoopResult &ol = t.openLoop;
                out << ',' << ol.offeredQps << ','
                    << csvField(ol.arrival) << ',' << ol.requests << ','
                    << ol.dropped << ',' << ol.p50Ns / 1000.0 << ','
                    << ol.p99Ns / 1000.0 << ',' << ol.p999Ns / 1000.0
                    << ',' << ol.meanQueueDepth << ',' << ol.goodputQps
                    << ',' << ol.sloP99Us << ',' << std::setprecision(4)
                    << ol.sloAttainment << std::setprecision(3);
            }
            out << '\n';
        }
    }
}

void
writeSamplesCsv(std::ostream &out, const ExperimentResult &result)
{
    const bool open = result.openLoop.enabled;
    out << "tick_ns,local_share,promotion_pages_s,demotion_pages_s,"
           "local_alloc_pages_s,local_free_pages,throughput_ops_s,"
           "anon_resident,file_resident";
    if (open)
        out << ",queue_depth";
    out << '\n';
    for (const IntervalSample &s : result.samples) {
        out << s.tick << ',' << std::fixed << std::setprecision(4)
            << s.localShare << ',' << s.promotionRate << ','
            << s.demotionRate << ',' << s.localAllocRate << ','
            << s.localFree << ',' << s.throughput << ','
            << s.anonResident << ',' << s.fileResident;
        if (open)
            out << ',' << s.queueDepth;
        out << '\n';
    }
}

void
writeResultJson(std::ostream &out, const ExperimentResult &result)
{
    out << "{\n";
    out << "  \"workload\": \"" << jsonEscape(result.workload) << "\",\n";
    out << "  \"policy\": \"" << jsonEscape(result.policy) << "\",\n";
    out << "  \"throughput_ops_s\": " << std::fixed
        << std::setprecision(3) << result.throughput << ",\n";
    out << "  \"mean_access_latency_ns\": " << result.meanAccessLatencyNs
        << ",\n";
    out << "  \"local_traffic_share\": " << result.localTrafficShare
        << ",\n";
    out << "  \"cxl_traffic_share\": " << result.cxlTrafficShare << ",\n";
    out << "  \"anon_local_residency\": " << result.anonLocalResidency
        << ",\n";
    out << "  \"file_local_residency\": " << result.fileLocalResidency
        << ",\n";
    out << "  \"hot_set_recall\": " << result.hotSetRecall << ",\n";
    out << "  \"hot_set_pages\": " << result.hotSetPages << ",\n";
    if (result.failed())
        out << "  \"error\": \"" << jsonEscape(result.error) << "\",\n";
    if (result.openLoop.enabled) {
        const OpenLoopResult &ol = result.openLoop;
        out << "  \"open_loop\": {\n";
        out << "    \"offered_qps\": " << ol.offeredQps << ",\n";
        out << "    \"arrival\": \"" << jsonEscape(ol.arrival) << "\",\n";
        out << "    \"requests\": " << ol.requests << ",\n";
        out << "    \"dropped\": " << ol.dropped << ",\n";
        out << "    \"p50_us\": " << ol.p50Ns / 1000.0 << ",\n";
        out << "    \"p99_us\": " << ol.p99Ns / 1000.0 << ",\n";
        out << "    \"p999_us\": " << ol.p999Ns / 1000.0 << ",\n";
        out << "    \"max_us\": " << ol.maxNs / 1000.0 << ",\n";
        out << "    \"mean_us\": " << ol.meanNs / 1000.0 << ",\n";
        out << "    \"mean_queue_depth\": " << ol.meanQueueDepth << ",\n";
        out << "    \"max_queue_depth\": " << ol.maxQueueDepth << ",\n";
        out << "    \"goodput_ops_s\": " << ol.goodputQps << ",\n";
        out << "    \"slo_p99_us\": " << ol.sloP99Us << ",\n";
        out << "    \"slo_attainment\": " << std::setprecision(4)
            << ol.sloAttainment << std::setprecision(3) << "\n";
        out << "  },\n";
    }
    out << "  \"vmstat\": {";
    bool first = true;
    for (std::size_t i = 0; i < kNumVmCounters; ++i) {
        const Vm counter = static_cast<Vm>(i);
        const std::uint64_t value = result.vmstat.get(counter);
        if (value == 0)
            continue;
        if (!first)
            out << ',';
        first = false;
        out << "\n    \"" << vmName(counter) << "\": " << value;
    }
    out << "\n  },\n";
    if (!result.nodes.empty()) {
        out << "  \"nodes\": [";
        for (std::size_t i = 0; i < result.nodes.size(); ++i) {
            const NodeResult &n = result.nodes[i];
            if (i)
                out << ',';
            out << "\n    {\"name\": \"" << jsonEscape(n.name)
                << "\", \"tier\": " << n.tierRank
                << ", \"capacity_pages\": " << n.capacityPages
                << ", \"anon_pages\": " << n.anonPages
                << ", \"file_pages\": " << n.filePages
                << ", \"free_pages\": " << n.freePages
                << ", \"traffic_share\": " << std::setprecision(4)
                << n.trafficShare << std::setprecision(3) << "}";
        }
        out << "\n  ],\n";
    }
    if (!result.tenants.empty()) {
        out << "  \"tenants\": [";
        for (std::size_t i = 0; i < result.tenants.size(); ++i) {
            const TenantResult &t = result.tenants[i];
            if (i)
                out << ',';
            out << "\n    {\"name\": \"" << jsonEscape(t.name)
                << "\", \"workload\": \"" << jsonEscape(t.workload)
                << "\", \"throughput_ops_s\": " << std::fixed
                << std::setprecision(3) << t.throughput
                << ", \"mean_access_latency_ns\": "
                << t.meanAccessLatencyNs
                << ", \"local_residency\": " << t.localResidency
                << ", \"pages_local\": " << t.pagesLocal
                << ", \"pages_total\": " << t.pagesTotal
                << ", \"hot_set_recall\": " << t.hotSetRecall
                << ", \"promote_success\": " << t.memcg.promoteSuccess
                << ", \"demotions\": " << t.memcg.demotions
                << ", \"reclaim_protected\": "
                << t.memcg.reclaimProtected
                << ", \"reclaim_low\": " << t.memcg.reclaimLow
                << ", \"migrate_throttled\": "
                << t.memcg.migrateThrottled;
            if (t.openLoop.enabled) {
                out << ", \"offered_qps\": " << t.openLoop.offeredQps
                    << ", \"arrival\": \""
                    << jsonEscape(t.openLoop.arrival)
                    << "\", \"p99_us\": " << t.openLoop.p99Ns / 1000.0
                    << ", \"goodput_ops_s\": " << t.openLoop.goodputQps
                    << ", \"slo_p99_us\": " << t.openLoop.sloP99Us
                    << ", \"slo_attainment\": " << std::setprecision(4)
                    << t.openLoop.sloAttainment << std::setprecision(3);
            }
            out << "}";
        }
        out << "\n  ],\n";
    }
    out << "  \"samples\": [";
    for (std::size_t i = 0; i < result.samples.size(); ++i) {
        const IntervalSample &s = result.samples[i];
        if (i)
            out << ',';
        out << "\n    {\"tick_ns\": " << s.tick
            << ", \"local_share\": " << std::setprecision(4)
            << s.localShare << ", \"throughput_ops_s\": " << s.throughput
            << "}";
    }
    out << "\n  ]\n}\n";
}

void
writeTraceJsonl(std::ostream &out, const ExperimentResult &result)
{
    for (const TraceRecord &record : result.trace)
        writeTraceEventJsonl(out, record, result.workload, result.policy);
    for (const TimeSeriesPoint &point : result.series)
        writeSamplePointJsonl(out, point, result.workload, result.policy);
}

} // namespace tpp
