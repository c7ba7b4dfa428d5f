/**
 * @file
 * Machine-readable result export: CSV for the headline rows and the
 * interval time series, JSON for a full ExperimentResult (counters
 * included). These feed external plotting without screen-scraping the
 * bench tables.
 */

#ifndef TPP_HARNESS_EXPORT_HH
#define TPP_HARNESS_EXPORT_HH

#include <ostream>
#include <vector>

#include "harness/experiment.hh"

namespace tpp {

/**
 * Render one CSV field per RFC 4180: values containing a comma, quote
 * or newline are double-quoted with embedded quotes doubled. Plain
 * identifiers pass through unchanged.
 */
std::string csvField(const std::string &value);

/** Write one header + one row per result: the paper-style summary. */
void writeResultsCsv(std::ostream &out,
                     const std::vector<ExperimentResult> &results);

/** Write per-tenant rows (ExperimentResult::tenants) for all results. */
void writeTenantsCsv(std::ostream &out,
                     const std::vector<ExperimentResult> &results);

/** Write a result's interval time series as CSV. */
void writeSamplesCsv(std::ostream &out, const ExperimentResult &result);

/** Write a full result — metrics, counters, series — as JSON. */
void writeResultJson(std::ostream &out, const ExperimentResult &result);

/**
 * Write a result's tracepoint records and sampler series as JSONL, one
 * object per line tagged with the run's workload/policy. Event lines
 * carry "kind":"event", sampler lines "kind":"sample"; tools/
 * trace_summary consumes this format (trace/trace_io.hh).
 */
void writeTraceJsonl(std::ostream &out, const ExperimentResult &result);

} // namespace tpp

#endif // TPP_HARNESS_EXPORT_HH
