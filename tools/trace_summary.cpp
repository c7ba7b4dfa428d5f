/**
 * @file
 * trace_summary: digest a JSONL trace written by the bench binaries'
 * --trace-out flag (or harness writeTraceJsonl) into the tables a
 * human wants first: per-event totals, per-window migration rates and
 * the worst tier ping-pong pages.
 *
 * usage: trace_summary [FILE ...] [--window-ms N] [--top N] [--json]
 *
 * With no FILE (or "-") the trace is read from stdin. Events from all
 * files are pooled, then grouped by their workload/policy tag; each
 * group gets its own summary, so one file holding a whole sweep prints
 * one section per run.
 *
 * Each section includes a migration-failure breakdown by cause
 * (low-mem, isolate, rate-limit, demotion OOM, admission deferral,
 * transaction abort), a ping-pong throttling (PPT) digest when the
 * subsystem fired, the adaptive tuner's knob trajectory (every
 * accepted or reverted step, plus settle/wake counts) when the
 * `adaptive` policy ran, and an estimated wasted-bandwidth figure for
 * the flipped hops. --json replaces the tables with one JSON object
 * on stdout for scripted consumers (CI, plotting).
 */

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "harness/table.hh"
#include "sim/logging.hh"
#include "trace/summary.hh"
#include "trace/trace_io.hh"

namespace {

using namespace tpp;

std::uint64_t
parseCount(const char *flag, const std::string &text,
           std::uint64_t max = UINT64_MAX)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 0);
    if (text.empty() || end != text.c_str() + text.size() ||
        errno == ERANGE || text[0] == '-')
        tpp_fatal("%s expects an unsigned integer, got '%s'", flag,
                  text.c_str());
    if (value > max)
        tpp_fatal("%s expects at most %llu, got '%s'", flag,
                  static_cast<unsigned long long>(max), text.c_str());
    return value;
}

/** Events that read as per-second rates in the window table. */
constexpr TraceEvent kRateColumns[] = {
    TraceEvent::PromoteSuccess, TraceEvent::Demote, TraceEvent::HintFault,
    TraceEvent::AllocFallback,  TraceEvent::SwapOut,
};

/** A migration-failure cause and the tracepoint that counts it. */
struct FailureCause {
    TraceEvent event;
    const char *label;
};

/** Every way a requested migration can fail to move the page. */
constexpr FailureCause kFailureCauses[] = {
    {TraceEvent::PromoteFailLowMem, "promote: target low on memory"},
    {TraceEvent::PromoteFailIsolate, "promote: page gone/isolated"},
    {TraceEvent::PromoteFailRateLimit, "promote: rate limited"},
    {TraceEvent::DemoteFail, "demote: target OOM, classic reclaim"},
    {TraceEvent::MigrateDeferred, "engine: admission deferred"},
    {TraceEvent::MigrateAbort, "engine: copy aborted"},
};

std::uint64_t
totalFailures(const TraceSummary &summary)
{
    std::uint64_t total = 0;
    for (const FailureCause &cause : kFailureCauses)
        total += summary.total(cause.event);
    return total;
}

void
printFailureBreakdown(const TraceSummary &summary)
{
    const std::uint64_t failures = totalFailures(summary);
    if (failures == 0) {
        std::printf("no migration failures\n\n");
        return;
    }
    std::printf("migration failures by cause:\n");
    TextTable table({"cause", "count", "share"});
    for (const FailureCause &cause : kFailureCauses) {
        const std::uint64_t count = summary.total(cause.event);
        if (count == 0)
            continue;
        table.addRow({cause.label, TextTable::count(count),
                      TextTable::pct(static_cast<double>(count) /
                                     static_cast<double>(failures))});
    }
    table.print();
    std::printf("\n");
}

void
printHotnessSection(const TraceSummary &summary)
{
    const std::uint64_t epochs = summary.total(TraceEvent::HotnessEpoch);
    const std::uint64_t evictions =
        summary.total(TraceEvent::HotnessEvict);
    if (epochs == 0 && evictions == 0 &&
        summary.hotnessThresholds.empty())
        return;
    std::printf("hotness: %llu epochs, %llu counter evictions, "
                "%zu threshold retunes\n",
                static_cast<unsigned long long>(epochs),
                static_cast<unsigned long long>(evictions),
                summary.hotnessThresholds.size());
    if (!summary.hotnessThresholds.empty()) {
        TextTable thresholds({"t(s)", "hot threshold"});
        for (const auto &[tick, value] : summary.hotnessThresholds)
            thresholds.addRow(
                {TextTable::num(static_cast<double>(tick) / 1e9, 3),
                 TextTable::count(value)});
        thresholds.print();
    }
    std::printf("\n");
}

void
printMemcgSection(const TraceSummary &summary)
{
    if (summary.memcg.empty())
        return;
    std::printf("memcg events by cgroup:\n");
    TextTable table(
        {"cgroup", "protected skips", "low breaches", "throttled"});
    for (const auto &[cgid, tally] : summary.memcg)
        table.addRow({TextTable::count(cgid),
                      TextTable::count(tally.protectedSkips),
                      TextTable::count(tally.lowBreaches),
                      TextTable::count(tally.throttled)});
    table.print();
    std::printf("\n");
}

void
printPptSection(const TraceSummary &summary)
{
    const std::uint64_t escalations =
        summary.total(TraceEvent::PptEscalate);
    const std::uint64_t evictions = summary.total(TraceEvent::PptEvict);
    if (summary.pptThrottledPromote == 0 &&
        summary.pptThrottledDemote == 0 && escalations == 0 &&
        evictions == 0)
        return;
    std::printf("ppt: %llu promote denials, %llu demote denials, "
                "%llu escalations, %llu history evictions\n\n",
                static_cast<unsigned long long>(
                    summary.pptThrottledPromote),
                static_cast<unsigned long long>(
                    summary.pptThrottledDemote),
                static_cast<unsigned long long>(escalations),
                static_cast<unsigned long long>(evictions));
}

/** AdaptiveKnob id (aux >> 24 of adaptive_tune/_revert) to sysctl. */
const char *
adaptiveKnobName(std::uint8_t knob)
{
    switch (knob) {
      case 0:
        return "promote_threshold";
      case 1:
        return "scan_size_pages";
      case 2:
        return "demote_scale_factor";
      default:
        return "unknown";
    }
}

/** Knob 2 (demote_scale_factor) is packed in tenths; the rest raw. */
double
adaptiveKnobValue(std::uint8_t knob, std::uint32_t packed)
{
    return knob == 2 ? static_cast<double>(packed) / 10.0
                     : static_cast<double>(packed);
}

void
printAdaptiveSection(const TraceSummary &summary)
{
    if (summary.adaptiveKnobs.empty() && summary.adaptiveSettles == 0 &&
        summary.adaptiveWakes == 0)
        return;
    std::printf("adaptive tuner: %zu knob moves, %llu settles, "
                "%llu wakes\n",
                summary.adaptiveKnobs.size(),
                static_cast<unsigned long long>(summary.adaptiveSettles),
                static_cast<unsigned long long>(summary.adaptiveWakes));
    if (!summary.adaptiveKnobs.empty()) {
        std::printf("knob trajectory:\n");
        TextTable table({"t(s)", "knob", "value", "outcome"});
        for (const TraceSummary::AdaptiveKnobPoint &p :
             summary.adaptiveKnobs)
            table.addRow(
                {TextTable::num(static_cast<double>(p.tick) / 1e9, 3),
                 adaptiveKnobName(p.knob),
                 TextTable::num(adaptiveKnobValue(p.knob, p.value),
                                p.knob == 2 ? 1 : 0),
                 p.reverted ? "reverted" : "applied"});
        table.print();
    }
    std::printf("\n");
}

/** Minimal JSON string escape: the tags we emit are workload/policy
 *  names, but a stray quote must not corrupt the document. */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
            continue;
        }
        out.push_back(c);
    }
    return out;
}

void
printJsonSummary(std::FILE *out, const std::string &tag,
                 const std::vector<TraceRecord> &events, Tick window_ns,
                 std::size_t top_n, bool last)
{
    const TraceSummary summary = summarizeTrace(events, window_ns, top_n);

    std::fprintf(out, "    {\n      \"tag\": \"%s\",\n",
                 jsonEscape(tag).c_str());
    std::fprintf(out, "      \"events\": %zu,\n", events.size());
    std::fprintf(out, "      \"window_ms\": %.0f,\n",
                 static_cast<double>(window_ns) / 1e6);

    std::fprintf(out, "      \"totals\": {");
    bool first = true;
    for (std::size_t i = 0; i < kNumTraceEvents; ++i) {
        const TraceEvent event = static_cast<TraceEvent>(i);
        if (summary.total(event) == 0)
            continue;
        std::fprintf(out, "%s\"%s\": %llu", first ? "" : ", ",
                     traceEventName(event),
                     static_cast<unsigned long long>(
                         summary.total(event)));
        first = false;
    }
    std::fprintf(out, "},\n");

    std::fprintf(out, "      \"migration_failures\": {");
    first = true;
    for (const FailureCause &cause : kFailureCauses) {
        std::fprintf(out, "%s\"%s\": %llu", first ? "" : ", ",
                     traceEventName(cause.event),
                     static_cast<unsigned long long>(
                         summary.total(cause.event)));
        first = false;
    }
    std::fprintf(out, "},\n");

    std::fprintf(out, "      \"windows\": [");
    for (std::size_t w = 0; w < summary.windows.size(); ++w) {
        const TraceWindow &win = summary.windows[w];
        std::fprintf(out, "%s{\"t_s\": %.3f", w ? ", " : "",
                     static_cast<double>(win.start) / 1e9);
        for (std::size_t i = 0; i < kNumTraceEvents; ++i) {
            const TraceEvent event = static_cast<TraceEvent>(i);
            if (win.count(event) == 0)
                continue;
            std::fprintf(out, ", \"%s\": %llu", traceEventName(event),
                         static_cast<unsigned long long>(
                             win.count(event)));
        }
        std::fprintf(out, "}");
    }
    std::fprintf(out, "],\n");

    std::fprintf(out,
                 "      \"hotness\": {\"epochs\": %llu, "
                 "\"evictions\": %llu, \"thresholds\": [",
                 static_cast<unsigned long long>(
                     summary.total(TraceEvent::HotnessEpoch)),
                 static_cast<unsigned long long>(
                     summary.total(TraceEvent::HotnessEvict)));
    for (std::size_t i = 0; i < summary.hotnessThresholds.size(); ++i)
        std::fprintf(out, "%s{\"t_s\": %.3f, \"value\": %u}",
                     i ? ", " : "",
                     static_cast<double>(
                         summary.hotnessThresholds[i].first) /
                         1e9,
                     summary.hotnessThresholds[i].second);
    std::fprintf(out, "]},\n");

    std::fprintf(out, "      \"memcg\": [");
    first = true;
    for (const auto &[cgid, tally] : summary.memcg) {
        std::fprintf(out,
                     "%s{\"cgroup\": %u, \"protected_skips\": %llu, "
                     "\"low_breaches\": %llu, \"throttled\": %llu}",
                     first ? "" : ", ", cgid,
                     static_cast<unsigned long long>(tally.protectedSkips),
                     static_cast<unsigned long long>(tally.lowBreaches),
                     static_cast<unsigned long long>(tally.throttled));
        first = false;
    }
    std::fprintf(out, "],\n");

    std::fprintf(out,
                 "      \"ppt\": {\"throttled_promote\": %llu, "
                 "\"throttled_demote\": %llu, \"escalations\": %llu, "
                 "\"history_evictions\": %llu},\n",
                 static_cast<unsigned long long>(
                     summary.pptThrottledPromote),
                 static_cast<unsigned long long>(
                     summary.pptThrottledDemote),
                 static_cast<unsigned long long>(
                     summary.total(TraceEvent::PptEscalate)),
                 static_cast<unsigned long long>(
                     summary.total(TraceEvent::PptEvict)));

    std::fprintf(out,
                 "      \"adaptive\": {\"settles\": %llu, "
                 "\"wakes\": %llu, \"knob_trajectory\": [",
                 static_cast<unsigned long long>(summary.adaptiveSettles),
                 static_cast<unsigned long long>(summary.adaptiveWakes));
    first = true;
    for (const TraceSummary::AdaptiveKnobPoint &p : summary.adaptiveKnobs) {
        std::fprintf(out,
                     "%s{\"t_s\": %.3f, \"knob\": \"%s\", "
                     "\"value\": %g, \"reverted\": %s}",
                     first ? "" : ", ",
                     static_cast<double>(p.tick) / 1e9,
                     adaptiveKnobName(p.knob),
                     adaptiveKnobValue(p.knob, p.value),
                     p.reverted ? "true" : "false");
        first = false;
    }
    std::fprintf(out, "]},\n");

    std::fprintf(out,
                 "      \"ping_pong_flips\": %llu,\n"
                 "      \"ping_pong_wasted_bytes\": %llu,\n",
                 static_cast<unsigned long long>(summary.pingPongFlips),
                 static_cast<unsigned long long>(
                     summary.pingPongWastedBytes));

    std::fprintf(out, "      \"ping_pong\": [");
    for (std::size_t i = 0; i < summary.pingPong.size(); ++i) {
        const PingPongPage &p = summary.pingPong[i];
        std::fprintf(out,
                     "%s{\"asid\": %u, \"vpn\": %llu, "
                     "\"demotions\": %llu, \"promotions\": %llu, "
                     "\"flips\": %llu, \"wasted_bytes\": %llu}",
                     i ? ", " : "", p.asid,
                     static_cast<unsigned long long>(p.vpn),
                     static_cast<unsigned long long>(p.demotions),
                     static_cast<unsigned long long>(p.promotions),
                     static_cast<unsigned long long>(p.flips),
                     static_cast<unsigned long long>(p.wastedBytes));
    }
    std::fprintf(out, "]\n    }%s\n", last ? "" : ",");
}

void
printSummary(const std::string &tag, const std::vector<TraceRecord> &events,
             Tick window_ns, std::size_t top_n)
{
    const TraceSummary summary =
        summarizeTrace(events, window_ns, top_n);

    std::printf("== %s — %zu events, %zu windows of %.0f ms ==\n\n",
                tag.c_str(), events.size(), summary.windows.size(),
                static_cast<double>(window_ns) / 1e6);

    TextTable totals({"event", "total", "active windows"});
    for (std::size_t i = 0; i < kNumTraceEvents; ++i) {
        const TraceEvent event = static_cast<TraceEvent>(i);
        if (summary.total(event) == 0)
            continue;
        totals.addRow({traceEventName(event),
                       TextTable::count(summary.total(event)),
                       TextTable::count(summary.activeWindows(event))});
    }
    totals.print();
    std::printf("\n");

    const double window_sec = static_cast<double>(window_ns) / 1e9;
    TextTable rates({"t(s)", "promote/s", "demote/s", "hint faults/s",
                     "alloc fallback/s", "swap out/s"});
    for (const TraceWindow &w : summary.windows) {
        std::vector<std::string> row;
        row.push_back(
            TextTable::num(static_cast<double>(w.start) / 1e9, 1));
        for (TraceEvent event : kRateColumns)
            row.push_back(TextTable::num(
                static_cast<double>(w.count(event)) / window_sec, 1));
        rates.addRow(std::move(row));
    }
    rates.print();
    std::printf("\n");

    printFailureBreakdown(summary);
    printHotnessSection(summary);
    printMemcgSection(summary);
    printPptSection(summary);
    printAdaptiveSection(summary);

    if (summary.pingPong.empty()) {
        std::printf("no ping-pong pages (no page changed tier direction "
                    "twice)\n\n");
        return;
    }
    std::printf("top ping-pong pages (tier direction flips):\n");
    TextTable pages({"asid", "vpn", "demotions", "promotions", "flips",
                     "wasted KiB"});
    for (const PingPongPage &p : summary.pingPong)
        pages.addRow({TextTable::count(p.asid), TextTable::count(p.vpn),
                      TextTable::count(p.demotions),
                      TextTable::count(p.promotions),
                      TextTable::count(p.flips),
                      TextTable::count(p.wastedBytes / 1024)});
    pages.print();
    std::printf("estimated wasted migration bandwidth: %.1f KiB over "
                "%llu flips (all flipping pages, not just the top)\n\n",
                static_cast<double>(summary.pingPongWastedBytes) / 1024.0,
                static_cast<unsigned long long>(summary.pingPongFlips));
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> files;
    Tick window_ns = 1000 * kMillisecond;
    std::size_t top_n = 10;
    bool json = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                tpp_fatal("missing value after %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--window-ms") {
            const std::uint64_t ms =
                parseCount("--window-ms", next(), UINT64_MAX / kMillisecond);
            if (ms == 0)
                tpp_fatal("--window-ms expects a window > 0");
            window_ns = ms * kMillisecond;
        } else if (arg == "--top") {
            top_n = parseCount("--top", next());
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: %s [FILE ...] [--window-ms N] [--top N] "
                        "[--json]\n",
                        argv[0]);
            return 0;
        } else {
            files.push_back(arg);
        }
    }

    std::vector<TaggedTraceRecord> tagged;
    if (files.empty()) {
        tagged = readTraceEventsJsonl(std::cin);
    } else {
        for (const std::string &path : files) {
            if (path == "-") {
                auto part = readTraceEventsJsonl(std::cin);
                tagged.insert(tagged.end(), part.begin(), part.end());
                continue;
            }
            std::ifstream in(path);
            if (!in)
                tpp_fatal("cannot open trace file '%s'", path.c_str());
            auto part = readTraceEventsJsonl(in);
            tagged.insert(tagged.end(), part.begin(), part.end());
        }
    }

    if (tagged.empty()) {
        if (json)
            std::printf("{\n  \"runs\": []\n}\n");
        else
            std::printf("no trace events found\n");
        return 0;
    }

    // Group by run tag, preserving first-appearance order.
    std::vector<std::string> order;
    std::map<std::string, std::vector<TraceRecord>> groups;
    for (const TaggedTraceRecord &t : tagged) {
        const std::string tag = t.workload + "/" + t.policy;
        auto [it, inserted] = groups.emplace(tag, std::vector<TraceRecord>{});
        if (inserted)
            order.push_back(tag);
        it->second.push_back(t.record);
    }

    if (json) {
        std::printf("{\n  \"runs\": [\n");
        for (std::size_t i = 0; i < order.size(); ++i)
            printJsonSummary(stdout, order[i], groups[order[i]],
                             window_ns, top_n, i + 1 == order.size());
        std::printf("  ]\n}\n");
        return 0;
    }

    for (const std::string &tag : order)
        printSummary(tag, groups[tag], window_ns, top_n);
    return 0;
}
