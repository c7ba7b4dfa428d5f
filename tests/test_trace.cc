/**
 * @file
 * Trace subsystem tests: ring-buffer wrap semantics, tracepoint
 * payloads for scripted migrations, TimeSeriesSampler period math,
 * JSONL round-tripping, trace aggregation, and the load-bearing
 * guarantee that telemetry never changes simulation results.
 */

#include <sstream>

#include "harness/experiment.hh"
#include "test_common.hh"
#include "trace/sampler.hh"
#include "trace/summary.hh"
#include "trace/trace_io.hh"

namespace tpp {
namespace {

using test::TestMachine;

// ---------------------------------------------------------------------
// TraceBuffer ring semantics.

TEST(TraceBuffer, DisabledEmitRecordsNothing)
{
    TraceBuffer buf(8);
    buf.emit(TraceEvent::KswapdWake, 1, 0);
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.emitted(), 0u);
    EXPECT_TRUE(buf.snapshot().empty());
}

TEST(TraceBuffer, WrapOverwritesOldestAndCountsDrops)
{
    TraceBuffer buf(4);
    buf.enable();
    for (std::uint32_t i = 0; i < 6; ++i)
        buf.emit(TraceEvent::KswapdWake, Tick(i), 0, i);
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf.emitted(), 6u);
    EXPECT_EQ(buf.dropped(), 2u);

    // Chronological snapshot: the two oldest records are gone.
    const std::vector<TraceRecord> events = buf.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].tick, Tick(i + 2));
        EXPECT_EQ(events[i].aux, i + 2);
    }
}

TEST(TraceBuffer, SetCapacityResetsRecordsAndCounters)
{
    TraceBuffer buf(2);
    buf.enable();
    buf.emit(TraceEvent::KswapdWake, 1, 0);
    buf.emit(TraceEvent::KswapdSleep, 2, 0);
    buf.emit(TraceEvent::KswapdWake, 3, 0);
    buf.setCapacity(8);
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.emitted(), 0u);
    EXPECT_EQ(buf.dropped(), 0u);
    EXPECT_TRUE(buf.enabled());
    buf.emit(TraceEvent::KswapdWake, 4, 0);
    EXPECT_EQ(buf.size(), 1u);
}

TEST(TraceBuffer, ClearKeepsEnableState)
{
    TraceBuffer buf(4);
    buf.enable();
    buf.emit(TraceEvent::KswapdWake, 1, 0);
    buf.clear();
    EXPECT_TRUE(buf.enabled());
    EXPECT_EQ(buf.size(), 0u);
    buf.emit(TraceEvent::KswapdWake, 2, 0);
    EXPECT_EQ(buf.size(), 1u);
}

TEST(TraceBuffer, SnapshotIsChronologicalBeforeAndAfterEachWrap)
{
    TraceBuffer buf(4);
    buf.enable();
    const auto ticks = [&buf] {
        std::vector<Tick> out;
        for (const TraceRecord &r : buf.snapshot())
            out.push_back(r.tick);
        return out;
    };
    for (Tick t = 1; t <= 3; ++t)
        buf.emit(TraceEvent::KswapdWake, t, 0);
    EXPECT_EQ(ticks(), (std::vector<Tick>{1, 2, 3}));
    buf.emit(TraceEvent::KswapdWake, 4, 0);
    EXPECT_EQ(ticks(), (std::vector<Tick>{1, 2, 3, 4}));
    EXPECT_EQ(buf.dropped(), 0u);
    buf.emit(TraceEvent::KswapdWake, 5, 0);
    EXPECT_EQ(ticks(), (std::vector<Tick>{2, 3, 4, 5}));
    // Wrap the write position itself past the end of the storage.
    for (Tick t = 6; t <= 9; ++t)
        buf.emit(TraceEvent::KswapdWake, t, 0);
    EXPECT_EQ(ticks(), (std::vector<Tick>{6, 7, 8, 9}));
    buf.emit(TraceEvent::KswapdWake, 10, 0);
    EXPECT_EQ(ticks(), (std::vector<Tick>{7, 8, 9, 10}));
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf.emitted(), 10u);
    EXPECT_EQ(buf.dropped(), 6u);
}

TEST(TraceBuffer, ClearOnAPartlyFilledRingStartsOver)
{
    TraceBuffer buf(4);
    buf.enable();
    buf.emit(TraceEvent::KswapdWake, 1, 0);
    buf.emit(TraceEvent::KswapdWake, 2, 0);
    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.emitted(), 0u);
    EXPECT_TRUE(buf.snapshot().empty());
    for (Tick t = 3; t <= 7; ++t)
        buf.emit(TraceEvent::KswapdWake, t, 0);
    const std::vector<TraceRecord> events = buf.snapshot();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().tick, 4u);
    EXPECT_EQ(events.back().tick, 7u);
    EXPECT_EQ(buf.emitted(), 5u);
    EXPECT_EQ(buf.dropped(), 1u);
}

TEST(TraceBuffer, SetCapacityWhileEnabledAfterAWrap)
{
    TraceBuffer buf(3);
    buf.enable();
    for (Tick t = 1; t <= 5; ++t)
        buf.emit(TraceEvent::KswapdWake, t, 0);
    buf.setCapacity(2);
    EXPECT_TRUE(buf.enabled());
    EXPECT_EQ(buf.capacity(), 2u);
    EXPECT_EQ(buf.size(), 0u);
    for (Tick t = 6; t <= 8; ++t)
        buf.emit(TraceEvent::KswapdWake, t, 0);
    const std::vector<TraceRecord> events = buf.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].tick, 7u);
    EXPECT_EQ(events[1].tick, 8u);
    EXPECT_EQ(buf.emitted(), 3u);
    EXPECT_EQ(buf.dropped(), 1u);
}

// ---------------------------------------------------------------------
// Tracepoint payloads on the mm paths.

TEST(Tracepoints, ScriptedDemotionEmitsPageScopedRecord)
{
    TestMachine m;
    const Vpn base = m.populate(8, PageType::Anon);
    m.kernel.trace().enable();

    auto [ok, cost] = m.kernel.demotePage(m.pte(base).pfn);
    ASSERT_TRUE(ok);
    (void)cost;

    const std::vector<TraceRecord> events = m.kernel.trace().snapshot();
    ASSERT_EQ(events.size(), 1u);
    const TraceRecord &r = events[0];
    EXPECT_EQ(r.event, TraceEvent::Demote);
    EXPECT_EQ(r.node, m.local());       // source tier
    EXPECT_EQ(r.aux, m.cxl());          // destination tier
    EXPECT_EQ(r.hasPage, 1u);
    EXPECT_EQ(r.asid, m.asid);
    EXPECT_EQ(r.vpn, base);
    EXPECT_EQ(r.type, static_cast<std::uint8_t>(PageType::Anon));
    // The record carries the page's frame *after* the move.
    EXPECT_EQ(r.pfn, m.pte(base).pfn);
}

TEST(Tracepoints, ScriptedPromotionEmitsTryAndSuccess)
{
    TestMachine m;
    const Vpn base = m.populate(8, PageType::Anon);
    auto [ok, cost] = m.kernel.demotePage(m.pte(base).pfn);
    ASSERT_TRUE(ok);
    (void)cost;

    m.kernel.trace().enable();
    auto [pok, pcost] = m.kernel.promotePage(m.pte(base).pfn, m.local());
    ASSERT_TRUE(pok);
    (void)pcost;

    const std::vector<TraceRecord> events = m.kernel.trace().snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].event, TraceEvent::PromoteTry);
    EXPECT_EQ(events[0].node, m.cxl());
    EXPECT_EQ(events[0].aux, m.local());
    const TraceRecord &r = events[1];
    EXPECT_EQ(r.event, TraceEvent::PromoteSuccess);
    EXPECT_EQ(r.node, m.cxl());         // source tier
    EXPECT_EQ(r.aux, m.local());        // destination tier
    EXPECT_EQ(r.hasPage, 1u);
    EXPECT_EQ(r.asid, m.asid);
    EXPECT_EQ(r.vpn, base);
    EXPECT_EQ(r.pfn, m.pte(base).pfn);
}

TEST(Tracepoints, SwapOutAndInCarryPageIdentity)
{
    TestMachine m;
    const Vpn base = m.populate(8, PageType::Anon);
    for (int i = 0; i < 8; ++i)
        m.frameOf(base + i).clearFlag(PageFrame::FlagReferenced);
    m.kernel.trace().enable();

    auto [reclaimed, cost] = m.kernel.directReclaim(m.local(), 2);
    ASSERT_GT(reclaimed, 0u);
    (void)cost;

    std::vector<TraceRecord> events = m.kernel.trace().snapshot();
    std::uint64_t swapouts = 0;
    for (const TraceRecord &r : events) {
        if (r.event != TraceEvent::SwapOut)
            continue;
        swapouts++;
        EXPECT_EQ(r.hasPage, 1u);
        EXPECT_EQ(r.asid, m.asid);
        EXPECT_FALSE(m.pte(r.vpn).present());
    }
    EXPECT_EQ(swapouts, reclaimed);

    // Touch a swapped page: the major fault emits SwapIn.
    Vpn swapped = base;
    while (m.pte(swapped).present())
        swapped++;
    m.kernel.trace().clear();
    m.kernel.access(m.asid, swapped, AccessKind::Load, m.local());
    events = m.kernel.trace().snapshot();
    bool saw_swapin = false;
    for (const TraceRecord &r : events) {
        if (r.event != TraceEvent::SwapIn)
            continue;
        saw_swapin = true;
        EXPECT_EQ(r.vpn, swapped);
        EXPECT_EQ(r.hasPage, 1u);
    }
    EXPECT_TRUE(saw_swapin);
}

// ---------------------------------------------------------------------
// TimeSeriesSampler.

TEST(Sampler, SamplesLandAtExactPeriodMultiples)
{
    TestMachine m;
    m.populate(100, PageType::Anon);
    const Tick period = 10 * kMillisecond;
    TimeSeriesSampler sampler(m.kernel, period, 105 * kMillisecond);
    sampler.start();
    m.eq.runAll();

    const std::vector<TimeSeriesPoint> &series = sampler.series();
    // 10, 20, ..., 100 ms: the 110 ms sample would overshoot stopAt.
    ASSERT_EQ(series.size(), 10u);
    for (std::size_t i = 0; i < series.size(); ++i) {
        EXPECT_EQ(series[i].tick, Tick(i + 1) * period);
        EXPECT_EQ(series[i].windowNs, period);
    }
}

TEST(Sampler, NodeUsageMatchesResidentPages)
{
    TestMachine m;
    m.populate(100, PageType::Anon);
    const Vpn file_base = m.kernel.mmap(m.asid, 50, PageType::File, "f");
    for (int i = 0; i < 50; ++i)
        m.kernel.access(m.asid, file_base + i, AccessKind::Load,
                        m.local());

    TimeSeriesSampler sampler(m.kernel, kMillisecond, kMillisecond);
    sampler.start();
    m.eq.runAll();

    ASSERT_EQ(sampler.series().size(), 1u);
    const TimeSeriesPoint &p = sampler.series().front();
    EXPECT_EQ(p.anonResident(), 100u);
    EXPECT_EQ(p.fileResident(), 50u);
    ASSERT_EQ(p.nodes.size(), m.mem.numNodes());
    EXPECT_EQ(p.nodes[m.local()].freePages,
              m.mem.node(m.local()).freePages());
}

TEST(Sampler, WindowDeltasIsolateActivityPerWindow)
{
    TestMachine m;
    const Vpn base = m.populate(8, PageType::Anon);
    const Tick period = 10 * kMillisecond;

    // Demote two pages inside the second window only.
    m.eq.schedule(15 * kMillisecond, [&] {
        m.kernel.demotePage(m.pte(base).pfn);
        m.kernel.demotePage(m.pte(base + 1).pfn);
    });

    TimeSeriesSampler sampler(m.kernel, period, 30 * kMillisecond);
    sampler.start();
    m.eq.runAll();

    const std::vector<TimeSeriesPoint> &series = sampler.series();
    ASSERT_EQ(series.size(), 3u);
    EXPECT_EQ(series[0].delta(Vm::PgDemoteAnon), 0u);
    EXPECT_EQ(series[1].delta(Vm::PgDemoteAnon), 2u);
    EXPECT_EQ(series[2].delta(Vm::PgDemoteAnon), 0u);
    // Rates normalise by the window length.
    EXPECT_DOUBLE_EQ(series[1].demotionRate(),
                     2.0 * 1e9 / static_cast<double>(period));
}

// ---------------------------------------------------------------------
// JSONL round-trip.

TEST(TraceIo, EventRoundTripsThroughJsonl)
{
    TraceRecord page;
    page.tick = 123456789;
    page.event = TraceEvent::Demote;
    page.node = 0;
    page.aux = 1;
    page.type = static_cast<std::uint8_t>(PageType::Anon);
    page.pfn = 77;
    page.asid = 3;
    page.vpn = 4242;
    page.hasPage = 1;

    TraceRecord bare;
    bare.tick = 5;
    bare.event = TraceEvent::KswapdWake;
    bare.node = 1;
    bare.aux = 900;

    TraceRecord typed;
    typed.tick = 6;
    typed.event = TraceEvent::AllocFallback;
    typed.node = 1;
    typed.type = static_cast<std::uint8_t>(PageType::File);
    typed.aux = 0;

    std::stringstream ss;
    writeTraceEventJsonl(ss, page, "web", "tpp");
    writeTraceEventJsonl(ss, bare, "web", "tpp");
    writeTraceEventJsonl(ss, typed, "dwh", "linux");

    const std::vector<TaggedTraceRecord> back = readTraceEventsJsonl(ss);
    ASSERT_EQ(back.size(), 3u);

    EXPECT_EQ(back[0].workload, "web");
    EXPECT_EQ(back[0].policy, "tpp");
    EXPECT_EQ(back[0].record.tick, page.tick);
    EXPECT_EQ(back[0].record.event, TraceEvent::Demote);
    EXPECT_EQ(back[0].record.node, page.node);
    EXPECT_EQ(back[0].record.aux, page.aux);
    EXPECT_EQ(back[0].record.type, page.type);
    EXPECT_EQ(back[0].record.pfn, page.pfn);
    EXPECT_EQ(back[0].record.asid, page.asid);
    EXPECT_EQ(back[0].record.vpn, page.vpn);
    EXPECT_EQ(back[0].record.hasPage, 1u);

    EXPECT_EQ(back[1].record.event, TraceEvent::KswapdWake);
    EXPECT_EQ(back[1].record.hasPage, 0u);
    EXPECT_EQ(back[1].record.type, kTraceNoType);
    EXPECT_EQ(back[1].record.aux, 900u);

    EXPECT_EQ(back[2].workload, "dwh");
    EXPECT_EQ(back[2].record.type,
              static_cast<std::uint8_t>(PageType::File));
    EXPECT_EQ(back[2].record.hasPage, 0u);
}

TEST(TraceIo, SampleLinesAreSkippedByTheEventReader)
{
    TestMachine m;
    m.populate(10, PageType::Anon);
    TimeSeriesSampler sampler(m.kernel, kMillisecond, kMillisecond);
    sampler.start();
    m.eq.runAll();
    ASSERT_EQ(sampler.series().size(), 1u);

    std::stringstream ss;
    writeSamplePointJsonl(ss, sampler.series().front(), "web", "tpp");
    TraceRecord bare;
    bare.event = TraceEvent::KswapdWake;
    bare.node = 0;
    writeTraceEventJsonl(ss, bare, "web", "tpp");

    const std::vector<TaggedTraceRecord> back = readTraceEventsJsonl(ss);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].record.event, TraceEvent::KswapdWake);
}

TEST(TraceIo, EventNamesRoundTrip)
{
    for (std::size_t i = 0; i < kNumTraceEvents; ++i) {
        const TraceEvent event = static_cast<TraceEvent>(i);
        EXPECT_EQ(traceEventFromName(traceEventName(event)), event);
    }
}

// ---------------------------------------------------------------------
// Aggregation.

TEST(TraceSummary, WindowsTotalsAndPingPong)
{
    auto page_event = [](TraceEvent event, Tick tick, std::uint32_t asid,
                         Vpn vpn, std::uint8_t src, std::uint32_t dst) {
        TraceRecord r;
        r.event = event;
        r.tick = tick;
        r.asid = asid;
        r.vpn = vpn;
        r.node = src;
        r.aux = dst;
        r.hasPage = 1;
        return r;
    };
    const Tick w = kSecond;
    std::vector<TraceRecord> events = {
        // Page (1,5): demote, promote back, demote again — 2 flips.
        page_event(TraceEvent::Demote, w / 10, 1, 5, 0, 1),
        page_event(TraceEvent::PromoteSuccess, 2 * w / 10, 1, 5, 1, 0),
        page_event(TraceEvent::Demote, w + w / 10, 1, 5, 0, 1),
        // Page (1,6): one demotion, never promoted — no flip.
        page_event(TraceEvent::Demote, 3 * w / 10, 1, 6, 0, 1),
    };

    const TraceSummary summary = summarizeTrace(events, w);
    EXPECT_EQ(summary.windowNs, w);
    ASSERT_EQ(summary.windows.size(), 2u);
    EXPECT_EQ(summary.windows[0].start, 0u);
    EXPECT_EQ(summary.windows[1].start, w);
    EXPECT_EQ(summary.windows[0].count(TraceEvent::Demote), 2u);
    EXPECT_EQ(summary.windows[0].count(TraceEvent::PromoteSuccess), 1u);
    EXPECT_EQ(summary.windows[1].count(TraceEvent::Demote), 1u);
    EXPECT_EQ(summary.total(TraceEvent::Demote), 3u);
    EXPECT_EQ(summary.total(TraceEvent::PromoteSuccess), 1u);
    EXPECT_EQ(summary.activeWindows(TraceEvent::Demote), 2u);
    EXPECT_EQ(summary.activeWindows(TraceEvent::PromoteSuccess), 1u);

    ASSERT_EQ(summary.pingPong.size(), 1u);
    EXPECT_EQ(summary.pingPong[0].asid, 1u);
    EXPECT_EQ(summary.pingPong[0].vpn, 5u);
    EXPECT_EQ(summary.pingPong[0].demotions, 2u);
    EXPECT_EQ(summary.pingPong[0].promotions, 1u);
    EXPECT_EQ(summary.pingPong[0].flips, 2u);
}

TEST(TraceSummary, ChainedDemotionIsNotPingPong)
{
    auto page_event = [](TraceEvent event, Tick tick, std::uint32_t asid,
                         Vpn vpn, std::uint8_t src, std::uint32_t dst) {
        TraceRecord r;
        r.event = event;
        r.tick = tick;
        r.asid = asid;
        r.vpn = vpn;
        r.node = src;
        r.aux = dst;
        r.hasPage = 1;
        return r;
    };
    const Tick w = kSecond;
    std::vector<TraceRecord> events = {
        // Page (1,7) walks the 3-tier chain: demoted local->cxl,
        // chained cxl->cxl-far, then promoted straight back to local.
        // The promotion changes direction but retraces neither hop, so
        // node-aware detection must not call it ping-pong.
        page_event(TraceEvent::Demote, w / 10, 1, 7, 0, 1),
        page_event(TraceEvent::Demote, 2 * w / 10, 1, 7, 1, 2),
        page_event(TraceEvent::PromoteSuccess, 3 * w / 10, 1, 7, 2, 0),
        // Page (1,8) genuinely bounces on the local<->cxl edge.
        page_event(TraceEvent::Demote, w / 10, 1, 8, 0, 1),
        page_event(TraceEvent::PromoteSuccess, 2 * w / 10, 1, 8, 1, 0),
        page_event(TraceEvent::Demote, 3 * w / 10, 1, 8, 0, 1),
        page_event(TraceEvent::PromoteSuccess, 4 * w / 10, 1, 8, 1, 0),
    };

    const TraceSummary summary = summarizeTrace(events, w);
    ASSERT_EQ(summary.pingPong.size(), 1u);
    EXPECT_EQ(summary.pingPong[0].vpn, 8u);
    EXPECT_EQ(summary.pingPong[0].flips, 3u);
    EXPECT_EQ(summary.total(TraceEvent::Demote), 4u);
    EXPECT_EQ(summary.total(TraceEvent::PromoteSuccess), 3u);
}

// ---------------------------------------------------------------------
// End-to-end: telemetry through the harness.

ExperimentConfig
smallTppConfig()
{
    ExperimentConfig cfg;
    cfg.workload = "web";
    cfg.policy = "tpp";
    cfg.wssPages = 4096;
    cfg.runUntil = 3 * kSecond;
    cfg.measureFrom = 1 * kSecond;
    return cfg;
}

TEST(TraceHarness, TelemetryNeverChangesResults)
{
    const ExperimentConfig plain = smallTppConfig();
    ExperimentConfig traced = smallTppConfig();
    traced.traceEnabled = true;
    traced.sampleSeries = true;

    const ExperimentResult a = runExperiment(plain);
    const ExperimentResult b = runExperiment(traced);

    // Bit-identical results: telemetry observes, never steers.
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.meanAccessLatencyNs, b.meanAccessLatencyNs);
    EXPECT_EQ(a.localTrafficShare, b.localTrafficShare);
    EXPECT_EQ(a.anonLocalResidency, b.anonLocalResidency);
    EXPECT_EQ(a.fileLocalResidency, b.fileLocalResidency);
    for (std::size_t i = 0; i < kNumVmCounters; ++i) {
        EXPECT_EQ(a.vmstat.get(static_cast<Vm>(i)),
                  b.vmstat.get(static_cast<Vm>(i)))
            << vmName(static_cast<Vm>(i));
    }
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].tick, b.samples[i].tick);
        EXPECT_EQ(a.samples[i].localShare, b.samples[i].localShare);
        EXPECT_EQ(a.samples[i].throughput, b.samples[i].throughput);
        EXPECT_EQ(a.samples[i].anonResident, b.samples[i].anonResident);
    }

    // And the traced run actually recorded something.
    EXPECT_FALSE(b.trace.empty());
    EXPECT_GT(b.traceEmitted, 0u);
    EXPECT_FALSE(b.series.empty());
    EXPECT_TRUE(a.trace.empty());
    EXPECT_TRUE(a.series.empty());
}

TEST(TraceHarness, DefaultTppRunHasActiveMigrationWindows)
{
    ExperimentConfig cfg = smallTppConfig();
    cfg.traceEnabled = true;
    const ExperimentResult res = runExperiment(cfg);

    const TraceSummary summary = summarizeTrace(res.trace, kSecond);
    EXPECT_GT(summary.activeWindows(TraceEvent::PromoteSuccess), 0u);
    EXPECT_GT(summary.activeWindows(TraceEvent::Demote), 0u);
    EXPECT_GT(summary.total(TraceEvent::HintFault), 0u);
}

TEST(TraceHarness, SamplerSeriesMatchesDriverCadence)
{
    ExperimentConfig cfg = smallTppConfig();
    cfg.sampleSeries = true; // period 0: follow cfg.sampleEvery
    const ExperimentResult res = runExperiment(cfg);
    ASSERT_EQ(res.series.size(), res.samples.size());
    for (std::size_t i = 0; i < res.series.size(); ++i) {
        EXPECT_EQ(res.series[i].tick, res.samples[i].tick);
        EXPECT_EQ(res.series[i].anonResident(),
                  res.samples[i].anonResident);
        EXPECT_EQ(res.series[i].fileResident(),
                  res.samples[i].fileResident);
    }
}

} // namespace
} // namespace tpp
