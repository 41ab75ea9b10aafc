/**
 * @file
 * Metrics-layer tests: registry handles and snapshot ordering, fault
 * span bookkeeping and the phase-sum reconciliation invariant,
 * deferred aggregation, exporter well-formedness (the Chrome trace
 * must parse), and cross-trial snapshot determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "../kernel/kernel_test_util.hh"
#include "harness/experiment.hh"
#include "metrics/collector.hh"
#include "metrics/export.hh"
#include "metrics/fault_spans.hh"
#include "metrics/json.hh"
#include "metrics/registry.hh"

namespace pagesim
{
namespace
{

// ---- MetricsRegistry ------------------------------------------------

TEST(MetricsRegistry, HandlesAreStableAndNamesResolveOnce)
{
    MetricsRegistry reg;
    const CounterId c1 = reg.counter("a.count");
    const CounterId c2 = reg.counter("b.count");
    EXPECT_NE(c1.idx, c2.idx);
    // Same name -> same handle, no duplicate registration.
    EXPECT_EQ(reg.counter("a.count").idx, c1.idx);
    EXPECT_EQ(reg.counterNames().size(), 2u);

    reg.add(c1);
    reg.add(c1, 4);
    EXPECT_EQ(reg.value(c1), 5u);
    EXPECT_EQ(reg.value(c2), 0u);

    const GaugeId g = reg.gauge("depth");
    reg.set(g, 2.5);
    EXPECT_DOUBLE_EQ(reg.value(g), 2.5);

    const HistogramId h = reg.histogram("lat");
    reg.record(h, 100);
    reg.record(h, 300);
    EXPECT_EQ(reg.at(h).count(), 2u);
    EXPECT_DOUBLE_EQ(reg.at(h).mean(), 200.0);
}

TEST(MetricsRegistry, SnapshotPreservesRegistrationOrder)
{
    MetricsConfig cfg;
    cfg.mode = MetricsMode::Counters;
    MetricsCollector collector(cfg);
    MetricsRegistry &reg = collector.registry();
    reg.counter("z.last");
    reg.counter("a.first");
    const MetricsSnapshot snap = collector.snapshot(0);
    // Registration order, NOT lexicographic: deterministic wiring
    // gives deterministic snapshots.
    const auto &names = snap.counterNames;
    const auto zi = std::find(names.begin(), names.end(), "z.last");
    const auto ai = std::find(names.begin(), names.end(), "a.first");
    ASSERT_NE(zi, names.end());
    ASSERT_NE(ai, names.end());
    EXPECT_LT(zi - names.begin(), ai - names.begin());
}

// ---- FaultSpanRecorder ----------------------------------------------

TEST(FaultSpans, DemandSpanPhasesPartitionWallExactly)
{
    MetricsRegistry reg;
    FaultSpanRecorder rec(reg);
    const std::uint32_t tok = rec.openDemand(1000, 42, 1, 77);
    EXPECT_EQ(rec.pendingCount(), 1u);
    // Device reports 600 queue wait over a 1500ns wall interval.
    rec.closeDemand(tok, 2500, 600, 900);
    EXPECT_EQ(rec.pendingCount(), 0u);
    ASSERT_EQ(rec.spans().size(), 1u);
    const FaultSpan &s = rec.spans().front();
    EXPECT_EQ(s.kind, FaultSpanKind::DemandAsync);
    EXPECT_EQ(s.total(), 1500u);
    EXPECT_EQ(s.phaseSum(), s.total());
    EXPECT_EQ(
        s.phase[static_cast<std::size_t>(FaultPhase::SwapQueueWait)],
        600u);
    EXPECT_EQ(
        s.phase[static_cast<std::size_t>(FaultPhase::DeviceService)],
        900u);
    EXPECT_EQ(s.reclaimCpu, 77u);
}

TEST(FaultSpans, SyncDemandHasZeroWallAndCpuAttribution)
{
    MetricsRegistry reg;
    FaultSpanRecorder rec(reg);
    rec.recordSyncDemand(5000, 7, 2, 11, 350);
    ASSERT_EQ(rec.spans().size(), 1u);
    const FaultSpan &s = rec.spans().front();
    EXPECT_EQ(s.kind, FaultSpanKind::DemandSync);
    EXPECT_EQ(s.total(), 0u);
    EXPECT_EQ(s.phaseSum(), 0u);
    EXPECT_EQ(s.deviceCpu, 350u);
}

TEST(FaultSpans, IoWaitLivesInActorSlotAndClosesOnce)
{
    Simulation sim(1, 7);
    ProbeActor actor(sim, [](ProbeActor &a) { a.finish(); });
    MetricsRegistry reg;
    FaultSpanRecorder rec(reg);

    // Closing with no open wait is a no-op (the demand-issuing actor
    // is woken through the same waiter list).
    rec.closeIoWait(actor, 100, FaultPhase::SharedSwapInWait);
    EXPECT_TRUE(rec.spans().empty());

    rec.openIoWait(actor, 9, 1000, 3);
    EXPECT_EQ(rec.pendingCount(), 1u);
    rec.closeIoWait(actor, 1800, FaultPhase::WritebackRemapWait);
    EXPECT_EQ(rec.pendingCount(), 0u);
    ASSERT_EQ(rec.spans().size(), 1u);
    const FaultSpan &s = rec.spans().front();
    EXPECT_EQ(s.kind, FaultSpanKind::IoWaitRemap);
    EXPECT_EQ(s.total(), 800u);
    EXPECT_EQ(s.phaseSum(), s.total());

    // The slot is free again: a second close is a no-op.
    rec.closeIoWait(actor, 2000, FaultPhase::WritebackRemapWait);
    EXPECT_EQ(rec.spans().size(), 1u);
}

TEST(FaultSpans, DeferredAggregationIsExactAndNeverDropsData)
{
    MetricsRegistry reg;
    // Retain at most 2 spans; the third is dropped from retention but
    // must still reach the histograms.
    FaultSpanRecorder rec(reg, /*max_spans=*/2, /*max_instants=*/2);
    for (std::uint64_t i = 0; i < 3; ++i)
        rec.recordSyncDemand(1000 * i, i, 0, 0, 100);
    EXPECT_EQ(rec.spans().size(), 2u);
    EXPECT_EQ(rec.spansDropped(), 1u);

    const HistogramId total = reg.histogram("fault.total_wall_ns");
    rec.aggregateRetained();
    EXPECT_EQ(reg.at(total).count(), 3u);
    // Idempotent: a second pass adds nothing.
    rec.aggregateRetained();
    EXPECT_EQ(reg.at(total).count(), 3u);

    // The span counter is eager and covers dropped spans too.
    EXPECT_EQ(reg.value(reg.counter("fault.spans")), 3u);

    // Instant retention drops are likewise counted.
    for (std::uint64_t i = 0; i < 3; ++i)
        rec.instant(InstantEvent::AllocStall, 100 * i, i, 0);
    EXPECT_EQ(rec.instants().size(), 2u);
    EXPECT_EQ(rec.instantsDropped(), 1u);
}

// ---- End-to-end: trial-level invariants -----------------------------

ExperimentConfig
smallMetricsCell(MetricsMode mode)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::Tpch;
    cfg.policy = PolicyKind::MgLru;
    cfg.scale = ScalePreset::Small;
    cfg.metrics.mode = mode;
    return cfg;
}

TEST(MetricsIntegration, EverySpanReconcilesPhaseSumWithTotal)
{
    const TrialResult r =
        runTrial(smallMetricsCell(MetricsMode::Full), 7);
    ASSERT_FALSE(r.metrics.spans.empty());
    for (const FaultSpan &s : r.metrics.spans) {
        EXPECT_EQ(s.phaseSum(), s.total())
            << faultSpanKindName(s.kind) << " span at " << s.start;
        EXPECT_GE(s.end, s.start);
    }
    EXPECT_EQ(r.metrics.spansDropped, 0u);
    EXPECT_FALSE(r.metrics.instants.empty());
    EXPECT_FALSE(r.metrics.timeseries.empty());
}

TEST(MetricsIntegration, MetricsDoNotPerturbTheSimulation)
{
    const TrialResult off =
        runTrial(smallMetricsCell(MetricsMode::Off), 11);
    const TrialResult full =
        runTrial(smallMetricsCell(MetricsMode::Full), 11);
    // Observation must be pure: identical seed gives an identical
    // simulated machine whether or not anyone is watching.
    EXPECT_EQ(off.runtimeNs, full.runtimeNs);
    EXPECT_EQ(off.majorFaults, full.majorFaults);
    EXPECT_EQ(off.kernel.evictions, full.kernel.evictions);
}

TEST(MetricsIntegration, SnapshotsAreDeterministicAcrossRuns)
{
    const TrialResult a =
        runTrial(smallMetricsCell(MetricsMode::Full), 13);
    const TrialResult b =
        runTrial(smallMetricsCell(MetricsMode::Full), 13);
    // Byte-identical exports imply identical snapshots (names,
    // ordering, values, spans, and the sampled series).
    EXPECT_EQ(metricsJsonl(a.metrics), metricsJsonl(b.metrics));
    EXPECT_EQ(timeseriesCsv(a.metrics.timeseries),
              timeseriesCsv(b.metrics.timeseries));
    EXPECT_EQ(chromeTraceJson(a.metrics), chromeTraceJson(b.metrics));
}

TEST(MetricsIntegration, ChromeTraceParsesAndHasExpectedRecordKinds)
{
    const TrialResult r =
        runTrial(smallMetricsCell(MetricsMode::Full), 7);
    const std::string json = chromeTraceJson(r.metrics);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(jsonParse(json, doc, error)) << error;
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_FALSE(events->items.empty());
    std::size_t meta = 0, complete = 0, instants = 0, counters = 0;
    for (const JsonValue &ev : events->items) {
        ASSERT_TRUE(ev.isObject());
        const JsonValue *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_TRUE(ph->isString());
        ASSERT_NE(ev.find("name"), nullptr);
        if (ph->str == "M")
            ++meta;
        else if (ph->str == "X")
            ++complete;
        else if (ph->str == "i")
            ++instants;
        else if (ph->str == "C")
            ++counters;
        if (ph->str == "X") {
            const JsonValue *dur = ev.find("dur");
            ASSERT_NE(dur, nullptr);
            EXPECT_GE(dur->number, 0.0);
        }
    }
    EXPECT_GT(meta, 0u) << "track-name metadata records";
    EXPECT_GT(complete, 0u) << "fault spans";
    EXPECT_GT(instants, 0u) << "readahead-hit / alloc-stall markers";
    EXPECT_GT(counters, 0u) << "sampler counter tracks";
}

TEST(MetricsIntegration, CountersModeSkipsTheSampler)
{
    const TrialResult r =
        runTrial(smallMetricsCell(MetricsMode::Counters), 7);
    EXPECT_FALSE(r.metrics.spans.empty());
    EXPECT_TRUE(r.metrics.timeseries.empty());
}

TEST(MetricsIntegration, OffModeProducesAnEmptySnapshot)
{
    const TrialResult r =
        runTrial(smallMetricsCell(MetricsMode::Off), 7);
    EXPECT_TRUE(r.metrics.empty());
}

TEST(MetricsMode, ParseRoundTrips)
{
    EXPECT_EQ(parseMetricsMode("off"), MetricsMode::Off);
    EXPECT_EQ(parseMetricsMode("counters"), MetricsMode::Counters);
    EXPECT_EQ(parseMetricsMode("full"), MetricsMode::Full);
    EXPECT_EQ(parseMetricsMode("on"), MetricsMode::Full);
    EXPECT_EQ(parseMetricsMode("1"), MetricsMode::Full);
    // Anything else is rejected, not silently read as Off.
    EXPECT_EQ(parseMetricsMode("garbage"), std::nullopt);
    EXPECT_EQ(parseMetricsMode(""), std::nullopt);
    EXPECT_EQ(parseMetricsMode("0"), std::nullopt);
    EXPECT_EQ(parseMetricsMode("Full"), std::nullopt);
    EXPECT_STREQ(metricsModeName(MetricsMode::Counters), "counters");
}

TEST(MetricsModeDeathTest, GarbageEnvOverrideExitsWithAcceptedValues)
{
    // The override is parsed once per process, so the child must start
    // fresh: the threadsafe style re-executes the test binary.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    setenv("PAGESIM_METRICS", "garbage", 1);
    EXPECT_EXIT(effectiveMetricsConfig(MetricsConfig{}),
                ::testing::ExitedWithCode(2),
                "PAGESIM_METRICS=garbage.*off.*counters.*full");
    unsetenv("PAGESIM_METRICS");
}

} // namespace
} // namespace pagesim
