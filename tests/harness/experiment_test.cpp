#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "harness/experiment.hh"

namespace pagesim
{
namespace
{

TEST(Experiment, NamesAndLists)
{
    EXPECT_EQ(workloadKindName(WorkloadKind::Tpch), "TPC-H");
    EXPECT_EQ(workloadKindName(WorkloadKind::YcsbC), "YCSB-C");
    EXPECT_EQ(swapKindName(SwapKind::Zram), "ZRAM");
    EXPECT_EQ(allWorkloadKinds().size(), 5u);
}

TEST(Experiment, LabelIsReadable)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::PageRank;
    cfg.policy = PolicyKind::ScanAll;
    cfg.swap = SwapKind::Zram;
    cfg.capacityRatio = 0.75;
    EXPECT_EQ(cfg.label(), "PageRank/Scan-All/ZRAM/75%");
}

TEST(Experiment, MakeWorkloadBuildsEveryKind)
{
    for (WorkloadKind kind : allWorkloadKinds()) {
        auto wl = makeWorkload(kind, ScalePreset::Small);
        ASSERT_NE(wl, nullptr) << workloadKindName(kind);
        EXPECT_EQ(wl->name(), workloadKindName(kind));
        EXPECT_GT(wl->footprintPages(), 0u);
        EXPECT_GT(wl->numThreads(), 0u);
    }
}

TEST(Experiment, ParseTrialsOverride)
{
    EXPECT_EQ(parseTrialsOverride(nullptr), std::nullopt);
    EXPECT_EQ(parseTrialsOverride(""), std::nullopt);
    EXPECT_EQ(parseTrialsOverride("garbage"), std::nullopt);
    EXPECT_EQ(parseTrialsOverride("3x"), std::nullopt);
    EXPECT_EQ(parseTrialsOverride("0"), std::nullopt);
    EXPECT_EQ(parseTrialsOverride("-2"), std::nullopt);
    EXPECT_EQ(parseTrialsOverride("99999999999999"), std::nullopt);
    EXPECT_EQ(parseTrialsOverride("1"), 1u);
    EXPECT_EQ(parseTrialsOverride("3"), 3u);
    EXPECT_EQ(parseTrialsOverride("64"), 64u);
}

TEST(Experiment, EffectiveTrialsHonorsEnv)
{
    ExperimentConfig cfg;
    cfg.trials = 8;
    // The override is read from the environment once per process; the
    // test hook re-reads it so each case here sees its own value.
    setenv("PAGESIM_TRIALS", "3", 1);
    detail::refreshTrialsOverrideCacheForTests();
    EXPECT_EQ(effectiveTrials(cfg), 3u);
    // An empty value is unset; malformed values stop the process
    // (EnvKnobDeathTest below).
    setenv("PAGESIM_TRIALS", "", 1);
    detail::refreshTrialsOverrideCacheForTests();
    EXPECT_EQ(effectiveTrials(cfg), 8u);
    unsetenv("PAGESIM_TRIALS");
    detail::refreshTrialsOverrideCacheForTests();
    EXPECT_EQ(effectiveTrials(cfg), 8u);
    // Mutating the environment without the hook has no effect: the
    // cached value keeps every cell of a sweep on the same trial
    // count no matter when it is scheduled.
    setenv("PAGESIM_TRIALS", "5", 1);
    EXPECT_EQ(effectiveTrials(cfg), 8u);
    unsetenv("PAGESIM_TRIALS");
    detail::refreshTrialsOverrideCacheForTests();
}

TEST(EnvKnobDeathTest, MalformedTrialsOrAuditEveryExitsWithAcceptedValues)
{
    // Each child re-executes the test binary (threadsafe style), so
    // it reads the environment set here afresh.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *bad : {"garbage", "0", "-2", "3x"}) {
        setenv("PAGESIM_TRIALS", bad, 1);
        EXPECT_EXIT(detail::refreshTrialsOverrideCacheForTests(),
                    ::testing::ExitedWithCode(2),
                    std::string("PAGESIM_TRIALS=") + bad +
                        " is not valid; accepted: a whole number")
            << bad;
    }
    unsetenv("PAGESIM_TRIALS");
    for (const char *bad : {"garbage", "-1", "8 "}) {
        setenv("PAGESIM_AUDIT_EVERY", bad, 1);
        EXPECT_EXIT(detail::refreshAuditEveryOverrideCacheForTests(),
                    ::testing::ExitedWithCode(2),
                    std::string("PAGESIM_AUDIT_EVERY=") + bad +
                        " is not valid; accepted: .*0 \\(off\\)")
            << bad;
    }
    unsetenv("PAGESIM_AUDIT_EVERY");
    detail::refreshTrialsOverrideCacheForTests();
    detail::refreshAuditEveryOverrideCacheForTests();
}

TEST(EnvKnob, AuditEveryZeroMeansOff)
{
    // perfbench pins PAGESIM_AUDIT_EVERY=0 on every run: it must stay
    // a valid value, meaning no audits, not a launch error.
    const char *ambient = std::getenv("PAGESIM_AUDIT_EVERY");
    const std::string saved = ambient != nullptr ? ambient : "";
    setenv("PAGESIM_AUDIT_EVERY", "0", 1);
    detail::refreshAuditEveryOverrideCacheForTests();
    EXPECT_EQ(effectiveAuditEvery(), 0u);
    setenv("PAGESIM_AUDIT_EVERY", "16", 1);
    detail::refreshAuditEveryOverrideCacheForTests();
    EXPECT_EQ(effectiveAuditEvery(), 16u);
    if (saved.empty())
        unsetenv("PAGESIM_AUDIT_EVERY");
    else
        setenv("PAGESIM_AUDIT_EVERY", saved.c_str(), 1);
    detail::refreshAuditEveryOverrideCacheForTests();
}

TEST(Experiment, TrialIsDeterministicForSeed)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::Tpch;
    cfg.policy = PolicyKind::MgLru;
    cfg.scale = ScalePreset::Small;
    const TrialResult a = runTrial(cfg, 42);
    const TrialResult b = runTrial(cfg, 42);
    EXPECT_EQ(a.runtimeNs, b.runtimeNs);
    EXPECT_EQ(a.majorFaults, b.majorFaults);
    EXPECT_EQ(a.kernel.evictions, b.kernel.evictions);
    EXPECT_EQ(a.policy.ptesScanned, b.policy.ptesScanned);
}

TEST(Experiment, DifferentSeedsVary)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::Tpch;
    cfg.policy = PolicyKind::MgLru;
    cfg.scale = ScalePreset::Small;
    const TrialResult a = runTrial(cfg, 1);
    const TrialResult b = runTrial(cfg, 2);
    EXPECT_NE(a.runtimeNs, b.runtimeNs)
        << "per-boot jitter must differentiate trials";
}

TEST(Experiment, SummariesAggregateTrials)
{
    ExperimentResult res;
    TrialResult t1, t2;
    t1.runtimeNs = 100;
    t1.majorFaults = 10;
    t2.runtimeNs = 300;
    t2.majorFaults = 30;
    res.trials = {t1, t2};
    EXPECT_DOUBLE_EQ(res.runtimeSummary().mean(), 200.0);
    EXPECT_DOUBLE_EQ(res.faultSummary().mean(), 20.0);
}

TEST(Experiment, RunExperimentProducesAllTrials)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::YcsbA;
    cfg.policy = PolicyKind::Clock;
    cfg.scale = ScalePreset::Small;
    cfg.trials = 3;
    unsetenv("PAGESIM_TRIALS");
    const ExperimentResult res = runExperiment(cfg);
    ASSERT_EQ(res.trials.size(), 3u);
    for (const auto &t : res.trials) {
        EXPECT_GT(t.runtimeNs, 0u);
        EXPECT_GT(t.readLatency.count() + t.writeLatency.count(), 0u);
    }
    EXPECT_GT(res.mergedReadLatency().count(), 0u);
    EXPECT_GT(res.meanRequestNs(), 0.0);
}

} // namespace
} // namespace pagesim
