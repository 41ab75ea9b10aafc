/**
 * @file
 * Trial bit-identity pins for determinism-sensitive refactors.
 *
 * Each golden fingerprint below was captured from runTrial() BEFORE a
 * container/bookkeeping refactor and must stay byte-for-byte stable
 * after it. The hash covers only integral TrialResult fields (times,
 * fault counters, per-thread integer series), so it is independent of
 * host FP quirks and of how aggregates are summarized.
 *
 * Pinned refactors:
 *  - PR 5: MemoryManager::ioWaiters_ moved from std::unordered_map
 *    with pointer-value hashing to an ordered std::map keyed by
 *    (AddressSpace::id(), vpn). The waiter map feeds wake order and
 *    the audit walk; these fingerprints prove the swap changed
 *    nothing observable.
 *  - The single- and multi-tenant machines sharing one rig: the
 *    ZRAM, memcg-limit and slow-tier single-tenant pins and the
 *    per-tenant colocation pins cover the build paths that merge.
 *  - The aging walk's scan modes: the Scan-Rand and Scan-All pins
 *    cover the two non-default modes, so a change to which regions
 *    a walk visits (or in what order Scan-Rand draws) shows here.
 *
 * If a fingerprint changes, the refactor being tested altered
 * simulated behavior: find the divergence, don't re-record. Only
 * re-record (instructions below) when a DELIBERATE model change
 * invalidates the pins, and say so in the commit message.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "harness/colocation.hh"
#include "harness/experiment.hh"

namespace pagesim
{
namespace
{

/** FNV-1a over a stream of 64-bit words. */
class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Hash every integral field a trial reports. */
std::uint64_t
fingerprint(const TrialResult &r)
{
    Fnv h;
    h.add(r.runtimeNs);
    h.add(r.majorFaults);

    h.add(r.kernel.majorFaults);
    h.add(r.kernel.minorFaults);
    h.add(r.kernel.ioWaitFaults);
    h.add(r.kernel.evictions);
    h.add(r.kernel.dirtyWritebacks);
    h.add(r.kernel.cleanDrops);
    h.add(r.kernel.writebackRemaps);
    h.add(r.kernel.readaheadReads);
    h.add(r.kernel.readaheadHits);
    h.add(r.kernel.directReclaims);
    h.add(r.kernel.directAging);
    h.add(r.kernel.allocStalls);

    h.add(r.policy.ptesScanned);
    h.add(r.policy.regionsVisited);
    h.add(r.policy.regionsSkipped);
    h.add(r.policy.rmapWalks);
    h.add(r.policy.promotions);
    h.add(r.policy.demotions);
    h.add(r.policy.agingPasses);
    h.add(r.policy.evicted);
    h.add(r.policy.refaults);
    h.add(r.policy.secondChances);

    h.add(r.swap.reads);
    h.add(r.swap.writes);
    h.add(r.swap.totalReadLatency);
    h.add(r.swap.totalWriteLatency);
    h.add(r.swap.peakQueueDepth);

    h.add(r.mglru.genCreations);
    h.add(r.mglru.genCreationBlocked);
    h.add(r.mglru.bloomInsertions);
    h.add(r.mglru.neighborScans);
    h.add(r.mglru.neighborPromotions);
    h.add(r.mglru.tierProtected);
    h.add(r.mglru.staleRefaults);
    h.add(r.mglru.lateGenCreations);

    for (SimTime t : r.threadFinishNs)
        h.add(t);
    for (std::uint64_t f : r.threadBlockedFaults)
        h.add(f);

    h.add(r.kswapdCpuNs);
    h.add(r.agingCpuNs);
    h.add(r.agingPasses);
    return h.value();
}

ExperimentConfig
smallCell(WorkloadKind wl, PolicyKind policy)
{
    ExperimentConfig cfg;
    cfg.workload = wl;
    cfg.policy = policy;
    cfg.swap = SwapKind::Ssd; // async device: exercises ioWaiters_
    cfg.capacityRatio = 0.5;
    cfg.scale = ScalePreset::Small;
    cfg.baseSeed = 12345;
    return cfg;
}

std::uint64_t
run(WorkloadKind wl, PolicyKind policy)
{
    return fingerprint(runTrial(smallCell(wl, policy),
                                /*trial_seed=*/12345));
}

/** The three-tenant scenario of colocation_test.cpp. */
ColocationConfig
threeTenants()
{
    ColocationConfig config;
    TenantSpec ycsb;
    ycsb.name = "ycsb";
    ycsb.workload = WorkloadKind::YcsbA;
    ycsb.lowRatio = 0.5;
    TenantSpec tpch;
    tpch.name = "tpch";
    tpch.workload = WorkloadKind::Tpch;
    tpch.maxRatio = 0.6;
    TenantSpec ranker;
    ranker.name = "ranker";
    ranker.workload = WorkloadKind::PageRank;
    ranker.highRatio = 0.7;
    config.tenants = {ycsb, tpch, ranker};
    config.capacityRatio = 0.5;
    return config;
}

std::vector<std::uint64_t>
tenantFingerprints(const ColocationConfig &config)
{
    std::vector<std::uint64_t> fps;
    for (const TenantResult &t : runColocationTrial(config, 7).tenants)
        fps.push_back(tenantFingerprint(t));
    return fps;
}

/*
 * To re-record after a deliberate model change:
 *   build/tests/harness_test --gtest_filter='BitIdentity.*' and copy
 * the "actual" value from each failure message into the pins (for
 * the colocation pins, the whole per-tenant vector).
 */

TEST(BitIdentity, YcsbAMgLruSsdPinned)
{
    EXPECT_EQ(run(WorkloadKind::YcsbA, PolicyKind::MgLru),
              14737800276040979591ull);
}

TEST(BitIdentity, YcsbAClockSsdPinned)
{
    EXPECT_EQ(run(WorkloadKind::YcsbA, PolicyKind::Clock),
              2700564566422927531ull);
}

TEST(BitIdentity, PageRankMgLruSsdPinned)
{
    EXPECT_EQ(run(WorkloadKind::PageRank, PolicyKind::MgLru),
              15287283016998830679ull);
}

TEST(BitIdentity, ScanRandMgLruSsdPinned)
{
    // Scan-Rand draws its RNG once per present region, in walk order:
    // the one scan mode whose walk schedule is easiest to perturb.
    EXPECT_EQ(run(WorkloadKind::YcsbA, PolicyKind::ScanRand),
              1319443912745866151ull);
}

TEST(BitIdentity, ScanAllMgLruSsdPinned)
{
    EXPECT_EQ(run(WorkloadKind::YcsbA, PolicyKind::ScanAll),
              7728261854957344814ull);
}

TEST(BitIdentity, YcsbAClockZramPinned)
{
    ExperimentConfig cfg =
        smallCell(WorkloadKind::YcsbA, PolicyKind::Clock);
    cfg.swap = SwapKind::Zram;
    EXPECT_EQ(fingerprint(runTrial(cfg, 12345)),
              6281569637407502594ull);
}

TEST(BitIdentity, MemcgMaxRatioPinned)
{
    // Limit ratios move the lone tenant into a "workload" memcg whose
    // memory.max runs limit reclaim inside the faulting task.
    ExperimentConfig cfg =
        smallCell(WorkloadKind::YcsbA, PolicyKind::MgLru);
    cfg.memcgMaxRatio = 0.4;
    EXPECT_EQ(fingerprint(runTrial(cfg, 12345)),
              9081508063671702370ull);
}

TEST(BitIdentity, SlowTierPinned)
{
    ExperimentConfig cfg =
        smallCell(WorkloadKind::YcsbA, PolicyKind::MgLru);
    cfg.slowTierRatio = 0.25;
    const TrialResult r = runTrial(cfg, 12345);
    EXPECT_EQ(fingerprint(r), 10433327569158231340ull);
    // fingerprint() predates tiering; pin the tier counters too.
    Fnv tier;
    tier.add(r.tier.demotions);
    tier.add(r.tier.promotions);
    tier.add(r.tier.slowHits);
    tier.add(r.tier.slowEvictions);
    EXPECT_GT(r.tier.demotions, 0u);
    EXPECT_EQ(tier.value(), 11473481474633530272ull);
}

TEST(BitIdentity, ColocationThreeTenantsPinned)
{
    const std::vector<std::uint64_t> want = {
        12810185064311438883ull, 3549933159575256792ull,
        16497275574195911397ull};
    EXPECT_EQ(tenantFingerprints(threeTenants()), want);
}

TEST(BitIdentity, ColocationMixedPolicyPinned)
{
    // A Clock tenant beside MG-LRU tenants: per-tenant policy override.
    ColocationConfig config = threeTenants();
    config.tenants[1].policy = PolicyKind::Clock;
    const std::vector<std::uint64_t> want = {
        8508069935470828896ull, 7548003370203508505ull,
        6257566020947535833ull};
    EXPECT_EQ(tenantFingerprints(config), want);
}

/*
 * The SoA metadata + sharded-scan pin, captured on a 1M-page (4 GiB)
 * YCSB machine — large enough that the aging walk crosses many shards
 * and the slicing/ordered-apply logic carries the whole trial. Runs
 * the same trial twice, with the harvest inline (1 worker) and on 4
 * worker threads, and checks both against the recorded value: a
 * fingerprint mismatch means a change altered simulated behavior; a
 * 1-vs-4 split means the parallel harvest broke its determinism
 * contract.
 */
TEST(BitIdentity, Big1MSerialAndShardedPinned)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::YcsbA;
    cfg.policy = PolicyKind::MgLru;
    cfg.swap = SwapKind::Ssd;
    cfg.capacityRatio = 0.5;
    cfg.scale = ScalePreset::Big1M;
    cfg.baseSeed = 12345;

    cfg.mgTweak = [](MgLruConfig &mg) { mg.scanWorkers = 1; };
    const std::uint64_t serial = fingerprint(runTrial(cfg, 12345));

    cfg.mgTweak = [](MgLruConfig &mg) { mg.scanWorkers = 4; };
    const std::uint64_t sharded = fingerprint(runTrial(cfg, 12345));

    EXPECT_EQ(serial, 15456000562956673319ull);
    EXPECT_EQ(sharded, serial);
}

} // namespace
} // namespace pagesim
