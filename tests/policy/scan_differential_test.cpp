/**
 * @file
 * Differential tests for the MG-LRU aging walk. The production walk
 * (shard harvest, then serial apply) is a pure optimization: with
 * MgLruConfig::referenceScan selecting the per-slot reference walk,
 * any driving sequence must produce bit-identical charged costs,
 * stats, generation structure, and PTE end-states, for every scan
 * mode and any harvest worker count. A full-trial check extends the
 * contract end to end through the kernel layer (where the resident-
 * hit fast path also sits on the access path).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "policy/mglru/mglru_policy.hh"
#include "policy_test_util.hh"
#include "sim/rng.hh"

namespace pagesim
{
namespace
{

/** Everything observable after a driving run, for exact comparison. */
struct RunSignature
{
    SimDuration charged = 0;
    PolicyStats stats;
    MgLruStats mg;
    std::uint64_t minSeq = 0;
    std::uint64_t maxSeq = 0;
    std::uint64_t pteHash = 0;
    std::uint64_t pageHash = 0;
};

void
expectIdentical(const RunSignature &a, const RunSignature &b)
{
    EXPECT_EQ(a.charged, b.charged);
    EXPECT_EQ(a.stats.ptesScanned, b.stats.ptesScanned);
    EXPECT_EQ(a.stats.regionsVisited, b.stats.regionsVisited);
    EXPECT_EQ(a.stats.regionsSkipped, b.stats.regionsSkipped);
    EXPECT_EQ(a.stats.rmapWalks, b.stats.rmapWalks);
    EXPECT_EQ(a.stats.promotions, b.stats.promotions);
    EXPECT_EQ(a.stats.demotions, b.stats.demotions);
    EXPECT_EQ(a.stats.agingPasses, b.stats.agingPasses);
    EXPECT_EQ(a.stats.evicted, b.stats.evicted);
    EXPECT_EQ(a.stats.refaults, b.stats.refaults);
    EXPECT_EQ(a.stats.secondChances, b.stats.secondChances);
    EXPECT_EQ(a.mg.genCreations, b.mg.genCreations);
    EXPECT_EQ(a.mg.genCreationBlocked, b.mg.genCreationBlocked);
    EXPECT_EQ(a.mg.bloomInsertions, b.mg.bloomInsertions);
    EXPECT_EQ(a.mg.neighborScans, b.mg.neighborScans);
    EXPECT_EQ(a.mg.neighborPromotions, b.mg.neighborPromotions);
    EXPECT_EQ(a.mg.lateGenCreations, b.mg.lateGenCreations);
    EXPECT_EQ(a.minSeq, b.minSeq);
    EXPECT_EQ(a.maxSeq, b.maxSeq);
    EXPECT_EQ(a.pteHash, b.pteHash);
    EXPECT_EQ(a.pageHash, b.pageHash);
}

/** Access patterns for the scan differential. */
enum class TouchPattern
{
    Uniform, ///< whole-space uniform random
    Hotspot, ///< 90% of touches in a window straddling a shard seam
    Strided, ///< region-stride walk (one page per region)
};

Vpn
patternVpn(TouchPattern pattern, Rng &rng, int step, Vpn base,
           std::uint64_t pages)
{
    switch (pattern) {
      case TouchPattern::Hotspot:
        if (rng.nextDouble() < 0.9) {
            // Hot window crossing the shard-0/shard-1 seam: the same
            // locality lands in two different harvest chunks.
            const Vpn hot_base = base + kVpnsPerShard - 2048;
            return hot_base + rng.uniformInt(0, 4095);
        }
        return base + rng.uniformInt(0, pages - 1);
      case TouchPattern::Strided:
        return base + (static_cast<std::uint64_t>(step) *
                       kPtesPerRegion) % pages;
      case TouchPattern::Uniform:
      default:
        return base + rng.uniformInt(0, pages - 1);
    }
}

/**
 * Drive a multi-shard machine through a randomized mix of touches,
 * faults, evictions, sliced aging steps and full aging passes, and
 * snapshot everything observable. The sequence depends only on
 * @p seed, @p mode and @p pattern, never on @p reference or
 * @p workers.
 */
RunSignature
drive(std::uint64_t seed, ScanMode mode, TouchPattern pattern,
      bool reference, unsigned workers)
{
    // Span several shards so slices split into multiple chunks and
    // the ordered apply is actually exercised (one shard = 64Ki
    // pages); 4096 frames keep eviction pressure on.
    const std::uint64_t pages = 2 * kVpnsPerShard + 3 * 1024;
    PolicyHarness h(4096, pages);
    MgLruConfig cfg;
    cfg.scanMode = mode;
    cfg.agingLowPages = 0;
    cfg.agingEvictGate = 0;
    cfg.referenceScan = reference;
    cfg.scanWorkers = workers;
    MgLruPolicy policy(h.frames, {&h.space}, h.costs, Rng(seed), cfg);
    EXPECT_GE(h.space.table().numShards(), 3u);

    Rng rng(seed * 7919 + 3);
    CostSink sink;
    std::vector<Pfn> victims;
    for (int step = 0; step < 1500; ++step) {
        const double dice = rng.nextDouble();
        if (dice < 0.55) {
            const Vpn vpn =
                patternVpn(pattern, rng, step, h.base(), pages);
            const auto pte = h.space.table().at(vpn);
            if (pte.present())
                h.space.table().setAccessed(vpn);
            else if (h.frames.freeFrames() > 0)
                h.makeResident(policy, vpn);
        } else if (dice < 0.75) {
            victims.clear();
            policy.selectVictims(victims, 8, sink);
            for (const Pfn pfn : victims)
                h.completeEviction(policy, pfn);
        } else if (dice < 0.92) {
            // Sliced walk: tiny slices, and slices below, at, and
            // above the shard size in regions, so chunks both split
            // and span shard seams, and Scan-Rand's draws straddle
            // many slice boundaries.
            constexpr std::uint32_t kSlices[] = {8, 512, 1024, 1536};
            policy.ageStep(sink, kSlices[step % 4]);
        } else {
            policy.age(sink);
        }
    }

    RunSignature sig;
    sig.charged = sink.total();
    sig.stats = policy.stats();
    sig.mg = policy.mgStats();
    sig.minSeq = policy.minSeq();
    sig.maxSeq = policy.maxSeq();
    for (Vpn vpn = h.base(); vpn < h.base() + pages; ++vpn) {
        const auto pte = h.space.table().at(vpn);
        const std::uint64_t flags =
            (pte.present() ? 1u : 0u) | (pte.accessed() ? 2u : 0u) |
            (pte.dirty() ? 4u : 0u) | (pte.swapped() ? 8u : 0u) |
            (pte.slow() ? 16u : 0u);
        const std::uint64_t value =
            pte.present() ? pte.pfn()
                          : (pte.swapped() ? pte.swapSlot() : 0u);
        sig.pteHash = splitmix64(sig.pteHash ^ (vpn * 31 + flags) ^
                                 (value << 32) ^ pte.shadow());
    }
    for (Pfn pfn = 0; pfn < h.frames.totalFrames(); ++pfn) {
        const auto pi = h.frames.info(pfn);
        if (pi.free())
            continue;
        sig.pageHash =
            splitmix64(sig.pageHash ^ (pi.vpn << 20) ^ (pi.gen << 8) ^
                       (static_cast<std::uint64_t>(pi.refs) << 4) ^
                       pi.tier);
    }
    return sig;
}

constexpr ScanMode kModes[] = {ScanMode::Bloom, ScanMode::All,
                               ScanMode::Random};
constexpr TouchPattern kPatterns[] = {
    TouchPattern::Uniform, TouchPattern::Hotspot, TouchPattern::Strided};

std::string
cellTrace(ScanMode mode, TouchPattern pattern, std::uint64_t seed)
{
    return "mode=" + std::to_string(static_cast<int>(mode)) +
           " pattern=" + std::to_string(static_cast<int>(pattern)) +
           " seed=" + std::to_string(seed);
}

TEST(ScanDifferential, WordScanMatchesReferenceAcrossModes)
{
    // The production walk with one harvest worker against the per-slot
    // reference walk.
    for (const ScanMode mode : kModes) {
        for (const TouchPattern pattern : kPatterns) {
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                SCOPED_TRACE(cellTrace(mode, pattern, seed));
                expectIdentical(
                    drive(seed, mode, pattern, /*reference=*/true, 1),
                    drive(seed, mode, pattern, /*reference=*/false, 1));
            }
        }
    }
}

TEST(ScanDifferential, ShardedScanMatchesSerialAcrossPatterns)
{
    // A harvest split across several workers against the single-worker
    // harvest; with the test above, every worker count matches the
    // reference walk.
    for (const ScanMode mode : kModes) {
        for (const TouchPattern pattern : kPatterns) {
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                SCOPED_TRACE(cellTrace(mode, pattern, seed));
                const RunSignature serial =
                    drive(seed, mode, pattern, /*reference=*/false, 1);
                for (const unsigned workers : {2u, 4u}) {
                    SCOPED_TRACE("workers=" + std::to_string(workers));
                    expectIdentical(serial, drive(seed, mode, pattern,
                                                  /*reference=*/false,
                                                  workers));
                }
            }
        }
    }
}

TEST(ScanDifferential, ShardedScanDoesRealWork)
{
    // Guard against the harness shrinking to a single shard or the
    // harvest going idle.
    const RunSignature sig = drive(7, ScanMode::Bloom,
                                   TouchPattern::Hotspot, false, 4);
    EXPECT_GT(sig.stats.ptesScanned, 0u);
    EXPECT_GT(sig.stats.regionsVisited, 0u);
    EXPECT_GT(sig.stats.evicted, 0u);
    EXPECT_GT(sig.mg.neighborScans, 0u);
}

TEST(ScanDifferential, ReferenceScanIsActuallyExercised)
{
    // Guard against the switch rotting: the reference must do real
    // work, and Scan-Rand must both scan and skip present regions.
    const RunSignature sig = drive(7, ScanMode::Random,
                                   TouchPattern::Uniform, true, 1);
    EXPECT_GT(sig.stats.ptesScanned, 0u);
    EXPECT_GT(sig.stats.promotions, 0u);
    EXPECT_GT(sig.stats.evicted, 0u);
    EXPECT_GT(sig.stats.regionsSkipped, 0u);
}

/** Run one TPC-H SSD cell with each walk and compare every field. */
void
expectSameTrial(PolicyKind policy)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::Tpch;
    cfg.policy = policy;
    cfg.swap = SwapKind::Ssd;
    cfg.capacityRatio = 0.5;
    cfg.scale = ScalePreset::Small;

    const TrialResult fast = runTrial(cfg, 42);
    cfg.mgTweak = [](MgLruConfig &mg) { mg.referenceScan = true; };
    const TrialResult ref = runTrial(cfg, 42);

    EXPECT_EQ(fast.runtimeNs, ref.runtimeNs);
    EXPECT_EQ(fast.majorFaults, ref.majorFaults);
    EXPECT_EQ(fast.kernel.minorFaults, ref.kernel.minorFaults);
    EXPECT_EQ(fast.kernel.evictions, ref.kernel.evictions);
    EXPECT_EQ(fast.kernel.dirtyWritebacks, ref.kernel.dirtyWritebacks);
    EXPECT_EQ(fast.kernel.cleanDrops, ref.kernel.cleanDrops);
    EXPECT_EQ(fast.kernel.readaheadReads, ref.kernel.readaheadReads);
    EXPECT_EQ(fast.kernel.readaheadHits, ref.kernel.readaheadHits);
    EXPECT_EQ(fast.kernel.allocStalls, ref.kernel.allocStalls);
    EXPECT_EQ(fast.policy.ptesScanned, ref.policy.ptesScanned);
    EXPECT_EQ(fast.policy.regionsVisited, ref.policy.regionsVisited);
    EXPECT_EQ(fast.policy.regionsSkipped, ref.policy.regionsSkipped);
    EXPECT_EQ(fast.policy.promotions, ref.policy.promotions);
    EXPECT_EQ(fast.policy.evicted, ref.policy.evicted);
    EXPECT_EQ(fast.policy.refaults, ref.policy.refaults);
    EXPECT_EQ(fast.mglru.genCreations, ref.mglru.genCreations);
    EXPECT_EQ(fast.mglru.bloomInsertions, ref.mglru.bloomInsertions);
    EXPECT_EQ(fast.mglru.neighborScans, ref.mglru.neighborScans);
    EXPECT_EQ(fast.mglru.neighborPromotions,
              ref.mglru.neighborPromotions);
    EXPECT_EQ(fast.swap.reads, ref.swap.reads);
    EXPECT_EQ(fast.swap.writes, ref.swap.writes);
    EXPECT_EQ(fast.swap.totalReadLatency, ref.swap.totalReadLatency);
    EXPECT_EQ(fast.swap.totalWriteLatency, ref.swap.totalWriteLatency);
    EXPECT_EQ(fast.kswapdCpuNs, ref.kswapdCpuNs);
    EXPECT_EQ(fast.agingCpuNs, ref.agingCpuNs);
    EXPECT_EQ(fast.agingPasses, ref.agingPasses);
    ASSERT_EQ(fast.threadFinishNs.size(), ref.threadFinishNs.size());
    for (std::size_t i = 0; i < fast.threadFinishNs.size(); ++i) {
        EXPECT_EQ(fast.threadFinishNs[i], ref.threadFinishNs[i]);
        EXPECT_EQ(fast.threadBlockedFaults[i],
                  ref.threadBlockedFaults[i]);
    }
}

TEST(ScanDifferential, FullTrialIsBitIdentical)
{
    // End to end: a whole TPC-H trial through the kernel layer, the
    // aging daemon, and swap must not change by a single event when
    // the scan implementation is swapped — for the default Bloom walk
    // and for Scan-Rand, whose coin flips are drawn ahead of the
    // harvest.
    for (const PolicyKind policy : {PolicyKind::MgLru,
                                    PolicyKind::ScanRand}) {
        SCOPED_TRACE("policy=" + std::to_string(static_cast<int>(
                         policy)));
        expectSameTrial(policy);
    }
}

} // namespace
} // namespace pagesim
