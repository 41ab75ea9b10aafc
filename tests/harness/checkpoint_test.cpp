/**
 * @file
 * Checkpoint/restore enforcement: fast-forwarded trials must be
 * BIT-IDENTICAL to straight-through execution.
 *
 * The contract under test (DESIGN.md Sec. 4h): capturing a snapshot at
 * a quiescent boundary and running `restore + run(t..end)` reproduces
 * the straight-through TrialResult exactly — same fingerprint the
 * bit-identity pins use, across policies, swap backends, and the
 * multi-memcg colocation harness. Corruption tests pin the failure
 * side: a damaged image is rejected with a structured error and ZERO
 * partial state applied (the same rig still accepts the pristine
 * image afterwards).
 *
 * The pinned constant below is the SAME value as BitIdentity's
 * YcsbAMgLruSsdPinned: fast-forward must not move an existing pin.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "harness/checkpoint.hh"
#include "harness/sweep.hh"
#include "harness/trial_rig.hh"
#include "kernel/memory_manager.hh"
#include "sim/serialize.hh"

namespace pagesim
{
namespace
{

constexpr std::uint64_t kMaxEvents = 2000000000ull;

/** FNV-1a over 64-bit words, same formulation as bit_identity_test. */
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

/** Hash every integral field a trial reports (bit_identity's set). */
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
smallConfig(WorkloadKind wl, PolicyKind policy, SwapKind swap)
{
    ExperimentConfig cfg;
    cfg.workload = wl;
    cfg.policy = policy;
    cfg.swap = swap;
    cfg.capacityRatio = 0.5;
    cfg.scale = ScalePreset::Small;
    cfg.baseSeed = 12345;
    return cfg;
}

/**
 * The core differential: straight-through vs cold-checkpointed (the
 * capture pass itself must not perturb the trial) vs warm-restored
 * (the second identical call must come off the cache and still match).
 * Returns the straight-through fingerprint so callers can pin it.
 */
std::uint64_t
expectFastForwardIdentity(ExperimentConfig cfg, std::uint64_t seed)
{
    const std::string tag = cfg.label() + " seed " + std::to_string(seed);
    cfg.warmupRefs = 0;
    cfg.checkpointAt = 0;
    const TrialResult straight = runTrial(cfg, seed);
    const std::uint64_t want = fingerprint(straight);

    // Self-calibrating boundary: mid-trial by workload progress.
    EXPECT_GT(straight.totalTouches, 0u) << tag;
    cfg.checkpointAt = straight.totalTouches / 2;

    CheckpointCache &cache = CheckpointCache::instance();
    cache.clear();
    const TrialResult cold = runTrial(cfg, seed);
    EXPECT_EQ(cache.misses(), 1u) << tag;
    const TrialResult warm = runTrial(cfg, seed);
    EXPECT_GE(cache.hits(), 1u)
        << tag << ": the restore path never ran — boundary unreachable?";

    EXPECT_EQ(fingerprint(cold), want)
        << tag << ": capturing a checkpoint perturbed the trial";
    EXPECT_EQ(fingerprint(warm), want)
        << tag << ": restore diverged from straight-through execution";
    EXPECT_EQ(cold.totalTouches, straight.totalTouches) << tag;
    EXPECT_EQ(warm.totalTouches, straight.totalTouches) << tag;
    return want;
}

TEST(CheckpointIdentity, PinnedYcsbAMgLruSsd)
{
    // Must equal BitIdentity.YcsbAMgLruSsdPinned: the fast-forward
    // machinery may not move an existing pin, cold or warm.
    EXPECT_EQ(expectFastForwardIdentity(
                  smallConfig(WorkloadKind::YcsbA, PolicyKind::MgLru,
                              SwapKind::Ssd),
                  12345),
              14737800276040979591ull);
}

TEST(CheckpointIdentity, DifferentialAcrossPoliciesAndBackends)
{
    // ISSUE acceptance: bit-identical across >= 2 policies and both
    // swap backends, at seeds unrelated to the pinned one.
    std::uint64_t seed = 909090;
    for (PolicyKind policy : {PolicyKind::MgLru, PolicyKind::Clock}) {
        for (SwapKind swap : {SwapKind::Ssd, SwapKind::Zram}) {
            expectFastForwardIdentity(
                smallConfig(WorkloadKind::YcsbA, policy, swap), seed);
            seed += 7777;
        }
    }
}

TEST(CheckpointIdentity, DifferentialAcrossWorkloads)
{
    // Barrier-carrying (PageRank) and scan-heavy (TPC-H) workloads
    // exercise serialization surfaces YCSB never touches: barrier
    // membership and file-buffer cursors.
    expectFastForwardIdentity(smallConfig(WorkloadKind::PageRank,
                                          PolicyKind::MgLru,
                                          SwapKind::Ssd),
                              31415);
    expectFastForwardIdentity(smallConfig(WorkloadKind::Tpch,
                                          PolicyKind::Clock,
                                          SwapKind::Zram),
                              27182);
}

std::vector<std::uint64_t>
tenantFingerprints(const ColocationTrialResult &trial)
{
    std::vector<std::uint64_t> fps;
    for (const TenantResult &t : trial.tenants)
        fps.push_back(tenantFingerprint(t));
    return fps;
}

TEST(CheckpointIdentity, ColocationDifferential)
{
    // Multi-memcg machine: per-tenant lruvecs, the balloon space, and
    // tenant-major actor ordering all cross the snapshot boundary.
    ColocationConfig config;
    TenantSpec ycsb;
    ycsb.name = "ycsb";
    ycsb.workload = WorkloadKind::YcsbA;
    ycsb.lowRatio = 0.5;
    TenantSpec tpch;
    tpch.name = "tpch";
    tpch.workload = WorkloadKind::Tpch;
    tpch.maxRatio = 0.6;
    config.tenants = {ycsb, tpch};
    config.capacityRatio = 0.5;

    const ColocationTrialResult straight = runColocationTrial(config, 7);
    const std::vector<std::uint64_t> want = tenantFingerprints(straight);
    ASSERT_GT(straight.totalTouches, 0u);
    config.checkpointAt = straight.totalTouches / 2;

    CheckpointCache &cache = CheckpointCache::instance();
    cache.clear();
    const ColocationTrialResult cold = runColocationTrial(config, 7);
    const ColocationTrialResult warm = runColocationTrial(config, 7);
    EXPECT_GE(cache.hits(), 1u) << "colocation restore path never ran";
    EXPECT_EQ(tenantFingerprints(cold), want);
    EXPECT_EQ(tenantFingerprints(warm), want);
    EXPECT_EQ(warm.totalTouches, straight.totalTouches);
}

/** FNV-1a over a checkpoint image's bytes. */
std::uint64_t
imageHash(const Checkpoint &ckpt)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : ckpt.bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(CheckpointIdentity, ImageBytesAndPrefixHashesPinned)
{
    // Prefix hashes name the on-disk images and image bytes are their
    // content: a change orphans every saved image. Pinned for one
    // single-tenant cell and one colocation scenario, cold-captured;
    // recorded before the single- and multi-tenant rigs merged.
    constexpr std::uint64_t kBoundary = 20000;
    CheckpointCache &cache = CheckpointCache::instance();
    cache.clear();

    ExperimentConfig cell = smallConfig(WorkloadKind::YcsbA,
                                        PolicyKind::MgLru, SwapKind::Ssd);
    cell.checkpointAt = kBoundary;
    runTrial(cell, 12345);
    const auto solo =
        cache.find(configPrefixHash(cell), 12345, kBoundary);
    ASSERT_NE(solo, nullptr);
    EXPECT_EQ(configPrefixHash(cell), 9449109304945610460ull);
    EXPECT_EQ(imageHash(*solo), 14305059465999215634ull);

    ColocationConfig colo;
    TenantSpec ycsb;
    ycsb.name = "ycsb";
    ycsb.workload = WorkloadKind::YcsbA;
    ycsb.lowRatio = 0.5;
    TenantSpec tpch;
    tpch.name = "tpch";
    tpch.workload = WorkloadKind::Tpch;
    tpch.policy = PolicyKind::Clock;
    tpch.maxRatio = 0.6;
    colo.tenants = {ycsb, tpch};
    colo.checkpointAt = kBoundary;
    runColocationTrial(colo, 7);
    const auto multi =
        cache.find(colocationPrefixHash(colo), 7, kBoundary);
    ASSERT_NE(multi, nullptr);
    EXPECT_EQ(colocationPrefixHash(colo), 46510948456541419ull);
    EXPECT_EQ(imageHash(*multi), 2615945200018516123ull);
    cache.clear();
}

TEST(CheckpointWarmup, FunctionalWarmupDeterministicAndCacheable)
{
    ExperimentConfig cfg = smallConfig(WorkloadKind::YcsbA,
                                       PolicyKind::MgLru, SwapKind::Ssd);
    const TrialResult straight = runTrial(cfg, 12345);
    ASSERT_GT(straight.totalTouches, 0u);
    cfg.warmupRefs = straight.totalTouches / 2;

    // Functional-only warmup is a deliberate MODEL change (the warmup
    // prefix runs at zero device detail), so it shifts timing relative
    // to straight execution — but it must shift it deterministically.
    CheckpointCache::instance().clear();
    const TrialResult a = runTrial(cfg, 12345);
    const TrialResult b = runTrial(cfg, 12345);
    EXPECT_EQ(fingerprint(a), fingerprint(b));
    EXPECT_NE(fingerprint(a), fingerprint(straight))
        << "functional warmup should suppress device detail";
    // (totalTouches may legitimately differ from the straight run:
    // zero-detail faults change thread interleaving, and YCSB's touch
    // count per op depends on the shared-structure layout that
    // interleaving produces. Determinism, not equality, is the
    // contract here.)

    // And it composes with checkpointing: a restore of the warmed
    // boundary reproduces the warmed run exactly.
    cfg.checkpointAt = cfg.warmupRefs;
    CheckpointCache::instance().clear();
    const TrialResult cold = runTrial(cfg, 12345);
    const TrialResult warm = runTrial(cfg, 12345);
    EXPECT_GE(CheckpointCache::instance().hits(), 1u);
    EXPECT_EQ(fingerprint(cold), fingerprint(a));
    EXPECT_EQ(fingerprint(warm), fingerprint(a));
}

TEST(CheckpointSweep, WarmSweepRestoresInsteadOfResimulating)
{
    // A fig06-style capacity grid: each cell re-runs the same workload
    // prefix per (cell, seed). The first sweep populates the cache;
    // repeating it must restore every trial and change nothing.
    ExperimentConfig probe = smallConfig(WorkloadKind::YcsbA,
                                         PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t touches =
        runTrial(probe, trialSeed(probe, 0)).totalTouches;
    ASSERT_GT(touches, 0u);

    std::vector<ExperimentConfig> cells;
    for (double capacity : {0.5, 0.7}) {
        ExperimentConfig cell = probe;
        cell.capacityRatio = capacity;
        cell.trials = 2;
        cell.checkpointAt = touches / 2;
        cells.push_back(cell);
    }

    CheckpointCache &cache = CheckpointCache::instance();
    cache.clear();
    SweepOptions serial;
    serial.workers = 1;
    const std::vector<ExperimentResult> cold = runSweep(cells, serial);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 4u) << "2 cells x 2 trials, all cold";

    const std::vector<ExperimentResult> warm = runSweep(cells, serial);
    EXPECT_EQ(cache.hits(), 4u) << "every warm trial must restore";

    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t c = 0; c < cold.size(); ++c) {
        ASSERT_EQ(cold[c].trials.size(), warm[c].trials.size());
        for (std::size_t t = 0; t < cold[c].trials.size(); ++t)
            EXPECT_EQ(fingerprint(cold[c].trials[t]),
                      fingerprint(warm[c].trials[t]))
                << "cell " << c << " trial " << t;
    }
    cache.clear();
}

TEST(CheckpointSweep, DiskCacheSurvivesInMemoryClear)
{
    // PAGESIM_CHECKPOINT_DIR: the warmup must survive a process
    // boundary, modeled here by dropping the in-memory map. The dir is
    // private to this process and starts empty, so the cold trial
    // cannot load a previous run's image and the warm one can only
    // load what the cold one persisted.
    const std::string dir = ::testing::TempDir() + "pagesim-ckpt-disk-" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    setenv("PAGESIM_CHECKPOINT_DIR", dir.c_str(), 1);

    ExperimentConfig cfg = smallConfig(WorkloadKind::YcsbA,
                                       PolicyKind::MgLru, SwapKind::Ssd);
    const TrialResult straight = runTrial(cfg, 555);
    ASSERT_GT(straight.totalTouches, 0u);
    cfg.checkpointAt = straight.totalTouches / 2;

    CheckpointCache &cache = CheckpointCache::instance();
    cache.clear();
    const TrialResult cold = runTrial(cfg, 555); // persists to dir
    EXPECT_EQ(cache.diskLoads(), 0u) << "the dir started empty";
    cache.clear();                               // memory gone, disk stays
    const TrialResult warm = runTrial(cfg, 555);
    EXPECT_GE(cache.diskLoads(), 1u)
        << "warm run should have loaded the on-disk checkpoint";
    EXPECT_EQ(fingerprint(cold), fingerprint(straight));
    EXPECT_EQ(fingerprint(warm), fingerprint(straight));

    unsetenv("PAGESIM_CHECKPOINT_DIR");
    cache.clear();
    std::filesystem::remove_all(dir);
}

TEST(CheckpointCache, PrefixHashCoversMachineShapeOnly)
{
    const ExperimentConfig base = smallConfig(
        WorkloadKind::YcsbA, PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t h = configPrefixHash(base);

    // Machine-shaping fields move the hash...
    ExperimentConfig changed = base;
    changed.capacityRatio = 0.7;
    EXPECT_NE(configPrefixHash(changed), h);
    changed = base;
    changed.policy = PolicyKind::Clock;
    EXPECT_NE(configPrefixHash(changed), h);
    changed = base;
    changed.warmupRefs = 1000;
    EXPECT_NE(configPrefixHash(changed), h)
        << "functional warmup changes the machine's evolution";

    // ...fields keyed elsewhere (or not perturbing the prefix) do not.
    changed = base;
    changed.trials = 9;
    changed.baseSeed = 42;
    changed.checkpointAt = 1234;
    EXPECT_EQ(configPrefixHash(changed), h)
        << "trials/seed/boundary are keyed outside the prefix hash";
}

// ---------------------------------------------------------------------
// Corruption: every damaged image is rejected with the right structured
// error, and a rejected restore applies ZERO state.
// ---------------------------------------------------------------------

/**
 * Build a rig, park it at its checkpointAt boundary, capture a
 * checkpoint. The boundary also keeps the rig's observers detached.
 */
Checkpoint
captureAtBoundary(const ExperimentConfig &cfg, std::uint64_t seed)
{
    TrialRig rig(cfg, seed, TrialRigOptions{});
    std::uint64_t used = 0;
    EXPECT_TRUE(rig.runToBoundary(cfg.checkpointAt, kMaxEvents, used));
    Checkpoint ckpt;
    const CheckpointError err = captureCheckpoint(
        rig.view(), configPrefixHash(cfg), seed, cfg.checkpointAt, ckpt);
    EXPECT_TRUE(err.ok()) << err.message;
    return ckpt;
}

TEST(CheckpointCorruption, RejectedImagesApplyNothing)
{
    ExperimentConfig cfg = smallConfig(WorkloadKind::YcsbA,
                                       PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t seed = 12345;
    const std::uint64_t hash = configPrefixHash(cfg);
    const TrialResult straight = runTrial(cfg, seed);
    ASSERT_GT(straight.totalTouches, 0u);
    cfg.checkpointAt = straight.totalTouches / 2;
    const Checkpoint good = captureAtBoundary(cfg, seed);
    ASSERT_GT(good.bytes.size(), 64u);

    // Fixed image offsets (format frozen at kCheckpointVersion = 1):
    // magic u64 @0, version u32 @8, first section's name-length u32
    // @48 and name bytes @52 ("sim").
    ASSERT_EQ(good.bytes[8], 1u) << "version field moved?";
    ASSERT_EQ(good.bytes[48], 3u) << "first section name-length moved?";
    ASSERT_EQ(good.bytes[52], static_cast<std::uint8_t>('s'));

    struct Case
    {
        const char *name;
        void (*corrupt)(std::vector<std::uint8_t> &);
        CheckpointError::Kind want;
    };
    const Case cases[] = {
        {"truncated-header",
         [](std::vector<std::uint8_t> &b) { b.resize(10); },
         CheckpointError::Kind::Truncated},
        {"truncated-payload",
         [](std::vector<std::uint8_t> &b) { b.resize(b.size() - 5); },
         CheckpointError::Kind::Truncated},
        {"bad-magic",
         [](std::vector<std::uint8_t> &b) { b[0] ^= 0xff; },
         CheckpointError::Kind::BadMagic},
        {"version-skew",
         [](std::vector<std::uint8_t> &b) { b[8] = 2; },
         CheckpointError::Kind::VersionMismatch},
        {"flipped-payload-byte",
         [](std::vector<std::uint8_t> &b) { b[b.size() - 1] ^= 0x01; },
         CheckpointError::Kind::FingerprintMismatch},
        {"renamed-section",
         [](std::vector<std::uint8_t> &b) { b[52] = 'x'; },
         CheckpointError::Kind::SectionMissing},
    };

    for (const Case &c : cases) {
        Checkpoint bad = good;
        c.corrupt(bad.bytes);

        TrialRig rig(cfg, seed, TrialRigOptions{/*forRestore=*/true});
        const CheckpointError err =
            restoreCheckpoint(rig.view(), hash, seed, bad);
        EXPECT_EQ(err.kind, c.want) << c.name;
        EXPECT_FALSE(err.message.empty()) << c.name;

        // Zero partial state: the SAME rig still restores cleanly from
        // the pristine image — a half-applied reject would not.
        const CheckpointError retry =
            restoreCheckpoint(rig.view(), hash, seed, good);
        EXPECT_TRUE(retry.ok()) << c.name << ": " << retry.message;
    }

    // Key mismatches are structured too: wrong producer config...
    {
        TrialRig rig(cfg, seed, TrialRigOptions{/*forRestore=*/true});
        EXPECT_EQ(restoreCheckpoint(rig.view(), hash ^ 1, seed, good)
                      .kind,
                  CheckpointError::Kind::ConfigMismatch);
        // ...or wrong trial seed.
        EXPECT_EQ(restoreCheckpoint(rig.view(), hash, seed + 1, good)
                      .kind,
                  CheckpointError::Kind::ConfigMismatch);
    }
}

TEST(CheckpointCorruption, FileRoundTripAndDiskErrors)
{
    ExperimentConfig cfg = smallConfig(WorkloadKind::YcsbA,
                                       PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t seed = 12345;
    const TrialResult straight = runTrial(cfg, seed);
    cfg.checkpointAt = straight.totalTouches / 2;
    const Checkpoint good = captureAtBoundary(cfg, seed);

    const std::string path =
        ::testing::TempDir() + "pagesim-ckpt-roundtrip-" +
        std::to_string(::getpid()) + ".bin";
    // Another writer's half-written temp file (a directory stands in
    // for it) must not make this save fail: processes sharing a
    // checkpoint directory never reuse each other's temp names.
    const std::string foreign_tmp = path + ".tmp0";
    std::filesystem::create_directory(foreign_tmp);
    ASSERT_TRUE(saveCheckpointFile(path, good).ok());
    std::filesystem::remove(foreign_tmp);

    Checkpoint loaded;
    const CheckpointError err = loadCheckpointFile(path, loaded);
    ASSERT_TRUE(err.ok()) << err.message;
    EXPECT_EQ(loaded.bytes, good.bytes);
    EXPECT_EQ(loaded.configHash, good.configHash);
    EXPECT_EQ(loaded.seed, good.seed);
    EXPECT_EQ(loaded.when, good.when);
    EXPECT_EQ(loaded.refs, good.refs);

    // A file truncated on disk fails at LOAD time: the layout parse
    // finds a section running past the end, so no fingerprint needs
    // hashing and restore never sees the image.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(good.bytes.data()),
                  static_cast<std::streamsize>(good.bytes.size() / 2));
    }
    Checkpoint half;
    EXPECT_EQ(loadCheckpointFile(path, half).kind,
              CheckpointError::Kind::Truncated);

    Checkpoint missing;
    EXPECT_EQ(loadCheckpointFile(::testing::TempDir() +
                                     "pagesim-ckpt-does-not-exist.bin",
                                 missing)
                  .kind,
              CheckpointError::Kind::Io);
    std::remove(path.c_str());
}

/** Little-endian unsigned integer of @p width bytes at @p at. */
std::uint64_t
readLe(const std::vector<std::uint8_t> &b, std::size_t at, int width)
{
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i)
        v |= static_cast<std::uint64_t>(b[at + i]) << (8 * i);
    return v;
}

/**
 * Payload offset and length of section @p name in image @p b; the
 * section's fingerprint is the u64 just before the payload.
 */
std::size_t
sectionPayload(const std::vector<std::uint8_t> &b, const std::string &name,
               std::uint64_t &len)
{
    // Header: magic u64, version u32, hash/seed/when/refs u64 each,
    // then the u32 section count.
    std::size_t off = 44;
    const std::uint64_t count = readLe(b, off, 4);
    off += 4;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::size_t name_len = readLe(b, off, 4);
        off += 4;
        const std::string sec(b.begin() + off, b.begin() + off + name_len);
        off += name_len;
        len = readLe(b, off, 8);
        off += 16; // payload length, fingerprint
        if (sec == name)
            return off;
        off += len;
    }
    ADD_FAILURE() << "image has no section '" << name << "'";
    return 0;
}

TEST(CheckpointCorruption, OutOfRangeEnumIsADecodeError)
{
    // A section whose bytes were edited and re-fingerprinted passes
    // every parse-time check, so a value's range is the state body's
    // to check: an actor state byte past the last enumerator must
    // fail the restore instead of loading an invalid state.
    ExperimentConfig cfg = smallConfig(WorkloadKind::YcsbA,
                                       PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t seed = 12345;
    const TrialResult straight = runTrial(cfg, seed);
    cfg.checkpointAt = straight.totalTouches / 2;
    Checkpoint bad = captureAtBoundary(cfg, seed);

    std::uint64_t len = 0;
    const std::size_t payload = sectionPayload(bad.bytes, "actors", len);
    ASSERT_GT(len, 13u);
    // Actors payload: u32 count, then per actor a u64 record length
    // and the record, whose first byte is SimActor's state.
    bad.bytes[payload + 4 + 8] = 0xFF;
    const std::uint64_t fp = fnv1a(&bad.bytes[payload], len);
    for (int i = 0; i < 8; ++i)
        bad.bytes[payload - 8 + i] =
            static_cast<std::uint8_t>(fp >> (8 * i));

    TrialRig rig(cfg, seed, TrialRigOptions{/*forRestore=*/true});
    const CheckpointError err =
        restoreCheckpoint(rig.view(), configPrefixHash(cfg), seed, bad);
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(err.kind, CheckpointError::Kind::Unsupported)
        << err.message;
}

/** Flip one byte in the middle of the frames payload of file @p path. */
void
flipFramesByteOnDisk(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    std::uint64_t len = 0;
    const std::size_t payload = sectionPayload(bytes, "frames", len);
    ASSERT_GT(len, 0u);
    bytes[payload + len / 2] ^= 0x01;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointCorruption, FlippedByteOnDiskIsRejectedAtRestore)
{
    // The file load checks only the layout; a flipped payload byte
    // keeps the layout intact, so it loads and is caught by restore's
    // fingerprint check before anything is applied.
    ExperimentConfig cfg = smallConfig(WorkloadKind::YcsbA,
                                       PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t seed = 12345;
    const std::uint64_t hash = configPrefixHash(cfg);
    const TrialResult straight = runTrial(cfg, seed);
    cfg.checkpointAt = straight.totalTouches / 2;
    const Checkpoint good = captureAtBoundary(cfg, seed);

    const std::string path =
        ::testing::TempDir() + "pagesim-ckpt-flipped-" +
        std::to_string(::getpid()) + ".bin";
    ASSERT_TRUE(saveCheckpointFile(path, good).ok());
    flipFramesByteOnDisk(path);

    Checkpoint loaded;
    const CheckpointError load = loadCheckpointFile(path, loaded);
    std::remove(path.c_str());
    ASSERT_TRUE(load.ok()) << load.message;
    EXPECT_NE(loaded.bytes, good.bytes);

    TrialRig rig(cfg, seed, TrialRigOptions{/*forRestore=*/true});
    const CheckpointError err =
        restoreCheckpoint(rig.view(), hash, seed, loaded);
    EXPECT_EQ(err.kind, CheckpointError::Kind::FingerprintMismatch)
        << err.message;
    const CheckpointError retry =
        restoreCheckpoint(rig.view(), hash, seed, good);
    EXPECT_TRUE(retry.ok()) << "the rejected image applied state: "
                            << retry.message;
}

TEST(CheckpointCorruption, FirstMismatchInSectionOrderIsReported)
{
    // Restore hashes every section before it compares any stored
    // fingerprint, but the error names the first damaged section in
    // image order: spaces precedes frames, the section hashed beside
    // all the others.
    ExperimentConfig cfg = smallConfig(WorkloadKind::YcsbA,
                                       PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t seed = 12345;
    const std::uint64_t hash = configPrefixHash(cfg);
    const TrialResult straight = runTrial(cfg, seed);
    cfg.checkpointAt = straight.totalTouches / 2;
    const Checkpoint good = captureAtBoundary(cfg, seed);

    Checkpoint bad = good;
    for (const char *name : {"frames", "spaces"}) {
        std::uint64_t len = 0;
        const std::size_t payload = sectionPayload(bad.bytes, name, len);
        ASSERT_GT(len, 0u) << name;
        bad.bytes[payload + len / 2] ^= 0x01;

        TrialRig rig(cfg, seed, TrialRigOptions{/*forRestore=*/true});
        const CheckpointError err =
            restoreCheckpoint(rig.view(), hash, seed, bad);
        EXPECT_EQ(err.kind, CheckpointError::Kind::FingerprintMismatch)
            << err.message;
        EXPECT_EQ(err.message,
                  std::string("section '") + name +
                      "' fingerprint mismatch");
        const CheckpointError retry =
            restoreCheckpoint(rig.view(), hash, seed, good);
        EXPECT_TRUE(retry.ok()) << "the rejected image applied state: "
                                << retry.message;
    }
}

TEST(CheckpointSweep, FailedRenameLeavesNoTempFile)
{
    // Disk-tier fault injection: the image's file name is taken by a
    // non-empty directory, so renaming the fully written temp file
    // fails. The save reports Io and removes its temp file; the
    // cache's best-effort persistence shrugs the failure off, and the
    // trial, cold and warm, still gives the straight-through result.
    const std::string dir = ::testing::TempDir() +
                            "pagesim-ckpt-failed-rename-" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    setenv("PAGESIM_CHECKPOINT_DIR", dir.c_str(), 1);

    ExperimentConfig cfg = smallConfig(WorkloadKind::YcsbA,
                                       PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t seed = 777;
    const TrialResult straight = runTrial(cfg, seed);
    ASSERT_GT(straight.totalTouches, 0u);
    const std::uint64_t want = fingerprint(straight);
    cfg.checkpointAt = straight.totalTouches / 2;

    CheckpointCache &cache = CheckpointCache::instance();
    cache.clear();
    runTrial(cfg, seed); // persists the one image, naming its file
    std::vector<std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files.push_back(entry.path().string());
    ASSERT_EQ(files.size(), 1u);
    const std::string path = files.front();
    Checkpoint ckpt;
    ASSERT_TRUE(loadCheckpointFile(path, ckpt).ok());

    std::filesystem::remove(path);
    std::filesystem::create_directory(path);
    std::ofstream(path + "/occupant") << "not a checkpoint\n";

    const CheckpointError save = saveCheckpointFile(path, ckpt);
    EXPECT_EQ(save.kind, CheckpointError::Kind::Io) << save.message;

    cache.clear();
    const TrialResult cold = runTrial(cfg, seed);
    EXPECT_EQ(fingerprint(cold), want);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.diskLoads(), 0u);
    const TrialResult warm = runTrial(cfg, seed);
    EXPECT_EQ(fingerprint(warm), want);
    EXPECT_EQ(cache.hits(), 1u);

    std::vector<std::string> left;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        left.push_back(entry.path().filename().string());
    EXPECT_EQ(left, std::vector<std::string>{
                        std::filesystem::path(path).filename().string()})
        << "a temp file outlived its failed rename";
    EXPECT_TRUE(std::filesystem::exists(path + "/occupant"));

    unsetenv("PAGESIM_CHECKPOINT_DIR");
    cache.clear();
    std::filesystem::remove_all(dir);
}

TEST(CheckpointSweep, CorruptDiskImageIsReplaced)
{
    // Disk-tier fault injection: a persisted image with one corrupt
    // payload byte is rejected at restore, the trial re-simulates
    // cold, and the re-captured image overwrites the corrupt file, so
    // the next lookup loads a good image instead of failing again.
    const std::string dir = ::testing::TempDir() +
                            "pagesim-ckpt-corrupt-disk-" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    setenv("PAGESIM_CHECKPOINT_DIR", dir.c_str(), 1);

    ExperimentConfig cfg = smallConfig(WorkloadKind::YcsbA,
                                       PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t seed = 555;
    const TrialResult straight = runTrial(cfg, seed);
    ASSERT_GT(straight.totalTouches, 0u);
    const std::uint64_t want = fingerprint(straight);
    cfg.checkpointAt = straight.totalTouches / 2;

    CheckpointCache &cache = CheckpointCache::instance();
    cache.clear();
    runTrial(cfg, seed); // persists the one image to dir
    std::vector<std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files.push_back(entry.path().string());
    ASSERT_EQ(files.size(), 1u);
    const std::string path = files.front();
    flipFramesByteOnDisk(path);

    cache.clear();
    const TrialResult recovered = runTrial(cfg, seed);
    EXPECT_EQ(fingerprint(recovered), want)
        << "a corrupt image must fall back to cold simulation";
    EXPECT_EQ(cache.diskLoads(), 1u)
        << "the corrupt image's layout is intact, so it loads";

    // The re-captured image replaced the corrupt file.
    Checkpoint replaced;
    const CheckpointError load = loadCheckpointFile(path, replaced);
    ASSERT_TRUE(load.ok()) << load.message;
    {
        TrialRig rig(cfg, seed, TrialRigOptions{/*forRestore=*/true});
        const CheckpointError err = restoreCheckpoint(
            rig.view(), configPrefixHash(cfg), seed, replaced);
        EXPECT_TRUE(err.ok()) << err.message;
    }

    cache.clear();
    const TrialResult warm = runTrial(cfg, seed);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.diskLoads(), 1u);
    EXPECT_EQ(fingerprint(warm), want);

    unsetenv("PAGESIM_CHECKPOINT_DIR");
    cache.clear();
    std::filesystem::remove_all(dir);
}

TEST(CheckpointCorruption, CaptureRefusedOffQuiescentPoint)
{
    // A live metrics collector schedules sampler events the image
    // cannot carry; capture must refuse rather than emit a snapshot
    // that restores into a different event population.
    ExperimentConfig cfg = smallConfig(WorkloadKind::YcsbA,
                                       PolicyKind::MgLru, SwapKind::Ssd);
    cfg.metrics.mode = MetricsMode::Counters;
    TrialRig rig(cfg, 12345, TrialRigOptions{});
    Checkpoint out;
    const CheckpointError err =
        captureCheckpoint(rig.view(), configPrefixHash(cfg), 12345, 0, out);
    EXPECT_EQ(err.kind, CheckpointError::Kind::NotQuiescent);
    EXPECT_FALSE(err.message.empty());
}

} // namespace
} // namespace pagesim
