#include "harness/trial_rig.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "kernel/mm_metrics.hh"
#include "swap/ssd_device.hh"
#include "swap/zram_device.hh"

namespace pagesim
{

namespace
{

/** Watermark in frames from a footprint-relative ratio (0 = off). */
std::uint32_t
ratioFrames(double ratio, std::uint64_t footprint, std::uint32_t off)
{
    if (ratio <= 0.0)
        return off;
    return std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(static_cast<double>(footprint) *
                                      ratio));
}

/**
 * A paper cell as a one-tenant machine. The tenant's memcg is the
 * unlimited root group unless limit ratios are set; then it is the
 * lone "workload" group those ratios bound (limit-reclaim and
 * throttling studies).
 */
ColocationConfig
soloMachine(const ExperimentConfig &config)
{
    TenantSpec tenant;
    tenant.name = config.memcgLimitsConfigured() ? "workload" : "root";
    tenant.workload = config.workload;
    tenant.scale = config.scale;
    tenant.lowRatio = config.memcgLowRatio;
    tenant.highRatio = config.memcgHighRatio;
    tenant.maxRatio = config.memcgMaxRatio;

    ColocationConfig machine;
    machine.tenants = {tenant};
    machine.policy = config.policy;
    machine.swap = config.swap;
    machine.capacityRatio = config.capacityRatio;
    machine.trials = config.trials;
    machine.baseSeed = config.baseSeed;
    machine.numCpus = config.numCpus;
    machine.mgTweak = config.mgTweak;
    machine.metrics = config.metrics;
    machine.warmupRefs = config.warmupRefs;
    machine.checkpointAt = config.checkpointAt;
    return machine;
}

} // namespace

TrialRig::TrialRig(const ExperimentConfig &config,
                   std::uint64_t trial_seed, const TrialRigOptions &opts)
    : TrialRig(soloMachine(config), config.slowTierRatio, /*solo=*/true,
               trial_seed, opts)
{
}

TrialRig::TrialRig(const ColocationConfig &config,
                   std::uint64_t trial_seed, const TrialRigOptions &opts)
    : TrialRig(config, /*slow_tier_ratio=*/0.0, /*solo=*/false,
               trial_seed, opts)
{
}

TrialRig::TrialRig(ColocationConfig machine, double slow_tier_ratio,
                   bool solo, std::uint64_t trial_seed,
                   const TrialRigOptions &opts)
    : config(std::move(machine)), sim(config.numCpus, trial_seed),
      tenants(config.tenants.size())
{
    assert(!config.tenants.empty());
    // RNG stream suffix of tenant i; see the file comment.
    const auto streamOf = [this, solo](std::size_t i) {
        return solo ? std::string() : "-" + config.tenants[i].name;
    };

    // --- Assemble one simulated machine (= one boot). ---------------
    std::uint64_t footprint = 0; // summed over tenants
    for (std::size_t i = 0; i < config.tenants.size(); ++i) {
        const TenantSpec &spec = config.tenants[i];
        Tenant &t = tenants[i];
        t.workload = makeWorkload(spec.workload, spec.scale);
        t.footprint = t.workload->footprintPages();
        footprint += t.footprint;
        t.space =
            std::make_unique<AddressSpace>(static_cast<uint32_t>(i));
        t.space->setMemcg(static_cast<MemcgId>(i));
        // Per-boot, per-tenant layout randomization (the paper reboots
        // per trial). Mixing the tenant index in keeps every tenant's
        // layout independent; tenant 0's seed is the single-tenant one.
        t.space->enableAslr(splitmix64(trial_seed ^ 0xa51a51a5ull ^
                                       (0x9e3779b97f4a7c15ull * i)));
    }

    mmConfig.totalFrames = static_cast<std::uint32_t>(
        static_cast<double>(footprint) * config.capacityRatio);
    // Cgroup-style capacity enforcement (the paper caps per-workload
    // memory): at the limit, reclaim happens in the faulting task;
    // the global kswapd only steps in as an emergency backstop, below
    // the direct-reclaim threshold (global memory isn't under
    // pressure when a cgroup hits its own limit).
    mmConfig.directReclaimBelow = std::max<std::uint32_t>(
        mmConfig.reclaimBatch, mmConfig.totalFrames / 256);
    mmConfig.lowWatermark = mmConfig.directReclaimBelow / 2;
    mmConfig.highWatermark = mmConfig.directReclaimBelow;
    mmConfig.swapSlots =
        static_cast<std::uint32_t>(footprint * 2 + 4096);
    if (config.swap == SwapKind::Zram)
        mmConfig.readaheadPages = 1; // page-cluster=0 for zram
    if (slow_tier_ratio > 0.0) {
        mmConfig.tier.slowFrames = static_cast<std::uint32_t>(
            static_cast<double>(footprint) * slow_tier_ratio);
    }

    frames = std::make_unique<FrameTable>(mmConfig.totalFrames);

    if (config.swap == SwapKind::Ssd) {
        device = std::make_unique<SsdSwapDevice>(sim.events(),
                                                 sim.forkRng("ssd"));
    } else {
        device = std::make_unique<ZramSwapDevice>();
    }
    swap = std::make_unique<SwapManager>(*device, mmConfig.swapSlots);

    // One lruvec per tenant: each policy instance sees only its own
    // tenant's space.
    const std::uint32_t frames_total = mmConfig.totalFrames;
    std::vector<MemcgSpec> specs;
    for (std::size_t i = 0; i < config.tenants.size(); ++i) {
        const TenantSpec &spec = config.tenants[i];
        Tenant &t = tenants[i];
        t.policy = makePolicy(
            spec.policy.value_or(config.policy), *frames,
            {t.space.get()}, mmConfig.costs,
            sim.forkRng("policy" + streamOf(i)),
            [frames_total, this](MgLruConfig &mg) {
                // Aging urgency scales with capacity: keep at least 1/8
                // of memory outside the youngest generation, and make
                // each generation represent ~1/16 of memory's worth of
                // reclaim.
                mg.agingLowPages =
                    std::max<std::uint64_t>(frames_total / 8, 256);
                mg.agingEvictGate =
                    std::max<std::uint64_t>(frames_total / 16, 64);
                if (config.mgTweak)
                    config.mgTweak(mg);
            },
            &sim.events());

        MemcgSpec ms;
        ms.config.name = spec.name;
        ms.config.low = ratioFrames(spec.lowRatio, t.footprint, 0);
        ms.config.high = ratioFrames(spec.highRatio, t.footprint,
                                     MemcgConfig::kNoLimit);
        ms.config.max = ratioFrames(spec.maxRatio, t.footprint,
                                    MemcgConfig::kNoLimit);
        ms.policy = t.policy.get();
        specs.push_back(std::move(ms));
    }

    if (const unsigned every = effectiveAuditEvery())
        mmConfig.auditEvery = every;

    mm = std::make_unique<MemoryManager>(sim, *frames, *swap, specs,
                                         mmConfig);
    if (!opts.forRestore && config.warmupRefs > 0)
        mm->setFunctionalMode(true);

    // Observability: without a boundary, attach before any fault can
    // happen so spans and the t=0 sample cover the whole trial (and the
    // event sequence stays byte-identical to the historical harness).
    // With one, attach at the boundary (driveTrial).
    metricsConfig = effectiveMetricsConfig(config.metrics);
    if (std::max(config.warmupRefs, config.checkpointAt) == 0)
        installObservers();

    kswapd = std::make_unique<Kswapd>(sim, *mm);
    mm->attachKswapd(kswapd.get());
    if (!opts.forRestore)
        kswapd->start();

    // MG-LRU aging runs in reclaim contexts (try_to_inc_max_seq has
    // no kthread of its own); under the cgroup-style limit those
    // contexts are the faulting tasks. The AgingDaemon class remains
    // available for configurations that want a dedicated walker
    // (see examples/tuning_walks).

    // The rest of the OS: per-boot background memory/CPU bursts.
    noise = std::make_unique<BackgroundNoise>(sim, *mm,
                                              sim.forkRng("noise"));
    if (!opts.forRestore)
        noise->start();

    // Build every tenant and start its threads, tenant-major.
    threads.resize(tenants.size());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        Tenant &t = tenants[i];
        WorkloadContext ctx;
        ctx.mm = mm.get();
        ctx.space = t.space.get();
        ctx.envSeed = splitmix64(trial_seed ^ 0xecedeul ^
                                 (0x9e3779b97f4a7c15ull * i));
        t.workload->build(ctx);

        Rng jitter = sim.forkRng("thread-start" + streamOf(i));
        for (unsigned tid = 0; tid < t.workload->numThreads(); ++tid) {
            threads[i].push_back(std::make_unique<WorkThread>(
                sim, *mm, *t.workload, *t.space, tid));
            // Per-boot scheduling jitter in thread start order. The
            // jitter stream is drawn even on a restore build (where no
            // thread starts) to keep construction-time RNG use
            // identical.
            const SimDuration delay = jitter.uniformInt(0, 20000);
            if (!opts.forRestore)
                threads[i].back()->start(delay);
        }
    }
}

std::uint64_t
TrialRig::totalRefs() const
{
    std::uint64_t refs = 0;
    for (const auto &tenant : threads)
        for (const auto &t : tenant)
            refs += t->threadStats().touches;
    return refs;
}

void
TrialRig::installObservers()
{
    if (observersInstalled_)
        return;
    observersInstalled_ = true;
    if (mmConfig.auditEvery > 0) {
        std::vector<const AddressSpace *> audit_spaces;
        for (const Tenant &t : tenants)
            audit_spaces.push_back(t.space.get());
        auditor = std::make_unique<MmAuditor>(*mm, audit_spaces);
        auditor->installPeriodic(/*hard_fail=*/true);
    }
    if (metricsConfig.enabled()) {
        collector = std::make_unique<MetricsCollector>(metricsConfig);
        attachStandardMetrics(*collector, *mm);
    }
}

RigView
TrialRig::view()
{
    RigView v;
    v.sim = &sim;
    v.mm = mm.get();
    v.frames = frames.get();
    v.swap = swap.get();
    for (Tenant &t : tenants) {
        v.spaces.push_back(t.space.get());
        v.workloads.push_back(t.workload.get());
    }
    v.actors.push_back(kswapd.get());
    v.actors.push_back(noise.get());
    for (const auto &tenant : threads)
        for (const auto &t : tenant)
            v.actors.push_back(t.get());
    return v;
}

bool
TrialRig::runToBoundary(std::uint64_t target_refs,
                        std::uint64_t max_events,
                        std::uint64_t &events_used)
{
    while (sim.foregroundRunning() > 0 && events_used < max_events) {
        if (totalRefs() >= target_refs && mm->quiescentForCheckpoint())
            return true;
        if (!sim.events().runOne())
            return false;
        ++events_used;
    }
    return false;
}

namespace
{

/** Event budget of one trial. */
constexpr std::uint64_t kMaxEvents = 2000000000ull;

std::uint64_t
prefixHash(const ExperimentConfig &config)
{
    return configPrefixHash(config);
}

std::uint64_t
prefixHash(const ColocationConfig &config)
{
    return colocationPrefixHash(config);
}

/**
 * Build a rig parked at the fast-forward boundary (max of warmupRefs
 * and checkpointAt, > 0). With a cacheable checkpointAt, a cached
 * snapshot short-circuits the warmup entirely: a forRestore rig is
 * rebuilt (construction only — empty event queue) and the snapshot
 * applied. Otherwise the machine is simulated to the boundary — in
 * functional-only mode while inside the warmupRefs window — and, if
 * cacheable, captured for the next caller. Observers attach only
 * after the boundary, so the warmup runs without metrics or audits
 * and capture/restore always sees a quiescent machine.
 */
template <class Config>
std::unique_ptr<TrialRig>
buildRigAtBoundary(const Config &config, std::uint64_t trial_seed,
                   std::uint64_t boundary, std::uint64_t &events_used)
{
    // An mgTweak hook changes the simulated machine in ways no key can
    // capture, so such configs never touch the cache (same rule as the
    // sweep-level ResultCache).
    const bool cacheable = config.checkpointAt > 0 && !config.mgTweak;
    const std::uint64_t hash = prefixHash(config);
    if (cacheable) {
        if (auto ckpt = CheckpointCache::instance().find(
                hash, trial_seed, boundary)) {
            auto rig = std::make_unique<TrialRig>(
                config, trial_seed, TrialRigOptions{/*forRestore=*/true});
            const CheckpointError err = restoreCheckpoint(
                rig->view(), hash, trial_seed, *ckpt);
            if (err.ok()) {
                rig->installObservers();
                return rig;
            }
            // A failed apply can leave partial state behind; the rig
            // is discarded wholesale and the trial re-simulated cold.
            std::fprintf(stderr,
                         "pagesim: checkpoint restore failed (%s: %s); "
                         "re-simulating\n",
                         checkpointErrorKindName(err.kind),
                         err.message.c_str());
        }
    }

    auto rig =
        std::make_unique<TrialRig>(config, trial_seed, TrialRigOptions{});
    const bool reached =
        rig->runToBoundary(boundary, kMaxEvents, events_used);
    // Full detail from here on — before the capture, so cold and
    // restored continuations run the identical machine.
    if (rig->mm->functionalMode())
        rig->mm->setFunctionalMode(false);
    if (reached && cacheable) {
        auto ckpt = std::make_shared<Checkpoint>();
        if (captureCheckpoint(rig->view(), hash, trial_seed, boundary,
                              *ckpt)
                .ok()) {
            CheckpointCache::instance().insert(std::move(ckpt));
        }
    }
    rig->installObservers();
    return rig;
}

} // namespace

template <class Config>
std::unique_ptr<TrialRig>
driveTrial(const Config &config, std::uint64_t trial_seed,
           MetricsSnapshot &metrics)
{
    const std::uint64_t boundary =
        std::max(config.warmupRefs, config.checkpointAt);
    std::uint64_t events_used = 0;
    std::unique_ptr<TrialRig> rig =
        boundary == 0
            ? std::make_unique<TrialRig>(config, trial_seed,
                                         TrialRigOptions{})
            : buildRigAtBoundary(config, trial_seed, boundary,
                                 events_used);

    if (!rig->sim.runToCompletion(kMaxEvents - events_used)) {
        std::fprintf(stderr,
                     "pagesim: trial %s seed %llu did not converge\n",
                     config.label().c_str(),
                     static_cast<unsigned long long>(trial_seed));
        std::abort();
    }

    if (rig->collector) {
        rig->collector->sampler().stop();
        metrics = rig->collector->snapshot(rig->sim.now());
        // One machine-wide artifact set per trial: a colocation's label
        // carries its tenant list, and per-tenant timeseries live
        // inside it as "memcg.<name>.*" columns.
        if (!rig->metricsConfig.artifactDir.empty()) {
            writeTrialArtifacts(rig->metricsConfig.artifactDir,
                                config.label(), trial_seed, metrics);
        }
    }
    return rig;
}

template std::unique_ptr<TrialRig>
driveTrial(const ExperimentConfig &, std::uint64_t, MetricsSnapshot &);
template std::unique_ptr<TrialRig>
driveTrial(const ColocationConfig &, std::uint64_t, MetricsSnapshot &);

double
meanLatencyNs(const LatencyHistogram &read,
              const LatencyHistogram &write)
{
    const std::uint64_t nreq = read.count() + write.count();
    if (nreq == 0)
        return 0.0;
    return (read.mean() * read.count() + write.mean() * write.count()) /
           static_cast<double>(nreq);
}

} // namespace pagesim
