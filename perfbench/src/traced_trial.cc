#include "traced_trial.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "graph/pagerank_workload.hh"
#include "harness/checkpoint.hh"
#include "kernel/background_noise.hh"
#include "kernel/kswapd.hh"
#include "kernel/memory_manager.hh"
#include "kv/ycsb_workload.hh"
#include "mem/address_space.hh"
#include "mem/frame_table.hh"
#include "policy/policy_factory.hh"
#include "sim/simulation.hh"
#include "swap/ssd_device.hh"
#include "swap/swap_manager.hh"
#include "swap/zram_device.hh"
#include "tpch/tpch_workload.hh"
#include "workload/work_thread.hh"

namespace perfbench
{

namespace
{

using namespace pagesim;

/** runTrial's event budget. */
constexpr std::uint64_t kMaxEvents = 2000000000ull;

[[noreturn]] void
fail(const char *what, const ExperimentConfig &config,
     std::uint64_t trial_seed)
{
    std::fprintf(stderr, "perfbench: traced trial %s seed %llu: %s\n",
                 config.label().c_str(),
                 static_cast<unsigned long long>(trial_seed), what);
    std::abort();
}

template <class P>
class TracedPolicy final : public P
{
  public:
    template <class... Args>
    explicit TracedPolicy(Tracer &tracer, Args &&...args)
        : P(std::forward<Args>(args)...), tracer_(tracer)
    {
    }

    void
    onPageResident(Pfn pfn, ResidencyKind kind,
                   std::uint32_t shadow) override
    {
        Span span(&tracer_, Layer::PolicyHook);
        P::onPageResident(pfn, kind, shadow);
    }

    std::uint32_t
    onPageRemoved(Pfn pfn) override
    {
        Span span(&tracer_, Layer::PolicyHook);
        return P::onPageRemoved(pfn);
    }

    std::size_t
    selectVictims(std::vector<Pfn> &out, std::size_t max,
                  CostSink &costs) override
    {
        Span span(&tracer_, Layer::PolicySelect);
        const std::size_t n = P::selectVictims(out, max, costs);
        tracer_.victimsAsked += max;
        tracer_.victimsReturned += n;
        return n;
    }

    void
    age(CostSink &costs) override
    {
        Span span(&tracer_, Layer::PolicyAge);
        P::age(costs);
    }

  private:
    Tracer &tracer_;
};

class TracedSsd final : public SsdSwapDevice
{
  public:
    TracedSsd(Tracer &tracer, EventQueue &events, Rng rng)
        : SsdSwapDevice(events, std::move(rng)), tracer_(tracer)
    {
    }

    void
    submit(SwapSlot slot, bool is_write, Callback cb) override
    {
        Span span(&tracer_, Layer::SwapSubmit);
        SsdSwapDevice::submit(slot, is_write, std::move(cb));
    }

  private:
    Tracer &tracer_;
};

class TracedZram final : public ZramSwapDevice
{
  public:
    explicit TracedZram(Tracer &tracer) : tracer_(tracer) {}

    SimDuration
    cpuCost(SwapSlot slot, bool is_write) const override
    {
        Span span(&tracer_, Layer::SwapCost);
        return ZramSwapDevice::cpuCost(slot, is_write);
    }

    void
    noteSyncOp(SwapSlot slot, bool is_write) override
    {
        Span span(&tracer_, Layer::SwapCost);
        ++tracer_.syncOps;
        ZramSwapDevice::noteSyncOp(slot, is_write);
    }

  private:
    Tracer &tracer_;
};

class TracedStream final : public OpStream
{
  public:
    TracedStream(Tracer &tracer, std::unique_ptr<OpStream> inner)
        : tracer_(tracer), inner_(std::move(inner))
    {
    }

    bool
    next(Op &op) override
    {
        Span span(&tracer_, Layer::WorkloadNext);
        return inner_->next(op);
    }

    void saveState(Sink &sink) const override { inner_->saveState(sink); }
    void restoreState(Source &src) override { inner_->restoreState(src); }

  private:
    Tracer &tracer_;
    std::unique_ptr<OpStream> inner_;
};

/** Takes over a workload makeWorkload built, so its datasets are the
 *  ones every fig binary uses. */
template <class W>
class TracedWorkload final : public W
{
  public:
    TracedWorkload(Tracer &tracer, W &&built)
        : W(std::move(built)), tracer_(tracer)
    {
    }

    void
    build(WorkloadContext &ctx) override
    {
        Span span(&tracer_, Layer::WorkloadBuild);
        W::build(ctx);
    }

    std::unique_ptr<OpStream>
    stream(unsigned tid) override
    {
        return std::make_unique<TracedStream>(tracer_, W::stream(tid));
    }

  private:
    Tracer &tracer_;
};

template <class W>
std::unique_ptr<Workload>
wrapAs(Tracer &tracer, Workload &built)
{
    auto *concrete = dynamic_cast<W *>(&built);
    if (concrete == nullptr)
        return nullptr;
    return std::make_unique<TracedWorkload<W>>(tracer,
                                               std::move(*concrete));
}

std::unique_ptr<Workload>
makeTracedWorkload(Tracer &tracer, const ExperimentConfig &config,
                   std::uint64_t trial_seed)
{
    std::unique_ptr<Workload> built =
        makeWorkload(config.workload, config.scale);
    std::unique_ptr<Workload> traced = wrapAs<YcsbWorkload>(tracer, *built);
    if (!traced)
        traced = wrapAs<TpchWorkload>(tracer, *built);
    if (!traced)
        traced = wrapAs<PageRankWorkload>(tracer, *built);
    if (!traced)
        fail("workload type has no traced wrapper", config, trial_seed);
    return traced;
}

/**
 * TrialRig's single-tenant build with traced layers. Members are in
 * TrialRig's construction order and the body follows its constructor
 * step for step (same RNG forks, same actor start order); observers
 * are left out because the benchmark pins metrics off and audits to 0.
 */
class TracedRig
{
  public:
    TracedRig(const ExperimentConfig &config, std::uint64_t trial_seed,
              bool for_restore, bool functional, Tracer &tracer)
        : sim(config.numCpus, trial_seed)
    {
        if (config.memcgLimitsConfigured() || config.slowTierRatio > 0.0)
            fail("memcg limits and tiering are not traced", config,
                 trial_seed);

        workload = makeTracedWorkload(tracer, config, trial_seed);
        const std::uint64_t footprint = workload->footprintPages();

        mmConfig.totalFrames = static_cast<std::uint32_t>(
            static_cast<double>(footprint) * config.capacityRatio);
        mmConfig.directReclaimBelow = std::max<std::uint32_t>(
            mmConfig.reclaimBatch, mmConfig.totalFrames / 256);
        mmConfig.lowWatermark = mmConfig.directReclaimBelow / 2;
        mmConfig.highWatermark = mmConfig.directReclaimBelow;
        mmConfig.swapSlots =
            static_cast<std::uint32_t>(footprint * 2 + 4096);
        if (config.swap == SwapKind::Zram)
            mmConfig.readaheadPages = 1;

        frames = std::make_unique<FrameTable>(mmConfig.totalFrames);
        space = std::make_unique<AddressSpace>(0);
        space->enableAslr(splitmix64(trial_seed ^ 0xa51a51a5ull));

        if (config.swap == SwapKind::Ssd) {
            device = std::make_unique<TracedSsd>(tracer, sim.events(),
                                                 sim.forkRng("ssd"));
        } else {
            device = std::make_unique<TracedZram>(tracer);
        }
        swap = std::make_unique<SwapManager>(*device, mmConfig.swapSlots);

        if (config.policy == PolicyKind::Clock) {
            policy = std::make_unique<TracedPolicy<ClockLru>>(
                tracer, *frames, mmConfig.costs);
        } else {
            MgLruConfig mg = mgLruConfigFor(config.policy);
            const std::uint32_t frames_total = mmConfig.totalFrames;
            mg.agingLowPages =
                std::max<std::uint64_t>(frames_total / 8, 256);
            mg.agingEvictGate =
                std::max<std::uint64_t>(frames_total / 16, 64);
            if (config.mgTweak)
                config.mgTweak(mg);
            auto traced = std::make_unique<TracedPolicy<MgLruPolicy>>(
                tracer, *frames, std::vector<AddressSpace *>{space.get()},
                mmConfig.costs, sim.forkRng("policy"), mg,
                policyKindName(config.policy), &sim.events());
            mglru = traced.get();
            policy = std::move(traced);
        }

        if (const unsigned every = effectiveAuditEvery())
            mmConfig.auditEvery = every;
        MemcgSpec root_spec;
        root_spec.policy = policy.get();
        mm = std::make_unique<MemoryManager>(
            sim, *frames, *swap, std::vector<MemcgSpec>{root_spec},
            mmConfig);
        if (functional)
            mm->setFunctionalMode(true);

        kswapd = std::make_unique<Kswapd>(sim, *mm);
        mm->attachKswapd(kswapd.get());
        if (!for_restore)
            kswapd->start();

        noise = std::make_unique<BackgroundNoise>(sim, *mm,
                                                  sim.forkRng("noise"));
        if (!for_restore)
            noise->start();

        WorkloadContext ctx;
        ctx.mm = mm.get();
        ctx.space = space.get();
        ctx.envSeed = splitmix64(trial_seed ^ 0xecedeul);
        workload->build(ctx);

        Rng start_jitter = sim.forkRng("thread-start");
        for (unsigned tid = 0; tid < workload->numThreads(); ++tid) {
            threads.push_back(std::make_unique<WorkThread>(
                sim, *mm, *workload, *space, tid));
            const SimDuration jitter = start_jitter.uniformInt(0, 20000);
            if (!for_restore)
                threads.back()->start(jitter);
        }
    }

    TracedRig(const TracedRig &) = delete;
    TracedRig &operator=(const TracedRig &) = delete;

    std::uint64_t
    totalRefs() const
    {
        std::uint64_t refs = 0;
        for (const auto &t : threads)
            refs += t->threadStats().touches;
        return refs;
    }

    RigView
    view()
    {
        RigView v;
        v.sim = &sim;
        v.mm = mm.get();
        v.frames = frames.get();
        v.swap = swap.get();
        v.spaces = {space.get()};
        v.workloads = {workload.get()};
        v.actors.push_back(kswapd.get());
        v.actors.push_back(noise.get());
        for (const auto &t : threads)
            v.actors.push_back(t.get());
        return v;
    }

    /** TrialRig::runToBoundary. */
    bool
    runToBoundary(std::uint64_t target_refs)
    {
        std::uint64_t events = 0;
        while (sim.foregroundRunning() > 0 && events < kMaxEvents) {
            if (totalRefs() >= target_refs && mm->quiescentForCheckpoint())
                return true;
            if (!sim.events().runOne())
                return false;
            ++events;
        }
        return false;
    }

    /** runTrial's result collection. */
    TrialResult
    collect()
    {
        TrialResult r;
        r.kernel = mm->stats();
        r.policy = policy->stats();
        r.swap = device->stats();
        r.tier = mm->tierStats();
        if (mglru != nullptr)
            r.mglru = mglru->mgStats();
        r.kswapdCpuNs = kswapd->cpuWork();
        for (const auto &t : threads) {
            r.threadFinishNs.push_back(t->threadStats().finishTime);
            r.threadBlockedFaults.push_back(
                t->threadStats().blockedFaults);
        }
        r.totalTouches = totalRefs();

        if (auto *ycsb = dynamic_cast<YcsbWorkload *>(workload.get())) {
            r.runtimeNs = sim.now() - ycsb->measureStart();
            r.majorFaults =
                mm->stats().majorFaults - ycsb->faultsAtMeasureStart();
            r.readLatency = ycsb->readLatency();
            r.writeLatency = ycsb->writeLatency();
            const std::uint64_t nreq =
                r.readLatency.count() + r.writeLatency.count();
            if (nreq > 0) {
                r.meanRequestNs =
                    (r.readLatency.mean() * r.readLatency.count() +
                     r.writeLatency.mean() * r.writeLatency.count()) /
                    static_cast<double>(nreq);
            }
        } else {
            r.runtimeNs = sim.now();
            r.majorFaults = mm->stats().majorFaults;
        }
        return r;
    }

    MmConfig mmConfig;
    Simulation sim;
    std::unique_ptr<Workload> workload;
    std::unique_ptr<FrameTable> frames;
    std::unique_ptr<AddressSpace> space;
    std::unique_ptr<SwapDevice> device;
    std::unique_ptr<SwapManager> swap;
    std::unique_ptr<ReplacementPolicy> policy;
    /** The policy as MG-LRU, or null under Clock. */
    MgLruPolicy *mglru = nullptr;
    std::unique_ptr<MemoryManager> mm;
    std::unique_ptr<Kswapd> kswapd;
    std::unique_ptr<BackgroundNoise> noise;
    std::vector<std::unique_ptr<WorkThread>> threads;
};

std::uint64_t
boundaryOf(const ExperimentConfig &config)
{
    return std::max(config.warmupRefs, config.checkpointAt);
}

FaultStats
minus(const FaultStats &a, const FaultStats &b)
{
    FaultStats d;
    d.majorFaults = a.majorFaults - b.majorFaults;
    d.minorFaults = a.minorFaults - b.minorFaults;
    d.evictions = a.evictions - b.evictions;
    d.directReclaims = a.directReclaims - b.directReclaims;
    d.readaheadReads = a.readaheadReads - b.readaheadReads;
    d.readaheadHits = a.readaheadHits - b.readaheadHits;
    return d;
}

PolicyStats
minus(const PolicyStats &a, const PolicyStats &b)
{
    PolicyStats d;
    d.ptesScanned = a.ptesScanned - b.ptesScanned;
    d.regionsVisited = a.regionsVisited - b.regionsVisited;
    d.regionsSkipped = a.regionsSkipped - b.regionsSkipped;
    d.rmapWalks = a.rmapWalks - b.rmapWalks;
    d.evicted = a.evicted - b.evicted;
    d.secondChances = a.secondChances - b.secondChances;
    return d;
}

} // namespace

TrialResult
runTracedTrial(const ExperimentConfig &config, std::uint64_t trial_seed,
               const std::string &image_path, Tracer &tracer,
               TracedWork &work)
{
    const bool restore = boundaryOf(config) > 0;
    std::unique_ptr<TracedRig> rig;
    {
        Span span(&tracer, Layer::Rig);
        rig = std::make_unique<TracedRig>(config, trial_seed, restore,
                                          /*functional=*/false, tracer);
    }
    if (restore) {
        Checkpoint ckpt;
        {
            Span span(&tracer, Layer::CkptLoad);
            if (!loadCheckpointFile(image_path, ckpt).ok())
                fail("checkpoint image unreadable", config, trial_seed);
        }
        {
            Span span(&tracer, Layer::CkptRestore);
            if (!restoreCheckpoint(rig->view(), configPrefixHash(config),
                                   trial_seed, ckpt)
                     .ok())
                fail("checkpoint restore failed", config, trial_seed);
        }
        work.imageBytes = ckpt.bytes.size();
    }

    const FaultStats kernel0 = rig->mm->stats();
    const PolicyStats policy0 = rig->policy->stats();
    const std::uint64_t events0 = rig->sim.events().dispatched();
    const std::uint64_t touches0 = rig->totalRefs();
    {
        Span span(&tracer, Layer::SimRun);
        if (!rig->sim.runToCompletion(kMaxEvents))
            fail("did not converge", config, trial_seed);
    }
    work.events = rig->sim.events().dispatched() - events0;
    work.touches = rig->totalRefs() - touches0;
    work.kernel = minus(rig->mm->stats(), kernel0);
    work.policy = minus(rig->policy->stats(), policy0);

    TrialResult r;
    {
        Span span(&tracer, Layer::Collect);
        r = rig->collect();
    }
    {
        Span span(&tracer, Layer::Rig);
        rig.reset();
    }
    return r;
}

bool
captureTraced(const ExperimentConfig &config, std::uint64_t trial_seed,
              Tracer &tracer)
{
    std::unique_ptr<TracedRig> rig;
    {
        Span span(&tracer, Layer::Rig);
        rig = std::make_unique<TracedRig>(config, trial_seed,
                                          /*for_restore=*/false,
                                          config.warmupRefs > 0, tracer);
    }
    bool reached = false;
    {
        Span span(&tracer, Layer::SimRun);
        reached = rig->runToBoundary(boundaryOf(config));
    }
    if (rig->mm->functionalMode())
        rig->mm->setFunctionalMode(false);
    if (reached) {
        Span span(&tracer, Layer::CkptCapture);
        auto ckpt = std::make_shared<Checkpoint>();
        reached = captureCheckpoint(rig->view(), configPrefixHash(config),
                                    trial_seed, boundaryOf(config), *ckpt)
                      .ok();
        if (reached)
            CheckpointCache::instance().insert(std::move(ckpt));
    }
    {
        Span span(&tracer, Layer::Rig);
        rig.reset();
    }
    return reached;
}

} // namespace perfbench
