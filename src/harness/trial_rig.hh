/**
 * @file
 * TrialRig: one assembled simulated machine as an object, and the one
 * drive step every trial shape shares.
 *
 * The paper reboots before each execution, so every trial is a freshly
 * assembled machine. There is one assembly: an N-tenant machine, each
 * tenant a workload with its own address space, policy instance
 * (lruvec) and memcg, over one frame table, swap device, kswapd and
 * background-noise source. A colocation scenario (ColocationConfig)
 * maps onto it tenant for tenant. A paper cell (ExperimentConfig) is a
 * one-tenant colocation in the root memcg — named "workload" instead
 * of "root" when limit ratios are set — whose slowTierRatio sizes
 * the machine-wide slow tier. Colocation machines run untiered.
 *
 * Stream names: Simulation::forkRng is a pure function of the stream
 * name, so the names alone (not the fork order) decide what a tenant
 * draws. The lone tenant of a paper cell keeps the legacy names
 * "policy" and "thread-start"; a colocation tenant draws
 * "policy-<name>" and "thread-start-<name>", so adding a tenant never
 * perturbs another's streams. ASLR and env seeds mix in the tenant
 * index, which leaves tenant 0's equal to the single-tenant ones.
 * Together these keep the pinned single-tenant fingerprints
 * (bit_identity_test.cpp) unchanged by the one-rig design.
 *
 * Members are declared in construction order, and construction
 * replays the same component sequence for the same seed, so a restore
 * rig lands every RNG fork and derived parameter identically. The
 * only build option is forRestore: build everything but start no
 * actors, leaving the event queue empty for restoreCheckpoint() to
 * repopulate. The other fast-forward choices derive from the config:
 *
 *  - a trial with a boundary, max(warmupRefs, checkpointAt) > 0,
 *    leaves the auditor and metrics detached at build and attaches
 *    them at the boundary (a live collector vetoes quiescence);
 *    without one they attach before any fault, so spans and the t=0
 *    sample cover the whole trial;
 *  - a rig that is not a restore target and has warmupRefs > 0
 *    starts in functional-only mode, so the warmup prefix runs with
 *    zero simulated device detail.
 */

#ifndef PAGESIM_HARNESS_TRIAL_RIG_HH
#define PAGESIM_HARNESS_TRIAL_RIG_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "check/mm_audit.hh"
#include "harness/checkpoint.hh"
#include "harness/colocation.hh"
#include "harness/experiment.hh"
#include "kernel/background_noise.hh"
#include "kernel/kswapd.hh"
#include "kernel/memory_manager.hh"
#include "mem/address_space.hh"
#include "mem/frame_table.hh"
#include "sim/simulation.hh"
#include "swap/swap_manager.hh"
#include "workload/work_thread.hh"

namespace pagesim
{

/** How to assemble a rig; see the file comment. */
struct TrialRigOptions
{
    /** Build everything but start no actors (restore target). */
    bool forRestore = false;
};

/** One simulated machine: N tenants sharing frames, swap and kswapd. */
class TrialRig
{
  public:
    /** A paper cell: one tenant in the root memcg. */
    TrialRig(const ExperimentConfig &config, std::uint64_t trial_seed,
             const TrialRigOptions &opts);

    /** A colocation scenario: one tenant and memcg per TenantSpec. */
    TrialRig(const ColocationConfig &config, std::uint64_t trial_seed,
             const TrialRigOptions &opts);

    TrialRig(const TrialRig &) = delete;
    TrialRig &operator=(const TrialRig &) = delete;

    /** Total workload touches so far, across all threads. */
    std::uint64_t totalRefs() const;

    /**
     * Attach the auditor and metrics collector (no-op if already
     * attached, or if the config enables neither). Rigs without a
     * boundary attach at build; the others call this at the boundary —
     * after a capture or restore, never before.
     */
    void installObservers();

    /** The checkpoint machinery's view of this machine. */
    RigView view();

    /**
     * Run one event at a time until the machine sits at a quiescent
     * point with totalRefs() >= @p target_refs. @p events_used
     * accumulates the events spent (the caller deducts them from the
     * trial's event budget). Returns false when the workload finished
     * or the budget ran out before the boundary was reached.
     */
    bool runToBoundary(std::uint64_t target_refs,
                       std::uint64_t max_events,
                       std::uint64_t &events_used);

    /** Per-tenant components (workload/space/policy construction). */
    struct Tenant
    {
        std::unique_ptr<Workload> workload;
        std::unique_ptr<AddressSpace> space;
        std::unique_ptr<ReplacementPolicy> policy;
        std::uint64_t footprint = 0;
    };

    // Members in construction order; destruction runs in reverse.
    /** The machine; a paper cell's is its one-tenant form. */
    ColocationConfig config;
    MmConfig mmConfig;
    MetricsConfig metricsConfig;
    Simulation sim;
    std::vector<Tenant> tenants;
    std::unique_ptr<FrameTable> frames;
    std::unique_ptr<SwapDevice> device;
    std::unique_ptr<SwapManager> swap;
    std::unique_ptr<MemoryManager> mm;
    std::unique_ptr<MmAuditor> auditor;
    std::unique_ptr<MetricsCollector> collector;
    std::unique_ptr<Kswapd> kswapd;
    std::unique_ptr<BackgroundNoise> noise;
    /** threads[i] = tenant i's threads (tenant-major actor order). */
    std::vector<std::vector<std::unique_ptr<WorkThread>>> threads;

  private:
    /**
     * The one build. @p slow_tier_ratio sizes the machine's slow tier
     * (0 = untiered; only a paper cell sets it); @p solo selects the
     * legacy stream names.
     */
    TrialRig(ColocationConfig machine, double slow_tier_ratio, bool solo,
             std::uint64_t trial_seed, const TrialRigOptions &opts);

    bool observersInstalled_ = false;
};

/**
 * The drive step of runTrial and runColocationTrial: build the rig at
 * its fast-forward boundary (restoring a cached checkpoint, or
 * simulating there and capturing one), run it to completion —
 * aborting if it does not converge — then stop the sampler, snapshot
 * the metrics into @p metrics and write the trial's artifacts.
 * Returns the finished rig for the caller's own result collection.
 * Defined for ExperimentConfig and ColocationConfig.
 */
template <class Config>
std::unique_ptr<TrialRig> driveTrial(const Config &config,
                                     std::uint64_t trial_seed,
                                     MetricsSnapshot &metrics);

/**
 * Mean request latency over a YCSB tenant's read and write
 * histograms, weighted by count; 0 when both are empty. Shared by the
 * two runners' result collection.
 */
double meanLatencyNs(const LatencyHistogram &read,
                     const LatencyHistogram &write);

} // namespace pagesim

#endif // PAGESIM_HARNESS_TRIAL_RIG_HH
