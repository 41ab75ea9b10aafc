/**
 * @file
 * Traced trials: one trial assembled from the same public constructors
 * TrialRig uses, with every layer wrapped in spans.
 *
 * The wrappers subclass the concrete policy, swap-device and workload
 * types, so the dynamic_casts inside pagesim (SwapManager's ZRAM
 * detection, the auditor's and runTrial's policy and workload casts)
 * still see the concrete type, and a traced trial reproduces the
 * untraced result bit for bit.
 */

#ifndef PERFBENCH_TRACED_TRIAL_HH
#define PERFBENCH_TRACED_TRIAL_HH

#include <cstdint>
#include <string>

#include "harness/experiment.hh"
#include "kernel/fault_stats.hh"
#include "policy/replacement_policy.hh"
#include "tracer.hh"

namespace perfbench
{

/** Simulated work done while a traced trial's event loop ran. */
struct TracedWork
{
    std::uint64_t events = 0;
    std::uint64_t touches = 0;
    /** Kernel and policy counters accrued inside the event loop. */
    pagesim::FaultStats kernel;
    pagesim::PolicyStats policy;
    /** Bytes of the checkpoint image the trial restored (0 if none). */
    std::uint64_t imageBytes = 0;
};

/**
 * Run one trial with spans. A config with a checkpoint boundary is
 * restored from the image at @p image_path, as runTrial restores it
 * from the checkpoint cache's disk tier. Aborts, like runTrial, when
 * the trial does not converge or the image does not apply.
 */
pagesim::TrialResult runTracedTrial(const pagesim::ExperimentConfig &config,
                                    std::uint64_t trial_seed,
                                    const std::string &image_path,
                                    Tracer &tracer, TracedWork &work);

/**
 * Simulate a trial up to its checkpoint boundary, capture the machine
 * and insert the image into the CheckpointCache (which persists it to
 * PAGESIM_CHECKPOINT_DIR). False when the boundary was not reached.
 */
bool captureTraced(const pagesim::ExperimentConfig &config,
                   std::uint64_t trial_seed, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_TRACED_TRIAL_HH
