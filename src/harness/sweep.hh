/**
 * @file
 * Sweep scheduler: run many experiment cells on one shared pool.
 *
 * runExperiment() parallelizes the trials of a single cell, which
 * leaves the host idle at every cell boundary (the last straggling
 * trial barriers the whole cell). A figure bench runs 10-40 cells, so
 * those barriers add up. runSweep() instead flattens *all* (cell x
 * trial) pairs of a figure into one task list drained by parallelFor
 * (sim/parallel.hh): the host stays saturated until the final trial
 * of the final cell, while per-trial seeding stays byte-identical to
 * the serial path (seed = baseSeed + 1000003 * trial, independent of
 * which worker runs the task or in what order).
 */

#ifndef PAGESIM_HARNESS_SWEEP_HH
#define PAGESIM_HARNESS_SWEEP_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace pagesim
{

/** Tunables for runSweep(). */
struct SweepOptions
{
    /**
     * Worker threads; 1 = serial. 0 defers to the PAGESIM_WORKERS
     * environment override, then to one per hardware thread. The old
     * behavior cached hardware_concurrency() before the override
     * could be consulted, so PAGESIM_WORKERS was silently ignored.
     */
    unsigned workers = 0;
};

/** The deterministic seed of trial @p trial of a cell (the same
 *  derivation runExperiment uses). */
std::uint64_t trialSeed(const ExperimentConfig &config, unsigned trial);

/** The same derivation from a bare base seed (colocation scenarios). */
std::uint64_t trialSeed(std::uint64_t base_seed, unsigned trial);

/**
 * Run every trial of every cell on one shared pool.
 *
 * Results are identical to calling runExperiment() per cell (same
 * seeds, same trial slots); only wall-clock scheduling differs.
 * Honors the PAGESIM_TRIALS override, like runExperiment().
 */
std::vector<ExperimentResult>
runSweep(const std::vector<ExperimentConfig> &cells,
         const SweepOptions &options = {});

/**
 * Result cache keyed by cell configuration: each distinct cell runs
 * at most once per process.
 *
 * prefetch() is the fast path: declare a figure's cells up front and
 * the misses run as ONE pooled sweep; subsequent get() calls are pure
 * lookups. get() on a cold cell still works (runs the cell on the
 * spot) so incremental callers stay correct, just slower.
 *
 * The key covers the swept dimensions (workload/policy/swap/capacity/
 * tier/scale/trials/seed) but cannot see through the mgTweak hook —
 * callers sweeping tweaks must vary baseSeed or keep their own cache.
 */
class ResultCache
{
  public:
    /** Result for @p config, running the cell on a miss. */
    const ExperimentResult &get(const ExperimentConfig &config);

    /** Run all not-yet-cached cells as one pooled sweep. */
    void prefetch(const std::vector<ExperimentConfig> &cells,
                  const SweepOptions &options = {});

    /** Cells computed (by get or prefetch) since construction. */
    std::uint64_t misses() const { return misses_; }
    /** get() calls answered from the cache. */
    std::uint64_t hits() const { return hits_; }

  private:
    static std::string key(const ExperimentConfig &config);

    std::map<std::string, ExperimentResult> cells_;
    std::uint64_t misses_ = 0;
    std::uint64_t hits_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_HARNESS_SWEEP_HH
