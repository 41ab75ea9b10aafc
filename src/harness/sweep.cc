#include "harness/sweep.hh"

#include <algorithm>

#include "sim/parallel.hh"

namespace pagesim
{

std::uint64_t
trialSeed(const ExperimentConfig &config, unsigned trial)
{
    return trialSeed(config.baseSeed, trial);
}

std::uint64_t
trialSeed(std::uint64_t base_seed, unsigned trial)
{
    return base_seed + 1000003ull * trial;
}

std::vector<ExperimentResult>
runSweep(const std::vector<ExperimentConfig> &cells,
         const SweepOptions &options)
{
    struct Task
    {
        std::size_t cell;
        unsigned trial;
    };

    std::vector<ExperimentResult> results(cells.size());
    std::vector<Task> tasks;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        results[c].config = cells[c];
        const unsigned trials = effectiveTrials(cells[c]);
        results[c].trials.resize(trials);
        for (unsigned t = 0; t < trials; ++t)
            tasks.push_back({c, t});
    }

    // A pool only pays for itself when every worker gets a few trials;
    // below that, thread spawn/join overhead makes the "parallel" path
    // slower than just draining inline (the sweep.speedup < 1 trap on
    // small hosts). Degrade rather than spawn idle threads.
    const unsigned workers = static_cast<unsigned>(std::max<std::size_t>(
        1, std::min<std::size_t>(poolWorkers(options.workers),
                                 tasks.size() / 2)));

    // Each task writes only its own slot of a flat buffer, so results
    // are independent of claim order; they move into their cells after
    // the pool drains.
    std::vector<TrialResult> done(tasks.size());
    parallelFor(workers, tasks.size(), [&](std::size_t i) {
        const ExperimentConfig &config = cells[tasks[i].cell];
        done[i] = runTrial(config, trialSeed(config, tasks[i].trial));
    });
    for (std::size_t i = 0; i < tasks.size(); ++i)
        results[tasks[i].cell].trials[tasks[i].trial] = std::move(done[i]);
    return results;
}

std::string
ResultCache::key(const ExperimentConfig &config)
{
    // Every config field that can change a TrialResult must appear
    // here, else two different cells alias one cache slot and a bench
    // silently plots the wrong data. label() covers workload/policy/
    // swap/capacity; ratios are keyed at full precision (the old
    // int-percent truncation aliased fine-grained tier sweeps), and
    // the memcg watermarks and metrics mode joined with the memcg
    // refactor (metrics mode never perturbs the simulation, but it
    // does decide whether TrialResult.metrics is populated). The
    // effective audit cadence is keyed too: an audit-heavy run has the
    // same counters only by luck, and a cached result must not leak
    // across a PAGESIM_AUDIT_EVERY change. warmupRefs/checkpointAt
    // joined with fast-forward execution (warmup changes the simulated
    // timing detail; checkpointAt does not, but keying it keeps
    // cached-vs-cold comparisons honest). mgTweak remains unkeyable —
    // see the class comment.
    return config.label() + "/" + std::to_string(config.trials) + "/" +
           std::to_string(config.baseSeed) + "/" +
           std::to_string(static_cast<int>(config.scale)) + "/" +
           std::to_string(config.capacityRatio) + "/" +
           std::to_string(config.slowTierRatio) + "/" +
           std::to_string(config.numCpus) + "/" +
           std::to_string(config.memcgLowRatio) + "/" +
           std::to_string(config.memcgHighRatio) + "/" +
           std::to_string(config.memcgMaxRatio) + "/" +
           std::to_string(static_cast<int>(config.metrics.mode)) + "/" +
           std::to_string(effectiveAuditEvery()) + "/" +
           std::to_string(config.warmupRefs) + "/" +
           std::to_string(config.checkpointAt);
}

const ExperimentResult &
ResultCache::get(const ExperimentConfig &config)
{
    const std::string k = key(config);
    auto it = cells_.find(k);
    if (it == cells_.end()) {
        ++misses_;
        it = cells_.emplace(k, runExperiment(config)).first;
    } else {
        ++hits_;
    }
    return it->second;
}

void
ResultCache::prefetch(const std::vector<ExperimentConfig> &cells,
                      const SweepOptions &options)
{
    std::vector<ExperimentConfig> cold;
    std::vector<std::string> coldKeys;
    for (const ExperimentConfig &config : cells) {
        std::string k = key(config);
        if (cells_.count(k) != 0)
            continue;
        // A figure may legitimately list the same cell twice (e.g. a
        // shared normalization baseline); run it once.
        bool queued = false;
        for (const std::string &seen : coldKeys)
            if (seen == k) {
                queued = true;
                break;
            }
        if (queued)
            continue;
        cold.push_back(config);
        coldKeys.push_back(std::move(k));
    }
    if (cold.empty())
        return;
    std::vector<ExperimentResult> results = runSweep(cold, options);
    for (std::size_t i = 0; i < results.size(); ++i) {
        ++misses_;
        cells_.emplace(coldKeys[i], std::move(results[i]));
    }
}

} // namespace pagesim
