#include "harness/colocation.hh"

#include <algorithm>

#include "harness/sweep.hh"
#include "harness/trial_rig.hh"
#include "kv/ycsb_workload.hh"
#include "sim/parallel.hh"

namespace pagesim
{

std::string
ColocationConfig::label() const
{
    std::string names;
    for (const TenantSpec &t : tenants) {
        if (!names.empty())
            names += "+";
        names += t.name;
    }
    return "colo[" + names + "]/" + policyKindName(policy) + "/" +
           swapKindName(swap) + "/" +
           std::to_string(static_cast<int>(capacityRatio * 100)) + "%";
}

std::uint64_t
tenantFingerprint(const TenantResult &r)
{
    // FNV-1a over 64-bit words, same formulation as the TrialResult
    // fingerprints in bit_identity_test.cpp.
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto add = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    add(r.memcgStats.minorFaults);
    add(r.memcgStats.majorFaults);
    add(r.memcgStats.ioWaitFaults);
    add(r.memcgStats.directReclaims);
    add(r.memcgStats.evictions);
    add(r.memcgStats.throttleEvents);
    add(r.memcgStats.protectedSkips);
    add(r.memcgStats.peakUsage);
    add(r.policy.ptesScanned);
    add(r.policy.regionsVisited);
    add(r.policy.regionsSkipped);
    add(r.policy.rmapWalks);
    add(r.policy.promotions);
    add(r.policy.demotions);
    add(r.policy.agingPasses);
    add(r.policy.evicted);
    add(r.policy.refaults);
    add(r.policy.secondChances);
    add(r.finishNs);
    for (SimTime t : r.threadFinishNs)
        add(t);
    for (std::uint64_t f : r.threadBlockedFaults)
        add(f);
    return h;
}

ColocationTrialResult
runColocationTrial(const ColocationConfig &config,
                   std::uint64_t trial_seed)
{
    ColocationTrialResult r;
    const std::unique_ptr<TrialRig> rig =
        driveTrial(config, trial_seed, r.metrics);

    const MemoryManager &mm = *rig->mm;
    r.kernel = mm.stats();
    r.swap = rig->device->stats();
    r.kswapdCpuNs = rig->kswapd->cpuWork();
    r.totalTouches = rig->totalRefs();
    for (std::size_t i = 0; i < rig->tenants.size(); ++i) {
        TenantResult tr;
        tr.name = config.tenants[i].name;
        tr.memcgStats = mm.memcg(static_cast<MemcgId>(i)).stats();
        tr.policy = rig->tenants[i].policy->stats();
        for (const auto &th : rig->threads[i]) {
            tr.threadFinishNs.push_back(th->threadStats().finishTime);
            tr.threadBlockedFaults.push_back(
                th->threadStats().blockedFaults);
            tr.finishNs = std::max(tr.finishNs,
                                   th->threadStats().finishTime);
        }
        if (auto *ycsb = dynamic_cast<YcsbWorkload *>(
                rig->tenants[i].workload.get())) {
            tr.readLatency = ycsb->readLatency();
            tr.writeLatency = ycsb->writeLatency();
            tr.meanRequestNs =
                meanLatencyNs(tr.readLatency, tr.writeLatency);
        }
        r.runtimeNs = std::max(r.runtimeNs, tr.finishNs);
        r.tenants.push_back(std::move(tr));
    }
    return r;
}

ColocationResult
runColocation(const ColocationConfig &config)
{
    ColocationResult result;
    result.config = config;
    result.trials.resize(effectiveTrials(config.trials));
    // Each trial writes only its own pre-sized slot, so results are
    // independent of claim order and of the worker count.
    parallelFor(poolWorkers(), result.trials.size(),
                [&config, &result](std::size_t t) {
                    result.trials[t] = runColocationTrial(
                        config, trialSeed(config.baseSeed,
                                          static_cast<unsigned>(t)));
                });
    return result;
}

} // namespace pagesim
