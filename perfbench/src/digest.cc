#include "digest.hh"

#include <bit>
#include <cstdio>

#include "sim/serialize.hh"

namespace perfbench
{

using pagesim::TrialResult;

std::uint64_t
fingerprint(const TrialResult &r)
{
    Fnv h;
    h.add(r.runtimeNs);
    h.add(r.majorFaults);

    const pagesim::FaultStats &k = r.kernel;
    for (std::uint64_t v :
         {k.majorFaults, k.minorFaults, k.ioWaitFaults, k.evictions,
          k.dirtyWritebacks, k.cleanDrops, k.writebackRemaps,
          k.readaheadReads, k.readaheadHits, k.directReclaims,
          k.directAging, k.allocStalls})
        h.add(v);

    const pagesim::PolicyStats &p = r.policy;
    for (std::uint64_t v :
         {p.ptesScanned, p.regionsVisited, p.regionsSkipped, p.rmapWalks,
          p.promotions, p.demotions, p.agingPasses, p.evicted,
          p.refaults, p.secondChances})
        h.add(v);

    const pagesim::SwapDeviceStats &s = r.swap;
    for (std::uint64_t v :
         {s.reads, s.writes, static_cast<std::uint64_t>(s.totalReadLatency),
          static_cast<std::uint64_t>(s.totalWriteLatency),
          s.peakQueueDepth})
        h.add(v);

    const pagesim::MgLruStats &m = r.mglru;
    for (std::uint64_t v :
         {m.genCreations, m.genCreationBlocked, m.bloomInsertions,
          m.neighborScans, m.neighborPromotions, m.tierProtected,
          m.staleRefaults, m.lateGenCreations})
        h.add(v);

    for (std::uint64_t v : {r.tier.demotions, r.tier.promotions,
                            r.tier.slowHits, r.tier.slowEvictions})
        h.add(v);

    h.add(r.threadFinishNs.size());
    for (pagesim::SimTime t : r.threadFinishNs)
        h.add(t);
    for (std::uint64_t f : r.threadBlockedFaults)
        h.add(f);

    h.add(r.kswapdCpuNs);
    h.add(r.agingCpuNs);
    h.add(r.agingPasses);
    h.add(std::bit_cast<std::uint64_t>(r.meanRequestNs));
    h.add(r.totalTouches);

    // The histograms' own serialization covers every bucket.
    pagesim::Sink hist;
    r.readLatency.saveState(hist);
    r.writeLatency.saveState(hist);
    h.add(hist.data().size());
    for (std::uint8_t b : hist.data())
        h.add(b);
    return h.value();
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace perfbench
