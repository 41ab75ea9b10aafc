#include "policy/mglru/mglru_policy.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "metrics/sampler.hh"
#include "sim/parallel.hh"

namespace pagesim
{

namespace
{

/** All generation lists share one list id; identity comes from gen. */
constexpr std::uint8_t kGenList = MgLruPolicy::kListId;

/** Shadow seq field width (see makeShadow). */
constexpr std::uint32_t kShadowSeqMask = 0x1ffffff;

/** Shadow encoding: | seq (25 bits) | tier (2 bits) | valid (1). */
constexpr std::uint32_t
makeShadow(std::uint64_t seq, unsigned tier)
{
    return (static_cast<std::uint32_t>(seq & kShadowSeqMask) << 3) |
           (static_cast<std::uint32_t>(tier & 0x3) << 1) | 1u;
}

constexpr unsigned
shadowTier(std::uint32_t shadow)
{
    return (shadow >> 1) & 0x3;
}

/** Eviction-time seq recorded in @p shadow (truncated to 25 bits). */
constexpr std::uint32_t
shadowSeq(std::uint32_t shadow)
{
    return (shadow >> 3) & kShadowSeqMask;
}

/** A walk charge: @p cost scaled by @p scale, truncated once. */
SimDuration
walkCharge(double scale, SimDuration cost)
{
    return static_cast<SimDuration>(scale * static_cast<double>(cost));
}

} // namespace

MgLruPolicy::MgLruPolicy(FrameTable &frames,
                         std::vector<AddressSpace *> spaces,
                         const MmCosts &costs, Rng rng,
                         const MgLruConfig &config, std::string name,
                         const EventQueue *clock)
    : frames_(frames), spaces_(std::move(spaces)), costs_(costs),
      rng_(std::move(rng)), config_(config), name_(std::move(name)),
      regionVisitCost_(walkCharge(costs.walkScale, costs.regionVisit)),
      linearScanCost_(walkCharge(costs.walkScale,
                                 costs.pteScan * kPtesPerRegion)),
      youngClearCost_(walkCharge(costs.walkScale, costs.youngClear)),
      filters_{RegionBloomFilter(config.bloomBits, config.bloomHashes,
                                 rng_.nextU64()),
               RegionBloomFilter(config.bloomBits, config.bloomHashes,
                                 rng_.nextU64())},
      pid_(config.pid), clock_(clock),
      scanWorkers_(config.scanWorkers != 0 ? config.scanWorkers
                   : workerOverride() != 0  ? workerOverride()
                                            : 1)
{
    assert(config_.maxNrGens >= 2);
    gens_.reserve(config_.maxNrGens);
    for (std::uint32_t i = 0; i < config_.maxNrGens; ++i)
        gens_.emplace_back(frames_, kGenList);
}

FrameList &
MgLruPolicy::genList(std::uint64_t seq)
{
    return gens_[seq % config_.maxNrGens];
}

const FrameList &
MgLruPolicy::genList(std::uint64_t seq) const
{
    return gens_[seq % config_.maxNrGens];
}

std::uint64_t
MgLruPolicy::genSize(std::uint64_t seq) const
{
    assert(seq >= minSeq_ && seq <= maxSeq_);
    return genList(seq).size();
}

std::uint64_t
MgLruPolicy::regionKey(const AddressSpace &space,
                       std::uint64_t region) const
{
    return (static_cast<std::uint64_t>(space.id()) << 40) | region;
}

void
MgLruPolicy::updateTier(PageInfoRef pi)
{
    if (!pi.file) {
        pi.tier = 0;
        return;
    }
    // tier = log2(refs + 1), capped; the kernel's order_base_2 rule.
    const std::uint32_t capped = std::min(pi.refs, 255u);
    const unsigned t = std::bit_width(capped + 1u) - 1u;
    pi.tier = static_cast<std::uint8_t>(
        std::min<unsigned>(t, TierPidController::kMaxTiers - 1));
}

void
MgLruPolicy::promoteTo(Pfn pfn, std::uint64_t seq)
{
    const auto pi = frames_.info(pfn);
    assert(pi.listId == kGenList);
    genList(pi.gen).remove(pfn);
    pi.gen = seq;
    genList(seq).pushFront(pfn);
}

void
MgLruPolicy::onPageResident(Pfn pfn, ResidencyKind kind,
                            std::uint32_t shadow)
{
    const auto pi = frames_.info(pfn);
    assert(pi.listId == 0);
    std::uint64_t seq;
    switch (kind) {
      case ResidencyKind::NewAnon:
      case ResidencyKind::SwapInDemand:
        seq = maxSeq_; // just touched: youngest generation
        break;
      case ResidencyKind::SwapInReadahead:
      default:
        // Unreferenced speculative pages land one generation above
        // the oldest: cold enough to go first if wrong, with one
        // generation's grace to be demand-touched (swap readahead
        // clusters resolve within that window).
        seq = std::min(minSeq_ + 1, maxSeq_);
        break;
    }
    pi.refs = 0;
    pi.tier = 0;
    if (shadow != 0) {
        ++stats_.refaults;
        const unsigned t = shadowTier(shadow);
        // lru_gen_test_recent: only refaults whose eviction happened
        // within the live generation window carry information about
        // current tier pressure. Arbitrarily stale shadows (the page
        // was evicted many generation cycles ago) must neither train
        // the PID controller nor boost the page's re-entry tier.
        bool recent = true;
        if (config_.refaultRecencyCheck) {
            const std::uint32_t dist =
                (static_cast<std::uint32_t>(maxSeq_) -
                 shadowSeq(shadow)) &
                kShadowSeqMask;
            recent = dist < config_.maxNrGens;
        }
        if (recent) {
            pid_.recordRefault(t);
            if (pi.file) {
                // Refaulted file pages re-enter one tier higher so the
                // controller can see them coming back.
                pi.refs = (1u << std::min(t + 1, 3u)) - 1;
                updateTier(pi);
            }
        } else {
            ++mgStats_.staleRefaults;
        }
    }
    pi.gen = seq;
    genList(seq).pushFront(pfn);
    ++resident_;
}

std::uint32_t
MgLruPolicy::onPageRemoved(Pfn pfn)
{
    const auto pi = frames_.info(pfn);
    if (pi.listId == kGenList) {
        genList(pi.gen).remove(pfn);
        assert(resident_ > 0);
        --resident_;
    }
    return makeShadow(minSeq_, pi.tier);
}

bool
MgLruPolicy::shouldScanRegion(std::uint64_t key, CostSink &costs)
{
    switch (config_.scanMode) {
      case ScanMode::All:
        return true;
      case ScanMode::Random:
        return rng_.bernoulli(config_.randomScanProb);
      case ScanMode::Bloom:
        costs.charge(costs_.bloomOp);
        // Before the first walk has populated a filter, the kernel
        // walks everything it finds.
        if (!filterWarm_)
            return true;
        return filters_[activeFilter_].maybeContains(key);
      case ScanMode::None:
      default:
        return false;
    }
}

void
MgLruPolicy::visitYoungPte(PteView pte, std::uint64_t promote_seq,
                           CostSink &costs)
{
    const Pfn pfn = pte.pfn();
    const auto pi = frames_.info(pfn);
    if (pi.listId != kGenList)
        return; // in flight (being evicted); leave it alone
    ++pi.refs;
    updateTier(pi);
    if (pi.gen != promote_seq) {
        promoteTo(pfn, promote_seq);
        costs.charge(costs_.listOp);
        ++stats_.promotions;
    }
}

void
MgLruPolicy::scanRegion(AddressSpace &space, std::uint64_t region,
                        std::uint64_t promote_seq, CostSink &costs)
{
    // The reference: one Pte at a time, the loop the harvest/apply
    // pair must match charge for charge.
    PageTable &table = space.table();
    const Vpn base = regionBase(region);
    costs.charge(linearScanCost_);
    stats_.ptesScanned += kPtesPerRegion;
    std::uint32_t young = 0;
    for (Vpn v = base; v < base + kPtesPerRegion; ++v) {
        const auto pte = table.at(v);
        if (!pte.present())
            continue;
        if (!table.testAndClearAccessed(v))
            continue;
        costs.charge(youngClearCost_);
        ++young;
        visitYoungPte(pte, promote_seq, costs);
    }
    if (young >= config_.youngDensityThreshold) {
        filters_[1 - activeFilter_].add(regionKey(space, region));
        costs.charge(costs_.bloomOp);
        ++mgStats_.bloomInsertions;
    }
}

MgLruPolicy::RegionMask
MgLruPolicy::harvestRegion(PageTable &table, std::uint64_t region)
{
    RegionMask young;
    for (std::uint64_t w = 0; w < PageTable::kWordsPerRegion; ++w)
        young[w] = table.harvestYoungWord(
            region * PageTable::kWordsPerRegion + w);
    return young;
}

void
MgLruPolicy::chargeLinearScan(std::uint64_t regions, CostSink &costs)
{
    // The SIMULATED walker reads every slot of the leaf table page;
    // sparse regions pay the full linear cost — exactly why naive full
    // scans are wasteful (Sec. III-B). The host touched only the
    // young PTEs, but the charge stays linear.
    costs.charge(linearScanCost_ * static_cast<SimDuration>(regions));
    stats_.ptesScanned += regions * kPtesPerRegion;
}

void
MgLruPolicy::applyRegion(AddressSpace &space, std::uint64_t region,
                         const RegionMask &young,
                         std::uint64_t promote_seq, CostSink &costs)
{
    PageTable &table = space.table();
    chargeLinearScan(1, costs);
    std::uint64_t count = 0;
    for (const std::uint64_t word : young)
        count += static_cast<std::uint64_t>(std::popcount(word));
    // Clearing a live accessed bit costs a TLB shootdown.
    costs.charge(youngClearCost_ * static_cast<SimDuration>(count));
    for (std::uint64_t w = 0; w < PageTable::kWordsPerRegion; ++w) {
        const Vpn wbase = regionBase(region) + w * 64;
        for (std::uint64_t m = young[w]; m != 0; m &= m - 1)
            visitYoungPte(table.at(wbase + static_cast<std::uint64_t>(
                                               std::countr_zero(m))),
                          promote_seq, costs);
    }
    if (count >= config_.youngDensityThreshold) {
        filters_[1 - activeFilter_].add(regionKey(space, region));
        costs.charge(costs_.bloomOp);
        ++mgStats_.bloomInsertions;
    }
}

void
MgLruPolicy::startWalk()
{
    walk_.active = true;
    walk_.spaceIdx = 0;
    walk_.region = 0;
    walk_.canInc = (maxSeq_ - minSeq_ + 1) < config_.maxNrGens;
    walk_.promoteSeq = walk_.canInc ? maxSeq_ + 1 : maxSeq_;
    if (!walk_.canInc)
        ++mgStats_.genCreationBlocked;
    if (config_.scanMode != ScanMode::None)
        filters_[1 - activeFilter_].clear();
}

void
MgLruPolicy::finishWalk()
{
    if (config_.scanMode != ScanMode::None) {
        // The filter built during this walk serves the next one.
        activeFilter_ = 1 - activeFilter_;
        filterWarm_ = true;
    }
    if (!walk_.canInc &&
        (maxSeq_ - minSeq_ + 1) < config_.maxNrGens) {
        // The snapshot taken at startWalk() said the generation budget
        // was exhausted, but eviction drained the oldest generation(s)
        // while this sliced walk was in flight and minSeq advanced.
        // Re-evaluate at completion so the walk's work still yields a
        // fresh generation instead of collapsing into maxSeq.
        walk_.canInc = true;
        ++mgStats_.lateGenCreations;
    }
    if (walk_.canInc) {
        // Safe even if pages were promoted into the new youngest
        // generation while the walk was in flight.
        ++maxSeq_;
        ++mgStats_.genCreations;
    }
    pid_.update();
    evictedAtLastAge_ = stats_.evicted;
    if (clock_ != nullptr)
        lastPassNs_ = clock_->now();
    ++stats_.agingPasses;
    walk_.active = false;
}

bool
MgLruPolicy::ageStep(CostSink &costs, std::uint32_t region_budget)
{
    if (!walk_.active)
        startWalk();

    // Scan-None never walks page tables; aging is just the generation
    // bump. Every region costs one budget unit whatever it holds, so
    // slice boundaries are content-independent.
    std::uint64_t visited = 0;
    while (config_.scanMode != ScanMode::None &&
           walk_.spaceIdx < spaces_.size()) {
        AddressSpace &space = *spaces_[walk_.spaceIdx];
        const std::uint64_t nr = space.table().numRegions();
        while (walk_.region < nr) {
            if (visited >= region_budget)
                return false; // pass continues on the next slice
            const std::uint64_t take = std::min<std::uint64_t>(
                nr - walk_.region, region_budget - visited);
            if (config_.referenceScan)
                referenceSlice(space, walk_.region, take, costs);
            else
                harvestSlice(space, walk_.region, take, costs);
            walk_.region += take;
            visited += take;
        }
        ++walk_.spaceIdx;
        walk_.region = 0;
    }
    finishWalk();
    return true;
}

void
MgLruPolicy::referenceSlice(AddressSpace &space, std::uint64_t first,
                            std::uint64_t count, CostSink &costs)
{
    for (std::uint64_t r = first; r < first + count; ++r) {
        costs.charge(regionVisitCost_);
        ++stats_.regionsVisited;
        // A region with no present PTE never consults the Bloom
        // filter or the RNG.
        if (space.table().region(r).present == 0 ||
            !shouldScanRegion(regionKey(space, r), costs)) {
            ++stats_.regionsSkipped;
            continue;
        }
        scanRegion(space, r, walk_.promoteSeq, costs);
    }
}

void
MgLruPolicy::harvestChunk(PageTable &table, const AddressSpace &space,
                          const ScanChunk &chunk,
                          const RegionBloomFilter *filter,
                          ChunkHarvest &out) const
{
    // Runs concurrently with other chunks' harvests. Reads bitmap
    // words, the chunk's Scan-Rand picks and the (frozen) active
    // Bloom filter; its only writes are harvestRegion's accessed-bit
    // clears, confined to this chunk's own words and flag bytes. No
    // policy state is touched — that all happens in the serial apply.
    // Tallies stay in locals until the end: neighboring chunks' output
    // shares cache lines.
    const bool random = config_.scanMode == ScanMode::Random;
    std::uint64_t empty = 0;
    std::uint64_t rejected = 0;
    std::uint64_t quiet = 0;
    for (std::uint64_t i = 0; i < chunk.numRegions; ++i) {
        const std::uint64_t r = chunk.firstRegion + i;
        if (!table.anyPresent(r)) {
            ++empty;
            continue;
        }
        if (random ? !chunk.picks[i]
                   : filter != nullptr &&
                         !filter->maybeContains(regionKey(space, r))) {
            ++rejected;
            continue;
        }
        const RegionMask young = harvestRegion(table, r);
        // A region with no young PTE and no Bloom insert due costs
        // only the linear scan, which the apply charges in bulk.
        if (young == RegionMask{} && config_.youngDensityThreshold > 0) {
            ++quiet;
            continue;
        }
        out.young.push_back(YoungRegion{r, young});
    }
    out.empty = empty;
    out.rejected = rejected;
    out.quiet = quiet;
}

void
MgLruPolicy::harvestSlice(AddressSpace &space, std::uint64_t first,
                          std::uint64_t count, CostSink &costs)
{
    PageTable &table = space.table();
    const bool bloom = config_.scanMode == ScanMode::Bloom;
    // The active filter is frozen for the whole pass (inserts go to
    // the inactive one), so concurrent reads are safe. Before the
    // first walk has populated a filter, the kernel walks everything
    // it finds.
    const RegionBloomFilter *filter =
        (bloom && filterWarm_) ? &filters_[activeFilter_] : nullptr;

    // Split [first, first + count) at shard boundaries.
    chunkScratch_.clear();
    for (std::uint64_t r = first, left = count; left > 0;) {
        const std::uint64_t n =
            std::min(kRegionsPerShard - r % kRegionsPerShard, left);
        chunkScratch_.push_back(ScanChunk{r, n});
        r += n;
        left -= n;
    }
    if (config_.scanMode == ScanMode::Random) {
        // Scan-Rand draws once per present region, in ascending
        // region order: serially here, so the parallel harvest only
        // reads the picks.
        for (ScanChunk &ch : chunkScratch_) {
            const std::uint64_t end = ch.firstRegion + ch.numRegions;
            for (std::uint64_t r = table.nextPresentRegion(ch.firstRegion);
                 r < end; r = table.nextPresentRegion(r + 1))
                ch.picks[r - ch.firstRegion] =
                    rng_.bernoulli(config_.randomScanProb);
        }
    }
    harvestScratch_.assign(chunkScratch_.size(), ChunkHarvest{});

    // Parallel harvest: chunks claim slots atomically but write
    // disjoint output, so completion order is unobservable.
    parallelFor(scanWorkers_, chunkScratch_.size(), [&](std::size_t ci) {
        harvestChunk(table, space, chunkScratch_[ci], filter,
                     harvestScratch_[ci]);
    });

    // Serial apply in ascending chunk (= region) order: the only
    // order-sensitive state is generation-list pushFront order.
    // CostSink::charge is a plain sum, so count * cost equals the
    // per-region accumulation bit for bit.
    for (std::size_t ci = 0; ci < chunkScratch_.size(); ++ci) {
        const ScanChunk &ch = chunkScratch_[ci];
        const ChunkHarvest &h = harvestScratch_[ci];
        costs.charge(regionVisitCost_ *
                     static_cast<SimDuration>(ch.numRegions));
        stats_.regionsVisited += ch.numRegions;
        stats_.regionsSkipped += h.empty + h.rejected;
        if (bloom)
            costs.charge(costs_.bloomOp *
                         static_cast<SimDuration>(
                             h.rejected + h.quiet + h.young.size()));
        chargeLinearScan(h.quiet, costs);
        for (const YoungRegion &yr : h.young)
            applyRegion(space, yr.region, yr.young, walk_.promoteSeq,
                        costs);
    }
}

void
MgLruPolicy::age(CostSink &costs)
{
    while (!ageStep(costs, UINT32_MAX)) {
    }
}

bool
MgLruPolicy::wantsAging() const
{
    // Pass-rate floor: generations are cohorts of pages referenced
    // between passes; passes spaced closer than minAgingGap make
    // cohorts (and thus generation numbers) meaningless and spin the
    // walker. Eviction that has to wait out the gap stalls — a real
    // MG-LRU tail mechanism (Sec. VI-A).
    if (clock_ != nullptr && lastPassNs_ != 0 &&
        clock_->now() - lastPassNs_ < config_.minAgingGap) {
        return false;
    }
    // Demand-driven, like try_to_inc_max_seq: keep enough live
    // generations ahead of eviction...
    if (maxSeq_ - minSeq_ < 2)
        return true;
    // ...and otherwise only once eviction has made real progress
    // since the last pass (generations represent reclaim work)...
    if (stats_.evicted - evictedAtLastAge_ < config_.agingEvictGate)
        return false;
    // ...and the evictable (non-youngest) population runs thin.
    const std::uint64_t young = genList(maxSeq_).size();
    const std::uint64_t cold = resident_ - young;
    return cold < config_.agingLowPages;
}

std::size_t
MgLruPolicy::selectVictims(std::vector<Pfn> &out, std::size_t max,
                           CostSink &costs)
{
    std::size_t got = 0;
    // Pressure escalation (the kernel's rising scan priority): after
    // repeated starved rounds, referenced pages are reclaimed anyway
    // rather than promoted, so reclaim always eventually progresses.
    // Escalation is deliberately slower than Clock's inline refill:
    // MG-LRU burns scan budget promoting referenced pages first, the
    // reclaim-rate burstiness behind its tail behavior (Sec. VI-A).
    const bool force = starvedRounds_ >= 3;
    // Tier protection is bounded per scan: once the budget is spent,
    // protected-tier pages are reclaimed anyway (counted, so the PID
    // sees their refaults and rebalances) — protection must shape
    // eviction order, never block reclaim.
    std::size_t protect_budget = max;
    std::uint64_t budget =
        static_cast<std::uint64_t>(max) * config_.scanLimitFactor + 64;
    while (got < max && budget-- > 0) {
        while (genList(minSeq_).empty() && minSeq_ < maxSeq_)
            ++minSeq_;
        // Never drain the youngest generation — except at the highest
        // pressure level, where the kernel reclaims everything it can
        // rather than livelock (the whole resident set can be hot).
        if (minSeq_ == maxSeq_ && !force)
            break;
        FrameList &oldest = genList(minSeq_);
        if (oldest.empty())
            break;

        const Pfn pfn = oldest.popBack();
        const auto pi = frames_.info(pfn);
        // Like Clock, eviction resolves the page's PTE via the rmap.
        costs.charge(costs_.rmapWalk);
        ++stats_.rmapWalks;
        ++stats_.ptesScanned;
        assert(pi.space != nullptr);
        if (pi.space->table().testAndClearAccessed(pi.vpn) && !force) {
            // Referenced since aging last saw it: send to the youngest
            // generation, then exploit spatial locality by scanning the
            // surrounding PTEs of the same page-table region.
            ++pi.refs;
            updateTier(pi);
            pi.gen = maxSeq_;
            genList(maxSeq_).pushFront(pfn);
            ++stats_.secondChances;
            ++stats_.promotions;
            if (config_.evictNeighborScan) {
                ++mgStats_.neighborScans;
                const std::uint64_t promoted_before = stats_.promotions;
                const std::uint64_t r = regionOf(pi.vpn);
                if (config_.referenceScan)
                    scanRegion(*pi.space, r, maxSeq_, costs);
                else
                    applyRegion(*pi.space, r,
                                harvestRegion(pi.space->table(), r),
                                maxSeq_, costs);
                mgStats_.neighborPromotions +=
                    stats_.promotions - promoted_before;
            }
            continue;
        }
        if (config_.tierProtection && !force && protect_budget > 0 &&
            pi.tier > 0 && pid_.isProtected(pi.tier)) {
            // Protected tier: granted two generations of grace
            // instead of eviction, until refault rates balance.
            --protect_budget;
            pi.gen = std::min(minSeq_ + 2, maxSeq_);
            genList(pi.gen).pushFront(pfn);
            ++mgStats_.tierProtected;
            continue;
        }
        // Victim.
        pid_.recordEviction(pi.tier);
        costs.charge(costs_.evictFixed);
        assert(resident_ > 0);
        --resident_;
        out.push_back(pfn);
        ++stats_.evicted;
        ++got;
    }
    if (got == 0)
        ++starvedRounds_;
    else
        starvedRounds_ = 0;
    return got;
}

void
MgLruPolicy::onFdAccess(Pfn pfn)
{
    const auto pi = frames_.info(pfn);
    if (pi.listId != kGenList)
        return;
    // fd-accessed pages do NOT jump to the youngest generation; they
    // climb a tier within their generation (Sec. III-D).
    ++pi.refs;
    updateTier(pi);
}

template <class Self, class Ar>
void
MgLruPolicy::state(Self &self, Ar &ar)
{
    ReplacementPolicy::state(self, ar);
    // Generation lists: the vector length is a config parameter
    // (maxNrGens), replayed at reconstruction; only the anchors move.
    for (auto &gen : self.gens_)
        FrameList::state(gen, ar);
    ar.u64(self.minSeq_);
    ar.u64(self.maxSeq_);
    ar.u64(self.resident_);
    RegionBloomFilter::state(self.filters_[0], ar);
    RegionBloomFilter::state(self.filters_[1], ar);
    ar.u32(self.activeFilter_);
    ar.boolean(self.filterWarm_);
    TierPidController::state(self.pid_, ar);
    ar.u64(self.mgStats_.genCreations);
    ar.u64(self.mgStats_.genCreationBlocked);
    ar.u64(self.mgStats_.bloomInsertions);
    ar.u64(self.mgStats_.neighborScans);
    ar.u64(self.mgStats_.neighborPromotions);
    ar.u64(self.mgStats_.tierProtected);
    ar.u64(self.mgStats_.staleRefaults);
    ar.u64(self.mgStats_.lateGenCreations);
    ar.u32(self.starvedRounds_);
    ar.u64(self.evictedAtLastAge_);
    ar.u64(self.lastPassNs_);
    ar.boolean(self.walk_.active);
    ar.u64(self.walk_.spaceIdx);
    ar.u64(self.walk_.region);
    ar.boolean(self.walk_.canInc);
    ar.u64(self.walk_.promoteSeq);
    Rng::state(self.rng_, ar);
}

template void MgLruPolicy::state(const MgLruPolicy &, Sink &);
template void MgLruPolicy::state(MgLruPolicy &, Source &);

void
MgLruPolicy::registerProbes(PeriodicSampler &sampler) const
{
    sampler.probe("mglru.min_seq", [this] {
        return static_cast<double>(minSeq_);
    });
    sampler.probe("mglru.max_seq", [this] {
        return static_cast<double>(maxSeq_);
    });
    sampler.probe("mglru.num_gens", [this] {
        return static_cast<double>(numGens());
    });
    sampler.probe("mglru.resident_pages", [this] {
        return static_cast<double>(resident_);
    });
    // Generation occupancy, oldest-relative: gen0 is minSeq (next to
    // be reclaimed), gen3 the youngest of a full ladder. Relative
    // indexing keeps probe identity stable as sequences advance.
    for (std::uint64_t off = 0; off < 4; ++off) {
        sampler.probe("mglru.gen" + std::to_string(off) + "_pages",
                      [this, off] {
                          if (off >= numGens())
                              return 0.0;
                          return static_cast<double>(
                              genSize(minSeq_ + off));
                      });
    }
    for (unsigned tier = 0; tier < TierPidController::kMaxTiers;
         ++tier) {
        sampler.probe("mglru.tier" + std::to_string(tier) +
                          ".refault_rate",
                      [this, tier] { return pid_.refaultRate(tier); });
        sampler.probe("mglru.tier" + std::to_string(tier) +
                          ".pid_output",
                      [this, tier] { return pid_.output(tier); });
    }
    sampler.probe("mglru.pte_scan_rate",
                  [this, prev = std::uint64_t{0}]() mutable {
                      const std::uint64_t cur = stats_.ptesScanned;
                      const std::uint64_t d = cur - prev;
                      prev = cur;
                      return static_cast<double>(d);
                  });
}

} // namespace pagesim
