/**
 * @file
 * Multi-Generational LRU, modeled on the Linux 6.x implementation the
 * paper characterizes (Sec. III).
 *
 * Components:
 *
 *  - Generations: pages carry an absolute generation sequence number;
 *    per-generation intrusive lists span [minSeq, maxSeq]. Accessed
 *    pages move to the youngest generation; eviction consumes the
 *    oldest. Creating a generation is O(1); moving a page between
 *    generations is O(1) (the property the paper's Gen-14 variant
 *    relies on).
 *
 *  - Aging: a page-table walk (not an rmap walk) that test-and-clears
 *    accessed bits linearly, region by region, exploiting page-table
 *    spatial locality. Regions are pre-filtered by a double-buffered
 *    Bloom filter: only regions the previous pass (or the eviction
 *    path) found dense in young PTEs are rescanned. After a walk, the
 *    youngest generation sequence is incremented *if* the generation
 *    budget allows; when the budget is exhausted, consecutive walks
 *    promote into the same generation — the precision loss the paper
 *    calls out (Sec. V-B).
 *
 *    Every scan mode walks the same way: each slice of the walk is
 *    split at shard boundaries, the shards' young PTEs are harvested
 *    (optionally on worker threads; harvestRegion), and the results
 *    are applied serially in ascending region order (applyRegion).
 *    Scan-Rand draws its per-region coin flips serially before the
 *    harvest, in the same ascending order.
 *
 *  - Eviction: scans the oldest generation, walking the rmap per page
 *    like Clock, but on finding a referenced page it additionally
 *    scans the *surrounding PTEs* of that page's page-table region,
 *    promoting other referenced pages at linear-scan cost and feeding
 *    dense regions back into the Bloom filter (the aging/eviction
 *    feedback loop, Sec. III-C). That neighbor scan is the aging
 *    walk's harvest/apply pair run on one region.
 *
 *  - Tiers + PID: file-backed pages accessed through file descriptors
 *    climb tiers within a generation instead of jumping to the
 *    youngest generation; tiers whose refault rate exceeds tier 0's
 *    are protected from eviction by a PID controller (Sec. III-D).
 *
 * The paper's four variants are configuration points:
 *   Gen-14    -> maxNrGens = 2^14
 *   Scan-All  -> ScanMode::All   (aging scans every region)
 *   Scan-None -> ScanMode::None  (aging scans nothing)
 *   Scan-Rand -> ScanMode::Random with p = 0.5
 */

#ifndef PAGESIM_POLICY_MGLRU_MGLRU_POLICY_HH
#define PAGESIM_POLICY_MGLRU_MGLRU_POLICY_HH

#include <array>
#include <bitset>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/address_space.hh"
#include "mem/frame_table.hh"
#include "policy/mglru/bloom_filter.hh"
#include "policy/mglru/pid_controller.hh"
#include "policy/replacement_policy.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace pagesim
{

/** Aging-walk region filtering strategy. */
enum class ScanMode
{
    Bloom,  ///< default MG-LRU: Bloom-filtered walk
    All,    ///< Scan-All: walk every region
    None,   ///< Scan-None: no aging walk at all
    Random, ///< Scan-Rand: walk each region with fixed probability
};

/** Tunables for MgLruPolicy. */
struct MgLruConfig
{
    /** Generation budget; kernel default 4, Gen-14 uses 2^14. */
    std::uint32_t maxNrGens = 4;
    ScanMode scanMode = ScanMode::Bloom;
    /** Region scan probability for ScanMode::Random. */
    double randomScanProb = 0.5;
    /**
     * Young PTEs a region must produce to enter the next Bloom filter.
     * The kernel's rule of thumb is one accessed PTE per cache line of
     * the page-table page, i.e. one per 8 PTEs: kPtesPerRegion / 8.
     */
    std::uint32_t youngDensityThreshold = kPtesPerRegion / 8;
    /** Eviction-side spatial scan of the referenced page's region. */
    bool evictNeighborScan = true;
    std::uint32_t bloomBits = RegionBloomFilter::kDefaultBits;
    unsigned bloomHashes = RegionBloomFilter::kDefaultHashes;
    /** Tier/PID protection of file-backed pages. */
    bool tierProtection = true;
    /**
     * Gate PID refault training on eviction recency, like the
     * kernel's lru_gen_test_recent(): a refault whose eviction
     * happened more than maxNrGens generations ago says nothing about
     * current tier pressure and must not train the controller.
     */
    bool refaultRecencyCheck = true;
    PidConfig pid{};
    /** Victim-scan budget multiplier in selectVictims(). */
    std::uint32_t scanLimitFactor = 16;
    /**
     * wantsAging() fires when cold pages (everything outside the
     * youngest generation) drop below this count.
     */
    std::uint64_t agingLowPages = 2048;
    /**
     * Except when the generation budget is exhausted (< 2 live
     * generations), a new aging pass requires at least this many
     * evictions since the previous pass — generations must represent
     * real reclaim progress, bounding the walk rate under thrash.
     */
    std::uint64_t agingEvictGate = 256;
    /**
     * Minimum sim-time spacing between aging passes (needs a clock,
     * see the constructor). Generations are cohorts of pages faulted
     * or referenced between passes; without a floor on pass spacing,
     * demand-driven aging under streaming collapses cohorts to a
     * handful of pages and the walker spins. When eviction has to
     * wait out this gap, reclaim stalls — the paper's slow-reclaim
     * tail mechanism (Sec. VI-A).
     */
    SimDuration minAgingGap = msecs(25);
    /**
     * Replace the shard harvest with the per-slot reference: a plain
     * serial walk, one region and one PTE slot at a time, for aging
     * and for the eviction-side neighbor scan. Behavior (charges,
     * stats, promotions, PTE and list end-states) is identical by
     * contract — this switch exists so differential and bit-identity
     * tests can prove it. Not a simulation knob; leave it off outside
     * tests.
     */
    bool referenceScan = false;
    /**
     * Harvest worker threads for the aging walk. 0 resolves from
     * the PAGESIM_WORKERS env override, defaulting to 1 — which runs
     * the harvest inline (no threads), so parallelism is strictly
     * opt-in and never oversubscribes sweep workers.
     */
    unsigned scanWorkers = 0;
};

/** Extra counters specific to MG-LRU (on top of PolicyStats). */
struct MgLruStats
{
    std::uint64_t genCreations = 0;   ///< times maxSeq was incremented
    std::uint64_t genCreationBlocked = 0; ///< walks at the gen budget
    std::uint64_t bloomInsertions = 0;
    std::uint64_t neighborScans = 0;  ///< eviction-side region scans
    std::uint64_t neighborPromotions = 0;
    std::uint64_t tierProtected = 0;  ///< pages spared by the PID
    /** Refaults too stale to train the PID (recency check failed). */
    std::uint64_t staleRefaults = 0;
    /** Generations created at finishWalk() from headroom that opened
     *  mid-walk (minSeq advanced while the sliced walk was running). */
    std::uint64_t lateGenCreations = 0;
};

/** The Multi-Generational LRU policy. */
class MgLruPolicy : public ReplacementPolicy
{
  public:
    /** PageInfo::listId of every generation list (identity is gen). */
    static constexpr std::uint8_t kListId = 3;

    /**
     * @param frames physical frame table
     * @param spaces address spaces whose page tables aging walks
     * @param costs  CPU cost model
     * @param rng    stream for Scan-Rand and the Bloom salt
     * @param config variant configuration
     * @param name   reported configuration name
     * @param clock  sim clock for pass-rate limiting (kernel code
     *               reads jiffies; nullptr disables the gap gate)
     */
    MgLruPolicy(FrameTable &frames,
                std::vector<AddressSpace *> spaces,
                const MmCosts &costs, Rng rng,
                const MgLruConfig &config = MgLruConfig{},
                std::string name = "MG-LRU",
                const EventQueue *clock = nullptr);

    const std::string &name() const override { return name_; }

    void onPageResident(Pfn pfn, ResidencyKind kind,
                        std::uint32_t shadow) override;
    std::uint32_t onPageRemoved(Pfn pfn) override;
    std::size_t selectVictims(std::vector<Pfn> &out, std::size_t max,
                              CostSink &costs) override;

    /**
     * Complete one full aging pass synchronously (direct-reclaim
     * urgency): finishes any in-progress walk, or runs a whole one.
     */
    void age(CostSink &costs) override;

    /**
     * Advance the aging walk by at most @p region_budget page-table
     * regions. The background aging thread uses this to spread a walk
     * over simulated time — accessed bits are cleared progressively,
     * exactly the property behind the paper's bimodal-scanning
     * straggler analysis (Sec. V-B).
     *
     * @return true when the pass completed (a generation may have
     *         been created).
     */
    bool ageStep(CostSink &costs, std::uint32_t region_budget);

    /** A sliced aging walk is currently mid-flight. */
    bool agingInProgress() const { return walk_.active; }

    bool wantsAging() const override;

    /**
     * A resident file page was accessed through a file descriptor
     * (buffered I/O): bump its use count / tier without touching the
     * PTE accessed bit (paper Sec. III-D).
     */
    void onFdAccess(Pfn pfn) override;

    void registerProbes(PeriodicSampler &sampler) const override;

    std::uint64_t minSeq() const { return minSeq_; }
    std::uint64_t maxSeq() const { return maxSeq_; }
    std::uint64_t numGens() const { return maxSeq_ - minSeq_ + 1; }
    std::uint64_t residentPages() const { return resident_; }
    std::uint64_t genSize(std::uint64_t seq) const;
    const MgLruStats &mgStats() const { return mgStats_; }
    const TierPidController &pid() const { return pid_; }
    const RegionBloomFilter &activeFilter() const
    {
        return filters_[activeFilter_];
    }

    /** Audit hook: the generation list holding pages of @p seq. */
    const FrameList &
    genListAt(std::uint64_t seq) const
    {
        assert(seq >= minSeq_ && seq <= maxSeq_);
        return genList(seq);
    }

    void saveState(Sink &sink) const override { state(*this, sink); }
    void restoreState(Source &src) override { state(*this, src); }

    /** Defined, and instantiated for Sink and Source, in the .cc. */
    template <class Self, class Ar>
    static void state(Self &self, Ar &ar);

  private:
    FrameList &genList(std::uint64_t seq);
    const FrameList &genList(std::uint64_t seq) const;
    std::uint64_t regionKey(const AddressSpace &space,
                            std::uint64_t region) const;

    /** Move a page to generation @p seq (front of its list). */
    void promoteTo(Pfn pfn, std::uint64_t seq);

    /** Recompute a file page's tier from its use count. */
    void updateTier(PageInfoRef pi);

    /** Young-PTE bits of one region, one bit per PTE slot. */
    using RegionMask = std::array<std::uint64_t, PageTable::kWordsPerRegion>;

    /** Reference walk: does the scan mode admit this region? */
    bool shouldScanRegion(std::uint64_t key, CostSink &costs);
    /** Reference scan of one region, one PTE slot at a time. */
    void scanRegion(AddressSpace &space, std::uint64_t region,
                    std::uint64_t promote_seq, CostSink &costs);
    /**
     * Harvest half of the region scan: clear and return the region's
     * present & accessed bits. Touches only the region's own bitmap
     * words and flag bytes, so distinct regions may be harvested
     * concurrently.
     */
    static RegionMask harvestRegion(PageTable &table,
                                    std::uint64_t region);
    /**
     * Apply half, serial: charge the linear PTE scan and one young
     * clear per harvested bit, visit the young PTEs in ascending VPN
     * order, and feed a dense region into the inactive Bloom filter.
     */
    void applyRegion(AddressSpace &space, std::uint64_t region,
                     const RegionMask &young,
                     std::uint64_t promote_seq, CostSink &costs);
    /** Charge the linear PTE scan of @p regions whole regions. */
    void chargeLinearScan(std::uint64_t regions, CostSink &costs);
    /** Shared by applyRegion and scanRegion for one young PTE. */
    void visitYoungPte(PteView pte, std::uint64_t promote_seq,
                       CostSink &costs);

    /** One shard-aligned run of regions within an aging slice. */
    struct ScanChunk
    {
        std::uint64_t firstRegion;
        std::uint64_t numRegions;
        /** Scan-Rand's draws, bit i for region firstRegion + i. */
        std::bitset<kRegionsPerShard> picks{};
    };
    /** A scanned region with young PTEs, and those PTEs' bits. */
    struct YoungRegion
    {
        std::uint64_t region;
        RegionMask young;
    };
    /**
     * Per-chunk harvest output. Scanned regions split into quiet ones
     * (nothing to apply beyond the linear scan charge) and young ones,
     * listed in region order for applyRegion.
     */
    struct ChunkHarvest
    {
        std::uint64_t empty = 0;    ///< regions with no present PTE
        std::uint64_t rejected = 0; ///< present, filtered out
        std::uint64_t quiet = 0;    ///< scanned, no young PTE
        std::vector<YoungRegion> young;
    };

    /** One slice of the aging walk: harvest, then apply. */
    void harvestSlice(AddressSpace &space, std::uint64_t first,
                      std::uint64_t count, CostSink &costs);
    /** One slice of the reference walk (MgLruConfig::referenceScan). */
    void referenceSlice(AddressSpace &space, std::uint64_t first,
                        std::uint64_t count, CostSink &costs);
    /** Harvest one chunk: read-only apart from accessed-bit clears. */
    void harvestChunk(PageTable &table, const AddressSpace &space,
                      const ScanChunk &chunk,
                      const RegionBloomFilter *filter,
                      ChunkHarvest &out) const;

    FrameTable &frames_;
    std::vector<AddressSpace *> spaces_;
    const MmCosts costs_;
    Rng rng_;
    const MgLruConfig config_;
    const std::string name_;

    std::vector<FrameList> gens_;
    std::uint64_t minSeq_ = 0;
    std::uint64_t maxSeq_ = 1;
    std::uint64_t resident_ = 0;

    /** Walk charges, each scaled by walkScale and truncated once. */
    const SimDuration regionVisitCost_;
    const SimDuration linearScanCost_; ///< one whole region's PTEs
    const SimDuration youngClearCost_;

    RegionBloomFilter filters_[2];
    unsigned activeFilter_ = 0;
    /** True once any aging walk has populated a filter. */
    bool filterWarm_ = false;

    TierPidController pid_;
    MgLruStats mgStats_;
    /** Consecutive selectVictims() rounds that produced nothing. */
    unsigned starvedRounds_ = 0;
    /** stats_.evicted at the last aging pass (rate gate). */
    std::uint64_t evictedAtLastAge_ = 0;
    /** Sim clock for pass pacing (may be null in unit tests). */
    const EventQueue *clock_ = nullptr;
    /** Completion time of the last aging pass. */
    SimTime lastPassNs_ = 0;

    /** Incremental aging-walk cursor. */
    struct WalkState
    {
        bool active = false;
        std::size_t spaceIdx = 0;
        std::uint64_t region = 0;
        bool canInc = false;
        std::uint64_t promoteSeq = 0;
    };
    WalkState walk_;

    /** Resolved harvest worker count (>= 1; 1 = inline, no threads). */
    const unsigned scanWorkers_;
    /** Slice scratch, reused across slices to avoid reallocation. */
    // lint:state-cov-ok(per-slice scratch, rebuilt at the start of every aging slice)
    std::vector<ScanChunk> chunkScratch_;
    // lint:state-cov-ok(per-slice scratch, rebuilt at the start of every aging slice)
    std::vector<ChunkHarvest> harvestScratch_;

    void startWalk();
    void finishWalk();
};

} // namespace pagesim

#endif // PAGESIM_POLICY_MGLRU_MGLRU_POLICY_HH
