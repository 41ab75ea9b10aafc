/**
 * @file
 * Clock-LRU: the classic Linux active/inactive two-list approximation.
 *
 * Behavior follows the paper's Sec. II-B description of the policy the
 * kernel used for decades:
 *
 *  - the *active* list should hold the working set, the *inactive*
 *    list holds eviction candidates;
 *  - aging periodically scans accessed bits of pages at the bottom of
 *    the active list: not accessed -> inactive, accessed -> top of
 *    active;
 *  - reclaim scans accessed bits on the inactive list: accessed ->
 *    active (second chance), else evict.
 *
 * Crucially for the paper's analysis, *every* accessed-bit check walks
 * the reverse map for that one physical page ("incurring the cost of
 * pointer chasing each time", Sec. V-B) — Clock never exploits
 * page-table spatial locality.
 */

#ifndef PAGESIM_POLICY_CLOCK_LRU_HH
#define PAGESIM_POLICY_CLOCK_LRU_HH

#include <string>
#include <vector>

#include "mem/address_space.hh"
#include "mem/frame_table.hh"
#include "policy/replacement_policy.hh"

namespace pagesim
{

/** Tunables for ClockLru. */
struct ClockConfig
{
    /**
     * Aging keeps the inactive list at least this fraction of resident
     * pages (the kernel's inactive_is_low balance point).
     */
    double inactiveTargetRatio = 1.0 / 3.0;
    /** Max active-list pages demoted per age() pass. */
    std::uint32_t agingBatch = 512;
    /** Victim-scan budget multiplier in selectVictims(). */
    std::uint32_t scanLimitFactor = 16;
    /**
     * Workingset refaults: a refault whose eviction distance is below
     * the active-list size is inserted directly into the active list.
     */
    bool workingsetRefaults = true;
};

/** The two-list Clock/second-chance policy. */
class ClockLru : public ReplacementPolicy
{
  public:
    /** PageInfo::listId values of the two lists. */
    static constexpr std::uint8_t kActiveListId = 1;
    static constexpr std::uint8_t kInactiveListId = 2;

    ClockLru(FrameTable &frames, const MmCosts &costs,
             const ClockConfig &config = ClockConfig{});

    const std::string &name() const override { return name_; }

    void onPageResident(Pfn pfn, ResidencyKind kind,
                        std::uint32_t shadow) override;
    std::uint32_t onPageRemoved(Pfn pfn) override;
    std::size_t selectVictims(std::vector<Pfn> &out, std::size_t max,
                              CostSink &costs) override;
    void age(CostSink &costs) override;
    bool wantsAging() const override;
    void registerProbes(PeriodicSampler &sampler) const override;

    std::uint64_t activeSize() const { return active_.size(); }
    std::uint64_t inactiveSize() const { return inactive_.size(); }

    /** Audit hooks: direct views of the two lists. */
    const FrameList &activeList() const { return active_; }
    const FrameList &inactiveList() const { return inactive_; }

    void saveState(Sink &sink) const override { state(*this, sink); }
    void restoreState(Source &src) override { state(*this, src); }

    template <class Self, class Ar>
    static void
    state(Self &self, Ar &ar)
    {
        ReplacementPolicy::state(self, ar);
        FrameList::state(self.active_, ar);
        FrameList::state(self.inactive_, ar);
        ar.u32(self.evictEpoch_);
        ar.u32(self.starvedRounds_);
    }

  private:
    /** Test-and-clear the accessed bit through an rmap walk. */
    bool checkAccessedViaRmap(Pfn pfn, CostSink &costs);
    std::uint64_t residentPages() const;
    std::uint64_t inactiveTarget() const;
    /** Demote up to @p limit cold pages off the active tail. */
    void shrinkActive(std::uint32_t limit, CostSink &costs);

    FrameTable &frames_;
    const MmCosts costs_;
    const ClockConfig config_;
    const std::string name_ = "Clock";
    FrameList active_;
    FrameList inactive_;
    /** Monotone eviction counter; shadows record it for distances. */
    std::uint32_t evictEpoch_ = 0;
    /** Consecutive selectVictims() rounds that produced nothing. */
    unsigned starvedRounds_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_POLICY_CLOCK_LRU_HH
