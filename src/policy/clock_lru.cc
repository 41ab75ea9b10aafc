#include "policy/clock_lru.hh"

#include <cassert>

#include "metrics/sampler.hh"

namespace pagesim
{

namespace
{

/** Shorthands for the class-level list ids. */
constexpr std::uint8_t kActiveList = ClockLru::kActiveListId;
constexpr std::uint8_t kInactiveList = ClockLru::kInactiveListId;

} // namespace

ClockLru::ClockLru(FrameTable &frames, const MmCosts &costs,
                   const ClockConfig &config)
    : frames_(frames), costs_(costs), config_(config),
      active_(frames, kActiveList), inactive_(frames, kInactiveList)
{
}

bool
ClockLru::checkAccessedViaRmap(Pfn pfn, CostSink &costs)
{
    // Clock resolves the physical page to its PTE through the reverse
    // map on every check — the pointer-chasing cost MG-LRU's linear
    // walks avoid. Routed through the PageTable so the accessed
    // bitmaps stay in lockstep with the flag.
    costs.charge(costs_.rmapWalk);
    ++stats_.rmapWalks;
    ++stats_.ptesScanned;
    const auto pi = frames_.info(pfn);
    assert(pi.space != nullptr);
    return pi.space->table().testAndClearAccessed(pi.vpn);
}

std::uint64_t
ClockLru::residentPages() const
{
    return active_.size() + inactive_.size();
}

std::uint64_t
ClockLru::inactiveTarget() const
{
    return static_cast<std::uint64_t>(
        config_.inactiveTargetRatio *
        static_cast<double>(residentPages()));
}

void
ClockLru::onPageResident(Pfn pfn, ResidencyKind kind,
                         std::uint32_t shadow)
{
    assert(frames_.info(pfn).listId == 0);
    bool to_active;
    switch (kind) {
      case ResidencyKind::NewAnon:
      case ResidencyKind::SwapInDemand:
        // The page was just touched by the application: it starts hot.
        to_active = true;
        break;
      case ResidencyKind::SwapInReadahead:
      default:
        // Speculative pages must earn their way into the working set.
        to_active = false;
        break;
    }
    if (shadow != 0) {
        ++stats_.refaults;
        if (config_.workingsetRefaults &&
            kind == ResidencyKind::SwapInReadahead) {
            // Workingset heuristic: a readahead page that refaulted
            // recently enough is likely part of the working set.
            const std::uint32_t dist = evictEpoch_ - (shadow >> 1);
            if (dist < active_.size())
                to_active = true;
        }
    }
    if (to_active)
        active_.pushFront(pfn);
    else
        inactive_.pushFront(pfn);
}

std::uint32_t
ClockLru::onPageRemoved(Pfn pfn)
{
    const auto pi = frames_.info(pfn);
    if (pi.listId == kActiveList)
        active_.remove(pfn);
    else if (pi.listId == kInactiveList)
        inactive_.remove(pfn);
    ++evictEpoch_;
    // Shadow: eviction epoch, shifted to keep the word nonzero.
    return (evictEpoch_ << 1) | 1u;
}

void
ClockLru::shrinkActive(std::uint32_t limit, CostSink &costs)
{
    while (limit-- > 0 && inactive_.size() < inactiveTarget()) {
        const Pfn pfn = active_.popBack();
        if (pfn == kInvalidPfn)
            return;
        costs.charge(costs_.listOp);
        if (checkAccessedViaRmap(pfn, costs)) {
            // Referenced: rotate back to the top of the active list.
            active_.pushFront(pfn);
            ++stats_.promotions;
        } else {
            inactive_.pushFront(pfn);
            ++stats_.demotions;
        }
    }
}

void
ClockLru::age(CostSink &costs)
{
    ++stats_.agingPasses;
    shrinkActive(config_.agingBatch, costs);
}

bool
ClockLru::wantsAging() const
{
    return inactive_.size() < inactiveTarget();
}

std::size_t
ClockLru::selectVictims(std::vector<Pfn> &out, std::size_t max,
                        CostSink &costs)
{
    std::size_t got = 0;
    // Pressure escalation: after starved rounds, reclaim referenced
    // pages anyway (kernel scan priority 0 behavior).
    const bool force = starvedRounds_ >= 2;
    std::uint64_t budget =
        static_cast<std::uint64_t>(max) * config_.scanLimitFactor + 64;
    while (got < max && budget-- > 0) {
        if (inactive_.empty()) {
            // Direct-reclaim style: refill candidates from the active
            // list before giving up.
            shrinkActive(config_.agingBatch, costs);
            if (inactive_.empty())
                break;
        }
        const Pfn pfn = inactive_.popBack();
        if (pfn == kInvalidPfn)
            break;
        if (checkAccessedViaRmap(pfn, costs) && !force) {
            // Second chance: referenced on the inactive list.
            active_.pushFront(pfn);
            ++stats_.secondChances;
            ++stats_.promotions;
            continue;
        }
        costs.charge(costs_.evictFixed);
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
ClockLru::registerProbes(PeriodicSampler &sampler) const
{
    sampler.probe("clock.active_pages", [this] {
        return static_cast<double>(active_.size());
    });
    sampler.probe("clock.inactive_pages", [this] {
        return static_cast<double>(inactive_.size());
    });
    // Scan rates: PTEs/rmap walks checked since the previous sample
    // (pure reads of monotone counters; the delta state lives in the
    // probe closure, not the policy).
    sampler.probe("clock.pte_scan_rate",
                  [this, prev = std::uint64_t{0}]() mutable {
                      const std::uint64_t cur = stats_.ptesScanned;
                      const std::uint64_t d = cur - prev;
                      prev = cur;
                      return static_cast<double>(d);
                  });
    sampler.probe("clock.rmap_walk_rate",
                  [this, prev = std::uint64_t{0}]() mutable {
                      const std::uint64_t cur = stats_.rmapWalks;
                      const std::uint64_t d = cur - prev;
                      prev = cur;
                      return static_cast<double>(d);
                  });
}

} // namespace pagesim
