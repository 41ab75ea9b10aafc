/**
 * @file
 * Memcg: a cgroup-style memory control group owning one lruvec.
 *
 * The real kernel keeps per-memcg lruvecs and fans reclaim pressure
 * across them; pagesim mirrors that split. A Memcg owns
 *
 *  - charge accounting: every policy-visible fast-tier frame is
 *    charged to exactly one memcg at allocation and uncharged when the
 *    frame is freed (balloon/housekeeping frames stay uncharged, like
 *    kernel-internal pages the paper's workload caps never see);
 *  - watermarks: memory.low (best-effort protection from global
 *    reclaim), memory.high (allocation throttling + background
 *    reclaim target), memory.max (hard limit: the allocating task
 *    reclaims its own lruvec inline before the charge may proceed);
 *  - the lruvec: the ReplacementPolicy instance scoped to this
 *    memcg's address spaces. MemoryManager routes every per-page
 *    policy callback through the owning memcg, so Clock and MG-LRU
 *    never see another tenant's pages.
 *
 * Contract: usage_ and the FrameTable memcg lane move ONLY through
 * charge()/uncharge() — pagesim-lint's mut-memcg rule enforces the
 * lane side exactly like mut-pageinfo guards the link lanes. The
 * auditor (MmAuditor) recounts both against each other every audit.
 *
 * The single-memcg configuration (one unlimited "root" group) is
 * bit-identical to the pre-memcg singleton MemoryManager: charging is
 * pure bookkeeping, and every limit check degenerates to false when
 * the watermarks are at their no-limit defaults. The pinned
 * TrialResult fingerprints in tests/harness/bit_identity_test.cpp
 * prove it.
 */

#ifndef PAGESIM_KERNEL_MEMCG_HH
#define PAGESIM_KERNEL_MEMCG_HH

#include <cassert>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "mem/frame_table.hh"
#include "policy/replacement_policy.hh"

namespace pagesim
{

// MemcgId / kNoMemcg live in mem/types.hh: the FrameTable memcg lane
// and AddressSpace's owning-group field sit below this layer.

/** cgroup-v2-style memory watermarks, in frames. */
struct MemcgConfig
{
    static constexpr std::uint32_t kNoLimit =
        std::numeric_limits<std::uint32_t>::max();

    std::string name = "root";
    /**
     * memory.low: frames protected from global (kswapd) reclaim.
     * Best-effort, like the kernel: when every memcg sits at or below
     * its protection, global pressure reclaims proportionally anyway
     * (overpressure) rather than deadlocking the allocator.
     */
    std::uint32_t low = 0;
    /**
     * memory.high: over this, allocations are throttled (a CPU
     * penalty charged to the faulting task) and kswapd keeps pulling
     * the group back under. Soft: the charge itself always succeeds.
     */
    std::uint32_t high = kNoLimit;
    /**
     * memory.max: hard limit. An allocation that would exceed it runs
     * a reclaim batch against THIS memcg's lruvec inline first — the
     * cgroup limit-reclaim path that injects victim-search latency
     * into the owning tenant's faults and nobody else's.
     */
    std::uint32_t max = kNoLimit;

    bool hasLow() const { return low > 0; }
    bool hasHigh() const { return high != kNoLimit; }
    bool hasMax() const { return max != kNoLimit; }
};

/** Per-memcg counters; the colocation harness reports them per tenant. */
struct MemcgStats
{
    std::uint64_t minorFaults = 0;
    std::uint64_t majorFaults = 0;
    std::uint64_t ioWaitFaults = 0;
    /** Limit- or watermark-driven reclaim batches run by this
     *  memcg's own tasks (cost lands in their fault latency). */
    std::uint64_t directReclaims = 0;
    /** Pages reclaimed FROM this memcg (any reclaim context). */
    std::uint64_t evictions = 0;
    /** Allocations penalized while over memory.high. */
    std::uint64_t throttleEvents = 0;
    /** Global-reclaim rounds that skipped this memcg (memory.low). */
    std::uint64_t protectedSkips = 0;
    /** High-water mark of usage(). */
    std::uint32_t peakUsage = 0;
};

/** One memory control group and its lruvec. */
class Memcg
{
  public:
    /**
     * @param id     dense index within the owning MemoryManager
     * @param config watermarks (frames)
     * @param policy the lruvec: a policy instance scoped to this
     *               memcg's address spaces (caller retains ownership)
     */
    Memcg(MemcgId id, MemcgConfig config, ReplacementPolicy &policy)
        : id_(id), config_(std::move(config)), policy_(policy)
    {
    }

    Memcg(const Memcg &) = delete;
    Memcg &operator=(const Memcg &) = delete;

    MemcgId id() const { return id_; }
    const std::string &name() const { return config_.name; }
    const MemcgConfig &config() const { return config_; }
    ReplacementPolicy &policy() { return policy_; }
    const ReplacementPolicy &policy() const { return policy_; }

    /** Frames currently charged to this group. */
    std::uint32_t usage() const { return usage_; }

    MemcgStats &stats() { return stats_; }
    const MemcgStats &stats() const { return stats_; }

    /**
     * Charge @p pi (a fast-tier frame just allocated for one of this
     * memcg's spaces) to this group. The frame's memcg lane and the
     * usage counter move together — only here and in uncharge().
     */
    void
    charge(PageInfoRef pi)
    {
        assert(pi.memcg == kNoMemcg && "frame already charged");
        pi.memcg = id_;
        ++usage_;
        if (usage_ > stats_.peakUsage)
            stats_.peakUsage = usage_;
    }

    /** Release @p pi's charge (frame about to be freed). */
    void
    uncharge(PageInfoRef pi)
    {
        assert(pi.memcg == id_ && "frame charged to another memcg");
        assert(usage_ > 0);
        pi.memcg = kNoMemcg;
        --usage_;
    }

    /** Would one more charged frame land at or over memory.max? */
    bool
    atMax() const
    {
        return config_.hasMax() && usage_ >= config_.max;
    }

    /** Over the memory.high throttle threshold? */
    bool
    overHigh() const
    {
        return config_.hasHigh() && usage_ > config_.high;
    }

    /** Frames over memory.high (kswapd's targeted reclaim goal). */
    std::uint32_t
    excessHigh() const
    {
        return overHigh() ? usage_ - config_.high : 0;
    }

    /**
     * Frames global reclaim may take without breaching memory.low.
     * With no protection configured this is just usage() — the
     * proportional-fan-out weight.
     */
    std::uint32_t
    reclaimable() const
    {
        return usage_ > config_.low ? usage_ - config_.low : 0;
    }

    /**
     * Checkpoint the counters and the lruvec. usage_ is captured as a
     * plain value: the per-frame memcg lane it must agree with is
     * restored wholesale by FrameTable, and the auditor recounts the
     * pair on the next audit exactly as in a straight-through run.
     */
    template <class Self, class Ar>
    static void
    state(Self &self, Ar &ar)
    {
        ar.u64(self.stats_.minorFaults);
        ar.u64(self.stats_.majorFaults);
        ar.u64(self.stats_.ioWaitFaults);
        ar.u64(self.stats_.directReclaims);
        ar.u64(self.stats_.evictions);
        ar.u64(self.stats_.throttleEvents);
        ar.u64(self.stats_.protectedSkips);
        ar.u32(self.stats_.peakUsage);
        ar.u32(self.usage_);
        virtualState(self.policy_, ar);
    }

  private:
    /** Restore pairs memcgs by index into an identically built rig. */
    const MemcgId id_;
    const MemcgConfig config_;

    ReplacementPolicy &policy_;
    MemcgStats stats_;
    std::uint32_t usage_ = 0;
};

/**
 * Split a global reclaim batch of @p batch frames across memcgs in
 * proportion to @p weights (each memcg's reclaimable or excess-high
 * frame count). Deterministic: floor shares first, then the rounding
 * remainder is handed out one frame at a time round-robin starting at
 * @p cursor — the rotating start is what keeps no tenant persistently
 * favored by the rounding while staying bit-identical across runs.
 *
 * Postconditions: shares[i] <= weights[i] for all i, and
 * sum(shares) == min(batch, sum(weights)).
 */
std::vector<std::uint32_t>
distributeProportional(const std::vector<std::uint64_t> &weights,
                       std::uint32_t batch, std::size_t cursor);

} // namespace pagesim

#endif // PAGESIM_KERNEL_MEMCG_HH
