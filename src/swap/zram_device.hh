/**
 * @file
 * ZRAM swap device: synchronous compressed RAM swap.
 *
 * Matches the paper's configuration: LZO-RLE-style compression with
 * 4 KB read latency ~20 us and write latency ~35 us (Sec. IV). The
 * (de)compression runs on the *caller's* CPU — kswapd pays for
 * compression during reclaim, faulting threads pay for decompression —
 * so under load ZRAM adds CPU contention rather than I/O wait. The
 * compressed store occupies a pool whose size we account in pages, the
 * cost ZRAM trades for its speed.
 *
 * Per-page compressibility is a deterministic function of the slot's
 * content tag, drawn from a mixture approximating LZO-RLE behavior:
 * some pages are near-zero (RLE collapses them), most compress to
 * 25-55%, and a minority of high-entropy pages barely compress.
 */

#ifndef PAGESIM_SWAP_ZRAM_DEVICE_HH
#define PAGESIM_SWAP_ZRAM_DEVICE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/rng.hh"
#include "swap/swap_device.hh"

namespace pagesim
{

/** Tunables for ZramSwapDevice. */
struct ZramConfig
{
    /** 4 KB decompress-and-copy latency (paper: ~20 us). */
    SimDuration readLatency = usecs(20);
    /** 4 KB compress-and-store latency (paper: ~35 us). */
    SimDuration writeLatency = usecs(35);
    /** Pool limit in bytes (0 = unlimited, track only). */
    std::uint64_t poolLimitBytes = 0;
};

/** Synchronous compressed-RAM swap model. */
class ZramSwapDevice : public SwapDevice
{
  public:
    explicit ZramSwapDevice(const ZramConfig &config = ZramConfig{});

    const std::string &name() const override { return name_; }
    bool synchronous() const override { return true; }

    void
    submit(SwapSlot, bool, Callback) override
    {
        // ZRAM is synchronous; the kernel path never queues it.
        // (cpuCost()/noteSyncOp() is the supported interface.)
    }

    SimDuration cpuCost(SwapSlot slot, bool is_write) const override;

    void noteSyncOp(SwapSlot slot, bool is_write) override;

    /** Content tag for @p slot; compressibility derives from it. */
    void setContentTag(SwapSlot slot, std::uint64_t tag);

    /** Forget a slot's stored bytes (slot freed). */
    void dropSlot(SwapSlot slot);

    /** Compressed size a page with @p tag occupies, in bytes. */
    static std::uint32_t compressedSize(std::uint64_t tag);

    std::uint64_t poolBytes() const { return poolBytes_; }
    std::uint64_t poolPeakBytes() const { return poolPeakBytes_; }

    /** Pool occupancy in whole frames (what RAM accounting sees). */
    std::uint64_t
    poolFrames() const
    {
        return (poolBytes_ + kPageSize - 1) / kPageSize;
    }

    /** Times a store exceeded poolLimitBytes (diagnostic). */
    std::uint64_t overflows() const { return overflows_; }

    // ---- Audit hooks ------------------------------------------------

    /** Does @p slot hold recorded contents? Tag out-param optional. */
    bool
    hasSlotTag(SwapSlot slot, std::uint64_t *tag = nullptr) const
    {
        auto it = slotTag_.find(slot);
        if (it == slotTag_.end())
            return false;
        if (tag != nullptr)
            *tag = it->second;
        return true;
    }

    /** All recorded slot contents (slot -> content tag). */
    // lint:ordered-ok(audit-only view; MmAuditor keys lookups by slot
    // and never folds iteration order into simulated state)
    const std::unordered_map<SwapSlot, std::uint64_t> &
    slotTags() const
    {
        return slotTag_;
    }

    /** Recompute pool occupancy from the tag map (must == poolBytes). */
    std::uint64_t auditPoolBytes() const;

    void saveState(Sink &sink) const override { state(*this, sink); }
    void restoreState(Source &src) override { state(*this, src); }

    template <class Self, class Ar>
    static void
    state(Self &self, Ar &ar)
    {
        SwapDevice::state(self, ar);
        // The tag map is unordered; it travels as entries sorted by
        // slot so the byte stream (and its fingerprint) is
        // deterministic.
        std::vector<std::pair<SwapSlot, std::uint64_t>> entries;
        if constexpr (!Ar::kLoading) {
            entries.assign(self.slotTag_.begin(), self.slotTag_.end());
            std::sort(entries.begin(), entries.end());
        }
        ar.records(entries, [&ar](auto &e) {
            ar.u32(e.first);
            ar.u64(e.second);
        });
        if constexpr (Ar::kLoading) {
            self.slotTag_.clear();
            self.slotTag_.reserve(entries.size());
            for (const auto &[slot, tag] : entries)
                self.slotTag_[slot] = tag;
        }
        ar.u64(self.poolBytes_);
        ar.u64(self.poolPeakBytes_);
        ar.u64(self.overflows_);
    }

  private:
    const ZramConfig config_;
    const std::string name_ = "zram";
    /** slot -> content tag (present while slot holds data). */
    // lint:ordered-ok(hot-path point lookups only; auditPoolBytes'
    // iteration is an order-independent integer sum, and state() sorts
    // the entries by slot before they are written)
    std::unordered_map<SwapSlot, std::uint64_t> slotTag_;
    std::uint64_t poolBytes_ = 0;
    std::uint64_t poolPeakBytes_ = 0;
    std::uint64_t overflows_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_SWAP_ZRAM_DEVICE_HH
