#include "swap/zram_device.hh"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace pagesim
{

ZramSwapDevice::ZramSwapDevice(const ZramConfig &config)
    : config_(config)
{
}

std::uint32_t
ZramSwapDevice::compressedSize(std::uint64_t tag)
{
    // Deterministic per-tag LZO-RLE-like mixture:
    //   ~12% near-zero pages  -> ~1.5% of a page (RLE collapse)
    //   ~78% typical pages    -> 25..55%
    //   ~10% high entropy     -> 85..100% (stored nearly raw)
    const std::uint64_t h = splitmix64(tag ^ 0x5a17ab1e00c0ffeeull);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    double ratio;
    if (u < 0.12) {
        ratio = 0.015;
    } else if (u < 0.90) {
        // Spread smoothly over [0.25, 0.55).
        ratio = 0.25 + 0.30 * ((u - 0.12) / 0.78);
    } else {
        ratio = 0.85 + 0.15 * ((u - 0.90) / 0.10);
    }
    const double bytes = ratio * static_cast<double>(kPageSize);
    return static_cast<std::uint32_t>(
        std::clamp(bytes, 64.0, static_cast<double>(kPageSize)));
}

SimDuration
ZramSwapDevice::cpuCost(SwapSlot slot, bool is_write) const
{
    // Cost scales mildly with how hard the page is to compress: an
    // incompressible page costs ~1.3x the nominal latency, a zero page
    // ~0.5x. Derive from the slot's tag when known — for writes the
    // caller must therefore record the new contents (setContentTag via
    // SwapManager::recordContents) BEFORE asking for the cost, or the
    // charge reflects the slot's previous occupant.
    const SimDuration base =
        is_write ? config_.writeLatency : config_.readLatency;
    auto it = slotTag_.find(slot);
    if (it == slotTag_.end())
        return base;
    const double frac = static_cast<double>(compressedSize(it->second)) /
                        static_cast<double>(kPageSize);
    const double scale = 0.5 + 0.8 * frac;
    return static_cast<SimDuration>(static_cast<double>(base) * scale);
}

void
ZramSwapDevice::setContentTag(SwapSlot slot, std::uint64_t tag)
{
    // A write to an occupied slot replaces its contents.
    auto it = slotTag_.find(slot);
    if (it != slotTag_.end()) {
        assert(poolBytes_ >= compressedSize(it->second));
        poolBytes_ -= compressedSize(it->second);
    }
    slotTag_[slot] = tag;
    poolBytes_ += compressedSize(tag);
    poolPeakBytes_ = std::max(poolPeakBytes_, poolBytes_);
    if (config_.poolLimitBytes != 0 &&
        poolBytes_ > config_.poolLimitBytes) {
        ++overflows_;
    }
}

void
ZramSwapDevice::dropSlot(SwapSlot slot)
{
    auto it = slotTag_.find(slot);
    if (it == slotTag_.end())
        return;
    assert(poolBytes_ >= compressedSize(it->second));
    poolBytes_ -= compressedSize(it->second);
    slotTag_.erase(it);
}

std::uint64_t
ZramSwapDevice::auditPoolBytes() const
{
    std::uint64_t bytes = 0;
    // lint:ordered-ok(unsigned sum is commutative; iteration order
    // cannot reach the audit verdict, let alone a TrialResult)
    for (const auto &[slot, tag] : slotTag_) {
        (void)slot;
        bytes += compressedSize(tag);
    }
    return bytes;
}

void
ZramSwapDevice::noteSyncOp(SwapSlot, bool is_write)
{
    if (is_write)
        ++stats_.writes;
    else
        ++stats_.reads;
}

} // namespace pagesim
