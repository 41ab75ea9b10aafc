/**
 * @file
 * Bloom filter over page-table regions, as used by MG-LRU's aging walk.
 *
 * The kernel keeps two filters per lruvec, double-buffered across aging
 * passes: the walk *tests* the filter populated by the previous pass to
 * decide whether a region (one leaf page-table page) is worth scanning,
 * and *inserts* regions that turned out dense in young PTEs into the
 * filter for the next pass (mm/vmscan.c, lru_gen bloom filters). The
 * eviction path also inserts regions it finds hot, creating the
 * aging/eviction feedback loop the paper describes (Sec. III-C).
 */

#ifndef PAGESIM_POLICY_MGLRU_BLOOM_FILTER_HH
#define PAGESIM_POLICY_MGLRU_BLOOM_FILTER_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"

namespace pagesim
{

/** A fixed-size Bloom filter keyed by region index. */
class RegionBloomFilter
{
  public:
    /** Kernel default: 2^15 bits, 2 hash functions. */
    static constexpr std::uint32_t kDefaultBits = 1u << 15;
    static constexpr unsigned kDefaultHashes = 2;

    /**
     * @param bits   filter size in bits (power of two)
     * @param hashes number of hash probes per key
     * @param salt   per-boot salt (decorrelates trials, like kernel
     *               address-space layout differing across boots)
     */
    explicit RegionBloomFilter(std::uint32_t bits = kDefaultBits,
                               unsigned hashes = kDefaultHashes,
                               std::uint64_t salt = 0);

    /** Insert a region index. */
    void add(std::uint64_t region);

    /** Membership test; false positives possible, negatives exact. */
    bool maybeContains(std::uint64_t region) const;

    /** Remove all entries. */
    void clear();

    /** True if nothing was ever added since the last clear(). */
    bool empty() const { return insertions_ == 0; }

    std::uint64_t insertions() const { return insertions_; }

    /** Fraction of bits set (diagnostic / ablation metric). */
    double fillRatio() const;

    /**
     * Checkpoint the filter contents. Geometry and salt are
     * construction parameters (replayed at restore time), so only the
     * bit words and the insertion counter are captured.
     */
    template <class Self, class Ar>
    static void
    state(Self &self, Ar &ar)
    {
        ar.podVec(self.words_);
        ar.u64(self.insertions_);
    }

  private:
    std::uint64_t hashAt(std::uint64_t region, unsigned probe) const;

    const std::uint32_t bits_;
    const unsigned hashes_;
    const std::uint64_t salt_;
    std::vector<std::uint64_t> words_;
    std::uint64_t insertions_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_POLICY_MGLRU_BLOOM_FILTER_HH
