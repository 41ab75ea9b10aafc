/**
 * @file
 * Result digests: the benchmark's correctness gate.
 *
 * A change meant only to speed the simulator up must leave every
 * simulated statistic identical, so each trial's result is hashed and
 * compared, never gated by a tolerance.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>
#include <string>

#include "harness/experiment.hh"

namespace perfbench
{

/** FNV-1a over a stream of 64-bit words. */
class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/**
 * Hash of everything a trial reports: runtime, major faults, kernel,
 * policy, swap, MG-LRU and tier counters, per-thread finish times and
 * blocking faults, daemon CPU, latency histograms and touches.
 */
std::uint64_t fingerprint(const pagesim::TrialResult &r);

/** @p v as 16 lowercase hex digits. */
std::string hex64(std::uint64_t v);

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
