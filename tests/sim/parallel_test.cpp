/**
 * @file
 * parallelFor: the one host pool. Every chunk index must run exactly
 * once whatever the worker count, including the degenerate shapes
 * (no chunks, one chunk, more workers than chunks). The CI TSan job
 * runs this suite, so the claim counter is also checked for races.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>

#include "sim/parallel.hh"

namespace pagesim
{
namespace
{

TEST(ParallelFor, EveryIndexRunsExactlyOnce)
{
    for (const unsigned workers : {1u, 2u, 4u, 16u}) {
        for (const std::size_t nchunks :
             {std::size_t{0}, std::size_t{1}, std::size_t{3},
              std::size_t{1000}}) {
            const auto runs =
                std::make_unique<std::atomic<unsigned>[]>(nchunks);
            std::atomic<std::size_t> calls{0};
            parallelFor(workers, nchunks, [&](std::size_t i) {
                ASSERT_LT(i, nchunks);
                runs[i].fetch_add(1);
                calls.fetch_add(1);
            });
            EXPECT_EQ(calls.load(), nchunks)
                << workers << " workers, " << nchunks << " chunks";
            for (std::size_t i = 0; i < nchunks; ++i) {
                EXPECT_EQ(runs[i].load(), 1u)
                    << "index " << i << " with " << workers
                    << " workers, " << nchunks << " chunks";
            }
        }
    }
}

TEST(ParallelFor, PoolWorkersPrefersTheRequestedCount)
{
    EXPECT_EQ(poolWorkers(3), 3u);
    EXPECT_GE(poolWorkers(), 1u);
}

} // namespace
} // namespace pagesim
