/**
 * @file
 * Host-side worker pool for deterministic fan-out.
 *
 * parallelFor() runs a fixed set of chunks across host threads with an
 * atomic claim counter. It is a HOST-speed facility only: callers must
 * keep simulated state deterministic themselves, which in this repo
 * means the harvest/apply pattern — workers write into pre-sized
 * per-chunk output slots touching disjoint memory, and the caller
 * merges the slots serially in fixed chunk order. Which worker ran
 * which chunk, and in what wall-clock order, is then unobservable.
 *
 * It is the only host pool: trial fan-out (runSweep, runColocation),
 * sharded aging scans and sharded audits all drain through it.
 * PAGESIM_WORKERS pins the worker count for every pool user — needed
 * in CI and in the serial-vs-sharded differential tests.
 */

#ifndef PAGESIM_SIM_PARALLEL_HH
#define PAGESIM_SIM_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace pagesim
{

/**
 * Parse a PAGESIM_WORKERS-style override string. @return the worker
 * count, or 0 when @p text is null, empty, non-numeric, non-positive,
 * or absurd (> 1024).
 */
unsigned parseWorkersOverride(const char *text);

/**
 * Cached PAGESIM_WORKERS env override; 0 = unset. A value
 * parseWorkersOverride() rejects exits the process with status 2
 * (see sim/env.hh).
 */
unsigned workerOverride();

/**
 * Worker count of a trial-level pool (runSweep, runColocation):
 * @p requested when nonzero, else the PAGESIM_WORKERS override, else
 * one per hardware thread (4 when the host does not say).
 */
unsigned poolWorkers(unsigned requested = 0);

/**
 * Invoke @p fn(0) ... @p fn(nchunks - 1), each exactly once, across
 * at most @p workers host threads (the calling thread included).
 * workers <= 1 or nchunks <= 1 degenerates to an inline ascending
 * loop — no threads, bit-identical results, which is what keeps the
 * default single-worker configuration equivalent to the serial path.
 * Chunk completion order is nondeterministic otherwise; callers own
 * merge ordering.
 */
void parallelFor(unsigned workers, std::size_t nchunks,
                 const std::function<void(std::size_t)> &fn);

} // namespace pagesim

#endif // PAGESIM_SIM_PARALLEL_HH
