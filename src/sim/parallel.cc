#include "sim/parallel.hh"

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "sim/env.hh"

namespace pagesim
{

namespace
{

std::optional<unsigned>
parseWorkers(const char *text)
{
    return parseCount(text, 1, 1024);
}

} // namespace

unsigned
parseWorkersOverride(const char *text)
{
    return parseWorkers(text).value_or(0);
}

unsigned
workerOverride()
{
    static const unsigned cached =
        envKnob("PAGESIM_WORKERS", "a whole number from 1 to 1024",
                parseWorkers)
            .value_or(0);
    return cached;
}

unsigned
poolWorkers(unsigned requested)
{
    if (requested != 0)
        return requested;
    if (const unsigned pinned = workerOverride())
        return pinned;
    // Resolved once per process: hardware_concurrency() is a syscall
    // on some libstdc++ targets, and figure benches sweep per figure.
    static const unsigned hw = [] {
        const unsigned n = std::thread::hardware_concurrency();
        return n == 0 ? 4u : n;
    }();
    return hw;
}

void
parallelFor(unsigned workers, std::size_t nchunks,
            const std::function<void(std::size_t)> &fn)
{
    if (workers <= 1 || nchunks <= 1) {
        for (std::size_t i = 0; i < nchunks; ++i)
            fn(i);
        return;
    }
    if (workers > nchunks)
        workers = static_cast<unsigned>(nchunks);

    std::atomic<std::size_t> next{0};
    auto drain = [&next, nchunks, &fn] {
        while (true) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= nchunks)
                return;
            fn(i);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w)
        pool.emplace_back(drain);
    drain();
    for (std::thread &t : pool)
        t.join();
}

} // namespace pagesim
