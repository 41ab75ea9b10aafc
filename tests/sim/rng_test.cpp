#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"

namespace pagesim
{
namespace
{

TEST(Rng, DeterministicForSeed)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.nextU64() == b.nextU64();
    EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsIndependentOfParentState)
{
    Rng a(7);
    Rng child1 = a.fork(1);
    // Forking must not perturb the parent.
    Rng b(7);
    (void)b.fork(1);
    Rng child2 = b.fork(1);
    EXPECT_EQ(child1.nextU64(), child2.nextU64());
}

TEST(Rng, ForkStreamsDecorrelated)
{
    Rng a(7);
    Rng c1 = a.fork(1);
    Rng c2 = a.fork(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += c1.nextU64() == c2.nextU64();
    EXPECT_EQ(same, 0);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i) {
        const double x = r.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng r(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t x = r.uniformInt(3, 10);
        ASSERT_GE(x, 3u);
        ASSERT_LE(x, 10u);
        saw_lo |= x == 3;
        saw_hi |= x == 10;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleValue)
{
    Rng r(5);
    EXPECT_EQ(r.uniformInt(42, 42), 42u);
}

TEST(Rng, UniformIntIsRoughlyUniform)
{
    Rng r(11);
    constexpr int kBuckets = 16;
    constexpr int kDraws = 160000;
    std::vector<int> counts(kBuckets, 0);
    for (int i = 0; i < kDraws; ++i)
        ++counts[r.uniformInt(0, kBuckets - 1)];
    const double expect = static_cast<double>(kDraws) / kBuckets;
    for (int c : counts) {
        EXPECT_NEAR(c, expect, expect * 0.1);
    }
}

TEST(Rng, NormalMomentsMatch)
{
    Rng r(13);
    constexpr int kN = 200000;
    double sum = 0, sumsq = 0;
    for (int i = 0; i < kN; ++i) {
        const double x = r.normal(10.0, 2.0);
        sum += x;
        sumsq += x * x;
    }
    const double mean = sum / kN;
    const double var = sumsq / kN - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng r(17);
    constexpr int kN = 200000;
    double sum = 0;
    for (int i = 0; i < kN; ++i)
        sum += r.exponential(5.0);
    EXPECT_NEAR(sum / kN, 5.0, 0.1);
}

TEST(Rng, LogNormalMeanMatches)
{
    Rng r(19);
    constexpr int kN = 400000;
    double sum = 0;
    for (int i = 0; i < kN; ++i)
        sum += r.logNormalMean(100.0, 0.3);
    EXPECT_NEAR(sum / kN, 100.0, 1.5);
}

TEST(Rng, BernoulliFrequencyMatches)
{
    Rng r(23);
    int hits = 0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(hits / static_cast<double>(kN), 0.3, 0.01);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng r(29);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Zipfian, RanksAreSkewed)
{
    // Unscrambled zipf: item 0 must be the most popular and the head
    // must dominate.
    Rng r(31);
    ZipfianGenerator z(1000, 0.99, false);
    std::map<std::uint64_t, int> counts;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i)
        ++counts[z.next(r)];
    int head = 0;
    for (std::uint64_t i = 0; i < 10; ++i)
        head += counts.count(i) ? counts[i] : 0;
    // With theta=0.99 the top-10 of 1000 items draw >30% of requests.
    EXPECT_GT(head, kN * 3 / 10);
    // And item 0 beats item 500 decisively.
    EXPECT_GT(counts[0], 50 * std::max(counts[500], 1));
}

TEST(Zipfian, AllDrawsInRange)
{
    Rng r(37);
    ZipfianGenerator z(123, 0.8, true);
    for (int i = 0; i < 50000; ++i)
        EXPECT_LT(z.next(r), 123u);
}

TEST(Zipfian, ScrambledSpreadsHotItems)
{
    // Scrambled zipfian must not concentrate popularity on low ids.
    Rng r(41);
    ZipfianGenerator z(1000, 0.99, true);
    std::uint64_t low = 0, total = 0;
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t x = z.next(r);
        low += x < 100;
        ++total;
    }
    // Hot items are scattered: the lowest decile should hold far less
    // than the unscrambled case (~60%) — but it is still nonuniform.
    EXPECT_LT(static_cast<double>(low) / total, 0.4);
}

TEST(Zipfian, DeterministicTrace)
{
    Rng r1(43), r2(43);
    ZipfianGenerator z1(500, 0.9, true), z2(500, 0.9, true);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(z1.next(r1), z2.next(r2));
}

/** The first 1,000 draws of @p z from Rng(seed 47). */
std::vector<std::uint64_t>
zipfPrefix(const ZipfianGenerator &z)
{
    Rng r(47);
    std::vector<std::uint64_t> draws(1000);
    for (std::uint64_t &d : draws)
        d = z.next(r);
    return draws;
}

/** FNV-1a over a draw sequence's bytes. */
std::uint64_t
drawsFingerprint(const std::vector<std::uint64_t> &draws)
{
    return fnv1a(draws.data(), draws.size() * sizeof(draws[0]));
}

/** zipfPrefix of a (48,000, 0.99) generator, as recorded before the
 *  (n, theta) constants were memoized. */
constexpr std::uint64_t kZipfPrefixPin = 5836510666787266835ull;

TEST(Zipfian, FirstThousandDrawsPinned)
{
    // YCSB's default shape at 48,000 items: any drift in zeta(n),
    // zeta(2) or eta moves a draw, and with it this fingerprint.
    const std::vector<std::uint64_t> draws =
        zipfPrefix(ZipfianGenerator(48000, 0.99));
    const std::vector<std::uint64_t> head(draws.begin(),
                                          draws.begin() + 8);
    EXPECT_EQ(head, (std::vector<std::uint64_t>{38171, 37141, 8555, 12228,
                                                38465, 15535, 27287,
                                                46346}));
    EXPECT_EQ(drawsFingerprint(draws), kZipfPrefixPin);
}

/** The pinned prefix fingerprint of a (48,000, 0.99) generator built
 *  on each of 4 parallelFor workers at once. */
std::vector<std::uint64_t>
concurrentPrefixFingerprints()
{
    std::vector<std::uint64_t> fps(4);
    parallelFor(4, fps.size(), [&fps](std::size_t i) {
        fps[i] = drawsFingerprint(zipfPrefix(ZipfianGenerator(48000, 0.99)));
    });
    return fps;
}

TEST(ZipfianMemo, ConcurrentBuildsDrawThePinnedPrefix)
{
    // ctest runs each test in its own process, so the memo starts
    // with one other shape of the same n: the four workers race to
    // sum and store (48,000, 0.99), then a later build reads it.
    ZipfianGenerator(48000, 0.5);
    for (std::uint64_t fp : concurrentPrefixFingerprints())
        EXPECT_EQ(fp, kZipfPrefixPin);
    EXPECT_EQ(drawsFingerprint(zipfPrefix(ZipfianGenerator(48000, 0.99))),
              kZipfPrefixPin);
}

TEST(ZipfianMemo, BuildsPastTheCapDrawThePinnedPrefix)
{
    // Fill the memo with kZetaMemoCap other shapes of the same theta;
    // (48,000, 0.99) is then summed on every build and never stored.
    for (std::uint64_t n = 2; n < 2 + ZipfianGenerator::kZetaMemoCap; ++n)
        ZipfianGenerator(n, 0.99);
    EXPECT_EQ(ZipfianGenerator::memoizedShapes(),
              ZipfianGenerator::kZetaMemoCap);
    for (std::uint64_t fp : concurrentPrefixFingerprints())
        EXPECT_EQ(fp, kZipfPrefixPin);
    EXPECT_EQ(drawsFingerprint(zipfPrefix(ZipfianGenerator(48000, 0.99))),
              kZipfPrefixPin);
    EXPECT_EQ(ZipfianGenerator::memoizedShapes(),
              ZipfianGenerator::kZetaMemoCap);
}

} // namespace
} // namespace pagesim
