#include "sim/rng.hh"

#include <cassert>
#include <map>
#include <mutex>
#include <utility>

namespace pagesim
{

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

namespace
{

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** sum_{i=1..n} i^-theta, in ascending i. */
double
zeta(std::uint64_t n, double theta)
{
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
}

/** The process-wide zeta memo (see ZipfianGenerator). */
struct ZetaMemo
{
    std::mutex mutex;
    std::map<std::pair<std::uint64_t, double>, double> sums;
};

ZetaMemo &
zetaMemo()
{
    static ZetaMemo memo;
    return memo;
}

/**
 * zeta(n, theta) through the memo. A miss sums outside the lock, so
 * trials building different shapes do not queue behind each other;
 * two racing on one shape compute the same value and the first store
 * wins.
 */
double
memoizedZeta(std::uint64_t n, double theta)
{
    ZetaMemo &memo = zetaMemo();
    const auto key = std::make_pair(n, theta);
    {
        const std::lock_guard<std::mutex> lock(memo.mutex);
        if (const auto it = memo.sums.find(key); it != memo.sums.end())
            return it->second;
    }
    const double sum = zeta(n, theta);
    const std::lock_guard<std::mutex> lock(memo.mutex);
    if (memo.sums.size() < ZipfianGenerator::kZetaMemoCap)
        memo.sums.emplace(key, sum);
    return sum;
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // Expand the seed with splitmix64, per the xoshiro authors'
    // recommendation; guarantees a nonzero state.
    std::uint64_t x = seed;
    for (auto &word : s_) {
        x = splitmix64(x);
        word = x;
    }
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 0x9e3779b97f4a7c15ull;
}

Rng
Rng::fork(std::uint64_t stream) const
{
    // Mix the parent's state words with the stream id so children are
    // decorrelated from the parent and from each other.
    std::uint64_t seed = splitmix64(s_[0] ^ rotl(s_[2], 17) ^
                                    splitmix64(stream * 0xd1342543de82ef95ull + 1));
    return Rng(seed);
}

std::uint64_t
Rng::nextU64()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

double
Rng::nextDouble()
{
    // 53 high bits -> uniform in [0,1).
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    assert(lo <= hi);
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) // full 2^64 range
        return nextU64();
    // Lemire's multiply-shift bounded draw with rejection for exactness.
    std::uint64_t x = nextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * span;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < span) {
        const std::uint64_t t = (0 - span) % span;
        while (l < t) {
            x = nextU64();
            m = static_cast<__uint128_t>(x) * span;
            l = static_cast<std::uint64_t>(m);
        }
    }
    return lo + static_cast<std::uint64_t>(m >> 64);
}

double
Rng::uniformReal(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

bool
Rng::bernoulli(double p)
{
    return nextDouble() < p;
}

double
Rng::normal(double mean, double stddev)
{
    if (haveSpareNormal_) {
        haveSpareNormal_ = false;
        return mean + stddev * spareNormal_;
    }
    double u1;
    do {
        u1 = nextDouble();
    } while (u1 <= 1e-300);
    const double u2 = nextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spareNormal_ = r * std::sin(theta);
    haveSpareNormal_ = true;
    return mean + stddev * r * std::cos(theta);
}

double
Rng::exponential(double mean)
{
    double u;
    do {
        u = nextDouble();
    } while (u <= 1e-300);
    return -mean * std::log(u);
}

double
Rng::logNormalMean(double mean, double sigma)
{
    // If X ~ LogNormal(mu, sigma), E[X] = exp(mu + sigma^2/2);
    // solve for mu to hit the requested linear-space mean.
    const double mu = std::log(mean) - 0.5 * sigma * sigma;
    return std::exp(normal(mu, sigma));
}

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta,
                                   bool scrambled)
    : n_(n), theta_(theta), scrambled_(scrambled)
{
    assert(n_ >= 1);
    assert(theta_ > 0.0 && theta_ < 1.0);
    zetan_ = memoizedZeta(n_, theta_);
    const double zeta2 = zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
    thetaPowHalf_ = std::pow(0.5, theta_);
}

std::size_t
ZipfianGenerator::memoizedShapes()
{
    ZetaMemo &memo = zetaMemo();
    const std::lock_guard<std::mutex> lock(memo.mutex);
    return memo.sums.size();
}

std::uint64_t
ZipfianGenerator::next(Rng &rng) const
{
    const double u = rng.nextDouble();
    const double uz = u * zetan_;
    std::uint64_t rank;
    if (uz < 1.0) {
        rank = 0;
    } else if (uz < 1.0 + thetaPowHalf_) {
        rank = 1;
    } else {
        rank = static_cast<std::uint64_t>(
            static_cast<double>(n_) *
            std::pow(eta_ * u - eta_ + 1.0, alpha_));
        if (rank >= n_)
            rank = n_ - 1;
    }
    if (!scrambled_)
        return rank;
    return splitmix64(rank) % n_;
}

} // namespace pagesim
