#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/serialize.hh"

namespace pagesim
{
namespace
{

/** Ranges of the given lengths, each filled with its own bytes. */
std::vector<std::vector<std::uint8_t>>
makeRanges(const std::vector<std::size_t> &lengths, Rng &rng)
{
    std::vector<std::vector<std::uint8_t>> ranges;
    for (std::size_t len : lengths) {
        ranges.emplace_back(len);
        for (std::uint8_t &b : ranges.back())
            b = static_cast<std::uint8_t>(rng.nextU64());
    }
    return ranges;
}

/** fnv1aEach over @p ranges must equal fnv1a on each range alone. */
void
expectMatchesSerial(const std::vector<std::vector<std::uint8_t>> &ranges,
                    const std::string &tag)
{
    std::vector<ByteSpan> spans;
    for (const auto &r : ranges)
        spans.push_back({r.data(), r.size()});
    const std::vector<std::uint64_t> got = fnv1aEach(spans);
    ASSERT_EQ(got.size(), ranges.size()) << tag;
    for (std::size_t i = 0; i < ranges.size(); ++i)
        EXPECT_EQ(got[i], fnv1a(ranges[i].data(), ranges[i].size()))
            << tag << ", range " << i << " of " << ranges.size()
            << " (" << ranges[i].size() << " bytes)";
}

TEST(Fnv1aEach, MatchesSerialOnShapedRangeSets)
{
    Rng rng(3);
    const std::vector<std::vector<std::size_t>> shapes = {
        {},                      // no ranges
        {0},                     // one empty range
        {0, 0, 0},               // only empty ranges
        {777},                   // a single range
        {64, 64, 64},            // equal lengths
        {5000, 10, 300, 0, 7},   // largest first
        {10, 0, 300, 7, 5000},   // largest last
        {300, 5000, 4999, 4000}, // the others outlast lane A
        {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, // 1-byte ranges
        {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2000},
    };
    for (std::size_t s = 0; s < shapes.size(); ++s)
        expectMatchesSerial(makeRanges(shapes[s], rng),
                            "shape " + std::to_string(s));
}

TEST(Fnv1aEach, MatchesSerialOnRandomRangeSets)
{
    Rng rng(11);
    for (int round = 0; round < 200; ++round) {
        std::vector<std::size_t> lengths(rng.uniformInt(0, 12));
        for (std::size_t &len : lengths) {
            // Mix empty, tiny and multi-kilobyte ranges.
            switch (rng.uniformInt(0, 3)) {
              case 0:
                len = 0;
                break;
              case 1:
                len = rng.uniformInt(1, 3);
                break;
              default:
                len = rng.uniformInt(0, 8192);
                break;
            }
        }
        expectMatchesSerial(makeRanges(lengths, rng),
                            "round " + std::to_string(round));
    }
}

TEST(Fnv1aEach, NullEmptySpansHashToTheOffsetBasis)
{
    const std::vector<std::uint64_t> got =
        fnv1aEach({ByteSpan{}, ByteSpan{}});
    EXPECT_EQ(got, (std::vector<std::uint64_t>{kFnvOffset, kFnvOffset}));
}

} // namespace
} // namespace pagesim
