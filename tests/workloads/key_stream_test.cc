#include "workloads/key_stream.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace adcache
{
namespace
{

std::vector<std::uint64_t>
drawMany(KeyStream &stream, std::size_t n)
{
    std::vector<std::uint64_t> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(stream.next());
    return out;
}

TEST(KeyStreamTest, SameSeedSameStream)
{
    KeyStreamSpec spec;
    spec.pattern = KeyPattern::Zipf;
    spec.keySpace = 4096;
    spec.seed = 42;
    KeyStream a(spec), b(spec);
    EXPECT_EQ(drawMany(a, 2000), drawMany(b, 2000));
}

TEST(KeyStreamTest, DifferentSeedsDiverge)
{
    KeyStreamSpec spec;
    spec.pattern = KeyPattern::Uniform;
    spec.keySpace = 1 << 16;
    spec.seed = 1;
    KeyStream a(spec);
    spec.seed = 2;
    KeyStream b(spec);
    EXPECT_NE(drawMany(a, 100), drawMany(b, 100));
}

TEST(KeyStreamTest, ResetReplaysExactly)
{
    KeyStreamSpec spec;
    spec.pattern = KeyPattern::PhaseFlip;
    spec.keySpace = 1024;
    spec.phasePeriod = 50;
    spec.driftEvery = 300;
    KeyStream stream(spec);
    const auto first = drawMany(stream, 1000);
    stream.reset();
    EXPECT_EQ(stream.position(), 0u);
    EXPECT_EQ(drawMany(stream, 1000), first);
}

TEST(KeyStreamTest, ZipfSkewFavorsLowRanks)
{
    KeyStreamSpec spec;
    spec.pattern = KeyPattern::Zipf;
    spec.keySpace = 1000;
    spec.skew = 1.0;
    spec.scramble = false; // rank r -> key r
    KeyStream stream(spec);
    std::map<std::uint64_t, unsigned> freq;
    for (int i = 0; i < 20000; ++i)
        ++freq[stream.next()];
    // Rank 0 must dominate any mid-popularity rank by a wide margin.
    EXPECT_GT(freq[0], 10 * freq[100]);
}

TEST(KeyStreamTest, ScanSweepsSequentiallyAndWraps)
{
    KeyStreamSpec spec;
    spec.pattern = KeyPattern::Scan;
    spec.keySpace = 1 << 20;
    spec.scanSpan = 8;
    spec.scramble = false;
    KeyStream stream(spec);
    const auto keys = drawMany(stream, 20);
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(keys[i], i % 8) << "position " << i;
}

TEST(KeyStreamTest, PhaseFlipAlternatesRegimes)
{
    KeyStreamSpec spec;
    spec.pattern = KeyPattern::PhaseFlip;
    spec.keySpace = 1 << 16;
    spec.phasePeriod = 100;
    spec.scanSpan = 16;
    spec.scramble = false;
    KeyStream stream(spec);

    EXPECT_FALSE(stream.scanPhase());
    drawMany(stream, 100);
    EXPECT_TRUE(stream.scanPhase());
    // The scan regime emits only ranks below the span.
    for (const std::uint64_t key : drawMany(stream, 100))
        EXPECT_LT(key, 16u);
    EXPECT_FALSE(stream.scanPhase());
}

TEST(KeyStreamTest, DriftRelocatesHotSet)
{
    KeyStreamSpec spec;
    spec.pattern = KeyPattern::Zipf;
    spec.keySpace = 256;
    spec.skew = 1.2;
    spec.driftEvery = 5000;
    KeyStream stream(spec);

    std::set<std::uint64_t> before, after;
    for (int i = 0; i < 5000; ++i)
        before.insert(stream.next());
    for (int i = 0; i < 5000; ++i)
        after.insert(stream.next());

    // With the mapping salted by the rotation count, the two epochs
    // share no keys at all.
    std::vector<std::uint64_t> overlap;
    std::set_intersection(before.begin(), before.end(), after.begin(),
                          after.end(), std::back_inserter(overlap));
    EXPECT_TRUE(overlap.empty());
}

TEST(KeyStreamTest, FootprintBoundedByKeySpace)
{
    KeyStreamSpec spec;
    spec.pattern = KeyPattern::Uniform;
    spec.keySpace = 64;
    KeyStream stream(spec);
    std::set<std::uint64_t> distinct;
    for (int i = 0; i < 10000; ++i)
        distinct.insert(stream.next());
    EXPECT_LE(distinct.size(), 64u);
    EXPECT_GT(distinct.size(), 32u); // and it actually covers it
}

TEST(KeyStreamTest, ScrambleIsCollisionFree)
{
    KeyStreamSpec spec;
    spec.pattern = KeyPattern::Scan;
    spec.keySpace = 4096;
    spec.scramble = true;
    KeyStream stream(spec);
    std::set<std::uint64_t> distinct;
    for (int i = 0; i < 4096; ++i)
        distinct.insert(stream.next());
    EXPECT_EQ(distinct.size(), 4096u);
}

/** valueFor as it was first written, one byte at a time: the
 *  reference the faster version must match byte for byte. */
std::string
bytewiseValueFor(std::uint64_t key, const ValueSpec &spec)
{
    const auto mix64 = [](std::uint64_t v) {
        std::uint64_t z = v + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    };
    std::string v = "v" + std::to_string(key) + ":";
    const std::size_t size =
        std::max(valueSizeFor(key, spec), v.size());
    v.reserve(size);
    std::uint64_t fill = mix64(key);
    while (v.size() < size) {
        v.push_back(char('a' + (fill & 15)));
        fill = (fill >> 4) | (fill << 60);
    }
    return v;
}

TEST(KeyStreamTest, ValueForMatchesTheBytewiseReference)
{
    // Small keys and keys near 2^64 (20-digit headers that outgrow
    // the small specs), under variable, tiny and exact sizes.
    const ValueSpec specs[] = {{64, 256}, {1, 1}, {8, 8}};
    for (const ValueSpec &spec : specs) {
        for (std::uint64_t i = 0; i < 100'000; ++i) {
            for (const std::uint64_t key : {i, ~std::uint64_t(0) - i}) {
                ASSERT_EQ(valueFor(key, spec), bytewiseValueFor(key, spec))
                    << "key " << key << " spec " << spec.describe();
            }
        }
    }
}

TEST(KeyStreamTest, Describe)
{
    KeyStreamSpec spec;
    spec.pattern = KeyPattern::Zipf;
    spec.keySpace = 1024;
    spec.skew = 0.9;
    EXPECT_EQ(spec.describe(), "zipf(0.9)@1024");
    spec.pattern = KeyPattern::Uniform;
    EXPECT_EQ(spec.describe(), "uniform@1024");
}

} // namespace
} // namespace adcache
