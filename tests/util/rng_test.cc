#include "util/rng.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

namespace adcache
{
namespace
{

TEST(Rng, DeterministicFromSeed)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next64() == b.next64() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowOneIsAlwaysZero)
{
    Rng rng(9);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng rng(17);
    std::vector<int> buckets(8, 0);
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++buckets[rng.below(8)];
    for (int b : buckets)
        EXPECT_NEAR(b, n / 8, n / 80);
}

TEST(ZipfSampler, RanksInRange)
{
    Rng rng(19);
    ZipfSampler zipf(100, 0.9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(zipf(rng), 100u);
}

TEST(ZipfSampler, HeadDominatesTail)
{
    Rng rng(23);
    ZipfSampler zipf(1000, 1.0);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf(rng)];
    // Rank 0 should be drawn far more often than rank 500.
    EXPECT_GT(counts[0], 20 * (counts[500] + 1));
}

TEST(ZipfSampler, SingleElement)
{
    Rng rng(29);
    ZipfSampler zipf(1, 0.8);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(zipf(rng), 0u);
}

TEST(ZipfSampler, ZeroExponentIsUniform)
{
    Rng rng(31);
    ZipfSampler zipf(4, 0.0);
    std::vector<int> counts(4, 0);
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, n / 4, n / 40);
}

/** The reference bounded draw: a rejection loop over r % bound. */
std::uint64_t
referenceBelow(Rng &rng, std::uint64_t bound)
{
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = rng.next64();
        if (r >= threshold)
            return r % bound;
    }
}

const std::uint64_t kBounds[] = {
    1,
    2,
    3,
    6,
    12,
    20,
    28,
    (std::uint64_t{1} << 32) - 1,
    (std::uint64_t{1} << 32) + 1,
    (std::uint64_t{1} << 63) + 1,
    ~std::uint64_t{0},
};

TEST(RngBound, DrawsMatchReferenceRejectionLoop)
{
    constexpr int draws = 1'000'000;
    for (std::uint64_t bound : kBounds) {
        SCOPED_TRACE(bound);
        const Rng::Bound fixed(bound);
        Rng fast(bound ^ 99), dynamic(bound ^ 99), ref(bound ^ 99);
        int mismatches = 0;
        for (int i = 0; i < draws; ++i) {
            const std::uint64_t want = referenceBelow(ref, bound);
            mismatches += fast.below(fixed) != want;
            mismatches += dynamic.below(bound) != want;
        }
        EXPECT_EQ(mismatches, 0);
        // Same number of raw draws consumed, rejections included.
        EXPECT_EQ(fast.next64(), ref.next64());
    }
}

TEST(RngBound, RemainderMatchesModuloAtEdges)
{
    for (std::uint64_t bound : kBounds) {
        SCOPED_TRACE(bound);
        const Rng::Bound fixed(bound);
        EXPECT_EQ(fixed.value(), bound);
        const std::uint64_t top = ~std::uint64_t{0};
        const std::uint64_t q = top / bound;
        for (std::uint64_t r :
             {std::uint64_t{0}, std::uint64_t{1}, bound - 1, bound,
              bound + 1, 2 * bound - 1, 2 * bound, top, top - 1,
              q * bound - 1, q * bound, top / 2, top / 2 + 1})
            EXPECT_EQ(fixed.mod(r), r % bound) << "r=" << r;
    }
}

/** The reference Zipf CDF, built as ZipfSampler documents it. */
std::vector<double>
referenceZipfCdf(std::uint64_t n, double s)
{
    std::vector<double> cdf(n);
    double total = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        total += 1.0 / std::pow(double(i + 1), s);
        cdf[i] = total;
    }
    for (auto &c : cdf)
        c /= total;
    return cdf;
}

TEST(ZipfSampler, GuidedRankMatchesFullBinarySearch)
{
    constexpr int draws = 1'000'000;
    for (std::uint64_t n : {1, 2, 4095, 4096, 4097, 131072}) {
        for (double s : {0.0, 0.5, 0.99, 1.2}) {
            SCOPED_TRACE(testing::Message() << "n=" << n << " s=" << s);
            const ZipfSampler zipf(n, s);
            const std::vector<double> cdf = referenceZipfCdf(n, s);
            const auto reference = [&](double u) {
                return std::uint64_t(
                    std::lower_bound(cdf.begin(), cdf.end(), u) -
                    cdf.begin());
            };
            // Every cut point j / m of any guide of at most 4096 cut
            // points, and its neighbours on either side.
            std::vector<double> us;
            for (int j = 0; j <= 4096; ++j) {
                const double edge = double(j) / 4096.0;
                for (double u : {std::nextafter(edge, -1.0), edge,
                                 std::nextafter(edge, 2.0)})
                    if (u >= 0.0 && u < 1.0)
                        us.push_back(u);
            }
            int mismatches = 0;
            for (double u : us)
                mismatches += zipf.rank(u) != reference(u);
            Rng rng(n * 31 + std::uint64_t(s * 100));
            for (int i = 0; i < draws; ++i) {
                const double u = rng.uniform();
                mismatches += zipf.rank(u) != reference(u);
            }
            EXPECT_EQ(mismatches, 0);
        }
    }
}

TEST(ZipfSampler, DrawIsRankOfUniform)
{
    const ZipfSampler zipf(1000, 0.9);
    Rng a(37), b(37);
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(zipf(a), zipf.rank(b.uniform()));
}

} // namespace
} // namespace adcache
