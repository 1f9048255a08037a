#include "workloads/kernels.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

namespace adcache
{
namespace
{

unsigned
setOf(Addr a)
{
    return unsigned((a / referenceLineSize) % referenceNumSets);
}

TEST(LinearLoop, SweepsAndWraps)
{
    Rng rng(1);
    auto k = makeKernel(KernelSpec::linearLoop(0x1000, 256, 64), rng);
    EXPECT_EQ(k->next(rng), 0x1000u);
    EXPECT_EQ(k->next(rng), 0x1040u);
    EXPECT_EQ(k->next(rng), 0x1080u);
    EXPECT_EQ(k->next(rng), 0x10C0u);
    EXPECT_EQ(k->next(rng), 0x1000u) << "wraps to base";
}

TEST(LinearLoop, CustomStride)
{
    Rng rng(1);
    auto k = makeKernel(KernelSpec::linearLoop(0, 64, 8), rng);
    for (Addr expect = 0; expect < 64; expect += 8)
        EXPECT_EQ(k->next(rng), expect);
    EXPECT_EQ(k->next(rng), 0u);
}

TEST(SetColoredLoop, ConfinesToSetRange)
{
    Rng rng(1);
    auto k = makeKernel(KernelSpec::setColoredLoop(0, 100, 50, 12),
                        rng);
    for (int i = 0; i < 5000; ++i) {
        const unsigned s = setOf(k->next(rng));
        EXPECT_GE(s, 100u);
        EXPECT_LT(s, 150u);
    }
}

TEST(SetColoredLoop, PerSetCycleDepth)
{
    Rng rng(1);
    const unsigned depth = 5;
    auto k = makeKernel(KernelSpec::setColoredLoop(0, 0, 4, depth),
                        rng);
    // Collect the distinct blocks observed for one set over full
    // cycles: must be exactly `depth`.
    std::set<Addr> blocks_of_set0;
    for (int i = 0; i < 4 * 5 * 3; ++i) {
        const Addr a = k->next(rng);
        if (setOf(a) == 0)
            blocks_of_set0.insert(a / referenceLineSize);
    }
    EXPECT_EQ(blocks_of_set0.size(), depth);
}

TEST(HotCold, BernoulliMixesRegions)
{
    Rng rng(2);
    auto spec = KernelSpec::hotCold(0, 64 * 1024, 1 << 20, 0.5);
    auto k = makeKernel(spec, rng);
    int hot = 0, cold = 0;
    for (int i = 0; i < 10000; ++i) {
        const Addr a = k->next(rng);
        (a < 64 * 1024 ? hot : cold) += 1;
    }
    EXPECT_NEAR(hot, 5000, 500);
    EXPECT_NEAR(cold, 5000, 500);
}

TEST(HotCold, BurstModeAlternatesRuns)
{
    Rng rng(3);
    auto spec = KernelSpec::burstyHotCold(0, 64 * 1024, 1 << 20, 10,
                                          20, 64);
    auto k = makeKernel(spec, rng);
    // First 10 refs hot, next 20 cold, repeating.
    for (int cycle = 0; cycle < 5; ++cycle) {
        for (int i = 0; i < 10; ++i)
            EXPECT_LT(k->next(rng), 64u * 1024) << "hot run";
        for (int i = 0; i < 20; ++i)
            EXPECT_GE(k->next(rng), 64u * 1024) << "cold run";
    }
}

TEST(HotCold, SequentialHotSweepsUniformly)
{
    Rng rng(4);
    auto spec = KernelSpec::burstyHotCold(0, 8 * 64, 1 << 20, 8, 1, 64);
    spec.hotSequential = true;
    auto k = makeKernel(spec, rng);
    std::set<Addr> hot_blocks;
    for (int i = 0; i < 9 * 4; ++i) {
        const Addr a = k->next(rng);
        if (a < 8 * 64)
            hot_blocks.insert(a / 64);
    }
    EXPECT_EQ(hot_blocks.size(), 8u) << "every hot block visited";
}

TEST(HotCold, ColdStrideControlsLineReuse)
{
    Rng rng(5);
    auto spec = KernelSpec::burstyHotCold(0, 64, 1 << 20, 1, 16, 8);
    auto k = makeKernel(spec, rng);
    k->next(rng);  // hot ref
    // 8-byte cold stride: 8 consecutive cold refs share a 64B line.
    std::set<Addr> lines;
    for (int i = 0; i < 8; ++i)
        lines.insert(k->next(rng) / 64);
    EXPECT_EQ(lines.size(), 1u);
}

TEST(HotCold, SetRestrictedHotStaysInSpan)
{
    Rng rng(6);
    auto spec = KernelSpec::burstyHotCold(0, 256 * 7 * 64, 1 << 20,
                                          100, 1, 64);
    spec.hotSequential = true;
    spec.spanSets = 256;
    auto k = makeKernel(spec, rng);
    for (int i = 0; i < 2000; ++i) {
        const Addr a = k->next(rng);
        // Hot refs (the vast majority) must stay in sets [0, 256).
        if (i % 101 != 100)
            EXPECT_LT(setOf(a), 256u);
    }
}

TEST(Zipf, StaysInFootprint)
{
    Rng rng(7);
    auto k = makeKernel(KernelSpec::zipf(0x4000, 64 * 1024, 0.9), rng);
    for (int i = 0; i < 5000; ++i) {
        const Addr a = k->next(rng);
        EXPECT_GE(a, 0x4000u);
        EXPECT_LT(a, 0x4000u + 64 * 1024);
    }
}

TEST(Zipf, SetConfinement)
{
    Rng rng(8);
    auto spec = KernelSpec::zipf(0, 128 * 1024, 0.9);
    spec.firstSet = 512;
    spec.spanSets = 256;
    auto k = makeKernel(spec, rng);
    for (int i = 0; i < 5000; ++i) {
        const unsigned s = setOf(k->next(rng));
        EXPECT_GE(s, 512u);
        EXPECT_LT(s, 768u);
    }
}

TEST(DriftingZipf, HotSetMovesOverTime)
{
    Rng rng(9);
    auto spec = KernelSpec::driftingZipf(0, 64 * 1024, 1.2, 1000,
                                         16 * 1024);
    auto k = makeKernel(spec, rng);
    std::set<Addr> early, late;
    for (int i = 0; i < 500; ++i)
        early.insert(k->next(rng) / 64);
    for (int i = 0; i < 10000; ++i)
        k->next(rng);
    for (int i = 0; i < 500; ++i)
        late.insert(k->next(rng) / 64);
    // The dominant blocks must differ substantially after drifting.
    int common = 0;
    for (Addr b : early)
        common += late.count(b) ? 1 : 0;
    EXPECT_LT(common, int(early.size()))
        << "hot set should have moved";
}

TEST(PointerChase, VisitsAllNodesInOneCycle)
{
    Rng rng(10);
    const std::uint64_t bytes = 32 * 64;
    auto k = makeKernel(KernelSpec::pointerChase(0, bytes), rng);
    std::set<Addr> seen;
    for (int i = 0; i < 32; ++i)
        seen.insert(k->next(rng));
    EXPECT_EQ(seen.size(), 32u)
        << "Sattolo cycle visits every node exactly once";
}

TEST(PointerChase, Deterministic)
{
    Rng rng1(11), rng2(11);
    auto k1 = makeKernel(KernelSpec::pointerChase(0, 2048), rng1);
    auto k2 = makeKernel(KernelSpec::pointerChase(0, 2048), rng2);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(k1->next(rng1), k2->next(rng2));
}

TEST(UniformRandom, CoversRegion)
{
    Rng rng(12);
    auto k = makeKernel(KernelSpec::uniformRandom(0, 16 * 64), rng);
    std::set<Addr> seen;
    for (int i = 0; i < 2000; ++i) {
        const Addr a = k->next(rng);
        ASSERT_LT(a, 16u * 64);
        seen.insert(a / 64);
    }
    EXPECT_EQ(seen.size(), 16u);
}

TEST(StridedSweep, TouchesNeighbours)
{
    Rng rng(13);
    auto k = makeKernel(KernelSpec::stridedSweep(0, 1 << 20, 192, 2),
                        rng);
    // Pattern per element: +64 and -64 neighbours, then the pivot,
    // then the next element's neighbours.
    EXPECT_EQ(k->next(rng), 64u);
    EXPECT_EQ(k->next(rng), (std::uint64_t(1) << 20) - 64);
    EXPECT_EQ(k->next(rng), 0u);
    EXPECT_EQ(k->next(rng), 192u + 64);
}

// ---------------------------------------------------------------
// The kernels replace per-reference divisions with running indices
// and precomputed layouts. These references compute each address
// with the plain division/modulo formulas, from the same seed.
// ---------------------------------------------------------------

constexpr std::uint64_t kLine = referenceLineSize;

/** Seeded block permutation, drawn as the kernels draw it. */
std::vector<std::uint64_t>
referencePerm(std::uint64_t blocks, Rng &rng)
{
    std::vector<std::uint64_t> perm(blocks);
    std::iota(perm.begin(), perm.end(), std::uint64_t{0});
    for (std::uint64_t i = blocks - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.below(i + 1)]);
    return perm;
}

TEST(SetColoredLoop, MatchesDivisionFormula)
{
    // A range running past the last set wraps to set 0.
    const Addr base = 0x1000'0000;
    const unsigned first = 1000, span = 50, depth = 7;
    Rng rng(1);
    auto k = makeKernel(
        KernelSpec::setColoredLoop(base, first, span, depth), rng);
    for (std::uint64_t i = 0; i < 10 * span * depth; ++i) {
        const unsigned set = first + unsigned(i % span);
        const std::uint64_t d = (i / span) % depth;
        ASSERT_EQ(k->next(rng), base + d * referenceSetPeriod +
                                    (set % referenceNumSets) * kLine)
            << "ref " << i;
    }
}

TEST(Zipf, MatchesDivisionFormula)
{
    struct Case
    {
        unsigned firstSet, spanSets;
        std::uint64_t bytes, period, step;
    };
    // Full span; set-confined; and a drift step wider than the region.
    for (const Case c : {Case{0, 1024, 1280 * 1024, 500, 64 * 1024},
                         Case{512, 512, 1280 * 1024, 300, 64 * 1024},
                         Case{100, 300, 64 * 1024, 50, 200 * 1024},
                         Case{7, 1024, 16 * 1024, 0, 0}}) {
        SCOPED_TRACE(c.spanSets);
        const Addr base = 0x2000'0000;
        auto spec = c.period ? KernelSpec::driftingZipf(base, c.bytes, 1.0,
                                                        c.period, c.step)
                             : KernelSpec::zipf(base, c.bytes, 1.2);
        spec.firstSet = c.firstSet;
        spec.spanSets = c.spanSets;
        Rng rng(21), ref_rng(21);
        auto k = makeKernel(spec, rng);

        const std::uint64_t blocks = c.bytes / kLine;
        const ZipfSampler zipf(blocks, spec.zipfS);
        const auto perm = referencePerm(blocks, ref_rng);
        const std::uint64_t drift =
            std::max<std::uint64_t>(1, c.step / kLine);
        std::uint64_t rotation = 0;
        for (std::uint64_t i = 1; i <= 20'000; ++i) {
            if (c.period != 0 && i % c.period == 0)
                rotation = (rotation + drift) % blocks;
            const std::uint64_t block =
                perm[(zipf(ref_rng) + rotation) % blocks];
            const Addr want =
                c.spanSets >= referenceNumSets
                    ? base + block * kLine
                    : base + (c.firstSet + block % c.spanSets) * kLine +
                          block / c.spanSets * referenceSetPeriod;
            ASSERT_EQ(k->next(rng), want) << "ref " << i;
        }
    }
}

TEST(HotCold, MatchesDivisionFormula)
{
    struct Case
    {
        unsigned spanSets;
        bool sequential;
        std::uint64_t coldStride;
    };
    // Full and restricted spans, sequential and Zipf hot references,
    // and a cold stride wider than a one-set chunk.
    for (const Case c : {Case{1024, true, 8}, Case{448, true, 8},
                         Case{300, false, 64}, Case{1, false, 200},
                         Case{1024, false, 8}}) {
        SCOPED_TRACE(c.spanSets);
        const Addr base = 0x3000'0000;
        const std::uint64_t hot_bytes = 700 * kLine;
        const std::uint64_t cold_bytes = 50'000;
        auto spec = KernelSpec::burstyHotCold(base, hot_bytes, cold_bytes,
                                              37, 53, c.coldStride, 0.7);
        spec.hotSequential = c.sequential;
        spec.spanSets = c.spanSets;
        Rng rng(31), ref_rng(31);
        auto k = makeKernel(spec, rng);

        const std::uint64_t span = c.spanSets;
        const std::uint64_t blocks = hot_bytes / kLine;
        const ZipfSampler zipf(blocks, 0.7);
        const auto perm = referencePerm(blocks, ref_rng);
        const auto layout = [&](std::uint64_t i) {
            return i % span * kLine + i / span * referenceSetPeriod;
        };
        const Addr cold_base =
            span < referenceNumSets
                ? base + (blocks + span - 1) / span * referenceSetPeriod
                : base + hot_bytes;
        std::uint64_t hot_pos = 0, cold_pos = 0;
        for (std::uint64_t i = 0; i < 30'000; ++i) {
            Addr want;
            if (i % 90 < 37) {
                std::uint64_t block;
                if (c.sequential) {
                    block = hot_pos;
                    hot_pos = (hot_pos + 1) % blocks;
                } else {
                    block = perm[zipf(ref_rng)];
                }
                want = base + layout(block);
            } else {
                const std::uint64_t chunk = span * kLine;
                want = cold_base + cold_pos / chunk * referenceSetPeriod +
                       cold_pos % chunk;
                cold_pos += c.coldStride;
                if (cold_pos >= cold_bytes)
                    cold_pos = 0;
            }
            ASSERT_EQ(k->next(rng), want) << "ref " << i;
        }
    }
}

TEST(StridedSweep, MatchesModuloFormula)
{
    struct Case
    {
        std::uint64_t bytes, stride;
        unsigned neighbours;
    };
    // Neighbour offsets wider than the region wrap more than once.
    for (const Case c : {Case{8 << 20, 192, 2}, Case{1000, 24, 3},
                         Case{64, 64, 5}, Case{200, 7, 9}}) {
        SCOPED_TRACE(c.bytes);
        Rng rng(41);
        auto k = makeKernel(
            KernelSpec::stridedSweep(0x100, c.bytes, c.stride,
                                     c.neighbours),
            rng);
        const std::int64_t b = std::int64_t(c.bytes);
        std::uint64_t pos = 0;
        for (int i = 0; i < 20'000; ++i) {
            for (unsigned n = 0; n < c.neighbours; ++n) {
                const std::int64_t delta = (n % 2 == 0 ? 1 : -1) *
                                           std::int64_t(kLine) *
                                           (std::int64_t(n) / 2 + 1);
                const std::int64_t off = std::int64_t(pos) + delta;
                ASSERT_EQ(k->next(rng),
                          0x100 + std::uint64_t((off % b + b) % b))
                    << "element " << i << " neighbour " << n;
            }
            ASSERT_EQ(k->next(rng), 0x100 + pos) << "element " << i;
            pos = (pos + c.stride) % c.bytes;
        }
    }
}

TEST(UniformRandom, MatchesBelow)
{
    Rng rng(51), ref_rng(51);
    const std::uint64_t blocks = 12'345;
    auto k = makeKernel(KernelSpec::uniformRandom(0, blocks * kLine), rng);
    for (int i = 0; i < 20'000; ++i)
        ASSERT_EQ(k->next(rng), ref_rng.below(blocks) * kLine);
}

} // namespace
} // namespace adcache
