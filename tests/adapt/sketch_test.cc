#include "adapt/sketch.hh"

#include <gtest/gtest.h>

namespace adcache::adapt
{
namespace
{

SketchParams
tinyParams()
{
    SketchParams p;
    p.width = 64;
    p.rows = 4;
    p.counterMax = 15;
    p.decayEvery = 1000; // keep scheduled decay out of small tests
    return p;
}

TEST(CountMinSketch, CountsAndNeverUnderestimates)
{
    CountMinSketch s(tinyParams());
    EXPECT_EQ(s.estimate(42), 0u);
    for (int i = 0; i < 5; ++i)
        s.add(42);
    // Collisions can only inflate: estimate >= true count.
    EXPECT_GE(s.estimate(42), 5u);
    EXPECT_LE(s.estimate(42), 15u);
}

TEST(CountMinSketch, SaturatesAtCounterMax)
{
    CountMinSketch s(tinyParams());
    for (int i = 0; i < 100; ++i)
        s.add(7);
    EXPECT_EQ(s.estimate(7), 15u);
}

TEST(CountMinSketch, DecayHalvesEstimates)
{
    CountMinSketch s(tinyParams());
    for (int i = 0; i < 8; ++i)
        s.add(7);
    const std::uint32_t before = s.estimate(7);
    s.decayHalf();
    EXPECT_EQ(s.estimate(7), before / 2);
}

TEST(CountMinSketch, DecaySchedulingByAdds)
{
    SketchParams p = tinyParams();
    p.decayEvery = 10;
    CountMinSketch s(p);
    for (int i = 0; i < 9; ++i)
        s.add(3);
    EXPECT_EQ(s.decays(), 0u);
    s.add(3); // 10th add triggers the halving
    EXPECT_EQ(s.decays(), 1u);
    EXPECT_EQ(s.estimate(3), 5u); // the 10th increment decays too
    EXPECT_EQ(s.adds(), 10u);
}

TEST(CountMinSketch, ColumnsFormCountsTheSameCells)
{
    // Hashing a key once into its columns and counting through them
    // must touch exactly the cells the key form touches.
    SketchParams p = tinyParams();
    p.decayEvery = 7;
    CountMinSketch by_key(p), by_cols(p);
    for (std::uint64_t i = 0; i < 200; ++i) {
        const std::uint64_t key = (i * 0x9e3779b97f4a7c15ULL) % 37;
        by_key.add(key);
        by_cols.add(by_cols.columns(key));
        for (std::uint64_t probe = 0; probe < 37; ++probe)
            ASSERT_EQ(by_key.estimate(probe),
                      by_cols.estimate(by_cols.columns(probe)));
    }
    EXPECT_EQ(by_key.decays(), 200u / 7);
    EXPECT_EQ(by_cols.decays(), 200u / 7);
    for (unsigned r = 0; r < p.rows; ++r)
        EXPECT_EQ(by_key.columns(12345).cell(r) / p.width, r);
}

TEST(CountMinSketch, ManualDecayLeavesTheScheduleAlone)
{
    SketchParams p = tinyParams();
    p.decayEvery = 10;
    CountMinSketch s(p);
    for (int i = 0; i < 5; ++i)
        s.add(3);
    s.decayHalf(); // a manual halving does not restart the count
    for (int i = 0; i < 4; ++i)
        s.add(3);
    EXPECT_EQ(s.decays(), 1u);
    s.add(3); // still the 10th add
    EXPECT_EQ(s.decays(), 2u);
}

TEST(SketchParams, GeometrySizingClampsAndScales)
{
    // 4 * 16 * 4 = 256 entries -> width 256, decay every 16*256.
    SketchParams p = SketchParams::forGeometry(16, 4);
    EXPECT_EQ(p.width, 256u);
    EXPECT_EQ(p.decayEvery, 16u * 256u);
    // Tiny geometry clamps to the 64 floor.
    EXPECT_EQ(SketchParams::forGeometry(1, 1).width, 64u);
    // Huge geometry clamps to the 4096 ceiling.
    EXPECT_EQ(SketchParams::forGeometry(1u << 16, 16).width, 4096u);
}

TEST(SketchEntryKey, ComposesSetIntoTheKey)
{
    EXPECT_EQ(sketchEntryKey(0x5, 3, 4), (0x5ull << 4) | 3);
    EXPECT_EQ(sketchEntryKey(0x5, 0, 0), 0x5ull);
    // Same tag in different sets counts as distinct keys.
    EXPECT_NE(sketchEntryKey(1, 0, 2), sketchEntryKey(1, 1, 2));
}

TEST(TinyLfuAdmission, AdmitsOnlyStrictlyHotterCandidates)
{
    TinyLfuAdmission adm(tinyParams());
    for (int i = 0; i < 4; ++i)
        adm.touch(100); // incumbent
    adm.touch(200);     // candidate, colder

    EXPECT_FALSE(adm.admit(200, 100));
    EXPECT_TRUE(adm.admit(100, 200));
    // Ties keep the incumbent.
    EXPECT_FALSE(adm.admit(100, 100));

    for (int i = 0; i < 10; ++i)
        adm.touch(200);
    EXPECT_TRUE(adm.admit(200, 100));

    // The columns a touch returns stand for its key in admit().
    const SketchColumns hot = adm.touch(200);
    EXPECT_TRUE(adm.admit(hot, 100));
    EXPECT_EQ(adm.admit(hot, 100), adm.admit(200, 100));
}

} // namespace
} // namespace adcache::adapt
