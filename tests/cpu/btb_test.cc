#include "cpu/btb.hh"

#include <gtest/gtest.h>

#include "util/rng.hh"

namespace adcache
{
namespace
{

TEST(Btb, MissOnCold)
{
    Btb btb;
    EXPECT_FALSE(btb.lookup(0x1000).has_value());
    EXPECT_EQ(btb.stats().lookups, 1u);
    EXPECT_EQ(btb.stats().hits, 0u);
}

TEST(Btb, HitAfterUpdate)
{
    Btb btb;
    btb.update(0x1000, 0x2000);
    auto t = btb.lookup(0x1000);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(*t, 0x2000u);
}

TEST(Btb, UpdateOverwritesTarget)
{
    Btb btb;
    btb.update(0x1000, 0x2000);
    btb.update(0x1000, 0x3000);
    EXPECT_EQ(btb.lookup(0x1000).value(), 0x3000u);
}

TEST(Btb, SetConflictEvictsLru)
{
    BtbConfig c;
    c.entries = 8;
    c.assoc = 2;  // 4 sets
    Btb btb(c);
    // Three branches mapping to the same set (pc >> 2 mod 4 equal).
    const Addr a = 0x0, b = 0x10, d = 0x20;
    btb.update(a, 1);
    btb.update(b, 2);
    btb.lookup(a);  // refresh a
    btb.update(d, 3);  // evicts b (LRU)
    EXPECT_TRUE(btb.lookup(a).has_value());
    EXPECT_FALSE(btb.lookup(b).has_value());
    EXPECT_TRUE(btb.lookup(d).has_value());
}

TEST(Btb, DistinctSetsDoNotConflict)
{
    BtbConfig c;
    c.entries = 8;
    c.assoc = 2;
    Btb btb(c);
    for (Addr pc = 0; pc < 16 * 4; pc += 4)
        btb.update(pc, pc + 100);
    // 16 branches over 4 sets x 2 ways: only the 8 most recent per
    // set survive; the last two per set must be present.
    EXPECT_TRUE(btb.lookup(15 * 4).has_value());
    EXPECT_TRUE(btb.lookup(14 * 4).has_value());
}

TEST(Btb, StatsTrackHits)
{
    Btb btb;
    btb.update(0x40, 0x80);
    btb.lookup(0x40);
    btb.lookup(0x44);
    EXPECT_EQ(btb.stats().lookups, 2u);
    EXPECT_EQ(btb.stats().hits, 1u);
}

TEST(Btb, ResolveEqualsLookupThenUpdate)
{
    BtbConfig small;
    small.entries = 64;
    small.assoc = 4;
    for (const BtbConfig &config : {BtbConfig{}, small}) {
        Btb fused(config), split(config);
        Rng rng(config.entries);
        for (int i = 0; i < 200'000; ++i) {
            const Addr pc = 0x400000 + 4 * rng.below(8192);
            const Addr target = pc + 4 * rng.below(64);
            const bool hit = split.lookup(pc).has_value();
            split.update(pc, target);
            ASSERT_EQ(fused.resolve(pc, target), hit) << "branch " << i;
        }
        EXPECT_EQ(fused.stats().lookups, split.stats().lookups);
        EXPECT_EQ(fused.stats().hits, split.stats().hits);
        // Same contents and targets afterwards.
        for (Addr pc = 0x400000; pc < 0x400000 + 4 * 8192; pc += 4)
            ASSERT_EQ(fused.lookup(pc), split.lookup(pc)) << pc;
    }
}

} // namespace
} // namespace adcache
