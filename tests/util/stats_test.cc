#include "util/stats.hh"

#include <gtest/gtest.h>

namespace adcache
{
namespace
{

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(RunningStatDeathTest, EmptyMinMaxAssert)
{
    // min()/max() of an empty accumulator are meaningless; they must
    // trip adcache_assert instead of silently returning 0.0.
    RunningStat s;
    EXPECT_DEATH(s.min(), "assertion 'count_ > 0' failed");
    EXPECT_DEATH(s.max(), "assertion 'count_ > 0' failed");
}

TEST(RunningStat, TracksMinMaxMean)
{
    RunningStat s;
    s.add(2.0);
    s.add(4.0);
    s.add(9.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, NegativeValues)
{
    RunningStat s;
    s.add(-3.0);
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.min(), -3.0);
    EXPECT_DOUBLE_EQ(s.mean(), -1.0);
}

TEST(RunningStat, MergeCombinesMomentsAndExtrema)
{
    RunningStat a, b;
    a.add(2.0);
    a.add(4.0);
    b.add(-1.0);
    b.add(9.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.sum(), 14.0);
    EXPECT_DOUBLE_EQ(a.min(), -1.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(RunningStat, MergeEmptySideIsIdentityForMinMax)
{
    // An empty accumulator's 0-valued min/max fields must never leak
    // into the merged result in either direction.
    RunningStat filled, empty;
    filled.add(5.0);
    filled.add(7.0);

    filled.merge(empty);
    EXPECT_EQ(filled.count(), 2u);
    EXPECT_DOUBLE_EQ(filled.min(), 5.0);
    EXPECT_DOUBLE_EQ(filled.max(), 7.0);

    RunningStat target;
    target.merge(filled);
    EXPECT_EQ(target.count(), 2u);
    EXPECT_DOUBLE_EQ(target.min(), 5.0);
    EXPECT_DOUBLE_EQ(target.max(), 7.0);
}

TEST(Percent, Delta)
{
    EXPECT_DOUBLE_EQ(percentDelta(10.0, 12.0), 20.0);
    EXPECT_DOUBLE_EQ(percentDelta(10.0, 8.0), -20.0);
    EXPECT_DOUBLE_EQ(percentDelta(0.0, 5.0), 0.0);
}

TEST(Percent, Improvement)
{
    // Lower cost is an improvement: 10 -> 8 is +20 %.
    EXPECT_DOUBLE_EQ(percentImprovement(10.0, 8.0), 20.0);
    EXPECT_DOUBLE_EQ(percentImprovement(10.0, 12.0), -20.0);
}

TEST(Mean, Vector)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({3.0}), 3.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Mpki, Computation)
{
    EXPECT_DOUBLE_EQ(mpki(5000, 1'000'000), 5.0);
    EXPECT_DOUBLE_EQ(mpki(0, 1'000'000), 0.0);
    EXPECT_DOUBLE_EQ(mpki(5, 0), 0.0);
}

} // namespace
} // namespace adcache
