#include "cpu/store_buffer.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hh"

namespace adcache
{
namespace
{

TEST(StoreBuffer, EmptyBufferGrantsImmediately)
{
    StoreBuffer sb(4);
    EXPECT_EQ(sb.earliestSlot(100), 100u);
    EXPECT_EQ(sb.capacity(), 4u);
}

TEST(StoreBuffer, FullBufferStallsUntilDrain)
{
    StoreBuffer sb(2);
    sb.push(0, 50);
    sb.push(0, 80);
    // Both entries busy: a store retiring at 10 must wait to 50.
    EXPECT_EQ(sb.earliestSlot(10), 50u);
    sb.push(50, 120);
    EXPECT_EQ(sb.earliestSlot(60), 80u);
}

TEST(StoreBuffer, SlotReuseAfterDrain)
{
    StoreBuffer sb(1);
    sb.push(0, 30);
    EXPECT_EQ(sb.earliestSlot(100), 100u) << "drained by cycle 100";
    sb.push(100, 130);
    EXPECT_EQ(sb.earliestSlot(101), 130u);
}

TEST(StoreBuffer, BiggerBufferAbsorbsBursts)
{
    StoreBuffer small(2), big(8);
    Cycle small_stall = 0, big_stall = 0;
    for (int i = 0; i < 8; ++i) {
        const Cycle retire = Cycle(i);
        const Cycle s_slot = small.earliestSlot(retire);
        small_stall += s_slot - retire;
        small.push(s_slot, s_slot + 100);
        const Cycle b_slot = big.earliestSlot(retire);
        big_stall += b_slot - retire;
        big.push(b_slot, b_slot + 100);
    }
    EXPECT_GT(small_stall, big_stall);
    EXPECT_EQ(big_stall, 0u);
}

TEST(StoreBuffer, StatsMutable)
{
    StoreBuffer sb(4);
    sb.stats().fullStalls = 3;
    sb.stats().stallCycles = 99;
    EXPECT_EQ(sb.stats().fullStalls, 3u);
    EXPECT_EQ(sb.stats().stallCycles, 99u);
}

TEST(StoreBuffer, PushCountsStores)
{
    StoreBuffer sb(4);
    sb.push(0, 10);
    sb.push(1, 12);
    EXPECT_EQ(sb.stats().stores, 2u);
}

TEST(StoreBuffer, MatchesReferenceEntryScan)
{
    // Reference: each event scans for the entry that frees first
    // (std::min_element: the lowest-numbered on a tie).
    for (unsigned entries : {1u, 2u, 4u, 7u}) {
        StoreBuffer sb(entries);
        std::vector<Cycle> drain(entries, 0);
        Rng rng(entries);
        Cycle retire = 0;
        for (int i = 0; i < 100'000; ++i) {
            retire += rng.below(4);
            const Cycle first =
                *std::min_element(drain.begin(), drain.end());
            const Cycle slot = std::max(retire, first);
            ASSERT_EQ(sb.earliestSlot(retire), slot) << "store " << i;
            retire = slot;
            const Cycle done = retire + rng.below(3) * rng.below(60);
            *std::min_element(drain.begin(), drain.end()) = done;
            sb.push(retire, done);
        }
        EXPECT_EQ(sb.stats().stores, 100'000u);
    }
}

} // namespace
} // namespace adcache
