#include "cache/policy_sets.hh"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "util/bits.hh"

namespace adcache
{
namespace
{

/** One set of a PolicySet, driven with way-only events. */
class OneSet
{
  public:
    OneSet(PolicyType type, unsigned assoc, Rng *rng)
        : sets_(type, 1, assoc, rng)
    {
    }

    void onFill(unsigned way) { sets_.onFill(0, way, 0); }
    void onHit(unsigned way) { sets_.onHit(0, way, 0); }
    void onInvalidate(unsigned way) { sets_.onInvalidate(0, way); }
    unsigned victim() { return sets_.victim(0); }
    unsigned peekVictim() const { return sets_.peekVictim(0); }

  private:
    PolicySet sets_;
};

std::unique_ptr<OneSet>
makePolicy(PolicyType type, unsigned assoc, Rng *rng)
{
    return std::make_unique<OneSet>(type, assoc, rng);
}

TEST(PolicyFactory, ParseNames)
{
    EXPECT_EQ(parsePolicyType("lru"), PolicyType::LRU);
    EXPECT_EQ(parsePolicyType("LFU"), PolicyType::LFU);
    EXPECT_EQ(parsePolicyType("Fifo"), PolicyType::FIFO);
    EXPECT_EQ(parsePolicyType("mru"), PolicyType::MRU);
    EXPECT_EQ(parsePolicyType("random"), PolicyType::Random);
    EXPECT_EQ(parsePolicyType("plru"), PolicyType::TreePLRU);
    EXPECT_EQ(parsePolicyType("srrip"), PolicyType::SRRIP);
}

TEST(PolicyFactory, Names)
{
    EXPECT_STREQ(policyName(PolicyType::LRU), "LRU");
    EXPECT_STREQ(policyName(PolicyType::LFU), "LFU");
    EXPECT_STREQ(policyName(PolicyType::Random), "Random");
}

TEST(PolicyFactory, MetaBits)
{
    EXPECT_EQ(policyMetaBits(PolicyType::LRU, 8), 3u);
    EXPECT_EQ(policyMetaBits(PolicyType::LFU, 8), 5u);
    EXPECT_EQ(policyMetaBits(PolicyType::Random, 8), 0u);
    EXPECT_EQ(policyMetaBits(PolicyType::SRRIP, 8), 2u);
    EXPECT_EQ(policyMetaBits(PolicyType::FIFO, 16), 4u);
}

TEST(Lru, EvictsLeastRecentlyUsed)
{
    Rng rng(1);
    auto p = makePolicy(PolicyType::LRU, 4, &rng);
    for (unsigned w = 0; w < 4; ++w)
        p->onFill(w);
    // Touch 0 and 2; oldest is now 1.
    p->onHit(0);
    p->onHit(2);
    EXPECT_EQ(p->victim(), 1u);
    p->onHit(1);
    EXPECT_EQ(p->victim(), 3u);
}

TEST(Lru, FillCountsAsUse)
{
    Rng rng(1);
    auto p = makePolicy(PolicyType::LRU, 2, &rng);
    p->onFill(0);
    p->onFill(1);
    EXPECT_EQ(p->victim(), 0u);
}

TEST(Mru, EvictsMostRecentlyUsed)
{
    Rng rng(1);
    auto p = makePolicy(PolicyType::MRU, 4, &rng);
    for (unsigned w = 0; w < 4; ++w)
        p->onFill(w);
    p->onHit(1);
    EXPECT_EQ(p->victim(), 1u);
    p->onHit(3);
    EXPECT_EQ(p->victim(), 3u);
}

TEST(Fifo, IgnoresHits)
{
    Rng rng(1);
    auto p = makePolicy(PolicyType::FIFO, 4, &rng);
    for (unsigned w = 0; w < 4; ++w)
        p->onFill(w);
    p->onHit(0);
    p->onHit(0);
    // Way 0 is still the oldest fill.
    EXPECT_EQ(p->victim(), 0u);
}

TEST(Fifo, RefillMovesToBack)
{
    Rng rng(1);
    auto p = makePolicy(PolicyType::FIFO, 3, &rng);
    p->onFill(0);
    p->onFill(1);
    p->onFill(2);
    p->onInvalidate(0);
    p->onFill(0);  // way 0 refilled: now the newest
    EXPECT_EQ(p->victim(), 1u);
}

TEST(Lfu, EvictsLeastFrequent)
{
    Rng rng(1);
    auto p = makePolicy(PolicyType::LFU, 4, &rng);
    for (unsigned w = 0; w < 4; ++w)
        p->onFill(w);
    p->onHit(0);
    p->onHit(0);
    p->onHit(1);
    p->onHit(2);
    // Way 3 has count 1 (fill only); all others have more.
    EXPECT_EQ(p->victim(), 3u);
}

TEST(Lfu, TieBreaksByOldestFill)
{
    Rng rng(1);
    auto p = makePolicy(PolicyType::LFU, 4, &rng);
    p->onFill(2);
    p->onFill(0);
    p->onFill(1);
    p->onFill(3);
    // All counts equal: way 2 was filled first.
    EXPECT_EQ(p->victim(), 2u);
}

TEST(Lfu, CountersSaturate)
{
    Rng rng(1);
    auto p = makePolicy(PolicyType::LFU, 2, &rng);
    p->onFill(0);
    p->onFill(1);
    for (int i = 0; i < 100; ++i)
        p->onHit(1);
    p->onHit(0);
    p->onHit(0);
    // Way 0 (count 3) still below way 1 (saturated at 31).
    EXPECT_EQ(p->victim(), 0u);
}

TEST(Random, VictimWithinRange)
{
    Rng rng(42);
    auto p = makePolicy(PolicyType::Random, 8, &rng);
    for (unsigned w = 0; w < 8; ++w)
        p->onFill(w);
    std::set<unsigned> seen;
    for (int i = 0; i < 200; ++i) {
        const unsigned v = p->victim();
        ASSERT_LT(v, 8u);
        seen.insert(v);
    }
    // Over 200 draws all ways should appear.
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Random, PeekMatchesNextVictim)
{
    Rng rng(43);
    auto p = makePolicy(PolicyType::Random, 8, &rng);
    for (int i = 0; i < 50; ++i) {
        const unsigned peek = p->peekVictim();
        EXPECT_EQ(p->victim(), peek);
    }
}

TEST(TreePlru, VictimAvoidsRecentlyTouchedHalf)
{
    Rng rng(1);
    auto p = makePolicy(PolicyType::TreePLRU, 4, &rng);
    for (unsigned w = 0; w < 4; ++w)
        p->onFill(w);
    p->onHit(0);
    // Way 0's half was just touched: victim must be in 2..3.
    EXPECT_GE(p->victim(), 2u);
    p->onHit(3);
    EXPECT_LT(p->victim(), 2u);
}

TEST(TreePlru, CyclesThroughAllWays)
{
    Rng rng(1);
    auto p = makePolicy(PolicyType::TreePLRU, 8, &rng);
    for (unsigned w = 0; w < 8; ++w)
        p->onFill(w);
    std::set<unsigned> victims;
    for (int i = 0; i < 8; ++i) {
        const unsigned v = p->victim();
        victims.insert(v);
        p->onFill(v);  // refill -> becomes most recent
    }
    EXPECT_EQ(victims.size(), 8u);
}

TEST(Srrip, EvictsDistantRrpvFirst)
{
    Rng rng(1);
    auto p = makePolicy(PolicyType::SRRIP, 4, &rng);
    for (unsigned w = 0; w < 4; ++w)
        p->onFill(w);
    p->onHit(1);  // way 1 -> RRPV 0
    const unsigned v = p->victim();
    EXPECT_NE(v, 1u);
}

TEST(Srrip, PeekDoesNotMutate)
{
    Rng rng(1);
    auto p = makePolicy(PolicyType::SRRIP, 4, &rng);
    for (unsigned w = 0; w < 4; ++w)
        p->onFill(w);
    p->onHit(2);
    const unsigned peek1 = p->peekVictim();
    const unsigned peek2 = p->peekVictim();
    EXPECT_EQ(peek1, peek2);
    EXPECT_EQ(p->victim(), peek1);
}

// Every deterministic policy: peekVictim agrees with victim.
class PeekParity : public ::testing::TestWithParam<PolicyType>
{
};

TEST_P(PeekParity, PeekEqualsVictim)
{
    Rng rng(7);
    auto p = makePolicy(GetParam(), 8, &rng);
    Rng stim(8);
    for (unsigned w = 0; w < 8; ++w)
        p->onFill(w);
    for (int i = 0; i < 500; ++i) {
        if (stim.chance(0.7)) {
            p->onHit(unsigned(stim.below(8)));
        } else {
            const unsigned peek = p->peekVictim();
            const unsigned v = p->victim();
            EXPECT_EQ(v, peek);
            p->onInvalidate(v);
            p->onFill(v);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PeekParity,
    ::testing::Values(PolicyType::LRU, PolicyType::LFU, PolicyType::FIFO,
                      PolicyType::MRU, PolicyType::Random,
                      PolicyType::TreePLRU, PolicyType::SRRIP),
    [](const auto &info) { return policyName(info.param); });

// Victims are always valid way indices across random stimulus.
class VictimRange
    : public ::testing::TestWithParam<std::tuple<PolicyType, unsigned>>
{
};

TEST_P(VictimRange, InBounds)
{
    const auto [type, assoc] = GetParam();
    if (type == PolicyType::TreePLRU && !isPowerOfTwo(assoc))
        GTEST_SKIP() << "tree PLRU requires power-of-two ways";
    Rng rng(11);
    auto p = makePolicy(type, assoc, &rng);
    Rng stim(12);
    for (unsigned w = 0; w < assoc; ++w)
        p->onFill(w);
    for (int i = 0; i < 300; ++i) {
        if (stim.chance(0.6)) {
            p->onHit(unsigned(stim.below(assoc)));
        } else {
            const unsigned v = p->victim();
            ASSERT_LT(v, assoc);
            p->onInvalidate(v);
            p->onFill(v);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VictimRange,
    ::testing::Combine(
        ::testing::Values(PolicyType::LRU, PolicyType::LFU,
                          PolicyType::FIFO, PolicyType::MRU,
                          PolicyType::Random, PolicyType::SRRIP),
        ::testing::Values(1u, 2u, 4u, 8u, 9u, 16u)),
    [](const auto &info) {
        return std::string(policyName(std::get<0>(info.param))) + "_w" +
               std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace adcache
