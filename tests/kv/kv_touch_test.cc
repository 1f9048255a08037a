/**
 * @file
 * Unit tests of the lock-free read path's access marks (KvEntry's
 * one-byte CLOCK reference bit): a lock-free hit only marks its
 * entry, and the case-2 eviction walk folds the mark before it
 * picks a victim, so a marked entry gets a second chance. With
 * lockFreeReads off every read promotes exactly, which an
 * order-preserving rank oracle checks. All cases are single-threaded
 * (docs/KVCACHE.md "Concurrency model"); the lockstep against
 * RefKvShard covers both read modes op by op.
 */

#include "kv/adaptive_kv_cache.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "cache/policy_sets.hh"

namespace adcache::kv
{
namespace
{

/** Deterministic single-shard LRU config with lock-free reads. */
KvConfig
touchConfig(std::uint64_t capacity)
{
    KvConfig c;
    c.capacity = capacity;
    c.numShards = 1;
    c.numBuckets = 8;
    c.bucketWays = 4;
    c.leaderEvery = 1;
    c.shadowTagBits = 0;
    c.selector = SelectorMode::FixedLru;
    c.keyHash = KeyHashKind::Identity;
    c.lockFreeReads = true;
    return c;
}

/** Sum of a counter over all shards. */
KvShardStats
totalStats(const AdaptiveKvCache &cache)
{
    KvShardStats total;
    for (unsigned s = 0; s < cache.numShards(); ++s)
        total.add(cache.shard(s).stats());
    return total;
}

TEST(KvTouchTest, DrainOnMissPromotesBeforeVictimSelection)
{
    AdaptiveKvCache cache(touchConfig(4));
    for (KvKey k = 1; k <= 4; ++k)
        cache.put(k, "v");

    // The lock-free hit only marks key 1; it is still at the recency
    // tail.
    ASSERT_TRUE(cache.get(1).has_value());

    // The filling miss's walk folds the mark before it picks a
    // victim: key 2 is evicted, not the just-read key 1.
    const KvOutcome out = cache.put(5, "v");
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.evictedKey, 2u);
    EXPECT_TRUE(cache.contains(1));
}

TEST(KvTouchTest, MarkedHitsGetASecondChance)
{
    // Capacity 4, LRU order after the puts (tail first): 1 2 3 4.
    // With lock-free reads the gets of 3 and 1 only mark them. The
    // put of 5 folds 1 (to the front) and evicts 2; the put of 6
    // folds 3 and evicts 4; 1 and then 5 are unmarked tails by the
    // puts of 7 and 8. Exact locked reads promote 3, then 1, and
    // evict in plain recency order instead.
    for (const bool lock_free : {true, false}) {
        KvConfig c = touchConfig(4);
        c.lockFreeReads = lock_free;
        AdaptiveKvCache cache(c);
        for (KvKey k = 1; k <= 4; ++k)
            cache.put(k, "v");
        ASSERT_TRUE(cache.get(3).has_value());
        ASSERT_TRUE(cache.get(1).has_value());
        std::vector<KvKey> evicted;
        for (KvKey k = 5; k <= 8; ++k) {
            const KvOutcome out = cache.put(k, "v");
            ASSERT_TRUE(out.evicted);
            evicted.push_back(out.evictedKey);
        }
        EXPECT_EQ(evicted, lock_free ? (std::vector<KvKey>{2, 4, 1, 5})
                                     : (std::vector<KvKey>{2, 4, 3, 1}))
            << "lockFreeReads=" << lock_free;
    }
}

TEST(KvTouchTest, StalenessBoundedByRingCapacity)
{
    // The invariant behind the relaxed-LRU story: a lock-free read's
    // promotion waits for at most one fold of its mark, and the
    // eviction walk folds every mark it meets before it evicts
    // anything, so no deferral can rank a read entry below an
    // unread one. Five marked reads of eight residents: the first
    // three victims must be the unread keys {6, 7, 8}.
    AdaptiveKvCache cache(touchConfig(8));
    for (KvKey k = 1; k <= 8; ++k)
        cache.put(k, "v");

    for (KvKey k = 1; k <= 5; ++k)
        ASSERT_TRUE(cache.get(k).has_value());

    // The walk is 4 deep, but folds do not count toward it: it
    // passes all five marked keys before it reaches key 6.
    for (int i = 0; i < 3; ++i) {
        const KvOutcome out = cache.put(KvKey(200 + i), "v");
        ASSERT_TRUE(out.evicted);
        EXPECT_GE(out.evictedKey, 6u);
        EXPECT_LE(out.evictedKey, 8u);
    }
    for (KvKey k = 1; k <= 5; ++k)
        EXPECT_TRUE(cache.contains(k)) << "touched key " << k;
}

TEST(KvTouchTest, DrainMatchesStampLanesRankOracle)
{
    // StampLanes8 is the simulator's order-preserving recency
    // compression (cache/policy_sets.hh); here it serves as an
    // independent rank oracle for the kv shard's exact LRU, with
    // locked reads. Eight resident keys map to lanes 0..7; every get
    // bumps the lane. 400 reads force the 8-bit clock through its
    // renormalization boundary, with locked erases of a missing key
    // interleaved — the final eviction order must still equal the
    // oracle's ascending stamp order.
    const unsigned kKeys = 8;
    KvConfig config = touchConfig(kKeys);
    config.lockFreeReads = false;
    AdaptiveKvCache cache(config);
    for (KvKey k = 0; k < kKeys; ++k)
        cache.put(k, "v");
    SetRows oracle_words(1, StampLanes8::kWords);
    StampLanes8 oracle(oracle_words.words(), kKeys);
    for (unsigned w = 0; w < kKeys; ++w)
        oracle.bump(0, w); // insertion order, matching the puts

    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (int i = 0; i < 400; ++i) {
        // xorshift so the touch sequence is fixed but unpatterned.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const KvKey k = KvKey(x % kKeys);
        ASSERT_TRUE(cache.get(k).has_value());
        oracle.bump(0, unsigned(k));
        if (i % 7 == 0)
            cache.erase(1000); // a locked mutation of a missing key
    }

    // Expected eviction order: resident keys by ascending stamp.
    std::vector<unsigned> ways(kKeys);
    std::iota(ways.begin(), ways.end(), 0u);
    std::sort(ways.begin(), ways.end(),
              [&](unsigned a, unsigned b) {
                  return oracle.stamp(0, a) < oracle.stamp(0, b);
              });

    std::vector<KvKey> evicted;
    for (KvKey k = 500; k < 500 + kKeys; ++k) {
        const KvOutcome out = cache.put(k, "v");
        ASSERT_TRUE(out.evicted);
        evicted.push_back(out.evictedKey);
    }
    std::vector<KvKey> expected(ways.begin(), ways.end());
    EXPECT_EQ(evicted, expected);
}

TEST(KvTouchTest, ProbeCountersFlowThroughStats)
{
    AdaptiveKvCache cache(touchConfig(8));
    cache.put(1, "one");
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(cache.get(1).has_value());
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(cache.get(99).has_value());

    const KvShardStats st = totalStats(cache);
    EXPECT_EQ(st.gets, 15u);
    EXPECT_EQ(st.getHits, 10u);
    EXPECT_EQ(st.readRetries, 0u); // no concurrent writers
}

} // namespace
} // namespace adcache::kv
