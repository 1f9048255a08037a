/**
 * @file
 * Unit tests of the lock-free read path's deferred-touch protocol
 * (KvShard's TouchRing): drain ordering, the bounded-staleness
 * invariant, the full-ring slow path, and an order-preservation
 * check against StampLanes8 used as a rank oracle across its
 * renormalization boundary. All cases are single-threaded — the
 * point is that deferral changes *when* promotions apply, never
 * *what* they apply (docs/KVCACHE.md "Concurrency model").
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
touchConfig(std::uint64_t capacity, unsigned touch_capacity)
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
    c.touchCapacity = touch_capacity;
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
    AdaptiveKvCache cache(touchConfig(4, 256));
    for (KvKey k = 1; k <= 4; ++k)
        cache.put(k, "v");

    // The lock-free hit only queues the promotion; key 1 is still at
    // the recency tail until something drains.
    ASSERT_TRUE(cache.get(1).has_value());

    // The filling miss drains first, so the promotion lands before
    // the victim scan: key 2 is evicted, not the just-read key 1.
    const KvOutcome out = cache.put(5, "v");
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.evictedKey, 2u);
    EXPECT_TRUE(cache.contains(1));
}

TEST(KvTouchTest, DrainAppliesTouchesInFifoOrder)
{
    AdaptiveKvCache cache(touchConfig(4, 256));
    for (KvKey k = 1; k <= 4; ++k)
        cache.put(k, "v");

    // Queue two touches; FIFO drain must promote 3 then 1, leaving
    // recency (front to back): 1, 3, 4, 2.
    ASSERT_TRUE(cache.get(3).has_value());
    ASSERT_TRUE(cache.get(1).has_value());

    std::vector<KvKey> evicted;
    for (KvKey k = 5; k <= 8; ++k) {
        const KvOutcome out = cache.put(k, "v");
        ASSERT_TRUE(out.evicted);
        evicted.push_back(out.evictedKey);
    }
    // A LIFO drain would swap the final two.
    EXPECT_EQ(evicted, (std::vector<KvKey>{2, 4, 3, 1}));
}

TEST(KvTouchTest, FullRingFallsBackToEagerPromotion)
{
    // Ring capacity 2: the third buffered read cannot queue and must
    // take the mutex slow path, which drains the ring and promotes
    // eagerly — reads never get lost, only serialized.
    AdaptiveKvCache cache(touchConfig(8, 2));
    for (KvKey k = 1; k <= 8; ++k)
        cache.put(k, "v");

    for (KvKey k = 1; k <= 5; ++k)
        ASSERT_TRUE(cache.get(k).has_value());

    const KvShardStats st = totalStats(cache);
    EXPECT_EQ(st.gets, 5u);
    EXPECT_EQ(st.getHits, 5u);
    EXPECT_GE(st.slowProbes, 1u);

    // Whatever mix of buffered and eager promotion served the reads,
    // the resulting recency order is the access order: evictions go
    // 6, 7, 8, then 1..5.
    std::vector<KvKey> evicted;
    for (KvKey k = 100; k < 108; ++k) {
        const KvOutcome out = cache.put(k, "v");
        ASSERT_TRUE(out.evicted);
        evicted.push_back(out.evictedKey);
    }
    EXPECT_EQ(evicted, (std::vector<KvKey>{6, 7, 8, 1, 2, 3, 4, 5}));
}

TEST(KvTouchTest, StalenessBoundedByRingCapacity)
{
    // The invariant behind the relaxed-LRU story: a read's promotion
    // can be deferred by at most touchCapacity ring slots — once the
    // ring holds R touches the next read promotes eagerly, so an
    // entry's perceived recency never lags its true recency by more
    // than R queued events. With R = 4 and 5 reads, every read is
    // either in the ring (drained before any eviction) or already
    // applied; no interleaving of deferral can rank a touched entry
    // below an untouched one.
    const unsigned ring = 4;
    AdaptiveKvCache cache(touchConfig(8, ring));
    for (KvKey k = 1; k <= 8; ++k)
        cache.put(k, "v");

    for (KvKey k = 1; k <= 5; ++k)
        ASSERT_TRUE(cache.get(k).has_value());

    // First three victims must come from the untouched keys {6,7,8}:
    // a staleness violation would evict a touched key first.
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
    // independent rank oracle for the kv shard's LRU under deferred
    // touches. Eight resident keys map to lanes 0..7; every get
    // bumps the lane. 400 touches force the 8-bit clock through its
    // renormalization boundary, and the interleaved erase of a
    // missing key forces periodic ring drains mid-sequence — the
    // final eviction order must still equal the oracle's ascending
    // stamp order.
    const unsigned kKeys = 8;
    AdaptiveKvCache cache(touchConfig(kKeys, 16));
    for (KvKey k = 0; k < kKeys; ++k)
        cache.put(k, "v");
    StampLanes8 oracle(1, kKeys);
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
            cache.erase(1000); // mutation path: drains the ring
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

TEST(KvTouchTest, LockFreeReadsOffIsByteIdenticalSingleThreaded)
{
    // Drain-equals-eager: with one thread, the deferred-touch path
    // must be observationally identical to classic locked reads —
    // same stats, same evictions, same residents.
    KvConfig on = touchConfig(16, 8);
    KvConfig off = on;
    off.lockFreeReads = false;
    AdaptiveKvCache a(on), b(off);

    auto run = [](AdaptiveKvCache &cache) {
        std::uint64_t x = 88172645463325252ull;
        for (int i = 0; i < 4000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const KvKey k = KvKey(x % 48);
            switch (x % 5) {
              case 0:
              case 1:
                cache.get(k);
                break;
              case 2:
                cache.put(k, "v" + std::to_string(k));
                break;
              case 3:
                cache.fetch(k, [&] {
                    return "v" + std::to_string(k);
                });
                break;
              default:
                if (x % 10 == 4)
                    cache.erase(k);
                else
                    cache.get(k);
                break;
            }
        }
    };
    run(a);
    run(b);

    const KvShardStats sa = totalStats(a);
    const KvShardStats sb = totalStats(b);
    EXPECT_EQ(sa.references, sb.references);
    EXPECT_EQ(sa.hits, sb.hits);
    EXPECT_EQ(sa.misses, sb.misses);
    EXPECT_EQ(sa.gets, sb.gets);
    EXPECT_EQ(sa.getHits, sb.getHits);
    EXPECT_EQ(sa.inserts, sb.inserts);
    EXPECT_EQ(sa.evictions, sb.evictions);
    EXPECT_EQ(sa.erases, sb.erases);
    EXPECT_EQ(a.size(), b.size());

    std::vector<KvKey> ra = a.shard(0).residentKeys();
    std::vector<KvKey> rb = b.shard(0).residentKeys();
    std::sort(ra.begin(), ra.end());
    std::sort(rb.begin(), rb.end());
    EXPECT_EQ(ra, rb);
}

TEST(KvTouchTest, ProbeCountersFlowThroughStats)
{
    AdaptiveKvCache cache(touchConfig(8, 256));
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
