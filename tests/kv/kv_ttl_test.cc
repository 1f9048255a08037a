/**
 * @file
 * TTL / lazy-expiry semantics of the kv cache: the facade-owned
 * logical clock, expiry stamping on put/fetch/overwrite, validated
 * misses on both probe paths, the expirations counter's place in the
 * conservation identity, and a randomized reference-model
 * cross-check against a map+expiry oracle. (TTL ops are NOT folded
 * into the adaptive lockstep suite on purpose: an expiry unlink
 * perturbs victim state the RefAdaptiveCache oracle does not model;
 * the map oracle here checks exactly the visibility contract
 * instead.)
 */

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

#include "kv/adaptive_kv_cache.hh"
#include "util/rng.hh"

using namespace adcache;
using namespace adcache::kv;

namespace
{

KvConfig
smallConfig(bool lock_free)
{
    KvConfig c;
    c.capacity = 256;
    c.numShards = 2;
    c.numBuckets = 32;
    c.bucketWays = 4;
    c.lockFreeReads = lock_free;
    return c;
}

KvShardStats
totalStats(const AdaptiveKvCache &cache)
{
    KvShardStats total;
    for (unsigned s = 0; s < cache.numShards(); ++s)
        total.add(cache.shard(s).stats());
    return total;
}

class KvTtlTest : public ::testing::TestWithParam<bool>
{
};

TEST_P(KvTtlTest, EntryExpiresAfterItsTtl)
{
    AdaptiveKvCache cache(smallConfig(GetParam()));
    cache.put(1, "one", false, /*ttl=*/3);
    EXPECT_TRUE(cache.get(1).has_value());

    cache.clockAdvance(2); // now = 2 < expiry = 3: still alive
    EXPECT_TRUE(cache.get(1).has_value());
    EXPECT_TRUE(cache.contains(1));

    cache.clockAdvance(1); // now = 3 = expiry: lapsed
    EXPECT_FALSE(cache.get(1).has_value());
    EXPECT_FALSE(cache.contains(1));
}

TEST_P(KvTtlTest, ZeroTtlNeverExpires)
{
    AdaptiveKvCache cache(smallConfig(GetParam()));
    cache.put(1, "forever");
    cache.clockAdvance(1'000'000);
    EXPECT_TRUE(cache.get(1).has_value());
}

TEST_P(KvTtlTest, OverwriteRefreshesTheTtl)
{
    AdaptiveKvCache cache(smallConfig(GetParam()));
    cache.put(1, "v1", false, 2);
    cache.clockAdvance(1);
    cache.put(1, "v2", false, 2); // expiry moves to now+2 = 3
    cache.clockAdvance(1);        // now = 2 < 3
    ASSERT_TRUE(cache.get(1).has_value());
    EXPECT_EQ(*cache.get(1), "v2");
    cache.clockAdvance(1); // now = 3: lapsed
    EXPECT_FALSE(cache.get(1).has_value());
}

TEST_P(KvTtlTest, OverwriteCanClearTheTtl)
{
    AdaptiveKvCache cache(smallConfig(GetParam()));
    cache.put(1, "v1", false, 2);
    cache.put(1, "v2"); // ttl 0: never expires again
    cache.clockAdvance(100);
    EXPECT_TRUE(cache.get(1).has_value());
}

TEST_P(KvTtlTest, EraseOfExpiredEntryReportsAbsent)
{
    AdaptiveKvCache cache(smallConfig(GetParam()));
    cache.put(1, "v", false, 1);
    cache.clockAdvance(1);
    // The key is logically absent, so erase says false — but the
    // purge still happens and is accounted as an expiration.
    EXPECT_FALSE(cache.erase(1));
    EXPECT_EQ(totalStats(cache).expirations, 1u);
    EXPECT_EQ(cache.size(), 0u);
}

TEST_P(KvTtlTest, PinOfExpiredEntryPurgesIt)
{
    // pin and unpin lock the shard in both read modes, so, like
    // erase, they purge a lapsed entry and account one expiration.
    AdaptiveKvCache cache(smallConfig(GetParam()));
    cache.put(1, "v", false, 1);
    cache.put(2, "kept");
    cache.clockAdvance(1);
    ASSERT_EQ(cache.size(), 2u);

    EXPECT_FALSE(cache.pin(1));
    EXPECT_FALSE(cache.unpin(1));
    EXPECT_FALSE(cache.contains(1));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(totalStats(cache).expirations, 1u);
    EXPECT_EQ(totalStats(cache).pinned, 0u);
    EXPECT_TRUE(cache.contains(2));
}

TEST_P(KvTtlTest, FetchReloadsAnExpiredEntry)
{
    AdaptiveKvCache cache(smallConfig(GetParam()));
    int loads = 0;
    auto loader = [&] {
        ++loads;
        return std::string("fresh");
    };
    EXPECT_EQ(cache.fetch(1, loader, 2), "fresh");
    EXPECT_EQ(cache.fetch(1, loader, 2), "fresh"); // hit, no load
    EXPECT_EQ(loads, 1);
    cache.clockAdvance(2);
    EXPECT_EQ(cache.fetch(1, loader, 2), "fresh"); // lapsed: reload
    EXPECT_EQ(loads, 2);
    EXPECT_TRUE(cache.get(1).has_value()); // re-admitted, fresh TTL
}

TEST_P(KvTtlTest, ExpirationsEnterTheConservationIdentity)
{
    AdaptiveKvCache cache(smallConfig(GetParam()));
    for (KvKey k = 0; k < 64; ++k)
        cache.put(k, "v", false, 1 + k % 3);
    cache.clockAdvance(2); // keys with ttl 1 or 2 lapse
    // Locked contact purges lazily; reference() on every key forces
    // the contact (and reinserts, which is fine for the identity).
    for (KvKey k = 0; k < 64; ++k)
        cache.reference(k, "v2");
    const KvShardStats st = totalStats(cache);
    EXPECT_GT(st.expirations, 0u);
    EXPECT_EQ(cache.size(), st.inserts - st.evictions - st.erases -
                                st.expirations);
}

TEST_P(KvTtlTest, ClockNeverMovesBackwards)
{
    AdaptiveKvCache cache(smallConfig(GetParam()));
    cache.clockAdvanceTo(10);
    EXPECT_EQ(cache.clockNow(), 10u);
    cache.clockAdvanceTo(5); // ignored: monotonic
    EXPECT_EQ(cache.clockNow(), 10u);
    cache.clockAdvance(3);
    EXPECT_EQ(cache.clockNow(), 13u);
}

/**
 * Reference-model cross-check: a deterministic random op stream
 * (put-with-ttl / put / get / erase / advance) runs against the
 * cache and a map+expiry oracle. The oracle only tracks keys the
 * cache has NOT evicted for capacity (evictions are policy business,
 * not TTL business), so the checked contract is one-sided and exact:
 *  - a get that HITS must match the oracle's live value — the cache
 *    may never serve an expired or stale value;
 *  - a get on a key the oracle holds EXPIRED must miss.
 */
TEST_P(KvTtlTest, RandomOpsAgreeWithMapOracle)
{
    KvConfig config = smallConfig(GetParam());
    // Big enough that the working set rarely capacity-evicts (the
    // checks stay one-sided regardless): a hit must match the live
    // oracle value, and an oracle-expired key must miss.
    config.capacity = 4096;
    config.numBuckets = 512;
    AdaptiveKvCache cache(config);

    struct RefEntry
    {
        std::string value;
        std::uint64_t expiry = 0; // 0 = never
    };
    std::unordered_map<KvKey, RefEntry> oracle;
    std::uint64_t now = 0;

    Rng rng(20260809);
    constexpr KvKey kKeys = 512;
    for (int i = 0; i < 20'000; ++i) {
        const KvKey key = rng.below(kKeys);
        const double r = rng.uniform();
        if (r < 0.35) { // put with ttl
            const std::uint64_t ttl = 1 + rng.below(5);
            const std::string value =
                "v" + std::to_string(key) + "@" + std::to_string(i);
            cache.put(key, value, false, ttl);
            oracle[key] = {value, now + ttl};
        } else if (r < 0.45) { // put forever
            const std::string value =
                "p" + std::to_string(key) + "@" + std::to_string(i);
            cache.put(key, value);
            oracle[key] = {value, 0};
        } else if (r < 0.55) { // erase
            cache.erase(key);
            oracle.erase(key);
        } else if (r < 0.65) { // advance
            cache.clockAdvance();
            ++now;
        } else { // get, cross-checked
            const auto got = cache.get(key);
            const auto ref = oracle.find(key);
            const bool ref_live =
                ref != oracle.end() && (ref->second.expiry == 0 ||
                                        ref->second.expiry > now);
            if (got.has_value()) {
                ASSERT_TRUE(ref_live)
                    << "op " << i << ": get(" << key
                    << ") returned \"" << *got
                    << "\" but the oracle says "
                    << (ref == oracle.end() ? "absent" : "expired");
                ASSERT_EQ(*got, ref->second.value) << "op " << i;
            } else if (ref != oracle.end() && !ref_live) {
                // Expired in the oracle: the cache must miss too —
                // it did. (A miss on a live oracle key would be a
                // capacity eviction; config rules those out, but
                // stay one-sided anyway.)
                SUCCEED();
            }
        }
    }
    // Quiescent sweep: every oracle-expired key must be invisible.
    for (KvKey k = 0; k < kKeys; ++k) {
        const auto ref = oracle.find(k);
        if (ref != oracle.end() && ref->second.expiry != 0 &&
            ref->second.expiry <= now)
            EXPECT_FALSE(cache.get(k).has_value())
                << "expired key " << k << " still visible";
    }
    const KvShardStats st = totalStats(cache);
    EXPECT_EQ(cache.size(), st.inserts - st.evictions - st.erases -
                                st.expirations);
}

INSTANTIATE_TEST_SUITE_P(LockedAndLockFree, KvTtlTest,
                         ::testing::Values(false, true),
                         [](const auto &info) {
                             return info.param ? "lockfree"
                                               : "locked";
                         });

} // namespace
