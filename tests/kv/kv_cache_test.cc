/**
 * @file
 * Behavioural tests of the adaptive key-value cache: API semantics
 * (get/fetch/put/erase/pin), capacity enforcement, fixed-policy
 * eviction order, pinned-entry protection including the all-pinned
 * rejection path, stats plumbing, and the bucket fingerprint index
 * under aliasing and overflow in both read modes.
 */

#include "kv/adaptive_kv_cache.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/stat_registry.hh"

namespace adcache::kv
{
namespace
{

/** Small deterministic single-shard config (Shard scope). */
KvConfig
smallConfig(SelectorMode selector, std::uint64_t capacity = 4)
{
    KvConfig c;
    c.capacity = capacity;
    c.numShards = 1;
    c.numBuckets = 8;
    c.bucketWays = 4;
    c.leaderEvery = 1;
    c.shadowTagBits = 0;
    c.selector = selector;
    c.keyHash = KeyHashKind::Identity;
    return c;
}

TEST(KvCacheTest, PutGetEraseRoundTrip)
{
    AdaptiveKvCache cache(smallConfig(SelectorMode::FixedLru, 16));
    EXPECT_FALSE(cache.get(1).has_value());

    const KvOutcome put = cache.put(1, "one");
    EXPECT_TRUE(put.inserted);
    EXPECT_FALSE(put.hit);
    ASSERT_TRUE(cache.get(1).has_value());
    EXPECT_EQ(*cache.get(1), "one");
    EXPECT_TRUE(cache.contains(1));
    EXPECT_EQ(cache.size(), 1u);

    EXPECT_TRUE(cache.erase(1));
    EXPECT_FALSE(cache.contains(1));
    EXPECT_FALSE(cache.erase(1));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(KvCacheTest, PutOverwritesFetchDoesNot)
{
    AdaptiveKvCache cache(smallConfig(SelectorMode::FixedLru, 16));
    cache.put(7, "first");
    const KvOutcome second = cache.put(7, "second");
    EXPECT_TRUE(second.hit);
    EXPECT_TRUE(second.updated);
    EXPECT_EQ(*cache.get(7), "second");

    // fetch on a hit returns the resident value, loader unused.
    bool loaded = false;
    const std::string got = cache.fetch(7, [&] {
        loaded = true;
        return std::string("third");
    });
    EXPECT_EQ(got, "second");
    EXPECT_FALSE(loaded);
}

TEST(KvCacheTest, FetchLoadsExactlyOnceOnMiss)
{
    AdaptiveKvCache cache(smallConfig(SelectorMode::FixedLru, 16));
    int calls = 0;
    const std::string got = cache.fetch(9, [&] {
        ++calls;
        return std::string("loaded");
    });
    EXPECT_EQ(got, "loaded");
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(*cache.get(9), "loaded");
}

TEST(KvCacheTest, CapacityIsEnforced)
{
    AdaptiveKvCache cache(smallConfig(SelectorMode::FixedLru, 4));
    for (KvKey k = 0; k < 100; ++k)
        cache.put(k, "v");
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_EQ(cache.capacity(), 4u);
}

TEST(KvCacheTest, FixedLruEvictsLeastRecentlyUsed)
{
    AdaptiveKvCache cache(smallConfig(SelectorMode::FixedLru, 3));
    cache.put(1, "a");
    cache.put(2, "b");
    cache.put(3, "c");
    cache.get(1); // 2 is now the least recently used
    const KvOutcome out = cache.put(4, "d");
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.evictedKey, 2u);
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
}

TEST(KvCacheTest, FixedLfuEvictsLeastFrequentlyUsed)
{
    AdaptiveKvCache cache(smallConfig(SelectorMode::FixedLfu, 3));
    cache.put(1, "a");
    cache.put(2, "b");
    cache.put(3, "c");
    // Raise 1 and 3 to higher frequencies; 2 stays at 1 reference.
    cache.get(1);
    cache.get(1);
    cache.get(3);
    const KvOutcome out = cache.put(4, "d");
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.evictedKey, 2u);
}

TEST(KvCacheTest, LfuBreaksTiesByInsertionAge)
{
    AdaptiveKvCache cache(smallConfig(SelectorMode::FixedLfu, 3));
    cache.put(1, "a");
    cache.put(2, "b");
    cache.put(3, "c");
    // All at frequency 1: the oldest (key 1) goes first.
    const KvOutcome out = cache.put(4, "d");
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.evictedKey, 1u);
}

TEST(KvCacheTest, PinnedEntriesSurviveEvictionPressure)
{
    AdaptiveKvCache cache(smallConfig(SelectorMode::FixedLru, 4));
    cache.put(1000, "keep", /*pinned=*/true);
    for (KvKey k = 0; k < 200; ++k)
        cache.put(k, "v");
    EXPECT_TRUE(cache.contains(1000));
    EXPECT_EQ(*cache.get(1000), "keep");
}

TEST(KvCacheTest, AllPinnedRejectsAdmission)
{
    AdaptiveKvCache cache(smallConfig(SelectorMode::FixedLru, 2));
    cache.put(1, "a", /*pinned=*/true);
    cache.put(2, "b", /*pinned=*/true);
    const KvOutcome out = cache.put(3, "c");
    EXPECT_TRUE(out.rejected);
    EXPECT_FALSE(out.inserted);
    EXPECT_FALSE(cache.contains(3));
    EXPECT_EQ(cache.size(), 2u);

    // fetch still produces the value for the caller even when the
    // cache refuses to keep it.
    const std::string got =
        cache.fetch(4, [] { return std::string("transient"); });
    EXPECT_EQ(got, "transient");
    EXPECT_FALSE(cache.contains(4));
}

TEST(KvCacheTest, UnpinReadmitsToEviction)
{
    AdaptiveKvCache cache(smallConfig(SelectorMode::FixedLru, 2));
    cache.put(1, "a", /*pinned=*/true);
    cache.put(2, "b", /*pinned=*/true);
    EXPECT_TRUE(cache.unpin(1));
    const KvOutcome out = cache.put(3, "c");
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.evictedKey, 1u);
    EXPECT_FALSE(cache.pin(99)); // absent keys cannot be pinned
}

TEST(KvCacheTest, AdaptiveShardScopeRunsLeadersAndSelectors)
{
    KvConfig c = smallConfig(SelectorMode::Adaptive, 32);
    c.numBuckets = 16;
    c.leaderEvery = 2;
    AdaptiveKvCache cache(c);
    for (KvKey k = 0; k < 500; ++k)
        cache.put(k % 70, "v");
    const KvShard &shard = cache.shard(0);
    EXPECT_TRUE(shard.isLeader(0));
    EXPECT_FALSE(shard.isLeader(1));
    // Leaders trained the shadows and decisions were made.
    EXPECT_GT(shard.shadowMisses(kvComponentLru), 0u);
    EXPECT_GT(shard.stats().decisions[kvComponentLru] +
                  shard.stats().decisions[kvComponentLfu],
              0u);
    EXPECT_EQ(cache.size(), 32u);
}

TEST(KvCacheTest, ShardRoutingCoversAllShards)
{
    KvConfig c = smallConfig(SelectorMode::FixedLru, 64);
    c.numShards = 4;
    c.keyHash = KeyHashKind::Mix;
    AdaptiveKvCache cache(c);
    EXPECT_EQ(cache.numShards(), 4u);
    bool seen[4] = {};
    for (KvKey k = 0; k < 256; ++k)
        seen[cache.shardOf(k)] = true;
    EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
}

TEST(KvCacheTest, StatsAggregateAcrossShards)
{
    KvConfig c = smallConfig(SelectorMode::FixedLru, 64);
    c.numShards = 4;
    c.keyHash = KeyHashKind::Mix;
    AdaptiveKvCache cache(c);
    for (KvKey k = 0; k < 100; ++k)
        cache.put(k, "v");
    for (KvKey k = 0; k < 100; ++k)
        cache.get(k);

    StatRegistry reg;
    cache.registerStats(reg, "kv.");
    EXPECT_EQ(reg.numeric("kv.references"), 100.0);
    EXPECT_EQ(reg.numeric("kv.gets"), 100.0);
    EXPECT_EQ(reg.numeric("kv.inserts"), 100.0);
    EXPECT_EQ(reg.numeric("kv.size"), double(cache.size()));
    EXPECT_EQ(reg.numeric("kv.evictions"),
              double(100 - cache.size()));
}

/** Multi-shard lock-free-reads config for the getMany tests. */
KvConfig
mgetConfig()
{
    KvConfig c;
    c.capacity = 64;
    c.numShards = 4;
    c.numBuckets = 16;
    c.bucketWays = 4;
    c.leaderEvery = 1;
    c.shadowTagBits = 0;
    c.selector = SelectorMode::FixedLru;
    c.keyHash = KeyHashKind::Mix;
    c.lockFreeReads = true;
    return c;
}

/** Deterministic key program over [0, keyspace). */
std::vector<KvKey>
keyProgram(std::uint64_t seed, std::size_t n, KvKey keyspace)
{
    std::vector<KvKey> keys;
    keys.reserve(n);
    std::uint64_t x = seed;
    for (std::size_t i = 0; i < n; ++i)
    {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        keys.push_back(KvKey((x >> 33) % keyspace));
    }
    return keys;
}

/**
 * Drives two identically populated caches through the same key
 * program — one via getMany batches of @p depth, one via serial
 * get() calls — then through @p evicting_puts puts of fresh keys,
 * and checks that results, per-shard residency, and the
 * gets/getHits counters all converge. (slowProbes/readRetries may
 * legitimately diverge: a batch pays one slow-path entry per shard
 * group.)
 */
void
expectGetManyMatchesSerial(const KvConfig &config, std::size_t depth,
                           std::size_t evicting_puts = 0)
{
    AdaptiveKvCache batched(config);
    AdaptiveKvCache serial(config);
    const std::vector<KvKey> warm = keyProgram(7, 128, 96);
    for (const KvKey k : warm)
    {
        batched.put(k, "v" + std::to_string(k));
        serial.put(k, "v" + std::to_string(k));
    }

    const std::vector<KvKey> program = keyProgram(71, 256, 96);
    std::vector<std::optional<std::string>> out(depth);
    std::size_t batched_hits = 0;
    std::size_t serial_hits = 0;
    for (std::size_t i = 0; i < program.size(); i += depth)
    {
        const std::size_t n = std::min(depth, program.size() - i);
        const std::span<const KvKey> keys(program.data() + i, n);
        batched_hits += batched.getMany(keys, out.data());
        for (std::size_t j = 0; j < n; ++j)
        {
            const std::optional<std::string> got =
                serial.get(keys[j]);
            if (got.has_value())
                ++serial_hits;
            ASSERT_EQ(out[j], got) << "key " << keys[j]
                                   << " at batch offset " << j;
        }
    }
    EXPECT_EQ(batched_hits, serial_hits);
    for (KvKey k = 1000; k < 1000 + evicting_puts; ++k) {
        batched.put(k, "v");
        serial.put(k, "v");
    }

    ASSERT_EQ(batched.numShards(), serial.numShards());
    for (unsigned s = 0; s < batched.numShards(); ++s)
    {
        std::vector<KvKey> br = batched.shard(s).residentKeys();
        std::vector<KvKey> sr = serial.shard(s).residentKeys();
        std::sort(br.begin(), br.end());
        std::sort(sr.begin(), sr.end());
        EXPECT_EQ(br, sr) << "shard " << s << " residency";
        EXPECT_EQ(batched.shard(s).stats().gets,
                  serial.shard(s).stats().gets)
            << "shard " << s;
        EXPECT_EQ(batched.shard(s).stats().getHits,
                  serial.shard(s).stats().getHits)
            << "shard " << s;
    }
}

TEST(KvCacheTest, GetManyMatchesSerialGetsLockstep)
{
    expectGetManyMatchesSerial(mgetConfig(), 16);
}

TEST(KvCacheTest, GetManyOddBatchSizesMatchSerial)
{
    expectGetManyMatchesSerial(mgetConfig(), 1);
    expectGetManyMatchesSerial(mgetConfig(), 3);
    expectGetManyMatchesSerial(mgetConfig(), 64);
}

TEST(KvCacheTest, GetManyTinyTouchRingMatchesSerial)
{
    // A batch marks its hits in one epoch window for the batch;
    // the evicting puts afterwards fold those marks, so the batched
    // marks must match the serial ones for the residency to agree.
    expectGetManyMatchesSerial(mgetConfig(), 16, 48);
}

TEST(KvCacheTest, GetManyLockedReadsMatchSerial)
{
    KvConfig c = mgetConfig();
    c.lockFreeReads = false;
    expectGetManyMatchesSerial(c, 16);
}

TEST(KvCacheTest, GetManyHandlesDuplicatesAndMisses)
{
    AdaptiveKvCache cache(mgetConfig());
    cache.put(1, "one");
    cache.put(5, "five");

    const KvKey keys[] = {1, 2, 5, 1, 1, 99};
    std::optional<std::string> out[6];
    EXPECT_EQ(cache.getMany(std::span<const KvKey>(keys), out), 4u);
    EXPECT_EQ(out[0], std::optional<std::string>("one"));
    EXPECT_FALSE(out[1].has_value());
    EXPECT_EQ(out[2], std::optional<std::string>("five"));
    EXPECT_EQ(out[3], std::optional<std::string>("one"));
    EXPECT_EQ(out[4], std::optional<std::string>("one"));
    EXPECT_FALSE(out[5].has_value());
}

TEST(KvCacheTest, GetManyVectorOverloadAndEmptyBatch)
{
    AdaptiveKvCache cache(mgetConfig());
    cache.put(3, "three");

    EXPECT_TRUE(
        cache.getMany(std::span<const KvKey>()).empty());

    const KvKey keys[] = {3, 4};
    const std::vector<std::optional<std::string>> got =
        cache.getMany(std::span<const KvKey>(keys));
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], std::optional<std::string>("three"));
    EXPECT_FALSE(got[1].has_value());
}

/**
 * Keys that share a shard, a bucket and the low 16 bits of their tag
 * (the bucket index's fingerprint), so every index slot's fingerprint
 * matches every probe, and 40 of them overflow a 16-slot index into
 * the bucket chain. Each get and getMany must still return the key's
 * own value: a probe that trusts a fingerprint without comparing keys
 * fails here, and so does one that skips the chain.
 */
class KvBucketIndexTest : public ::testing::TestWithParam<bool>
{
  protected:
    /** Two shards of 8 buckets, roomy enough that nothing is
     *  evicted; lock-free reads per the parameter. */
    static KvConfig
    config()
    {
        KvConfig c = smallConfig(SelectorMode::FixedLru, 256);
        c.numShards = 2;
        c.lockFreeReads = GetParam();
        return c;
    }

    /** Alias @p i of key 5: shard 1, bucket 2, fingerprint 0. */
    static KvKey
    alias(unsigned i)
    {
        constexpr unsigned kShift = 16 + 3 + 1; // fp + bucket + shard
        return 5 + (KvKey(i) << kShift);
    }

    void
    put(KvKey key, const std::string &value)
    {
        cache_.put(key, value);
        expected_[key] = value;
    }

    void
    erase(KvKey key)
    {
        EXPECT_TRUE(cache_.erase(key)) << "key " << key;
        expected_.erase(key);
    }

    /** Every alias ever used, resident or not, through get and
     *  getMany. */
    void
    expectValues(unsigned aliases)
    {
        std::vector<KvKey> keys;
        for (unsigned i = 0; i < aliases; ++i)
            keys.push_back(alias(i));
        const std::vector<std::optional<std::string>> many =
            cache_.getMany(std::span<const KvKey>(keys));
        ASSERT_EQ(many.size(), keys.size());
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const auto it = expected_.find(keys[i]);
            const std::optional<std::string> want =
                it == expected_.end()
                    ? std::nullopt
                    : std::optional<std::string>(it->second);
            EXPECT_EQ(cache_.get(keys[i]), want) << "alias " << i;
            EXPECT_EQ(many[i], want) << "alias " << i << " (getMany)";
        }
        EXPECT_EQ(cache_.size(), expected_.size());
    }

    AdaptiveKvCache cache_{config()};
    std::map<KvKey, std::string> expected_;
};

TEST_P(KvBucketIndexTest, AliasedFingerprintsAndOverflowKeepValues)
{
    constexpr unsigned kKeys = 40;
    for (unsigned i = 0; i < kKeys; ++i)
        put(alias(i), "v" + std::to_string(i));
    ASSERT_EQ(cache_.shard(1).size(), kKeys);
    expectValues(kKeys + 2);

    // The first 16 puts took the slots; the rest sit in the chain.
    for (const unsigned i : {0u, 3u, 15u, 16u, 27u, 39u})
        erase(alias(i));
    expectValues(kKeys + 2);

    // Re-puts take the freed slots; an overwrite of a chained key
    // stays one entry.
    for (const unsigned i : {3u, 27u, 40u, 41u})
        put(alias(i), "w" + std::to_string(i));
    const KvOutcome overwrite = cache_.put(alias(30), "w30");
    EXPECT_TRUE(overwrite.hit);
    EXPECT_FALSE(overwrite.inserted);
    expected_[alias(30)] = "w30";
    expectValues(kKeys + 2);
}

INSTANTIATE_TEST_SUITE_P(LockedAndLockFree, KvBucketIndexTest,
                         ::testing::Values(false, true),
                         [](const auto &info) {
                             return info.param ? "lockfree"
                                               : "locked";
                         });

TEST(KvCacheTest, DescribeNamesTheConfiguration)
{
    AdaptiveKvCache adaptive(smallConfig(SelectorMode::Adaptive, 8));
    EXPECT_NE(adaptive.describe().find("adaptive"),
              std::string::npos);
    AdaptiveKvCache lru(smallConfig(SelectorMode::FixedLru, 8));
    EXPECT_NE(lru.describe().find("lru"), std::string::npos);
}

} // namespace
} // namespace adcache::kv
