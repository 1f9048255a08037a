/**
 * @file
 * Concurrency tests of the sharded kv cache. Shards are independent
 * lock domains, so a parallel run whose threads partition the
 * operation sequence by shard preserves each shard's operation order
 * — its stats must therefore equal a serial replay exactly. A chaos
 * test then hammers one cache from many threads with mixed operations
 * and checks the global accounting invariants (and, under
 * -DADCACHE_SANITIZE=thread, gives TSan a dense interleaving to
 * chew on).
 */

#include "kv/adaptive_kv_cache.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "kv/read_path.hh"

#include "sim/runner.hh"
#include "workloads/key_stream.hh"

namespace adcache::kv
{
namespace
{

KvConfig
concurrentConfig(unsigned shards)
{
    KvConfig c;
    c.capacity = 2048;
    c.numShards = shards;
    c.numBuckets = 256;
    c.bucketWays = 4;
    c.leaderEvery = 4;
    c.shadowTagBits = 12;
    c.selector = SelectorMode::Adaptive;
    c.keyHash = KeyHashKind::Mix;
    return c;
}

/** Compare every externally visible per-shard counter. */
void
expectShardStatsEqual(const AdaptiveKvCache &a,
                      const AdaptiveKvCache &b)
{
    ASSERT_EQ(a.numShards(), b.numShards());
    for (unsigned s = 0; s < a.numShards(); ++s) {
        const KvShardStats &x = a.shard(s).stats();
        const KvShardStats &y = b.shard(s).stats();
        EXPECT_EQ(x.references, y.references) << "shard " << s;
        EXPECT_EQ(x.hits, y.hits) << "shard " << s;
        EXPECT_EQ(x.misses, y.misses) << "shard " << s;
        EXPECT_EQ(x.evictions, y.evictions) << "shard " << s;
        EXPECT_EQ(x.fallbackEvictions, y.fallbackEvictions)
            << "shard " << s;
        for (unsigned k = 0; k < kvNumComponents; ++k)
            EXPECT_EQ(x.decisions[k], y.decisions[k])
                << "shard " << s << " component " << k;
        EXPECT_EQ(a.shard(s).size(), b.shard(s).size())
            << "shard " << s;
        EXPECT_EQ(a.shard(s).shadowMisses(kvComponentLru),
                  b.shard(s).shadowMisses(kvComponentLru))
            << "shard " << s;
        EXPECT_EQ(a.shard(s).shadowMisses(kvComponentLfu),
                  b.shard(s).shadowMisses(kvComponentLfu))
            << "shard " << s;
    }
}

TEST(KvConcurrencyTest, ShardPartitionedRunMatchesSerialReplay)
{
    const unsigned shards = 4;
    const std::size_t ops = 60'000;

    KeyStreamSpec spec;
    spec.pattern = KeyPattern::PhaseFlip;
    spec.keySpace = 1 << 14;
    spec.phasePeriod = 7'000;
    spec.scanSpan = 4'096;
    spec.seed = 99;
    KeyStream stream(spec);
    std::vector<KvKey> keys;
    keys.reserve(ops);
    for (std::size_t i = 0; i < ops; ++i)
        keys.push_back(stream.next());

    // Serial reference run.
    AdaptiveKvCache serial(concurrentConfig(shards));
    for (const KvKey key : keys)
        serial.put(key, "v");

    // Parallel run: thread t applies, in order, exactly the ops that
    // route to shard t — per-shard order equals the serial replay.
    AdaptiveKvCache parallel(concurrentConfig(shards));
    std::vector<std::vector<KvKey>> byShard(shards);
    for (const KvKey key : keys)
        byShard[parallel.shardOf(key)].push_back(key);
    runIndexed(shards, shards, [&](std::size_t t) {
        for (const KvKey key : byShard[t])
            parallel.put(key, "v");
    });

    expectShardStatsEqual(serial, parallel);
    EXPECT_EQ(serial.size(), parallel.size());
}

TEST(KvConcurrencyTest, ChaosMixedOpsKeepInvariants)
{
    const unsigned threads = 8;
    const std::size_t opsPerThread = 20'000;
    AdaptiveKvCache cache(concurrentConfig(8));

    // All threads hammer overlapping keys: gets, puts, fetches,
    // erases and pin cycling on the same cache.
    runIndexed(threads, threads, [&](std::size_t t) {
        KeyStreamSpec spec;
        spec.pattern = KeyPattern::Zipf;
        spec.keySpace = 1 << 12;
        spec.skew = 1.0;
        spec.seed = 1000 + t;
        KeyStream stream(spec);
        for (std::size_t i = 0; i < opsPerThread; ++i) {
            const KvKey key = stream.next();
            switch (i % 8) {
              case 0:
              case 1:
              case 2:
                cache.get(key);
                break;
              case 3:
              case 4:
                cache.put(key, "v");
                break;
              case 5:
                cache.fetch(key, [] { return std::string("f"); });
                break;
              case 6:
                if (i % 16 == 6)
                    cache.pin(key);
                else
                    cache.unpin(key);
                break;
              default:
                cache.erase(key);
                break;
            }
        }
    });

    EXPECT_LE(cache.size(), cache.capacity());

    // Per-shard accounting must balance exactly.
    std::uint64_t inserts = 0, evictions = 0, erases = 0,
                  rejected = 0;
    for (unsigned s = 0; s < cache.numShards(); ++s) {
        const KvShardStats &st = cache.shard(s).stats();
        EXPECT_EQ(st.references, st.hits + st.misses)
            << "shard " << s;
        EXPECT_EQ(st.misses, st.inserts + st.rejected)
            << "shard " << s;
        EXPECT_EQ(cache.shard(s).size(),
                  st.inserts - st.evictions - st.erases)
            << "shard " << s;
        inserts += st.inserts;
        evictions += st.evictions;
        erases += st.erases;
        rejected += st.rejected;
    }
    EXPECT_EQ(cache.size(), inserts - evictions - erases);
    EXPECT_GT(inserts, 0u);

    // The cache still works after the storm (unpin survivors first so
    // the insertion cannot hit an all-pinned shard).
    for (unsigned s = 0; s < cache.numShards(); ++s)
        for (const KvKey key : cache.shard(s).residentKeys())
            cache.unpin(key);
    cache.put(0xdead, "alive");
    EXPECT_EQ(*cache.get(0xdead), "alive");
    (void)rejected;
}

TEST(KvConcurrencyTest, ConcurrentReadersSeePinnedEntry)
{
    AdaptiveKvCache cache(concurrentConfig(4));
    cache.put(42, "anchor", /*pinned=*/true);
    runIndexed(8, 8, [&](std::size_t t) {
        KeyStreamSpec spec;
        spec.pattern = KeyPattern::Uniform;
        spec.keySpace = 1 << 13;
        spec.seed = t + 1;
        KeyStream stream(spec);
        for (int i = 0; i < 10'000; ++i) {
            cache.put(stream.next(), "v");
            if (i % 64 == 0) {
                const auto v = cache.get(42);
                ASSERT_TRUE(v.has_value());
                EXPECT_EQ(*v, "anchor");
            }
        }
    });
    EXPECT_TRUE(cache.contains(42));
}

TEST(KvConcurrencyTest, ReadRetriesCountHitsAndValidatedMisses)
{
    // One shard, one bucket: a writer inserting and erasing a key
    // restructures the very chain the reader walks, so the reader's
    // optimistic probes retry. Every probe tryProbe decides (hit or
    // validated miss) must add its re-walks to readRetries; only a
    // NeedSlow verdict hands them on to the locked probe().
    KvConfig c;
    c.capacity = 64;
    c.numShards = 1;
    c.numBuckets = 1;
    c.selector = SelectorMode::FixedLru;
    c.keyHash = KeyHashKind::Identity;
    c.lockFreeReads = true;
    AdaptiveKvCache cache(c);
    for (KvKey k = 2; k <= 32; k += 2)
        cache.put(k, "present");
    KvShard &shard = cache.shard(0);
    const std::uint64_t before = shard.stats().readRetries;

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        while (!stop.load()) {
            cache.put(1001, "churn");
            cache.erase(1001);
        }
    });
    std::uint64_t decided = 0, hit_retries = 0, miss_retries = 0;
    std::uint64_t wrong_verdicts = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (std::uint64_t i = 0;
         (i < 200'000 || hit_retries == 0 || miss_retries == 0) &&
         std::chrono::steady_clock::now() < deadline;
         ++i) {
        // Odd keys are absent, even keys present.
        const KvKey k = i % 32 + 1;
        const std::string *value = nullptr;
        unsigned retries = 0;
        auto verdict = KvShard::ProbeResult::NeedSlow;
        {
            EpochGuard guard;
            if (guard.engaged())
                verdict = shard.tryProbe(k, k, &value, &retries);
        }
        if (verdict == KvShard::ProbeResult::NeedSlow)
            continue;
        const bool miss = verdict == KvShard::ProbeResult::Miss;
        wrong_verdicts += miss != (k % 2 == 1);
        decided += retries;
        (miss ? miss_retries : hit_retries) += retries;
    }
    stop.store(true);
    writer.join();

    EXPECT_EQ(wrong_verdicts, 0u);
    EXPECT_EQ(shard.stats().readRetries - before, decided);
    EXPECT_GT(miss_retries, 0u) << "no validated miss was retried";
}

} // namespace
} // namespace adcache::kv
