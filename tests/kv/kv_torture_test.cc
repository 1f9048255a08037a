/**
 * @file
 * Concurrency-torture tier of the lock-free kv read path
 * (ctest -L kvtorture; run under the asan and tsan presets — see
 * docs/TESTING.md).
 *
 * Four proof shapes:
 *  - Determinism: threads that partition operations by shard
 *    preserve per-shard order, so every counter and the resident
 *    set must equal a serial replay with the same drain schedule.
 *  - Identity under contention: readers racing a thrashing writer
 *    may see any resident snapshot, but a hit must return the value
 *    written for that key — the seqlock/reclamation failure mode is
 *    a torn or recycled entry, caught by value identity.
 *  - Quiescent accounting: after the storm, the per-shard identities
 *    (references = hits + misses, size = inserts - evictions -
 *    erases, ...) must balance exactly.
 *  - Snapshot coherence: a counter snapshot taken while lock-free
 *    hits land never reports more probe hits than probes.
 */

#include "kv/adaptive_kv_cache.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "oracle/kv_fuzzer.hh"
#include "sim/runner.hh"
#include "util/rng.hh"

namespace adcache::kv
{
namespace
{

/** @p buckets = 1 puts a whole shard in one bucket, so most entries
 *  overflow its index slots into the chain. */
KvConfig
tortureConfig(unsigned shards, std::uint64_t capacity,
              unsigned buckets = 128)
{
    KvConfig c;
    c.capacity = capacity;
    c.numShards = shards;
    c.numBuckets = buckets;
    c.bucketWays = 4;
    c.leaderEvery = 4;
    c.shadowTagBits = 12;
    c.selector = SelectorMode::Adaptive;
    c.keyHash = KeyHashKind::Mix;
    return c;
}

/** Mixed-op record for the partitioned determinism tests. */
struct Op
{
    KvFuzzOpKind kind;
    KvKey key;
};

void
applyOp(AdaptiveKvCache &cache, const Op &op)
{
    switch (op.kind) {
      case KvFuzzOpKind::Get:
        cache.get(op.key);
        break;
      case KvFuzzOpKind::Put:
        cache.put(op.key, kvExpectedValue(op.key));
        break;
      case KvFuzzOpKind::Fetch:
        cache.fetch(op.key,
                    [&] { return kvExpectedValue(op.key); });
        break;
      case KvFuzzOpKind::Erase:
        cache.erase(op.key);
        break;
      case KvFuzzOpKind::Pin:
        cache.pin(op.key);
        break;
      case KvFuzzOpKind::Unpin:
        cache.unpin(op.key);
        break;
    }
}

/** Every externally visible per-shard counter, read path included. */
void
expectShardsEqual(const AdaptiveKvCache &a, const AdaptiveKvCache &b)
{
    ASSERT_EQ(a.numShards(), b.numShards());
    for (unsigned s = 0; s < a.numShards(); ++s) {
        const KvShardStats x = a.shard(s).stats();
        const KvShardStats y = b.shard(s).stats();
        EXPECT_EQ(x.references, y.references) << "shard " << s;
        EXPECT_EQ(x.hits, y.hits) << "shard " << s;
        EXPECT_EQ(x.misses, y.misses) << "shard " << s;
        EXPECT_EQ(x.gets, y.gets) << "shard " << s;
        EXPECT_EQ(x.getHits, y.getHits) << "shard " << s;
        EXPECT_EQ(x.inserts, y.inserts) << "shard " << s;
        EXPECT_EQ(x.updates, y.updates) << "shard " << s;
        EXPECT_EQ(x.evictions, y.evictions) << "shard " << s;
        EXPECT_EQ(x.erases, y.erases) << "shard " << s;
        std::vector<KvKey> ra = a.shard(s).residentKeys();
        std::vector<KvKey> rb = b.shard(s).residentKeys();
        std::sort(ra.begin(), ra.end());
        std::sort(rb.begin(), rb.end());
        EXPECT_EQ(ra, rb) << "shard " << s;
    }
}

/** The quiescent accounting identities over every shard. */
void
expectAccountingBalanced(const AdaptiveKvCache &cache)
{
    std::size_t resident = 0;
    for (unsigned s = 0; s < cache.numShards(); ++s) {
        const KvShardStats st = cache.shard(s).stats();
        EXPECT_EQ(st.references, st.hits + st.misses)
            << "shard " << s;
        EXPECT_EQ(st.misses,
                  st.inserts + st.rejected + st.admitRejects)
            << "shard " << s;
        EXPECT_GE(st.gets, st.getHits) << "shard " << s;
        EXPECT_EQ(cache.shard(s).size(),
                  st.inserts - st.evictions - st.erases)
            << "shard " << s;
        EXPECT_LE(cache.shard(s).pinnedCount(),
                  cache.shard(s).size())
            << "shard " << s;
        resident += cache.shard(s).residentKeys().size();
    }
    EXPECT_EQ(resident, cache.size());
    EXPECT_LE(cache.size(), cache.capacity());
}

TEST(KvTortureTest, ReadersPlusWriterPartitionedMatchSerialReplay)
{
    // Satellite of the shard-partitioned-equals-serial family: three
    // reader threads plus one mutator, partitioned by shard so each
    // shard sees a single thread. Per-shard operation order — and
    // therefore when every access mark is set and folded — is
    // identical in the serial replay, so equality is exact,
    // lock-free reads included.
    const unsigned shards = 4;
    const std::size_t ops = 50'000;
    Rng rng(20260808);

    // Shards 0..2 are read-mostly (their ops come from "readers");
    // shard 3 is the mutator's (puts and erases).
    std::vector<Op> flat;
    flat.reserve(ops);
    AdaptiveKvCache probe_only(tortureConfig(shards, 2048));
    while (flat.size() < ops) {
        const KvKey key = rng.zipfApprox(1 << 13, 0.99);
        const unsigned s = probe_only.shardOf(key);
        Op op{KvFuzzOpKind::Get, key};
        if (s == 3) {
            op.kind = rng.chance(0.3) ? KvFuzzOpKind::Erase
                                      : KvFuzzOpKind::Put;
        } else {
            // Readers still need residents: seed occasional puts.
            op.kind = rng.chance(0.15) ? KvFuzzOpKind::Put
                                       : KvFuzzOpKind::Get;
        }
        flat.push_back(op);
    }

    AdaptiveKvCache serial(tortureConfig(shards, 2048));
    for (const Op &op : flat)
        applyOp(serial, op);

    AdaptiveKvCache parallel(tortureConfig(shards, 2048));
    std::vector<std::vector<Op>> byShard(shards);
    for (const Op &op : flat)
        byShard[parallel.shardOf(op.key)].push_back(op);
    runIndexed(shards, shards, [&](std::size_t t) {
        for (const Op &op : byShard[t])
            applyOp(parallel, op);
    });

    expectShardsEqual(serial, parallel);
    EXPECT_EQ(serial.size(), parallel.size());
    expectAccountingBalanced(parallel);
}

TEST(KvTortureTest, MixedOpsPartitionedMatchSerialReplay)
{
    // The full operation surface (get/put/fetch/erase/pin/unpin)
    // through the same partitioned-determinism lens.
    const unsigned shards = 4;
    const std::size_t ops = 40'000;
    Rng rng(7);

    std::vector<Op> flat;
    flat.reserve(ops);
    for (std::size_t i = 0; i < ops; ++i) {
        const KvKey key = rng.zipfApprox(1 << 12, 0.9);
        KvFuzzOpKind kind = KvFuzzOpKind::Get;
        const double r = rng.uniform();
        if (r < 0.25)
            kind = KvFuzzOpKind::Put;
        else if (r < 0.32)
            kind = KvFuzzOpKind::Fetch;
        else if (r < 0.40)
            kind = KvFuzzOpKind::Erase;
        else if (r < 0.44)
            kind = KvFuzzOpKind::Pin;
        else if (r < 0.52)
            kind = KvFuzzOpKind::Unpin;
        flat.push_back({kind, key});
    }

    AdaptiveKvCache serial(tortureConfig(shards, 1024));
    for (const Op &op : flat)
        applyOp(serial, op);

    AdaptiveKvCache parallel(tortureConfig(shards, 1024));
    std::vector<std::vector<Op>> byShard(shards);
    for (const Op &op : flat)
        byShard[parallel.shardOf(op.key)].push_back(op);
    runIndexed(shards, shards, [&](std::size_t t) {
        for (const Op &op : byShard[t])
            applyOp(parallel, op);
    });

    expectShardsEqual(serial, parallel);
    expectAccountingBalanced(parallel);
}

TEST(KvTortureTest, ReadersVsThrashingWriterKeepValueIdentity)
{
    // The core torture: three readers hammer Zipf gets while one
    // writer thrashes puts over a keyspace far beyond capacity,
    // forcing continuous eviction, unlink, and epoch reclamation
    // under the readers' feet. Every hit must return that key's
    // value; a torn read or recycled entry surfaces as a mismatch
    // (and as a TSan report under the tsan preset). With one bucket
    // a shard, slot reuse and the chain walk race too. The readers
    // keep reading until the writer is done, so they race all of the
    // thrash, not only its start.
    for (const unsigned buckets : {128u, 1u}) {
        SCOPED_TRACE(testing::Message() << buckets << " buckets");
        AdaptiveKvCache cache(tortureConfig(4, 512, buckets));
        const std::uint64_t keyspace = 4096;
        const unsigned threads = 4;
        std::atomic<std::uint64_t> mismatches{0};
        std::atomic<bool> writer_done{false};

        runIndexed(threads, threads, [&](std::size_t t) {
            Rng rng(1000 + t);
            if (t == 0) {
                for (int i = 0; i < 60'000; ++i) {
                    const KvKey k = rng.below(keyspace);
                    cache.put(k, kvExpectedValue(k));
                    if (i % 17 == 0)
                        cache.erase(rng.below(keyspace));
                }
                writer_done.store(true);
            } else {
                for (int i = 0; i < 60'000 || !writer_done.load(); ++i) {
                    const KvKey k = rng.zipfApprox(keyspace, 0.99);
                    if (auto v = cache.get(k)) {
                        if (*v != kvExpectedValue(k))
                            mismatches.fetch_add(1);
                    }
                }
            }
        });

        EXPECT_EQ(mismatches.load(), 0u);
        expectAccountingBalanced(cache);

        // The retry/slow-path counters are the observable trace of
        // the optimistic protocol; they must at least be
        // self-consistent.
        KvShardStats total;
        for (unsigned s = 0; s < cache.numShards(); ++s)
            total.add(cache.shard(s).stats());
        EXPECT_GT(total.gets, 0u);
        EXPECT_GT(total.getHits, 0u);
    }
}

TEST(KvTortureTest, PinnedKeysAlwaysHitUnderThrash)
{
    // A pinned key must survive any eviction storm, and every
    // lock-free read of it must hit with the right value, also when
    // the storm reuses the slots of its one bucket. The readers keep
    // reading until the storm is over.
    for (const unsigned buckets : {128u, 1u}) {
        SCOPED_TRACE(testing::Message() << buckets << " buckets");
        AdaptiveKvCache cache(tortureConfig(4, 256, buckets));
        const std::vector<KvKey> pinned = {3, 1'000'003, 2'000'003,
                                           3'000'003};
        for (const KvKey k : pinned)
            cache.put(k, kvExpectedValue(k), /*pinned=*/true);

        const unsigned threads = 4;
        std::atomic<std::uint64_t> lost{0};
        std::atomic<bool> writer_done{false};
        runIndexed(threads, threads, [&](std::size_t t) {
            Rng rng(77 + t);
            if (t == 0) {
                for (int i = 0; i < 50'000; ++i) {
                    const KvKey k = 10'000 + rng.below(8192);
                    cache.put(k, kvExpectedValue(k));
                }
                writer_done.store(true);
            } else {
                for (int i = 0; i < 50'000 || !writer_done.load(); ++i) {
                    const KvKey k = pinned[rng.below(pinned.size())];
                    auto v = cache.get(k);
                    if (!v || *v != kvExpectedValue(k))
                        lost.fetch_add(1);
                }
            }
        });

        EXPECT_EQ(lost.load(), 0u);
        for (const KvKey k : pinned) {
            EXPECT_TRUE(cache.contains(k)) << "pinned key " << k;
            EXPECT_EQ(*cache.get(k), kvExpectedValue(k));
        }
        expectAccountingBalanced(cache);
    }
}

TEST(KvTortureTest, PinUnpinRacesKeepAccounting)
{
    // Threads race pin/unpin cycles on a small key set against an
    // eviction storm and lock-free gets: the pinned count must not
    // drift from the pinned entries, and no pin may outlive its
    // entry's eviction.
    AdaptiveKvCache cache(tortureConfig(2, 128));
    const unsigned threads = 4;
    runIndexed(threads, threads, [&](std::size_t t) {
        Rng rng(31 + t);
        for (int i = 0; i < 40'000; ++i) {
            const KvKey k = rng.below(64);
            switch (rng.below(4)) {
              case 0:
                cache.pin(k);
                break;
              case 1:
                cache.unpin(k);
                break;
              case 2: {
                const KvKey f = 1'000 + rng.below(512);
                cache.put(f, kvExpectedValue(f));
                break;
              }
              default:
                cache.get(k);
                break;
            }
        }
    });

    expectAccountingBalanced(cache);

    // Unpin everything; afterwards inserts must always succeed.
    for (unsigned s = 0; s < cache.numShards(); ++s)
        for (const KvKey k : cache.shard(s).residentKeys())
            cache.unpin(k);
    for (unsigned s = 0; s < cache.numShards(); ++s)
        EXPECT_EQ(cache.shard(s).pinnedCount(), 0u) << "shard " << s;
    const KvOutcome out = cache.put(0xfeed, "alive");
    EXPECT_TRUE(out.inserted);
    EXPECT_EQ(*cache.get(0xfeed), "alive");
}

TEST(KvTortureTest, ContainsRacesNeverMisreportValueIdentity)
{
    // contains() locks the shard while get() probes without it;
    // interleave the two with writes to cross-check the locked and
    // lock-free read surfaces.
    AdaptiveKvCache cache(tortureConfig(2, 256));
    std::atomic<std::uint64_t> mismatches{0};
    runIndexed(3, 3, [&](std::size_t t) {
        Rng rng(5 + t);
        if (t == 0) {
            for (int i = 0; i < 50'000; ++i) {
                const KvKey k = rng.below(1024);
                if (rng.chance(0.8))
                    cache.put(k, kvExpectedValue(k));
                else
                    cache.erase(k);
            }
        } else {
            for (int i = 0; i < 50'000; ++i) {
                const KvKey k = rng.below(1024);
                // Membership may legitimately change between the
                // two calls; only the value binding is invariant.
                if (cache.contains(k)) {
                    if (auto v = cache.get(k)) {
                        if (*v != kvExpectedValue(k))
                            mismatches.fetch_add(1);
                    }
                }
            }
        }
    });
    EXPECT_EQ(mismatches.load(), 0u);
    expectAccountingBalanced(cache);
}

TEST(KvTortureTest, SnapshotsNeverCountMoreProbeHitsThanProbes)
{
    // Lock-free hits bump gets and then getHits without the shard
    // mutex, so a snapshot taken mid-hit must still never report
    // more probe hits than probes: gets - getHits feeds the Misses
    // rows of every exporter, and a wrapped difference reads as
    // ~1.8e19 misses.
    AdaptiveKvCache cache(tortureConfig(1, 64));
    cache.put(7, kvExpectedValue(7));
    std::atomic<bool> stop{false};
    std::atomic<int> running{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t)
        readers.emplace_back([&] {
            running.fetch_add(1);
            while (!stop.load(std::memory_order_relaxed))
                (void)cache.get(7);
        });
    while (running.load() < 3)
        std::this_thread::yield();
    std::uint64_t snapshots = 0, bad = 0;
    for (int i = 0; i < 200'000; ++i)
        for (const KvShardTelemetry &t : cache.shardTelemetry()) {
            ++snapshots;
            if (t.getHits > t.gets || t.hitRate() > 1.0)
                ++bad;
        }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread &t : readers)
        t.join();
    EXPECT_EQ(bad, 0u) << "of " << snapshots << " snapshots";
    expectAccountingBalanced(cache);
}

} // namespace
} // namespace adcache::kv
