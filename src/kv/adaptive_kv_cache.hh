/**
 * @file
 * AdaptiveKvCache: the concurrent, sharded facade of the adaptive
 * key-value cache (see docs/KVCACHE.md for the design).
 *
 * The key hash is consumed field by field: the low bits select the
 * shard (an independent lock domain), the next bits the bucket
 * within it, and the remainder is the key tag the shadow directories
 * fold — the software analog of an address's index/tag split.
 *
 * Every keyed operation but the get probe takes exactly one shard
 * mutex; shards share no mutable state, so the cache scales with the
 * number of shards until the key distribution itself serializes
 * (kv_throughput measures this). With KvConfig::lockFreeReads (the
 * default), get/getInto and getMany/probeMany serve their common
 * cases without any mutex at all: an epoch-guarded optimistic probe
 * validated by per-bucket seqlocks, with LRU/LFU promotion deferred
 * into a per-entry access mark the locked operations fold
 * (docs/KVCACHE.md "Concurrency model").
 *
 * Counters are the ADCACHE_KV_COUNTERS rows of obs/counter_table.hh,
 * sampled under the shard locks: registerStats() reports them as v1
 * StatRegistry rows and registerMetrics() as Prometheus samples.
 */

#ifndef ADCACHE_KV_ADAPTIVE_KV_CACHE_HH
#define ADCACHE_KV_ADAPTIVE_KV_CACHE_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kv/kv_shard.hh"
#include "kv/kv_types.hh"
#include "util/function_ref.hh"

namespace adcache::obs
{
class MetricsRegistry;
} // namespace adcache::obs

namespace adcache::kv
{

/** Concurrent sharded adaptive key-value cache. */
class AdaptiveKvCache
{
  public:
    explicit AdaptiveKvCache(const KvConfig &config);

    AdaptiveKvCache(const AdaptiveKvCache &) = delete;
    AdaptiveKvCache &operator=(const AdaptiveKvCache &) = delete;

    /** Non-filling probe; promotes the entry on a hit. */
    std::optional<std::string> get(KvKey key);

    /** get() that appends a hit's value to @p out instead of
     *  returning a copy. @return true on a hit. */
    bool getInto(KvKey key, std::string *out);

    /**
     * Batched non-filling probe: calls visit(i, value) for every
     * keys[i], in order, exactly as keys.size() serial get() calls
     * would resolve them (value is null on a miss). One epoch guard
     * and one latency sample cover the whole batch; a key that needs
     * the slow path takes its shard mutex alone. @p visit runs under
     * that guard or mutex — the value is only valid during the call
     * — and must not call back into the cache. Duplicates are fine.
     * @return the number of hits.
     */
    std::size_t
    probeMany(std::span<const KvKey> keys,
              FunctionRef<void(std::size_t, const std::string *)> visit);

    /** probeMany() into out[i] (nullopt on a miss). */
    std::size_t getMany(std::span<const KvKey> keys,
                        std::optional<std::string> *out);

    /** Vector convenience over the span overload. */
    std::vector<std::optional<std::string>>
    getMany(std::span<const KvKey> keys);

    /**
     * Read-through fetch: on a miss, @p loader produces the value
     * (called under the shard lock, at most once) and the result is
     * admitted per Algorithm 1. @p ttl stamps a freshly admitted
     * entry with an expiry @p ttl clock ticks from now (0 = never).
     */
    std::string fetch(KvKey key, FunctionRef<std::string()> loader,
                      std::uint64_t ttl = 0);

    /** fetch() that appends the value to @p out: the shard lock
     *  covers the table work and this one copy, nothing else. */
    void fetchInto(KvKey key, FunctionRef<std::string()> loader,
                   std::string *out, std::uint64_t ttl = 0);

    /** Insert or overwrite. @p pinned pins the entry; @p ttl stamps
     *  (or, on overwrite, re-stamps) its expiry (0 = never). The
     *  value string is built before the shard lock is taken. */
    KvOutcome put(KvKey key, std::string_view value,
                  bool pinned = false, std::uint64_t ttl = 0);

    /**
     * One filling reference with explicit outcome — the advanced /
     * lockstep surface. fetch() and put() are thin wrappers.
     */
    KvOutcome reference(KvKey key, std::string_view value,
                        bool overwrite = false,
                        std::uint64_t ttl = 0);

    /** Remove @p key. @return true iff it was resident. */
    bool erase(KvKey key);

    /** Exempt @p key from eviction / re-admit it to eviction. */
    bool pin(KvKey key);
    bool unpin(KvKey key);

    /** Membership without promotion. */
    bool contains(KvKey key) const;

    /** Resident entries, summed over shards. */
    std::size_t size() const;

    std::uint64_t capacity() const;
    unsigned numShards() const { return unsigned(shards_.size()); }

    /** Shard an arbitrary key maps to. */
    unsigned shardOf(KvKey key) const;

    /**
     * TTL clock: a monotone logical tick counter shared by every
     * shard. Entries stamped with a ttl expire once the clock
     * reaches (stamp-time + ttl); the cache never advances the clock
     * itself, so callers choose the time base — per-op ticks in
     * deterministic tests, wall-clock milliseconds in the server.
     */
    std::uint64_t clockNow() const;

    /** Advance the clock by @p ticks. */
    void clockAdvance(std::uint64_t ticks = 1);

    /** Advance the clock to at least @p now (never backwards). */
    void clockAdvanceTo(std::uint64_t now);

    /**
     * Aggregate (and, with @p per_shard, per-shard "shardNN."-
     * prefixed) statistics under @p prefix: the v1 rows of
     * ADCACHE_KV_COUNTERS.
     */
    void registerStats(StatRegistry &reg, const std::string &prefix,
                       bool per_shard = false) const;

    /** Per-shard counter snapshots (each shard sampled under its
     *  own lock; shards are not mutually synchronized, which is fine
     *  for rate monitoring). */
    std::vector<KvShardStats> shardTelemetry() const;

    /** The cache-wide snapshot: @p shards summed, plus the
     *  cache-global rows (shard count, capacity, clock). */
    KvShardStats total(const std::vector<KvShardStats> &shards) const;

    /**
     * Register this cache as a scrape-time collector in @p reg: the
     * Prometheus rows of ADCACHE_KV_COUNTERS plus the component
     * decoder ring. The kv hot path stays untouched — counters are
     * sampled under the shard locks only when a scrape happens. The
     * cache must outlive the registry (or the registry must stop
     * scraping first).
     */
    void registerMetrics(obs::MetricsRegistry &reg) const;

    /** Direct, UNSYNCHRONIZED shard access (tests and oracles). */
    KvShard &shard(unsigned i) { return *shards_[i]; }
    const KvShard &shard(unsigned i) const { return *shards_[i]; }

    std::string describe() const;

    const KvConfig &config() const { return config_; }

  private:
    /**
     * A shard mutex alone on its cache line, so locking one shard
     * never bounces a line another shard's lockers use. A contended
     * lock() retries try_lock for kSpinRounds pauses before it parks
     * in the kernel: a shard critical section is table work only
     * (hundreds of ns), far shorter than a futex sleep and wake-up.
     */
    class alignas(64) ShardMutex
    {
      public:
        /** Measured on serve-ycsb-a (two loopback clients, 8 s
         *  runs, seeds 11-13, 4 shared vCPUs): request p99 was
         *  12.8-15.2 µs with no spin, 5.5-6.6 µs at 100 rounds and
         *  5.1-5.9 µs at 4000. The short bound keeps nearly all of
         *  the gain while capping what a waiter burns when the
         *  holder has been descheduled. */
        static constexpr unsigned kSpinRounds = 100;

        void lock();
        bool try_lock() { return mtx_.try_lock(); }
        void unlock() { mtx_.unlock(); }

      private:
        std::mutex mtx_;
    };

    std::uint64_t hashOf(KvKey key) const;
    bool setPinned(KvKey key, bool pinned);

    KvConfig config_;
    unsigned shardMask_;
    /** TTL clock (declared before the shards that point at it). */
    std::atomic<std::uint64_t> clock_{0};
    std::vector<std::unique_ptr<KvShard>> shards_;
    mutable std::vector<ShardMutex> locks_;
};

} // namespace adcache::kv

#endif // ADCACHE_KV_ADAPTIVE_KV_CACHE_HH
