/**
 * @file
 * Shared types of the concurrent adaptive key-value cache (src/kv):
 * configuration, per-reference outcomes, and the key-hashing scheme
 * that splits a 64-bit key hash into (shard, bucket, tag) fields the
 * same way a hardware cache splits an address into (index, tag).
 *
 * The subsystem re-hosts the paper's Algorithm 1 on software
 * structures with one capacity budget per shard: an intrusive
 * recency (LRU) list and O(1) LFU frequency lists spanning the whole
 * shard as component policies, and a sampled set of leader buckets
 * whose partial-hash shadow directories train a per-shard m-bit
 * differentiating-miss selector (the SBAR-style variant of
 * Sec. 4.7). The naive model src/oracle/ref_kv_shard.hh checks this
 * shape op by op (docs/KVCACHE.md "Verification").
 */

#ifndef ADCACHE_KV_KV_TYPES_HH
#define ADCACHE_KV_KV_TYPES_HH

#include <cstdint>
#include <string>

#include "cache/replacement.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace adcache::kv
{

/** Cache keys are opaque 64-bit values. */
using KvKey = std::uint64_t;

/** How raw keys are spread over (shard, bucket, tag) fields. */
enum class KeyHashKind
{
    Mix,      //!< splitmix64 finalizer (production default)
    Identity, //!< keys used as-is (deterministic tests / lockstep)
};

/** splitmix64 finalizer: the Mix key hash. */
inline std::uint64_t
mixKey(KvKey key)
{
    std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Replacement selection mode of a shard. */
enum class SelectorMode
{
    Adaptive, //!< imitate the better component (the paper's engine)
    FixedLru, //!< always evict by recency (baseline)
    FixedLfu, //!< always evict by frequency (baseline)
};

/** Printable selector-mode name. */
const char *selectorModeName(SelectorMode mode);

/** Component ordinals (the paper's headline pair by default). */
constexpr unsigned kvComponentLru = 0;
constexpr unsigned kvComponentLfu = 1;
constexpr unsigned kvNumComponents = 2;

/** Depth m of a shard's differentiating-miss window. */
constexpr unsigned kvHistoryDepth = 64;

/**
 * One competing component of a shard's selection engine: which pure
 * eviction order it simulates, and whether its fills pass through the
 * shared TinyLFU admission filter. Pitting an admission-on component
 * against its admission-off twin makes the *filter itself* the
 * adapted dimension.
 */
struct KvComponentSpec
{
    PolicyType evict = PolicyType::LRU;
    bool admission = false;
};

/** Printable component label, e.g. "lru" or "lru/adm". */
std::string kvComponentName(const KvComponentSpec &spec);

/** Configuration of an AdaptiveKvCache. */
struct KvConfig
{
    /** Total entry budget across all shards. */
    std::uint64_t capacity = 64 * 1024;

    /** Independent lock domains; power of two. */
    unsigned numShards = 8;

    /** Hash buckets per shard; power of two. */
    unsigned numBuckets = 4096;

    /** Shadow-directory associativity and the bounded policy-walk
     *  depth. */
    unsigned bucketWays = 8;

    /** Every Nth bucket is a leader carrying shadow directories
     *  (1 = all buckets). */
    unsigned leaderEvery = 8;

    /** Stored shadow-tag width in bits (0 = full key tags). */
    unsigned shadowTagBits = 16;

    SelectorMode selector = SelectorMode::Adaptive;
    KeyHashKind keyHash = KeyHashKind::Mix;

    /**
     * Serve get() and getMany() probes without the shard mutex;
     * every other operation locks its shard either way. A lock-free
     * get hit sets the entry's access mark instead of promoting it,
     * so LRU becomes second chance (CLOCK) and LFU counts at most
     * one such hit per fold; false promotes every read exactly,
     * under the mutex. See docs/KVCACHE.md "Concurrency model".
     */
    bool lockFreeReads = true;

    /**
     * The two competing components; evict is LRU or LFU (the
     * intrusive shard-wide orders). FixedLru/FixedLfu pin
     * components[0] / components[1] respectively.
     */
    KvComponentSpec components[kvNumComponents] = {
        {PolicyType::LRU, false}, {PolicyType::LFU, false}};

    /** True iff any component fills through the admission filter. */
    bool anyAdmission() const;

    std::uint64_t rngSeed = 1;

    /** panic() on structurally invalid combinations. */
    void validate() const;
};

/** Outcome of one filling reference (fetch/put) to the cache. */
struct KvOutcome
{
    bool hit = false;
    bool inserted = false; //!< a new entry was created
    bool updated = false;  //!< an existing value was overwritten
    bool rejected = false; //!< insert refused (all victims pinned)
    bool evicted = false;
    KvKey evictedKey = 0;  //!< valid iff evicted
    bool replaced = false; //!< a replacement decision was made
    unsigned winner = 0;   //!< imitated component (iff replaced)
    bool fallback = false; //!< rotating arbitrary eviction fired
    bool directed = false; //!< shadow-displacement-directed eviction
    /** The winning component's TinyLFU filter refused the candidate:
     *  the resident set is kept and nothing is inserted. */
    bool admitRejected = false;
    /** The key was physically resident but its TTL had lapsed: the
     *  stale entry was unlinked and the reference proceeded as a
     *  miss. */
    bool expired = false;
};

} // namespace adcache::kv

#endif // ADCACHE_KV_KV_TYPES_HH
