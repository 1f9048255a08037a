/**
 * @file
 * One lock domain of the adaptive kv cache: a hash table of
 * key-value entries whose replacement is the paper's Algorithm 1
 * re-hosted on software structures.
 *
 * The shard keeps an intrusive recency list and O(1) LFU frequency
 * lists over every resident entry (both components' metadata alive
 * at all times, the Sec. 4.7 follower idea), while a sampled set of
 * leader buckets carries partial-hash shadow directories whose
 * differentiating misses train one per-shard m-bit selector. Victim
 * selection mirrors Algorithm 1 case by case:
 *
 *   1. directed — the winner's shadow displaced a tag this reference
 *      and a resident entry of the bucket folds to it: evict it;
 *   2. policy   — the winner component's own eviction order over the
 *      real contents, walked at most bucketWays deep to skip pinned
 *      entries (the software analog of the associativity-bounded
 *      search); a candidate carrying a lock-free hit's access mark
 *      is folded into both orders and the walk restarts (second
 *      chance);
 *   3. fallback — pins defeated both searches (the aliasing case of
 *      Sec. 3.1): a rotating cursor picks an arbitrary unpinned
 *      entry; if everything is pinned the insertion is rejected.
 *
 * The naive model RefKvShard (src/oracle/ref_kv_shard.hh) is
 * lockstepped against this class op by op (docs/KVCACHE.md
 * "Verification").
 *
 * Every operation is externally synchronized (AdaptiveKvCache wraps
 * each shard in its own mutex) except one: with lockFreeReads,
 * tryProbe may run WITHOUT the mutex from any thread holding an
 * EpochGuard; see docs/KVCACHE.md "Concurrency model" for the
 * protocol (per-bucket seqlock validation, access marks,
 * epoch-based reclamation).
 */

#ifndef ADCACHE_KV_KV_SHARD_HH
#define ADCACHE_KV_KV_SHARD_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adapt/imitation.hh"
#include "adapt/selector.hh"
#include "adapt/sketch.hh"
#include "kv/kv_types.hh"
#include "kv/policy_lists.hh"
#include "kv/read_path.hh"
#include "kv/shadow_dir.hh"
#include "obs/counter_table.hh"
#include "obs/event.hh"
#include "util/function_ref.hh"
#include "util/rng.hh"

namespace adcache::kv
{

/**
 * Counter snapshot of one shard, or of a whole cache: a member per
 * FIELD/COMPONENTS row of ADCACHE_KV_COUNTERS (obs/counter_table.hh).
 * A shard keeps its mutex-owned counters in one; stats() fills in the
 * rest. The Global rows are set on the cache-wide sum only.
 */
struct KvShardStats
{
#define ADCACHE_KV_MEMBER_FIELD(f) std::uint64_t f = 0;
#define ADCACHE_KV_MEMBER_COMPONENTS(f) std::uint64_t f[kvNumComponents] = {};
#define ADCACHE_KV_MEMBER_FORMULA(e)
#define ADCACHE_KV_MEMBER_RATIO(e)
#define ADCACHE_KV_MEMBER(value, ...) ADCACHE_KV_MEMBER_##value
    ADCACHE_KV_COUNTERS(ADCACHE_KV_MEMBER)

    /** Add @p o's counters to these, member by member. */
    void add(const KvShardStats &o);

    /** Filling references + non-filling probes. */
    std::uint64_t ops() const { return references + gets; }

    /** Combined hit rate over filling references and probes. */
    double hitRate() const;
};

/** The name shardTelemetry() callers know the snapshot by. */
using KvShardTelemetry = KvShardStats;

/** The KV rows, read from a snapshot. */
obs::CounterTable<KvShardStats> kvCounterTable();

/** Resolved per-shard configuration. */
struct KvShardConfig
{
    std::uint64_t capacity = 8 * 1024; //!< entries
    unsigned numBuckets = 1024;
    unsigned bucketWays = 8;
    unsigned leaderEvery = 8;
    unsigned shadowTagBits = 16;
    SelectorMode selector = SelectorMode::Adaptive;
    KvComponentSpec components[kvNumComponents] = {
        {PolicyType::LRU, false}, {PolicyType::LFU, false}};
    unsigned hashShift = 0; //!< hash bits consumed by shard selection
    unsigned shardIndex = 0; //!< position in the owning cache
    std::uint64_t rngSeed = 1;
    bool lockFreeReads = true;

    /** TTL clock (logical ticks), owned by the facade and shared by
     *  every shard; null = entries never expire regardless of their
     *  stamp. Set by AdaptiveKvCache after fromCache(). */
    const std::atomic<std::uint64_t> *clock = nullptr;

    /** Shard @p shard_index's slice of @p config. */
    static KvShardConfig fromCache(const KvConfig &config,
                                   unsigned shard_index);
};

/** One shard (see file comment). Externally synchronized. */
class KvShard
{
  public:
    explicit KvShard(const KvShardConfig &config);
    ~KvShard();

    KvShard(const KvShard &) = delete;
    KvShard &operator=(const KvShard &) = delete;

    /**
     * One filling reference: lookup; on a miss, admit the value
     * produced by @p make_value (called at most once), evicting per
     * Algorithm 1 if needed.
     *
     * @param h         full key hash (shard selection uses its low
     *                  hashShift bits; this shard uses the rest).
     * @param overwrite on a hit, replace the stored value (put
     *                  semantics); false = fetch semantics.
     * @param pin       pin the entry (on insert or hit).
     * @param value_out if non-null, the resident (or, when
     *                  rejected, the freshly produced) value is
     *                  appended to it.
     * @param ttl       expiry horizon in clock ticks (0 = never).
     *                  Stamped on insert and refreshed by overwriting
     *                  hits; an entry whose stamp has lapsed is
     *                  unlinked on contact and treated as a miss.
     */
    KvOutcome reference(KvKey key, std::uint64_t h,
                        FunctionRef<std::string()> make_value,
                        bool overwrite, bool pin,
                        std::string *value_out = nullptr,
                        std::uint64_t ttl = 0);

    /**
     * Non-filling probe: promotes and counts on a hit, never inserts
     * and never trains the adaptivity machinery. Returned pointer is
     * valid until the next mutating call. Requires the shard mutex.
     *
     * @param retries optimistic re-walks a preceding tryProbe spent
     *                before falling back here (accounted as
     *                readRetries; also emits the kv_read_retry
     *                event when tracing is on).
     */
    const std::string *probe(KvKey key, std::uint64_t h,
                             unsigned retries = 0);

    /** What one optimistic (mutex-free) probe concluded. */
    enum class ProbeResult
    {
        Hit,      //!< value handed out, entry's access mark set
        Miss,     //!< validated miss
        NeedSlow, //!< conflicts exhausted the retry budget: take
                  //!< the mutex and call probe()
    };

    /**
     * Lock-free probe attempt. Caller must hold an engaged
     * EpochGuard and must NOT hold the shard mutex. Only valid when
     * lockFreeEnabled(). Hits and validated misses are fully
     * accounted here; NeedSlow defers to probe(). On a hit,
     * @p value_out points at the published value, which stays alive
     * as long as the caller's guard.
     */
    ProbeResult tryProbe(KvKey key, std::uint64_t h,
                         const std::string **value_out,
                         unsigned *retries_out);

    /** True iff tryProbe may run without the mutex. */
    bool lockFreeEnabled() const { return config_.lockFreeReads; }

    /** Remove @p key. @return true iff it was resident. */
    bool erase(KvKey key, std::uint64_t h);

    /** Pin or unpin @p key. @return true iff it was resident. */
    bool setPinned(KvKey key, std::uint64_t h, bool pinned);

    /** Membership without promotion or stats. */
    bool contains(KvKey key, std::uint64_t h) const;

    std::size_t size() const { return size_; }
    std::uint64_t capacity() const { return config_.capacity; }
    std::uint64_t pinnedCount() const { return pinned_; }

    /** Counter snapshot: the mutex-owned counters, the atomics the
     *  lock-free read path maintains, and the shard's adaptation
     *  state. Requires the shard mutex (or quiescence). */
    KvShardStats stats() const;

    /** True iff @p bucket carries shadow directories. */
    bool isLeader(unsigned bucket) const;

    /** Misses of component @p k's shadow directories (0 if none). */
    std::uint64_t shadowMisses(unsigned k) const;

    /** Times the shard's winner changed sides. */
    std::uint64_t selectionFlips() const;

    /** The component the shard imitates right now. */
    unsigned currentWinner() const;

    /** Windowed differentiating-miss weight of component @p k. */
    std::uint64_t historyCount(unsigned k) const;

    /** All resident keys (unordered). */
    std::vector<KvKey> residentKeys() const;

    const KvShardConfig &config() const { return config_; }

  private:
    /** Slots of a bucket's fingerprint index: twice the largest
     *  bucketWays in use, so few buckets overflow. A constant, not a
     *  knob. */
    static constexpr unsigned kBucketSlots = 16;

    /**
     * One hash bucket: a newest-first entry chain plus a fingerprint
     * index over up to kBucketSlots of its entries. The first line
     * holds everything a probe reads before its candidate: the chain
     * head, the seqlock, the count of entries that found no free slot,
     * the used-slot mask and each slot's 16-bit tag fingerprint, four
     * lanes to a word. The next two lines hold the slots' entries.
     * Writers change the index inside the same seqlock bracket as the
     * chain.
     */
    struct alignas(64) Bucket
    {
        /** Hash chain head: every entry, newest first. */
        std::atomic<KvEntry *> chain{nullptr};
        /** Per-bucket seqlock: odd while a writer restructures the
         *  bucket. Readers use it to validate misses and bound their
         *  optimism; hits never need it (see tryProbe). */
        std::atomic<std::uint32_t> seq{0};
        /** Entries reachable only through the chain; a probe walks
         *  the chain only while this is nonzero. */
        std::atomic<std::uint32_t> overflow{0};
        /** Bit i: slot i holds an entry. */
        std::atomic<std::uint16_t> used{0};
        /** Slot i's fingerprint: lane i % 4 of word i / 4. */
        std::atomic<std::uint64_t> fingerprints[kBucketSlots / 4];
        alignas(64) std::atomic<KvEntry *> slots[kBucketSlots];
    };
    static_assert(sizeof(Bucket) == 3 * 64,
                  "a probe's loads before its candidate share one line");

    /** One unit of deferred reclamation (see EpochDomain). */
    struct Retired
    {
        std::uint64_t epoch = 0;
        KvEntry *entry = nullptr;         //!< exclusive-or
        const std::string *str = nullptr; //!< ... with entry
    };

    /** adapt::imitateVictim's view of the shard (kv_shard.cc). */
    class ShardView;

    unsigned bucketOf(std::uint64_t h) const;
    std::uint64_t tagOf(std::uint64_t h) const;

    /** @p key's entry in @p b, or nullptr: the fingerprint candidates
     *  of @p tag, then the chain if some entry has no slot. Safe
     *  without the mutex; a null answer then needs the seqlock. */
    static KvEntry *lookup(const Bucket &b, KvKey key, std::uint64_t tag);

    /** Account tryProbe's validated miss after @p retries re-walks. */
    ProbeResult validatedMiss(unsigned retries, unsigned *retries_out);

    /** Admission-filter key of a key tag: the shadow-folded tag, so
     *  filter and directories agree on item identity; raw tags when
     *  no directories exist (fixed selectors). */
    std::uint64_t admitKey(std::uint64_t tag) const;

    /** @p key's entry in its bucket (hash @p h), or nullptr. */
    KvEntry *find(std::uint64_t h, KvKey key) const;

    /** Current TTL clock reading (0 when no clock is wired). */
    std::uint64_t nowTick() const;

    /** True iff @p e's stamp has lapsed. Reads the clock BEFORE the
     *  stamp so a true verdict proves the entry was expired at the
     *  instant of the stamp load (the clock is monotonic). */
    bool isExpired(const KvEntry *e) const;

    /** Publish @p e at the head of its bucket's chain and in the
     *  lowest free index slot, if any. */
    void linkEntry(KvEntry *e);

    void unlinkEntry(KvEntry *e);

    /** Move @p e to the LRU front and @p lfu_steps LFU classes up
     *  (mutex held): a locked hit takes 1 + its folded mark, the
     *  eviction walk's fold takes 1. */
    void promote(KvEntry *e, unsigned lfu_steps);

    /** Writer-side seqlock brackets (mutex held). */
    void beginBucketChange(unsigned bucket);
    void endBucketChange(unsigned bucket);

    /** Swap in a freshly built value, retiring the old string. */
    void setValue(KvEntry *e, std::string &&v);

    void retireEntry(KvEntry *e);
    void retireString(const std::string *s);
    void maybeReclaim(bool force = false);

    KvShardConfig config_;
    Rng rng_;
    unsigned bucketBits_;
    std::unique_ptr<Bucket[]> buckets_;
    RecencyList recency_;
    LfuLists lfu_;
    /** Shared TinyLFU filter (declared before the directories that
     *  point at it). Present iff some component has admission. */
    std::unique_ptr<adapt::TinyLfuAdmission> admission_;
    std::unique_ptr<KvShadowDir> shadows_[kvNumComponents];
    adapt::Selector selector_; //!< one domain: the shard
    unsigned fallbackBucket_ = 0; //!< case-3 rotating cursor
    std::size_t size_ = 0;
    std::uint64_t pinned_ = 0;
    KvShardStats stats_; //!< mutex-owned counters only

    // Lock-free read-path state (lockFreeReads).
    std::vector<Retired> limbo_; //!< mutex-owned retire list
    std::atomic<std::uint64_t> gets_{0};
    std::atomic<std::uint64_t> getHits_{0};
    std::atomic<std::uint64_t> readRetries_{0};
    std::atomic<std::uint64_t> slowProbes_{0};
};

} // namespace adcache::kv

#endif // ADCACHE_KV_KV_SHARD_HH
