/**
 * @file
 * Reference model of one shard of the adaptive key-value cache, in
 * the shape src/kv ships: one capacity budget, shard-wide LRU and LFU
 * orders, leader-bucket shadows that feed one m-bit window, and
 * Algorithm 1's three victim cases at shard scope (docs/KVCACHE.md).
 *
 * The model is deliberately naive. It shares no code with src/kv
 * beyond the interface types of kv/kv_types.hh (KvConfig, KvOutcome)
 * and two spec pieces: the key split (mixKey, then shard, bucket and
 * tag bits) and adapt::SketchParams::forGeometry, the shape of the
 * admission sketch. Everything else is a standard container and a
 * scan:
 *
 *  - entries: an unordered_map from key to (value, pin, expiry, LFU
 *    class); each bucket keeps its keys newest first, the order in
 *    which cases 1 and 3 walk a chain;
 *  - LRU: a std::list of keys, most recent first;
 *  - LFU: per entry a frequency (at most 255) and the stamp of when
 *    it entered that class; the eviction order, (frequency, stamp)
 *    ascending, comes from sorting a scan. A hit at the saturated
 *    frequency refreshes the stamp;
 *  - access marks: per entry a `marked` bool, set by a lock-free
 *    get hit (never set with locked reads);
 *  - leader buckets (bucket % leaderEvery == 0, adaptive selector
 *    only): one RefCache per component over numBuckets x bucketWays
 *    with partial tags, and one RefWindowHistory of depth 64;
 *  - admission: a RefTinyLfu, touched on every filling reference
 *    with the folded tag (the raw tag when there are no shadows).
 *
 * A miss at capacity imitates the winner, in order: (1) directed —
 * in a leader bucket whose winning shadow displaced a tag, the
 * newest unpinned entry of the bucket that folds to it; (2) policy —
 * the winner's order, walked at most bucketWays entries deep past
 * pinned ones, where a marked entry, pinned or not, is folded (its
 * mark cleared, one LRU move to the front, one LFU step) and the
 * walk starts again from the top without counting it; (3) fallback
 * — a rotating bucket cursor's first unpinned entry; if every entry
 * is pinned the insert is rejected. Cases 1 and 3 ignore marks. A
 * winner with admission then asks the filter about the real
 * (candidate, victim) pair.
 *
 * Reads model both modes of KvConfig::lockFreeReads. They differ in
 * two documented places. With lock-free reads, a get hit (alone or in
 * an MGet) only marks the entry, and a locked hit (a filling
 * reference) folds the mark: one LRU move and 1 + mark LFU steps.
 * And a get of an expired entry leaves it resident until the next
 * locked contact. In both modes, pin and unpin purge an expired
 * entry and contains leaves it resident. An MGet is its keys' gets
 * in order.
 */

#ifndef ADCACHE_ORACLE_REF_KV_SHARD_HH
#define ADCACHE_ORACLE_REF_KV_SHARD_HH

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "kv/kv_types.hh"
#include "oracle/ref_cache.hh"
#include "oracle/ref_history.hh"
#include "oracle/ref_sketch.hh"

namespace adcache
{

/** The model's counters, named as the KV rows of the counter table. */
struct RefKvCounters
{
    std::uint64_t references = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t gets = 0;
    std::uint64_t getHits = 0;
    std::uint64_t inserts = 0;
    std::uint64_t updates = 0;
    std::uint64_t evictions = 0;
    std::uint64_t directedEvictions = 0;
    std::uint64_t fallbackEvictions = 0;
    std::uint64_t rejected = 0;
    std::uint64_t erases = 0;
    std::uint64_t expirations = 0;
    std::uint64_t diffMisses = 0;
    std::uint64_t decisions[kv::kvNumComponents] = {};
    std::uint64_t admitRejects = 0;
    // Model only (the cache has no such rows): marks folded by a
    // locked hit and by the case-2 walk.
    std::uint64_t hitFolds = 0;
    std::uint64_t walkFolds = 0;
};

/** The naive single-shard model (see file comment). */
class RefKvShard
{
  public:
    /** @pre config.numShards == 1. */
    explicit RefKvShard(const kv::KvConfig &config);

    /**
     * One filling reference: put (@p overwrite) or fetch semantics.
     * @p value is the value a put stores or a fetch's loader makes;
     * @p value_out receives what the facade would hand back.
     */
    kv::KvOutcome reference(kv::KvKey key, const std::string &value,
                            bool overwrite, bool pin, std::uint64_t ttl,
                            std::string *value_out = nullptr);

    std::optional<std::string> get(kv::KvKey key);
    bool erase(kv::KvKey key);
    bool setPinned(kv::KvKey key, bool pinned);
    bool contains(kv::KvKey key) const;
    void clockAdvance(std::uint64_t ticks) { now_ += ticks; }

    std::size_t size() const { return entries_.size(); }
    std::uint64_t pinnedCount() const;
    unsigned winner() const { return winner_; }
    std::uint64_t historyCount(unsigned k) const;
    std::uint64_t shadowMisses(unsigned k) const;
    std::uint64_t selectionFlips() const { return flips_; }
    std::vector<kv::KvKey> residentKeys() const;
    const RefKvCounters &counters() const { return counters_; }

  private:
    struct Entry
    {
        std::string value;
        bool pinned = false;
        std::uint64_t expiry = 0; //!< 0 = never
        unsigned bucket = 0;
        std::uint64_t tag = 0;
        unsigned freq = 1;
        std::uint64_t freqStamp = 0; //!< when it entered freq
        bool marked = false;         //!< a lock-free hit since a fold
    };

    static constexpr unsigned kMaxFreq = 255;
    static constexpr unsigned kHistoryDepth = 64;

    std::uint64_t hashOf(kv::KvKey key) const;
    unsigned bucketOf(std::uint64_t h) const;
    std::uint64_t tagOf(std::uint64_t h) const;
    bool adaptive() const;
    bool isLeader(unsigned bucket) const;
    /** A key tag in the shadows' stored-tag domain. */
    Addr fold(std::uint64_t tag) const;
    /** The admission filter's key for a key tag. */
    std::uint64_t admitKey(std::uint64_t tag) const;
    bool expired(const Entry &e) const;
    /** Remove @p key if it is resident but expired (counted). */
    bool purgeExpired(kv::KvKey key);
    /** One LRU move to the front and @p lfu_steps LFU steps. */
    void promote(kv::KvKey key, unsigned lfu_steps);
    /** A locked hit: promote, folding the mark into the LFU steps. */
    void lockedHit(kv::KvKey key);
    void remove(kv::KvKey key);
    /** Algorithm 1 at shard scope; nullopt = everything pinned. */
    std::optional<kv::KvKey> chooseVictim(unsigned bucket, bool leader,
                                          unsigned winner,
                                          const RefOutcome &winner_out,
                                          bool *directed,
                                          bool *fallback);

    kv::KvConfig config_;
    unsigned shardBits_;
    unsigned bucketBits_;
    std::uint64_t now_ = 0;

    std::unordered_map<kv::KvKey, Entry> entries_;
    std::vector<std::vector<kv::KvKey>> chains_; //!< newest first
    std::list<kv::KvKey> lru_;                   //!< most recent first
    std::uint64_t freqClock_ = 0;
    unsigned cursor_ = 0;

    /** Declared before shadows_, which point at it. */
    std::unique_ptr<RefTinyLfu> admission_;
    std::vector<std::unique_ptr<RefCache>> shadows_;
    RefGeometry shadowGeom_;
    RefWindowHistory history_;
    unsigned winner_ = 0;
    std::uint64_t flips_ = 0;
    RefKvCounters counters_;
};

} // namespace adcache

#endif // ADCACHE_ORACLE_REF_KV_SHARD_HH
