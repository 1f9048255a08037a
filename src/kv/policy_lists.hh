/**
 * @file
 * The shard-wide component-policy structures of the adaptive kv
 * cache: an intrusive recency list (LRU order over every resident
 * entry) and O(1) LFU frequency lists (doubly-linked frequency nodes
 * each holding its entries in recency order, after the classic
 * constant-time LFU construction).
 *
 * Both expose the same candidate-walk interface — firstCandidate()
 * is the entry the pure policy would evict, nextCandidate() the next
 * choice — so the shard can skip pinned entries without either
 * structure knowing pins exist.
 *
 * KvEntry is the single intrusive node type: one entry is linked
 * simultaneously into its hash-bucket chain, the recency list, and
 * one LFU frequency node, exactly the way the paper keeps every
 * component's metadata alive on the real blocks at all times
 * (Sec. 4.7 follower semantics).
 *
 * Concurrency split (docs/KVCACHE.md "Concurrency model"): the
 * fields the lock-free get probe may touch are atomic — the forward
 * chain link, the value pointer, the expiry stamp and the access
 * mark. key/tag/bucket are immutable once the entry is published
 * into its bucket chain, and every other field, the pin flag and the
 * index slot included, is owned by the shard mutex.
 */

#ifndef ADCACHE_KV_POLICY_LISTS_HH
#define ADCACHE_KV_POLICY_LISTS_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "kv/kv_types.hh"

namespace adcache::kv
{

struct FreqNode;

/** One resident key-value entry (intrusively linked everywhere). */
struct KvEntry
{
    KvKey key = 0;
    std::uint64_t tag = 0; //!< key tag (hash above shard+bucket bits)
    std::uint32_t bucket = 0;
    /** Exempt from eviction (shard mutex). A flag, not a refcount:
     *  pin() of a pinned entry is a no-op. */
    bool pinned = false;
    /** Bucket index slot holding the entry (shard mutex); kNoSlot:
     *  reachable only through the chain. */
    static constexpr std::uint8_t kNoSlot = 0xFF;
    std::uint8_t slot = kNoSlot;

    /** The stored value, published as an immutable heap string so a
     *  lock-free reader can copy it without tearing; overwrites swap
     *  the pointer and retire the old string through the epoch
     *  domain. Never null while the entry is linked. */
    std::atomic<const std::string *> value{nullptr};

    /** Logical-clock expiry stamp; 0 = never expires. Written at
     *  insert (and refreshed by overwriting puts) under the shard
     *  mutex; lock-free probes read it and treat an expired entry as
     *  a validated miss. Removal is lazy: the physical unlink waits
     *  for the next locked contact with the entry. */
    std::atomic<std::uint64_t> expiry{0};

    ~KvEntry() { delete value.load(std::memory_order_relaxed); }

    /**
     * CLOCK-style reference bit: 1 = a lock-free hit since the last
     * fold. Readers only ever store 1 and the shard mutex only ever
     * stores 0, each only when the byte differs, so a hot entry's
     * line stays shared between readers. Two readers may both store
     * 1 (harmless); a reader's store racing a fold may be lost, or
     * may survive into the next fold. Either way the mark is a
     * replacement hint that orders nothing, hence relaxed.
     */
    std::atomic<std::uint8_t> accessMark{0};

    /** Record a lock-free hit (any thread, under an EpochGuard). */
    void
    mark()
    {
        if (accessMark.load(std::memory_order_relaxed) == 0)
            accessMark.store(1, std::memory_order_relaxed);
    }

    /** Clear the mark (shard mutex held). @return whether it was
     *  set. */
    bool
    takeMark()
    {
        if (accessMark.load(std::memory_order_relaxed) == 0)
            return false;
        accessMark.store(0, std::memory_order_relaxed);
        return true;
    }

    // Hash-bucket chain (lookup). chainNext is the readers'
    // traversal link; chainPrev is mutex-only.
    KvEntry *chainPrev = nullptr;
    std::atomic<KvEntry *> chainNext{nullptr};

    // Recency (LRU) list; head = most recent.
    KvEntry *lruPrev = nullptr;
    KvEntry *lruNext = nullptr;

    // LFU frequency-node membership; node lists are recency-ordered
    // (head = oldest at that frequency, the eviction tie-break).
    KvEntry *lfuPrev = nullptr;
    KvEntry *lfuNext = nullptr;
    FreqNode *freqNode = nullptr;
};

/** One LFU frequency class: entries referenced freq times. */
struct FreqNode
{
    std::uint32_t freq = 1;
    KvEntry *head = nullptr; //!< oldest at this frequency
    KvEntry *tail = nullptr; //!< newest at this frequency
    FreqNode *prev = nullptr;
    FreqNode *next = nullptr;
};

/** Intrusive recency list over all resident entries of a shard. */
class RecencyList
{
  public:
    /** Insert @p e as most recent. @pre e is unlinked. */
    void pushFront(KvEntry *e);

    /** Mark @p e most recent. */
    void moveToFront(KvEntry *e);

    /** Unlink @p e. */
    void remove(KvEntry *e);

    /** The pure-LRU victim (least recent), or nullptr if empty. */
    KvEntry *firstCandidate() const { return tail_; }

    /** Next-best victim after @p e (toward the recent end). */
    KvEntry *nextCandidate(const KvEntry *e) const
    {
        return e->lruPrev;
    }

    bool empty() const { return head_ == nullptr; }

  private:
    KvEntry *head_ = nullptr;
    KvEntry *tail_ = nullptr;
};

/**
 * O(1) LFU: frequency nodes in ascending order, each holding its
 * entries oldest-first. Victim order is (lowest frequency, then
 * oldest within it) — the production LFU's tie-break-oldest
 * semantics. Frequencies saturate at kMaxFreq; saturated hits only
 * refresh recency within the top node, mirroring a saturating
 * hardware counter that stops counting but keeps ordering.
 */
class LfuLists
{
  public:
    static constexpr std::uint32_t kMaxFreq = 255;

    LfuLists() = default;
    ~LfuLists();

    LfuLists(const LfuLists &) = delete;
    LfuLists &operator=(const LfuLists &) = delete;

    /** Enter @p e at frequency 1. @pre e is unlinked. */
    void onInsert(KvEntry *e);

    /** Promote @p e one frequency class (saturating). */
    void onHit(KvEntry *e);

    /** Unlink @p e (its frequency class may disappear). */
    void remove(KvEntry *e);

    /** The pure-LFU victim, or nullptr if empty. */
    KvEntry *firstCandidate() const;

    /** Next-best victim after @p e (same class toward newest, then
     *  the next frequency class's oldest). */
    KvEntry *nextCandidate(const KvEntry *e) const;

    bool empty() const { return nodes_ == nullptr; }

  private:
    /** A node for class @p freq, reusing a spare one if any. */
    FreqNode *newNode(std::uint32_t freq);
    void append(FreqNode *node, KvEntry *e);
    void detach(KvEntry *e);

    FreqNode *nodes_ = nullptr; //!< ascending frequency order
    /** Emptied nodes, linked by next. Live and spare nodes
     *  together never outnumber the most classes ever live at once,
     *  at most kMaxFreq. */
    FreqNode *spare_ = nullptr;
};

} // namespace adcache::kv

#endif // ADCACHE_KV_POLICY_LISTS_HH
