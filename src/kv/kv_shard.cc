#include "kv/kv_shard.hh"

#include <algorithm>
#include <bit>

#include "core/shadow_cache.hh"
#include "obs/trace.hh"

namespace adcache::kv
{

void
KvShardStats::add(const KvShardStats &o)
{
#define ADCACHE_KV_SUM_FIELD(f) f += o.f;
#define ADCACHE_KV_SUM_COMPONENTS(f)                                      \
    for (unsigned k = 0; k < kvNumComponents; ++k)                        \
        f[k] += o.f[k];
#define ADCACHE_KV_SUM_FORMULA(e)
#define ADCACHE_KV_SUM_RATIO(e)
#define ADCACHE_KV_SUM(value, ...) ADCACHE_KV_SUM_##value
    ADCACHE_KV_COUNTERS(ADCACHE_KV_SUM)
}

double
KvShardStats::hitRate() const
{
    const std::uint64_t total = ops();
    return total == 0 ? 0.0
                      : double(hits + getHits) / double(total);
}

obs::CounterTable<KvShardStats>
kvCounterTable()
{
    using Value = obs::CounterValue<KvShardStats>;
#define ADCACHE_VALUE_FIELD(f)                                            \
    Value{[](const KvShardStats &s, unsigned) { return s.f; }}
#define ADCACHE_VALUE_COMPONENTS(f)                                       \
    Value{[](const KvShardStats &s, unsigned k) { return s.f[k]; }}
#define ADCACHE_VALUE_FORMULA(e)                                          \
    Value{[](const KvShardStats &s, unsigned) -> std::uint64_t { return e; }}
#define ADCACHE_VALUE_RATIO(e)                                            \
    Value{nullptr, [](const KvShardStats &s) { return e; }}
    static constexpr Value values[] = {
        ADCACHE_KV_COUNTERS(ADCACHE_COUNTER_VALUE)};
    return {obs::kKvCounterRows, values};
}

KvShardConfig
KvShardConfig::fromCache(const KvConfig &config, unsigned shard_index)
{
    KvShardConfig c;
    const std::uint64_t base = config.capacity / config.numShards;
    const std::uint64_t extra = config.capacity % config.numShards;
    c.capacity = base + (shard_index < extra ? 1 : 0);
    c.numBuckets = config.numBuckets;
    c.bucketWays = config.bucketWays;
    c.leaderEvery = config.leaderEvery;
    c.shadowTagBits = config.shadowTagBits;
    c.selector = config.selector;
    for (unsigned k = 0; k < kvNumComponents; ++k)
        c.components[k] = config.components[k];
    c.hashShift = floorLog2(config.numShards);
    c.shardIndex = shard_index;
    c.rngSeed = config.rngSeed ^ mixKey(shard_index + 1);
    c.lockFreeReads = config.lockFreeReads;
    return c;
}

namespace
{

adapt::Selector
makeShardSelector(const KvShardConfig &config)
{
    if (config.selector == SelectorMode::Adaptive)
        return adapt::Selector::makeAdaptive(1, kvNumComponents,
                                             /*exact_counters=*/false,
                                             kvHistoryDepth);
    return adapt::Selector::makeFixed(
        1, kvNumComponents,
        config.selector == SelectorMode::FixedLru ? kvComponentLru
                                                  : kvComponentLfu);
}

bool
anyShardAdmission(const KvShardConfig &config)
{
    for (unsigned k = 0; k < kvNumComponents; ++k)
        if (config.components[k].admission)
            return true;
    return false;
}

} // namespace

/**
 * The shard's view: case 1 walks the referenced bucket's chain for
 * the shadow-displaced tag, case 2 walks the winner component's own
 * eviction order over the real contents (follower semantics,
 * Sec. 4.7) at most bucketWays deep past pinned entries, folding
 * access marks on the way, case 3 rotates over the buckets for an
 * arbitrary unpinned entry. Cases 1 and 3 ignore marks.
 */
class KvShard::ShardView
{
  public:
    using Handle = KvEntry *;
    static constexpr Handle kNone = nullptr;

    ShardView(KvShard &shard, unsigned bucket, unsigned winner)
        : shard_(shard), bucket_(bucket), winner_(winner)
    {
    }

    Handle
    findDisplacedMatch(std::uint64_t displaced_tag) const
    {
        const KvShadowDir &shadow = *shard_.shadows_[winner_];
        for (KvEntry *e = shard_.buckets_[bucket_].chain.load(
                 std::memory_order_seq_cst);
             e;
             e = e->chainNext.load(std::memory_order_seq_cst)) {
            if (!e->pinned && shadow.foldTag(e->tag) == displaced_tag)
                return e;
        }
        return kNone;
    }

    Handle
    findOutsideWinner()
    {
        const bool use_lru =
            shard_.config_.components[winner_].evict ==
            PolicyType::LRU;
        const auto first = [&] {
            return use_lru ? shard_.recency_.firstCandidate()
                           : shard_.lfu_.firstCandidate();
        };
        // Second chance: a marked candidate, pinned or not, has its
        // lock-free hit folded in and the walk restarts; folds do not
        // count toward the depth. One thread can fold at most size()
        // marks, so the cap only stops readers that re-mark entries
        // mid-walk from keeping it going.
        std::size_t folds = 0;
        KvEntry *e = first();
        for (unsigned i = 0; e && i < shard_.config_.bucketWays;) {
            if (folds < shard_.size_ && e->takeMark()) {
                shard_.promote(e, 1);
                ++folds;
                e = first();
                i = 0;
                continue;
            }
            if (!e->pinned)
                return e;
            e = use_lru ? shard_.recency_.nextCandidate(e)
                        : shard_.lfu_.nextCandidate(e);
            ++i;
        }
        return kNone;
    }

    Handle
    fallback() const
    {
        const unsigned mask = shard_.config_.numBuckets - 1;
        for (unsigned i = 0; i < shard_.config_.numBuckets; ++i) {
            const unsigned b = (shard_.fallbackBucket_ + i) & mask;
            for (KvEntry *c = shard_.buckets_[b].chain.load(
                     std::memory_order_seq_cst);
                 c;
                 c = c->chainNext.load(std::memory_order_seq_cst)) {
                if (!c->pinned) {
                    shard_.fallbackBucket_ = (b + 1) & mask;
                    return c;
                }
            }
        }
        return kNone; // every entry pinned
    }

  private:
    KvShard &shard_;
    unsigned bucket_;
    unsigned winner_;
};

KvShard::KvShard(const KvShardConfig &config)
    : config_(config), rng_(config.rngSeed),
      bucketBits_(floorLog2(config.numBuckets)),
      selector_(makeShardSelector(config))
{
    adcache_assert(isPowerOfTwo(config_.numBuckets));
    adcache_assert(config_.bucketWays >= 1);
    adcache_assert(config_.leaderEvery >= 1);

    buckets_ = std::make_unique<Bucket[]>(config_.numBuckets);

    if (anyShardAdmission(config_))
        admission_ = std::make_unique<adapt::TinyLfuAdmission>(
            adapt::SketchParams::forGeometry(config_.numBuckets,
                                             config_.bucketWays));

    if (config_.selector == SelectorMode::Adaptive) {
        for (unsigned k = 0; k < kvNumComponents; ++k) {
            // Directories are sized for every bucket but only leader
            // buckets touch them (cf. SbarCache's leader shadows).
            shadows_[k] = std::make_unique<KvShadowDir>(
                config_.numBuckets, config_.bucketWays,
                config_.components[k].evict, config_.shadowTagBits,
                &rng_,
                config_.components[k].admission ? admission_.get()
                                                : nullptr);
        }
    }
}

KvShard::~KvShard()
{
    // The owner guarantees quiescence at destruction time, so the
    // limbo list can be freed regardless of epoch age.
    for (const Retired &r : limbo_) {
        delete r.entry;
        delete r.str;
    }
    for (unsigned i = 0; i < config_.numBuckets; ++i) {
        KvEntry *e =
            buckets_[i].chain.load(std::memory_order_relaxed);
        while (e) {
            KvEntry *next =
                e->chainNext.load(std::memory_order_relaxed);
            delete e;
            e = next;
        }
    }
}

unsigned
KvShard::bucketOf(std::uint64_t h) const
{
    return unsigned((h >> config_.hashShift) &
                    (config_.numBuckets - 1));
}

std::uint64_t
KvShard::tagOf(std::uint64_t h) const
{
    return h >> (config_.hashShift + bucketBits_);
}

std::uint64_t
KvShard::admitKey(std::uint64_t tag) const
{
    return shadows_[0] ? std::uint64_t(shadows_[0]->foldTag(tag))
                       : tag;
}

bool
KvShard::isLeader(unsigned bucket) const
{
    return shadows_[0] != nullptr &&
           bucket % config_.leaderEvery == 0;
}

KvEntry *
KvShard::lookup(const Bucket &b, KvKey key, std::uint64_t tag)
{
    // Load order: used, then the fingerprints, then a candidate. A
    // slot is filled before its used bit is set and its bit cleared
    // before it is emptied, so a reader that sees the bit sees the
    // slot's fingerprint and entry, or a null or a newer entry. Hits
    // compare the full key; fingerprint aliases and borrow artifacts
    // just cost a dereference.
    const unsigned used = b.used.load(std::memory_order_seq_cst);
    const std::uint64_t fp = tag & 0xFFFF;
    for (unsigned w = 0; w < kBucketSlots / 4; ++w) {
        if (((used >> (4 * w)) & 0xF) == 0)
            continue;
        std::uint64_t m = matchLanes16(
            b.fingerprints[w].load(std::memory_order_seq_cst), fp);
        for (; m; m &= m - 1) {
            const unsigned i = 4 * w + (unsigned(std::countr_zero(m)) >> 4);
            if (!((used >> i) & 1))
                continue;
            KvEntry *e = b.slots[i].load(std::memory_order_seq_cst);
            if (e && e->key == key)
                return e;
        }
    }
    if (b.overflow.load(std::memory_order_seq_cst) == 0)
        return nullptr;
    for (KvEntry *e = b.chain.load(std::memory_order_seq_cst); e;
         e = e->chainNext.load(std::memory_order_seq_cst))
        if (e->key == key)
            return e;
    return nullptr;
}

KvEntry *
KvShard::find(std::uint64_t h, KvKey key) const
{
    return lookup(buckets_[bucketOf(h)], key, tagOf(h));
}

std::uint64_t
KvShard::nowTick() const
{
    return config_.clock
               ? config_.clock->load(std::memory_order_seq_cst)
               : 0;
}

bool
KvShard::isExpired(const KvEntry *e) const
{
    if (!config_.clock)
        return false;
    const std::uint64_t now = nowTick();
    const std::uint64_t stamp =
        e->expiry.load(std::memory_order_seq_cst);
    return stamp != 0 && stamp <= now;
}

void
KvShard::beginBucketChange(unsigned bucket)
{
    buckets_[bucket].seq.fetch_add(1, std::memory_order_seq_cst);
}

void
KvShard::endBucketChange(unsigned bucket)
{
    buckets_[bucket].seq.fetch_add(1, std::memory_order_seq_cst);
}

void
KvShard::setValue(KvEntry *e, std::string &&v)
{
    const std::string *old =
        e->value.load(std::memory_order_seq_cst);
    if (*old == v)
        return; // identical overwrite: keep the published string
    e->value.store(new std::string(std::move(v)),
                   std::memory_order_seq_cst);
    retireString(old);
}

void
KvShard::retireEntry(KvEntry *e)
{
    if (!lockFreeEnabled()) {
        delete e;
        return;
    }
    limbo_.push_back(
        {EpochDomain::instance().current(), e, nullptr});
    maybeReclaim();
}

void
KvShard::retireString(const std::string *s)
{
    if (!lockFreeEnabled()) {
        delete s;
        return;
    }
    limbo_.push_back(
        {EpochDomain::instance().current(), nullptr, s});
    maybeReclaim();
}

void
KvShard::maybeReclaim(bool force)
{
    constexpr std::size_t kReclaimBatch = 64;
    if (!force && limbo_.size() < kReclaimBatch)
        return;
    EpochDomain &domain = EpochDomain::instance();
    // Freeing a retirement needs the epoch two past it; two gated
    // attempts cover the idle case in a single call.
    domain.tryAdvance();
    domain.tryAdvance();
    const std::uint64_t cur = domain.current();
    std::size_t kept = 0;
    for (const Retired &r : limbo_) {
        if (r.epoch + 2 <= cur) {
            delete r.entry;
            delete r.str;
        } else {
            limbo_[kept++] = r;
        }
    }
    limbo_.resize(kept);
}

void
KvShard::promote(KvEntry *e, unsigned lfu_steps)
{
    recency_.moveToFront(e);
    for (unsigned i = 0; i < lfu_steps; ++i)
        lfu_.onHit(e);
}

void
KvShard::linkEntry(KvEntry *e)
{
    Bucket &b = buckets_[e->bucket];
    KvEntry *head = b.chain.load(std::memory_order_seq_cst);
    e->chainNext.store(head, std::memory_order_relaxed);
    beginBucketChange(e->bucket);
    if (head)
        head->chainPrev = e;
    // Publication point: every field of e is initialized before the
    // head store makes the entry reachable.
    b.chain.store(e, std::memory_order_seq_cst);
    const unsigned used = b.used.load(std::memory_order_seq_cst);
    const unsigned i = unsigned(std::countr_one(used));
    if (i < kBucketSlots) {
        e->slot = std::uint8_t(i);
        b.slots[i].store(e, std::memory_order_seq_cst);
        std::atomic<std::uint64_t> &word = b.fingerprints[i / 4];
        const unsigned shift = (i % 4) * 16;
        word.store((word.load(std::memory_order_seq_cst) &
                    ~(std::uint64_t{0xFFFF} << shift)) |
                       ((e->tag & 0xFFFF) << shift),
                   std::memory_order_seq_cst);
        b.used.store(std::uint16_t(used | (1u << i)),
                     std::memory_order_seq_cst);
    } else {
        b.overflow.store(b.overflow.load(std::memory_order_seq_cst) + 1,
                         std::memory_order_seq_cst);
    }
    endBucketChange(e->bucket);
}

void
KvShard::unlinkEntry(KvEntry *e)
{
    if (e->pinned)
        --pinned_;
    Bucket &b = buckets_[e->bucket];
    beginBucketChange(e->bucket);
    KvEntry *next = e->chainNext.load(std::memory_order_seq_cst);
    if (e->chainPrev)
        e->chainPrev->chainNext.store(next,
                                      std::memory_order_seq_cst);
    else
        b.chain.store(next, std::memory_order_seq_cst);
    if (next)
        next->chainPrev = e->chainPrev;
    if (e->slot == KvEntry::kNoSlot) {
        b.overflow.store(b.overflow.load(std::memory_order_seq_cst) - 1,
                         std::memory_order_seq_cst);
    } else {
        b.used.store(std::uint16_t(b.used.load(std::memory_order_seq_cst) &
                                   ~(1u << e->slot)),
                     std::memory_order_seq_cst);
        b.slots[e->slot].store(nullptr, std::memory_order_seq_cst);
    }
    endBucketChange(e->bucket);
    recency_.remove(e);
    lfu_.remove(e);
    --size_;
    // The victim's own chainNext is left intact so a reader paused
    // on it mid-walk still reaches the rest of the chain.
    retireEntry(e);
}

KvOutcome
KvShard::reference(KvKey key, std::uint64_t h,
                   FunctionRef<std::string()> make_value,
                   bool overwrite, bool pin, std::string *value_out,
                   std::uint64_t ttl)
{
    KvOutcome out;
    ++stats_.references;
    const unsigned bucket = bucketOf(h);
    const std::uint64_t tag = tagOf(h);
    const bool leader = isLeader(bucket);

    // The admission filter sees every candidate before any component
    // simulation consults it (same order as AdaptiveCache and the
    // oracle).
    adapt::SketchColumns candidate;
    if (admission_)
        candidate = admission_->touch(admitKey(tag));

    // Every filling reference updates the component simulations and
    // (on a differentiating miss) the selection history — before the
    // real lookup, exactly as Algorithm 1 orders it.
    ShadowOutcome shadow_out[kvNumComponents] = {};
    if (leader) {
        std::uint32_t miss_mask = 0;
        for (unsigned k = 0; k < kvNumComponents; ++k) {
            shadow_out[k] = shadows_[k]->access(bucket, tag, candidate);
            if (shadow_out[k].miss)
                miss_mask |= 1u << k;
        }
        if (miss_mask != 0 &&
            miss_mask != (1u << kvNumComponents) - 1)
            ++stats_.diffMisses;
        // Flips are rare, so the tracing gate hides behind the flip
        // check; with two components the loser is `winner ^ 1`.
        if (selector_.record(0, miss_mask) && obs::traceEnabled()) {
            const unsigned to = selector_.winner(0);
            obs::emit(obs::kvWinnerFlipEvent(stats_.references,
                                             config_.shardIndex,
                                             to ^ 1u, to));
        }
    }

    KvEntry *resident = find(h, key);
    if (resident && isExpired(resident)) {
        // Lazy TTL: the stale twin is logically absent, so purge it
        // and run the rest of the reference as a miss (the fresh
        // value below re-enters with a fresh stamp).
        out.expired = true;
        ++stats_.expirations;
        unlinkEntry(resident);
        resident = nullptr;
    }
    if (KvEntry *e = resident) {
        ++stats_.hits;
        out.hit = true;
        promote(e, 1 + e->takeMark());
        if (overwrite) {
            setValue(e, make_value());
            e->expiry.store(ttl ? nowTick() + ttl : 0,
                            std::memory_order_seq_cst);
            out.updated = true;
            ++stats_.updates;
        }
        if (pin && !e->pinned) {
            e->pinned = true;
            ++pinned_;
        }
        if (value_out)
            value_out->append(*e->value.load(std::memory_order_seq_cst));
        return out;
    }

    ++stats_.misses;

    if (size_ >= config_.capacity) {
        const unsigned winner = selector_.winner(0);
        out.replaced = true;
        out.winner = winner;
        ++stats_.decisions[winner];

        ShardView view(*this, bucket, winner);
        const auto choice = adapt::imitateVictim(
            view, leader && shadow_out[winner].evicted,
            shadow_out[winner].evictedTag);
        KvEntry *victim = choice.handle;

        // The filter is queried on the real (candidate, victim) pair
        // — there is no per-reference shadow verdict to imitate for
        // follower buckets or fixed selectors.
        if (victim && admission_ &&
            config_.components[winner].admission &&
            !admission_->admit(candidate, admitKey(victim->tag))) {
            out.admitRejected = true;
            ++stats_.admitRejects;
            if (obs::traceEnabled())
                obs::emit(obs::kvAdmitRejectEvent(stats_.references,
                                                  config_.shardIndex,
                                                  winner, key));
            if (value_out)
                value_out->append(make_value());
            return out;
        }

        if (!victim) {
            // Pins defeated every search: the fallback rotation is
            // still accounted (it ran and found nothing) and the
            // insertion is rejected.
            out.fallback = true;
            ++stats_.fallbackEvictions;
            out.rejected = true;
            ++stats_.rejected;
            if (value_out)
                value_out->append(make_value());
            return out;
        }

        switch (choice.kind) {
          case adapt::VictimCase::VictimMatch:
            out.directed = true;
            ++stats_.directedEvictions;
            break;
          case adapt::VictimCase::ShadowAbsent:
            break;
          default:
            out.fallback = true;
            ++stats_.fallbackEvictions;
            break;
        }

        out.evicted = true;
        out.evictedKey = victim->key;
        ++stats_.evictions;
        if (obs::traceEnabled())
            obs::emit(obs::kvEvictionEvent(
                stats_.references, config_.shardIndex, winner,
                toEvictCase(choice.kind), victim->key));
        unlinkEntry(victim);
    }

    auto *e = new KvEntry;
    e->key = key;
    e->tag = tag;
    e->bucket = bucket;
    e->pinned = pin;
    e->expiry.store(ttl ? nowTick() + ttl : 0,
                    std::memory_order_relaxed);
    e->value.store(new std::string(make_value()),
                   std::memory_order_relaxed);
    if (pin)
        ++pinned_;
    linkEntry(e);
    recency_.pushFront(e);
    lfu_.onInsert(e);
    ++size_;
    ++stats_.inserts;
    out.inserted = true;
    if (value_out)
        value_out->append(*e->value.load(std::memory_order_relaxed));
    return out;
}

const std::string *
KvShard::probe(KvKey key, std::uint64_t h, unsigned retries)
{
    if (retries > 0) {
        // A lock-free probe exhausted its optimism and fell in
        // here; make the storm observable.
        readRetries_.fetch_add(retries, std::memory_order_relaxed);
        slowProbes_.fetch_add(1, std::memory_order_relaxed);
        if (obs::traceEnabled())
            obs::emit(obs::kvReadRetryEvent(
                gets_.load(std::memory_order_relaxed),
                config_.shardIndex, retries, key));
    }
    gets_.fetch_add(1, std::memory_order_relaxed);
    KvEntry *e = find(h, key);
    if (!e)
        return nullptr;
    if (isExpired(e)) {
        ++stats_.expirations;
        unlinkEntry(e);
        return nullptr;
    }
    getHits_.fetch_add(1, std::memory_order_relaxed);
    promote(e, 1 + e->takeMark());
    return e->value.load(std::memory_order_seq_cst);
}

KvShard::ProbeResult
KvShard::tryProbe(KvKey key, std::uint64_t h,
                  const std::string **value_out, unsigned *retries_out)
{
    constexpr unsigned kMaxOptimism = 4;
    const Bucket &b = buckets_[bucketOf(h)];
    const std::uint64_t tag = tagOf(h);
    unsigned retries = 0;
    while (retries < kMaxOptimism) {
        const std::uint32_t s1 =
            b.seq.load(std::memory_order_seq_cst);
        if (s1 & 1) {
            // A writer is restructuring this bucket right now; the
            // mutex slow path is the correct backoff.
            ++retries;
            continue;
        }
        KvEntry *found = lookup(b, key, tag);
        if (!found) {
            if (b.seq.load(std::memory_order_seq_cst) != s1) {
                // The bucket changed under the probe; a concurrent
                // insert of this very key may have been skipped.
                ++retries;
                continue;
            }
            return validatedMiss(retries, retries_out);
        }
        // A lapsed stamp is a validated miss without any seqlock
        // check: the clock was read before the stamp and only moves
        // forward, so the entry was provably expired at the instant
        // of the stamp load. The unlink itself stays lazy (it needs
        // the mutex) — the next locked contact purges the entry.
        if (isExpired(found))
            return validatedMiss(retries, retries_out);
        // Hits need no seqlock validation: key/tag are immutable
        // once published, the entry was linked (or its unlink not
        // yet finished) when its slot or chain link was loaded, the
        // value is an immutable heap string swapped by pointer, and
        // the epoch guard keeps both the entry and the string alive
        // — so whatever pointer this load returns was the published
        // value of `key` at some point during the probe (the
        // identity/ABA torture tests pin down exactly this claim).
        *value_out = found->value.load(std::memory_order_seq_cst);
        *retries_out = retries;
        gets_.fetch_add(1, std::memory_order_relaxed);
        getHits_.fetch_add(1, std::memory_order_relaxed);
        if (retries > 0)
            readRetries_.fetch_add(retries,
                                   std::memory_order_relaxed);
        // The promotion waits for the shard's next fold of the mark.
        found->mark();
        return ProbeResult::Hit;
    }
    *retries_out = retries;
    return ProbeResult::NeedSlow;
}

KvShard::ProbeResult
KvShard::validatedMiss(unsigned retries, unsigned *retries_out)
{
    *retries_out = retries;
    gets_.fetch_add(1, std::memory_order_relaxed);
    if (retries > 0)
        readRetries_.fetch_add(retries, std::memory_order_relaxed);
    return ProbeResult::Miss;
}

bool
KvShard::erase(KvKey key, std::uint64_t h)
{
    KvEntry *e = find(h, key);
    if (!e)
        return false;
    if (isExpired(e)) {
        // Already logically gone: account the purge as an
        // expiration, and report the erase as a no-op.
        ++stats_.expirations;
        unlinkEntry(e);
        return false;
    }
    ++stats_.erases;
    unlinkEntry(e);
    return true;
}

bool
KvShard::setPinned(KvKey key, std::uint64_t h, bool pinned)
{
    KvEntry *e = find(h, key);
    if (!e)
        return false;
    if (isExpired(e)) {
        ++stats_.expirations;
        unlinkEntry(e);
        return false;
    }
    if (e->pinned != pinned) {
        e->pinned = pinned;
        if (pinned)
            ++pinned_;
        else
            --pinned_;
    }
    return true;
}

bool
KvShard::contains(KvKey key, std::uint64_t h) const
{
    const KvEntry *e = find(h, key);
    return e != nullptr && !isExpired(e);
}

std::uint64_t
KvShard::shadowMisses(unsigned k) const
{
    return shadows_[k] ? shadows_[k]->misses() : 0;
}

std::uint64_t
KvShard::selectionFlips() const
{
    return selector_.flips();
}

unsigned
KvShard::currentWinner() const
{
    return selector_.winner(0);
}

std::uint64_t
KvShard::historyCount(unsigned k) const
{
    return selector_.count(0, k);
}

std::vector<KvKey>
KvShard::residentKeys() const
{
    std::vector<KvKey> keys;
    keys.reserve(size_);
    for (unsigned i = 0; i < config_.numBuckets; ++i)
        for (const KvEntry *e =
                 buckets_[i].chain.load(std::memory_order_seq_cst);
             e; e = e->chainNext.load(std::memory_order_seq_cst))
            keys.push_back(e->key);
    return keys;
}

KvShardStats
KvShard::stats() const
{
    KvShardStats s = stats_;
    // Lock-free hits bump gets_ before getHits_, so read getHits_
    // first; the clamp covers what relaxed ordering still lets a
    // reader see out of order. getHits <= gets is what every
    // exporter's Misses row (gets - getHits) relies on.
    s.getHits = getHits_.load(std::memory_order_seq_cst);
    s.gets = gets_.load(std::memory_order_seq_cst);
    s.getHits = std::min(s.getHits, s.gets);
    s.readRetries = readRetries_.load(std::memory_order_seq_cst);
    s.slowProbes = slowProbes_.load(std::memory_order_seq_cst);
    for (unsigned k = 0; k < kvNumComponents; ++k)
        s.shadowMisses[k] = shadowMisses(k);
    s.selectionFlips = selectionFlips();
    s.size = size_;
    s.pinned = pinnedCount();
    s.winner = currentWinner();
    return s;
}

} // namespace adcache::kv
