#include "oracle/ref_kv_shard.hh"

#include <algorithm>

#include "adapt/sketch.hh"
#include "util/logging.hh"

namespace adcache
{

namespace
{

unsigned
log2Of(std::uint64_t n)
{
    unsigned b = 0;
    while ((std::uint64_t(1) << b) < n)
        ++b;
    return b;
}

} // namespace

RefKvShard::RefKvShard(const kv::KvConfig &config)
    : config_(config), shardBits_(log2Of(config.numShards)),
      bucketBits_(log2Of(config.numBuckets)),
      chains_(config.numBuckets),
      shadowGeom_{64, config.numBuckets, config.bucketWays},
      history_(kHistoryDepth, kv::kvNumComponents)
{
    adcache_assert(config.numShards == 1);

    if (config.selector == kv::SelectorMode::FixedLfu)
        winner_ = kv::kvComponentLfu;
    else
        winner_ = kv::kvComponentLru;

    if (config.anyAdmission())
        admission_ = std::make_unique<RefTinyLfu>(
            adapt::SketchParams::forGeometry(config.numBuckets,
                                             config.bucketWays));
    if (adaptive()) {
        for (const kv::KvComponentSpec &c : config.components)
            shadows_.push_back(std::make_unique<RefCache>(
                shadowGeom_, c.evict, config.shadowTagBits,
                /*xor_fold=*/false,
                c.admission ? admission_.get() : nullptr));
    }
}

std::uint64_t
RefKvShard::hashOf(kv::KvKey key) const
{
    return config_.keyHash == kv::KeyHashKind::Mix ? kv::mixKey(key)
                                                   : key;
}

unsigned
RefKvShard::bucketOf(std::uint64_t h) const
{
    return unsigned((h >> shardBits_) % config_.numBuckets);
}

std::uint64_t
RefKvShard::tagOf(std::uint64_t h) const
{
    return h >> (shardBits_ + bucketBits_);
}

bool
RefKvShard::adaptive() const
{
    return config_.selector == kv::SelectorMode::Adaptive;
}

bool
RefKvShard::isLeader(unsigned bucket) const
{
    return adaptive() && bucket % config_.leaderEvery == 0;
}

Addr
RefKvShard::fold(std::uint64_t tag) const
{
    // The shadows see a key as the block (bucket, tag); the stored
    // tag is that block's tag, folded.
    return shadows_[0]->foldTag(
        shadowGeom_.tagOf(shadowGeom_.blockAddr(0, tag)));
}

std::uint64_t
RefKvShard::admitKey(std::uint64_t tag) const
{
    return shadows_.empty() ? tag : std::uint64_t(fold(tag));
}

bool
RefKvShard::expired(const Entry &e) const
{
    return e.expiry != 0 && e.expiry <= now_;
}

bool
RefKvShard::purgeExpired(kv::KvKey key)
{
    const auto it = entries_.find(key);
    if (it == entries_.end() || !expired(it->second))
        return false;
    ++counters_.expirations;
    remove(key);
    return true;
}

void
RefKvShard::promote(kv::KvKey key, unsigned lfu_steps)
{
    lru_.remove(key);
    lru_.push_front(key);
    Entry &e = entries_.at(key);
    for (unsigned i = 0; i < lfu_steps; ++i) {
        if (e.freq < kMaxFreq)
            ++e.freq;
        e.freqStamp = ++freqClock_;
    }
}

void
RefKvShard::lockedHit(kv::KvKey key)
{
    Entry &e = entries_.at(key);
    const bool marked = e.marked;
    e.marked = false;
    counters_.hitFolds += marked;
    promote(key, 1 + marked);
}

void
RefKvShard::remove(kv::KvKey key)
{
    std::vector<kv::KvKey> &chain = chains_[entries_.at(key).bucket];
    chain.erase(std::find(chain.begin(), chain.end(), key));
    lru_.remove(key);
    entries_.erase(key);
}

std::optional<kv::KvKey>
RefKvShard::chooseVictim(unsigned bucket, bool leader, unsigned winner,
                         const RefOutcome &winner_out, bool *directed,
                         bool *fallback)
{
    // Case 1: the winner's shadow displaced a tag this reference.
    if (leader && winner_out.evicted) {
        for (kv::KvKey k : chains_[bucket]) {
            const Entry &e = entries_.at(k);
            if (!e.pinned && fold(e.tag) == winner_out.evictedTag) {
                *directed = true;
                return k;
            }
        }
    }

    // Case 2: the winner's own order over every resident entry. A
    // marked entry in the walked prefix is folded and the walk starts
    // over, so only unmarked entries count toward the depth.
    for (bool restart = true; restart;) {
        restart = false;
        std::vector<kv::KvKey> order(lru_.rbegin(), lru_.rend());
        if (config_.components[winner].evict == PolicyType::LFU) {
            std::sort(order.begin(), order.end(),
                      [this](kv::KvKey a, kv::KvKey b) {
                          const Entry &x = entries_.at(a);
                          const Entry &y = entries_.at(b);
                          if (x.freq != y.freq)
                              return x.freq < y.freq;
                          return x.freqStamp < y.freqStamp;
                      });
        }
        for (std::size_t i = 0;
             i < order.size() && i < config_.bucketWays; ++i) {
            Entry &e = entries_.at(order[i]);
            if (e.marked) {
                e.marked = false;
                ++counters_.walkFolds;
                promote(order[i], 1);
                restart = true;
                break;
            }
            if (!e.pinned)
                return order[i];
        }
    }

    // Case 3: the rotating cursor's first unpinned entry.
    for (unsigned i = 0; i < config_.numBuckets; ++i) {
        const unsigned b = (cursor_ + i) % config_.numBuckets;
        for (kv::KvKey k : chains_[b]) {
            if (!entries_.at(k).pinned) {
                cursor_ = (b + 1) % config_.numBuckets;
                *fallback = true;
                return k;
            }
        }
    }
    return std::nullopt;
}

kv::KvOutcome
RefKvShard::reference(kv::KvKey key, const std::string &value,
                      bool overwrite, bool pin, std::uint64_t ttl,
                      std::string *value_out)
{
    kv::KvOutcome out;
    ++counters_.references;
    const std::uint64_t h = hashOf(key);
    const unsigned bucket = bucketOf(h);
    const std::uint64_t tag = tagOf(h);
    const bool leader = isLeader(bucket);

    if (admission_)
        admission_->touch(admitKey(tag));

    RefOutcome shadow_out[kv::kvNumComponents] = {};
    if (leader) {
        std::uint32_t miss_mask = 0;
        const Addr addr = shadowGeom_.blockAddr(bucket, tag);
        for (unsigned k = 0; k < kv::kvNumComponents; ++k) {
            shadow_out[k] = shadows_[k]->access(addr, false);
            if (!shadow_out[k].hit)
                miss_mask |= 1u << k;
        }
        if (miss_mask != 0 &&
            miss_mask != (1u << kv::kvNumComponents) - 1) {
            ++counters_.diffMisses;
            history_.record(miss_mask);
            if (history_.best() != winner_) {
                winner_ = history_.best();
                ++flips_;
            }
        }
    }

    if (purgeExpired(key))
        out.expired = true;
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
        ++counters_.hits;
        out.hit = true;
        lockedHit(key);
        Entry &e = it->second;
        if (overwrite) {
            e.value = value;
            e.expiry = ttl ? now_ + ttl : 0;
            out.updated = true;
            ++counters_.updates;
        }
        if (pin)
            e.pinned = true;
        if (value_out)
            *value_out = e.value;
        return out;
    }

    ++counters_.misses;
    if (entries_.size() >= config_.capacity) {
        const unsigned winner = winner_;
        out.replaced = true;
        out.winner = winner;
        ++counters_.decisions[winner];
        bool directed = false, fallback = false;
        const std::optional<kv::KvKey> victim = chooseVictim(
            bucket, leader, winner, shadow_out[winner], &directed,
            &fallback);
        if (!victim) {
            out.fallback = true;
            ++counters_.fallbackEvictions;
            out.rejected = true;
            ++counters_.rejected;
            if (value_out)
                *value_out = value;
            return out;
        }
        if (config_.components[winner].admission &&
            !admission_->admit(admitKey(tag),
                               admitKey(entries_.at(*victim).tag))) {
            out.admitRejected = true;
            ++counters_.admitRejects;
            if (value_out)
                *value_out = value;
            return out;
        }
        if (directed) {
            out.directed = true;
            ++counters_.directedEvictions;
        }
        if (fallback) {
            out.fallback = true;
            ++counters_.fallbackEvictions;
        }
        out.evicted = true;
        out.evictedKey = *victim;
        ++counters_.evictions;
        remove(*victim);
    }

    Entry e;
    e.value = value;
    e.pinned = pin;
    e.expiry = ttl ? now_ + ttl : 0;
    e.bucket = bucket;
    e.tag = tag;
    e.freqStamp = ++freqClock_;
    entries_.emplace(key, e);
    chains_[bucket].insert(chains_[bucket].begin(), key);
    lru_.push_front(key);
    ++counters_.inserts;
    out.inserted = true;
    if (value_out)
        *value_out = value;
    return out;
}

std::optional<std::string>
RefKvShard::get(kv::KvKey key)
{
    ++counters_.gets;
    if (!config_.lockFreeReads)
        purgeExpired(key);
    const auto it = entries_.find(key);
    if (it == entries_.end() || expired(it->second))
        return std::nullopt;
    ++counters_.getHits;
    if (config_.lockFreeReads)
        it->second.marked = true;
    else
        lockedHit(key);
    return it->second.value;
}

bool
RefKvShard::erase(kv::KvKey key)
{
    if (purgeExpired(key) || entries_.count(key) == 0)
        return false;
    ++counters_.erases;
    remove(key);
    return true;
}

bool
RefKvShard::setPinned(kv::KvKey key, bool pinned)
{
    if (purgeExpired(key))
        return false;
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return false;
    it->second.pinned = pinned;
    return true;
}

bool
RefKvShard::contains(kv::KvKey key) const
{
    const auto it = entries_.find(key);
    return it != entries_.end() && !expired(it->second);
}

std::uint64_t
RefKvShard::pinnedCount() const
{
    std::uint64_t n = 0;
    for (const auto &[key, e] : entries_)
        n += e.pinned ? 1 : 0;
    return n;
}

std::uint64_t
RefKvShard::historyCount(unsigned k) const
{
    return adaptive() ? history_.count(k) : 0;
}

std::uint64_t
RefKvShard::shadowMisses(unsigned k) const
{
    return shadows_.empty() ? 0 : shadows_[k]->misses();
}

std::vector<kv::KvKey>
RefKvShard::residentKeys() const
{
    std::vector<kv::KvKey> keys;
    for (const auto &[key, e] : entries_)
        keys.push_back(key);
    return keys;
}

} // namespace adcache
