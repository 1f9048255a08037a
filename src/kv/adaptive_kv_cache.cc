#include "kv/adaptive_kv_cache.hh"

#include <cstdio>
#include <sstream>

#include "obs/latency.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/stat_registry.hh"

namespace adcache::kv
{

namespace
{

/**
 * Times one facade operation (two clock reads) into its latency
 * histogram; free when ADCACHE_LAT is off. Only the
 * public get/fetch/put are timed — the bare reference() path the
 * perf_regress matrix drives stays untouched.
 */
class ScopedOpTimer
{
  public:
    explicit ScopedOpTimer(obs::KvOp op) : op_(op)
    {
        if (obs::latencyEnabled()) {
            t0_ = obs::nowNs();
            live_ = true;
        }
    }

    ~ScopedOpTimer()
    {
        if (live_)
            obs::recordLatency(op_, obs::nowNs() - t0_);
    }

    ScopedOpTimer(const ScopedOpTimer &) = delete;
    ScopedOpTimer &operator=(const ScopedOpTimer &) = delete;

    /** Reclassify before destruction (Get -> GetSlow when the
     *  lock-free path fell back to the mutex). */
    void reclass(obs::KvOp op) { op_ = op; }

  private:
    obs::KvOp op_;
    std::uint64_t t0_ = 0;
    bool live_ = false;
};

} // namespace

AdaptiveKvCache::AdaptiveKvCache(const KvConfig &config)
    : config_(config), shardMask_(config.numShards - 1),
      locks_(config.numShards)
{
    config_.validate();
    shards_.reserve(config_.numShards);
    for (unsigned i = 0; i < config_.numShards; ++i) {
        KvShardConfig sc = KvShardConfig::fromCache(config_, i);
        sc.clock = &clock_;
        shards_.push_back(std::make_unique<KvShard>(sc));
    }
}

std::uint64_t
AdaptiveKvCache::clockNow() const
{
    return clock_.load(std::memory_order_seq_cst);
}

void
AdaptiveKvCache::clockAdvance(std::uint64_t ticks)
{
    clock_.fetch_add(ticks, std::memory_order_seq_cst);
}

void
AdaptiveKvCache::clockAdvanceTo(std::uint64_t now)
{
    std::uint64_t cur = clock_.load(std::memory_order_seq_cst);
    while (cur < now &&
           !clock_.compare_exchange_weak(cur, now,
                                         std::memory_order_seq_cst,
                                         std::memory_order_seq_cst)) {
    }
}

std::uint64_t
AdaptiveKvCache::hashOf(KvKey key) const
{
    return config_.keyHash == KeyHashKind::Mix ? mixKey(key) : key;
}

unsigned
AdaptiveKvCache::shardOf(KvKey key) const
{
    return unsigned(hashOf(key) & shardMask_);
}

void
AdaptiveKvCache::ShardMutex::lock()
{
    for (unsigned i = 0; i < kSpinRounds; ++i) {
        if (mtx_.try_lock())
            return;
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
    }
    mtx_.lock();
}

std::optional<std::string>
AdaptiveKvCache::get(KvKey key)
{
    std::string value;
    if (!getInto(key, &value))
        return std::nullopt;
    return value;
}

bool
AdaptiveKvCache::getInto(KvKey key, std::string *out)
{
    ScopedOpTimer timer(obs::KvOp::Get);
    const std::uint64_t h = hashOf(key);
    const unsigned s = unsigned(h & shardMask_);
    KvShard &shard = *shards_[s];

    unsigned retries = 0;
    if (shard.lockFreeEnabled()) {
        auto result = KvShard::ProbeResult::NeedSlow;
        {
            // The guard scope ends before any mutex wait so a
            // blocked reader never stalls epoch advancement.
            EpochGuard guard;
            if (guard.engaged()) {
                const std::string *v = nullptr;
                result = shard.tryProbe(key, h, &v, &retries);
                if (result == KvShard::ProbeResult::Hit)
                    out->append(*v);
            }
        }
        switch (result) {
          case KvShard::ProbeResult::Hit:
            return true;
          case KvShard::ProbeResult::Miss:
            return false;
          case KvShard::ProbeResult::NeedSlow:
            timer.reclass(obs::KvOp::GetSlow);
            break;
        }
    }

    std::scoped_lock lock(locks_[s]);
    const std::string *v = shard.probe(key, h, retries);
    if (!v)
        return false;
    out->append(*v);
    return true;
}

std::size_t
AdaptiveKvCache::probeMany(
    std::span<const KvKey> keys,
    FunctionRef<void(std::size_t, const std::string *)> visit)
{
    const std::size_t n = keys.size();
    if (n == 0)
        return 0;
    ScopedOpTimer timer(obs::KvOp::GetMany);
    std::size_t hits = 0;
    std::size_t i = 0;
    while (i < n) {
        // One epoch guard covers the run of keys up to the first
        // that needs the mutex; keys resolve in request order, so
        // promotion order is the serial replay's.
        unsigned retries = 0;
        {
            EpochGuard guard;
            for (; i < n && guard.engaged(); ++i) {
                const std::uint64_t h = hashOf(keys[i]);
                KvShard &shard = *shards_[h & shardMask_];
                if (!shard.lockFreeEnabled()) {
                    retries = 0;
                    break;
                }
                const std::string *v = nullptr;
                const auto result =
                    shard.tryProbe(keys[i], h, &v, &retries);
                if (result == KvShard::ProbeResult::NeedSlow)
                    break;
                if (result == KvShard::ProbeResult::Miss)
                    v = nullptr;
                visit(i, v);
                hits += v != nullptr;
            }
        }
        if (i == n)
            break;
        // keys[i] takes the slow path, after the guard scope so a
        // blocked batch never stalls epoch advancement.
        const std::uint64_t h = hashOf(keys[i]);
        const unsigned s = unsigned(h & shardMask_);
        std::scoped_lock lock(locks_[s]);
        const std::string *v = shards_[s]->probe(keys[i], h, retries);
        visit(i, v);
        hits += v != nullptr;
        ++i;
    }
    return hits;
}

std::size_t
AdaptiveKvCache::getMany(std::span<const KvKey> keys,
                         std::optional<std::string> *out)
{
    for (std::size_t i = 0; i < keys.size(); ++i)
        out[i].reset();
    return probeMany(keys, [out](std::size_t i, const std::string *v) {
        if (v)
            out[i].emplace(*v);
    });
}

std::vector<std::optional<std::string>>
AdaptiveKvCache::getMany(std::span<const KvKey> keys)
{
    std::vector<std::optional<std::string>> out(keys.size());
    getMany(keys, out.data());
    return out;
}

std::string
AdaptiveKvCache::fetch(KvKey key, FunctionRef<std::string()> loader,
                       std::uint64_t ttl)
{
    std::string value;
    fetchInto(key, loader, &value, ttl);
    return value;
}

void
AdaptiveKvCache::fetchInto(KvKey key, FunctionRef<std::string()> loader,
                           std::string *out, std::uint64_t ttl)
{
    ScopedOpTimer timer(obs::KvOp::Fetch);
    const std::uint64_t h = hashOf(key);
    const unsigned s = unsigned(h & shardMask_);
    std::scoped_lock lock(locks_[s]);
    shards_[s]->reference(key, h, loader, /*overwrite=*/false,
                          /*pin=*/false, out, ttl);
}

KvOutcome
AdaptiveKvCache::put(KvKey key, std::string_view value, bool pinned,
                     std::uint64_t ttl)
{
    ScopedOpTimer timer(obs::KvOp::Put);
    const std::uint64_t h = hashOf(key);
    const unsigned s = unsigned(h & shardMask_);
    // Built before the lock: the critical section only moves it.
    std::string owned(value);
    std::scoped_lock lock(locks_[s]);
    return shards_[s]->reference(
        key, h, [&] { return std::move(owned); },
        /*overwrite=*/true, pinned, nullptr, ttl);
}

KvOutcome
AdaptiveKvCache::reference(KvKey key, std::string_view value,
                           bool overwrite, std::uint64_t ttl)
{
    const std::uint64_t h = hashOf(key);
    const unsigned s = unsigned(h & shardMask_);
    std::scoped_lock lock(locks_[s]);
    return shards_[s]->reference(
        key, h, [&] { return std::string(value); }, overwrite,
        /*pin=*/false, nullptr, ttl);
}

bool
AdaptiveKvCache::erase(KvKey key)
{
    const std::uint64_t h = hashOf(key);
    const unsigned s = unsigned(h & shardMask_);
    std::scoped_lock lock(locks_[s]);
    return shards_[s]->erase(key, h);
}

bool
AdaptiveKvCache::setPinned(KvKey key, bool pinned)
{
    const std::uint64_t h = hashOf(key);
    const unsigned s = unsigned(h & shardMask_);
    std::scoped_lock lock(locks_[s]);
    return shards_[s]->setPinned(key, h, pinned);
}

bool
AdaptiveKvCache::pin(KvKey key)
{
    return setPinned(key, true);
}

bool
AdaptiveKvCache::unpin(KvKey key)
{
    return setPinned(key, false);
}

bool
AdaptiveKvCache::contains(KvKey key) const
{
    const std::uint64_t h = hashOf(key);
    const unsigned s = unsigned(h & shardMask_);
    std::scoped_lock lock(locks_[s]);
    return shards_[s]->contains(key, h);
}

std::size_t
AdaptiveKvCache::size() const
{
    std::size_t total = 0;
    for (unsigned s = 0; s < shards_.size(); ++s) {
        std::scoped_lock lock(locks_[s]);
        total += shards_[s]->size();
    }
    return total;
}

std::uint64_t
AdaptiveKvCache::capacity() const
{
    return config_.capacity;
}

void
AdaptiveKvCache::registerStats(StatRegistry &reg,
                               const std::string &prefix,
                               bool per_shard) const
{
    std::vector<std::string> names;
    for (const KvComponentSpec &c : config_.components)
        names.push_back(kvComponentName(c));
    const std::vector<KvShardStats> shards = shardTelemetry();
    obs::forEachCounter<KvShardStats>(
        kvCounterTable(), total(shards),
        per_shard ? shards : std::vector<KvShardStats>{}, kvNumComponents,
        [&](const obs::CounterSample &c) {
            if (!c.row.v1IfAdmission || config_.anyAdmission())
                obs::registerSample(reg, prefix, c, names);
        });
}

std::vector<KvShardStats>
AdaptiveKvCache::shardTelemetry() const
{
    std::vector<KvShardStats> out;
    out.reserve(shards_.size());
    for (unsigned s = 0; s < shards_.size(); ++s) {
        std::scoped_lock lock(locks_[s]);
        out.push_back(shards_[s]->stats());
    }
    return out;
}

KvShardStats
AdaptiveKvCache::total(const std::vector<KvShardStats> &shards) const
{
    KvShardStats t;
    for (const KvShardStats &s : shards)
        t.add(s);
    t.shardCount = shards.size();
    t.capacity = capacity();
    t.clockNow = clockNow();
    return t;
}

void
AdaptiveKvCache::registerMetrics(obs::MetricsRegistry &reg) const
{
    reg.addCollector([this](obs::MetricsSink &sink) {
        const std::vector<KvShardStats> shards = shardTelemetry();
        obs::forEachCounter<KvShardStats>(
            kvCounterTable(), total(shards), shards, kvNumComponents,
            [&](const obs::CounterSample &c) {
                obs::collectSample(sink, c);
            });
        const obs::CounterFamily &info = obs::kKvComponentInfo;
        for (unsigned k = 0; k < kvNumComponents; ++k)
            sink.gauge(info.name,
                       {{"ordinal", std::to_string(k)},
                        {"policy",
                         kvComponentName(config_.components[k])}},
                       1.0, info.help);
    });
}

std::string
AdaptiveKvCache::describe() const
{
    std::ostringstream out;
    out << "AdaptiveKV[" << selectorModeName(config_.selector);
    if (config_.selector == SelectorMode::Adaptive)
        out << ": " << kvComponentName(config_.components[0]) << "+"
            << kvComponentName(config_.components[1]);
    out << "] (" << capacity() << " entries, " << config_.numShards
        << " shards x " << config_.numBuckets << " buckets";
    out << ", shard scope, leaders every " << config_.leaderEvery;
    if (config_.selector == SelectorMode::Adaptive) {
        if (config_.shadowTagBits == 0)
            out << ", full shadow tags";
        else
            out << ", " << config_.shadowTagBits
                << "-bit shadow tags";
        out << ", m=" << kvHistoryDepth;
    }
    out << ")";
    return out.str();
}

} // namespace adcache::kv
