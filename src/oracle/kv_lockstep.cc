#include "oracle/kv_lockstep.hh"

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "kv/adaptive_kv_cache.hh"
#include "oracle/differential.hh"

namespace adcache
{

namespace
{

/** An MGet op reads this many consecutive keys (as in the fuzzer). */
constexpr std::size_t kMGetWidth = 8;

/** Ops between full sweeps of the resident set and counters. */
constexpr std::size_t kSweepEvery = 64;

std::optional<Mismatch>
diffU64(std::size_t i, const std::string &field, std::uint64_t want,
        std::uint64_t got)
{
    if (want == got)
        return std::nullopt;
    std::ostringstream out;
    out << "expected " << want << ", got " << got;
    return Mismatch{i, field, out.str()};
}

std::string
render(const std::optional<std::string> &v)
{
    return v ? "\"" + *v + "\"" : std::string("absent");
}

std::optional<Mismatch>
diffValue(std::size_t i, const std::string &field,
          const std::optional<std::string> &want,
          const std::optional<std::string> &got)
{
    if (want == got)
        return std::nullopt;
    return Mismatch{i, field,
                    "expected " + render(want) + ", got " + render(got)};
}

std::optional<Mismatch>
diffOutcome(std::size_t i, const kv::KvOutcome &want,
            const kv::KvOutcome &got)
{
    const std::pair<const char *, std::pair<std::uint64_t,
                                            std::uint64_t>>
        fields[] = {
            {"outcome.hit", {want.hit, got.hit}},
            {"outcome.inserted", {want.inserted, got.inserted}},
            {"outcome.updated", {want.updated, got.updated}},
            {"outcome.rejected", {want.rejected, got.rejected}},
            {"outcome.evicted", {want.evicted, got.evicted}},
            {"outcome.evictedKey", {want.evictedKey, got.evictedKey}},
            {"outcome.replaced", {want.replaced, got.replaced}},
            {"outcome.winner", {want.winner, got.winner}},
            {"outcome.fallback", {want.fallback, got.fallback}},
            {"outcome.directed", {want.directed, got.directed}},
            {"outcome.admitRejected",
             {want.admitRejected, got.admitRejected}},
            {"outcome.expired", {want.expired, got.expired}},
        };
    for (const auto &[name, values] : fields)
        if (auto m = diffU64(i, name, values.first, values.second))
            return m;
    return std::nullopt;
}

/** The two sides of one lockstep run. */
class KvLockstep
{
  public:
    explicit KvLockstep(const kv::KvConfig &config)
        : cache_(config), ref_(config)
    {
    }

    std::optional<Mismatch>
    step(std::size_t i, const KvFuzzOp &op)
    {
        const kv::KvKey key = op.key;
        // A value unique to this op: a stale read cannot pass.
        const std::string value =
            std::string(kvFuzzOpName(op.kind)) + "." + std::to_string(i);
        std::optional<Mismatch> m;
        switch (op.kind) {
          case KvFuzzOpKind::Get:
            m = diffValue(i, "get", ref_.get(key), cache_.get(key));
            break;
          case KvFuzzOpKind::Put:
            m = diffOutcome(i, ref_.reference(key, value, true, false, 0),
                            cache_.put(key, value));
            break;
          case KvFuzzOpKind::PutPinned:
            m = diffOutcome(i, ref_.reference(key, value, true, true, 0),
                            cache_.put(key, value, true));
            break;
          case KvFuzzOpKind::PutTtl: {
            const std::uint64_t ttl = 1 + key % 4;
            m = diffOutcome(i,
                            ref_.reference(key, value, true, false, ttl),
                            cache_.put(key, value, false, ttl));
            break;
          }
          case KvFuzzOpKind::Fetch:
            if (i % 2 == 0) {
                std::string want;
                ref_.reference(key, value, false, false, 0, &want);
                m = diffValue(i, "fetch", want,
                              cache_.fetch(key, [&] { return value; }));
            } else {
                m = diffOutcome(
                    i, ref_.reference(key, value, false, false, 0),
                    cache_.reference(key, value));
            }
            break;
          case KvFuzzOpKind::Erase:
            m = diffU64(i, "erase", ref_.erase(key), cache_.erase(key));
            break;
          case KvFuzzOpKind::Pin:
            m = diffU64(i, "pin", ref_.setPinned(key, true),
                        cache_.pin(key));
            break;
          case KvFuzzOpKind::Unpin:
            m = diffU64(i, "unpin", ref_.setPinned(key, false),
                        cache_.unpin(key));
            break;
          case KvFuzzOpKind::Advance:
            ref_.clockAdvance(1);
            cache_.clockAdvance();
            break;
          case KvFuzzOpKind::MGet:
            m = mget(i, key);
            break;
        }
        if (m)
            return m;
        return checkState(i, key);
    }

    /** Resident key set and the per-shard counter rows. */
    std::optional<Mismatch>
    sweep(std::size_t i)
    {
        std::vector<kv::KvKey> want = ref_.residentKeys();
        std::vector<kv::KvKey> got = cache_.shard(0).residentKeys();
        std::sort(want.begin(), want.end());
        std::sort(got.begin(), got.end());
        if (want != got) {
            std::ostringstream out;
            out << "expected " << want.size() << " resident keys, got "
                << got.size();
            const auto [w, g] =
                std::mismatch(want.begin(), want.end(), got.begin(),
                              got.end());
            if (w != want.end())
                out << "; first missing key " << *w;
            if (g != got.end())
                out << "; first unexpected key " << *g;
            return Mismatch{i, "resident_keys", out.str()};
        }

        const auto want_rows = rows(expectedStats());
        const auto got_rows = rows(cache_.shard(0).stats());
        for (std::size_t r = 0; r < want_rows.size(); ++r)
            if (auto m = diffU64(i, "counter " + want_rows[r].first,
                                 want_rows[r].second,
                                 got_rows[r].second))
                return m;
        return std::nullopt;
    }

    /** The cache's counters. */
    kv::KvShardStats stats() const { return cache_.shard(0).stats(); }

    /** The model's counters. */
    const RefKvCounters &model() const { return ref_.counters(); }

  private:
    std::optional<Mismatch>
    mget(std::size_t i, kv::KvKey first)
    {
        std::array<kv::KvKey, kMGetWidth> keys;
        std::array<std::optional<std::string>, kMGetWidth> want;
        for (std::size_t j = 0; j < keys.size(); ++j) {
            keys[j] = first + j;
            want[j] = ref_.get(keys[j]);
        }
        std::array<std::optional<std::string>, kMGetWidth> got;
        const std::size_t hits = cache_.getMany(
            std::span<const kv::KvKey>(keys), got.data());
        for (std::size_t j = 0; j < keys.size(); ++j)
            if (auto m = diffValue(i, "mget[" + std::to_string(j) + "]",
                                   want[j], got[j]))
                return m;
        return diffU64(
            i, "mget.hits",
            std::count_if(want.begin(), want.end(),
                          [](const auto &v) { return v.has_value(); }),
            hits);
    }

    std::optional<Mismatch>
    checkState(std::size_t i, kv::KvKey key)
    {
        const kv::KvShard &shard = cache_.shard(0);
        if (auto m = diffU64(i, "contains", ref_.contains(key),
                             cache_.contains(key)))
            return m;
        if (auto m = diffU64(i, "size", ref_.size(), shard.size()))
            return m;
        if (auto m = diffU64(i, "pinned", ref_.pinnedCount(),
                             shard.pinnedCount()))
            return m;
        if (auto m = diffU64(i, "winner", ref_.winner(),
                             shard.currentWinner()))
            return m;
        for (unsigned k = 0; k < kv::kvNumComponents; ++k) {
            const std::string c = "[" + std::to_string(k) + "]";
            if (auto m = diffU64(i, "history_count" + c,
                                 ref_.historyCount(k),
                                 shard.historyCount(k)))
                return m;
            if (auto m = diffU64(i, "shadow_misses" + c,
                                 ref_.shadowMisses(k),
                                 shard.shadowMisses(k)))
                return m;
        }
        return diffU64(i, "selection_flips", ref_.selectionFlips(),
                       shard.selectionFlips());
    }

    /** The model's counters as a shard snapshot. */
    kv::KvShardStats
    expectedStats() const
    {
        const RefKvCounters &c = ref_.counters();
        kv::KvShardStats s;
        s.references = c.references;
        s.hits = c.hits;
        s.misses = c.misses;
        s.gets = c.gets;
        s.getHits = c.getHits;
        s.inserts = c.inserts;
        s.updates = c.updates;
        s.evictions = c.evictions;
        s.directedEvictions = c.directedEvictions;
        s.fallbackEvictions = c.fallbackEvictions;
        s.rejected = c.rejected;
        s.erases = c.erases;
        s.expirations = c.expirations;
        // One thread never re-walks a bucket, so never falls back.
        s.readRetries = 0;
        s.slowProbes = 0;
        s.diffMisses = c.diffMisses;
        for (unsigned k = 0; k < kv::kvNumComponents; ++k) {
            s.decisions[k] = c.decisions[k];
            s.shadowMisses[k] = ref_.shadowMisses(k);
        }
        s.selectionFlips = ref_.selectionFlips();
        s.admitRejects = c.admitRejects;
        s.size = ref_.size();
        s.pinned = ref_.pinnedCount();
        s.winner = ref_.winner();
        return s;
    }

    /** Every per-shard sample of the KV counter table, named. */
    std::vector<std::pair<std::string, std::uint64_t>>
    rows(const kv::KvShardStats &s) const
    {
        std::vector<std::pair<std::string, std::uint64_t>> out;
        obs::forEachCounter<kv::KvShardStats>(
            kv::kvCounterTable(), s, std::span(&s, 1),
            kv::kvNumComponents, [&](const obs::CounterSample &c) {
                if (c.shard < 0)
                    return;
                std::string name = c.row.v1        ? c.row.v1
                                   : c.row.tagName ? c.row.tagName
                                                   : "?";
                if (c.row.perComponent)
                    name += "[" + std::to_string(c.component) + "]";
                out.emplace_back(std::move(name), c.count);
            });
        return out;
    }

    kv::AdaptiveKvCache cache_;
    RefKvShard ref_;
};

std::string
formatMismatch(const KvFuzzSchedule &sched, const Mismatch &m)
{
    std::ostringstream out;
    if (m.index < sched.size())
        out << "op #" << m.index << " ("
            << kvFuzzOpName(sched[m.index].kind) << " "
            << sched[m.index].key << ")";
    else
        out << "end-of-run sweep";
    out << ": " << m.field << " diverged (" << m.detail << ")";
    return out.str();
}

std::string
describeConfig(const kv::KvConfig &config)
{
    std::ostringstream out;
    out << "selector=" << kv::selectorModeName(config.selector)
        << " components=" << kv::kvComponentName(config.components[0])
        << "+" << kv::kvComponentName(config.components[1])
        << " leaderEvery=" << config.leaderEvery
        << " shadowTagBits=" << config.shadowTagBits
        << " lockFreeReads=" << (config.lockFreeReads ? 1 : 0)
        << " keyHash="
        << (config.keyHash == kv::KeyHashKind::Mix ? "mix" : "identity")
        << " capacity=" << config.capacity
        << " buckets=" << config.numBuckets << "x" << config.bucketWays;
    return out.str();
}

/** The first divergence of @p sched, if any. */
std::optional<Mismatch>
runLockstep(const kv::KvConfig &config, const KvFuzzSchedule &sched,
            kv::KvShardStats *stats_out = nullptr,
            RefKvCounters *model_out = nullptr)
{
    KvLockstep pair(config);
    for (std::size_t i = 0; i < sched.size(); ++i) {
        if (auto m = pair.step(i, sched[i]))
            return m;
        if ((i + 1) % kSweepEvery == 0)
            if (auto m = pair.sweep(i))
                return m;
    }
    if (auto m = pair.sweep(sched.size()))
        return m;
    if (stats_out)
        *stats_out = pair.stats();
    if (model_out)
        *model_out = pair.model();
    return std::nullopt;
}

} // namespace

std::string
kvLockstepReport(const kv::KvConfig &config, const KvFuzzSchedule &sched,
                 kv::KvShardStats *stats_out, RefKvCounters *model_out)
{
    const std::optional<Mismatch> first =
        runLockstep(config, sched, stats_out, model_out);
    if (!first)
        return "";
    // The run is deterministic, so the ops after the divergence can
    // go before ddmin starts.
    const std::size_t prefix = std::min(sched.size(), first->index + 1);
    const KvFuzzSchedule shrunk = KvConcurrencyFuzzer::shrink(
        [&](const KvFuzzSchedule &candidate) {
            return runLockstep(config, candidate).has_value();
        },
        KvFuzzSchedule(sched.begin(), sched.begin() + prefix));
    const Mismatch last = *runLockstep(config, shrunk);
    std::ostringstream out;
    out << describeConfig(config) << "\n  "
        << formatMismatch(sched, *first) << "\n  shrunk to "
        << shrunk.size() << " ops: " << formatMismatch(shrunk, last)
        << "\n"
        << KvConcurrencyFuzzer::toLiteral(shrunk);
    return out.str();
}

} // namespace adcache
