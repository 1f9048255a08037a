#include "oracle/kv_fuzzer.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <span>
#include <sstream>
#include <thread>

#include "oracle/ddmin.hh"
#include "util/logging.hh"

namespace adcache
{

const char *
kvFuzzOpName(KvFuzzOpKind kind)
{
    switch (kind) {
      case KvFuzzOpKind::Get:
        return "get";
      case KvFuzzOpKind::Put:
        return "put";
      case KvFuzzOpKind::Fetch:
        return "fetch";
      case KvFuzzOpKind::Erase:
        return "erase";
      case KvFuzzOpKind::Pin:
        return "pin";
      case KvFuzzOpKind::Unpin:
        return "unpin";
      case KvFuzzOpKind::PutTtl:
        return "put_ttl";
      case KvFuzzOpKind::Advance:
        return "advance";
      case KvFuzzOpKind::MGet:
        return "mget";
      case KvFuzzOpKind::PutPinned:
        return "put_pinned";
    }
    return "?";
}

std::string
kvExpectedValue(kv::KvKey key)
{
    return "v" + std::to_string(key);
}

KvConcurrencyFuzzer::KvConcurrencyFuzzer(std::uint64_t seed,
                                         unsigned threads,
                                         std::uint64_t keyspace)
    : threads_(threads), keyspace_(keyspace), rng_(seed)
{
    adcache_assert(threads_ >= 1);
    adcache_assert(keyspace_ >= 1);
}

void
KvConcurrencyFuzzer::emitSegment(KvFuzzSchedule &out,
                                 std::size_t budget)
{
    auto thread = [&] {
        return std::uint8_t(rng_.below(threads_));
    };
    auto key = [&] { return kv::KvKey(rng_.below(keyspace_)); };

    switch (rng_.below(6)) {
      case 0: {
        // Hot-spot hammering: every thread converges on one key so
        // seqlock validation, the access mark and its folds all
        // contend on the same bucket.
        const kv::KvKey hot = key();
        out.push_back({thread(), KvFuzzOpKind::Put, hot});
        for (std::size_t i = 1; i < budget; ++i)
            out.push_back({thread(),
                           rng_.chance(0.15) ? KvFuzzOpKind::Put
                                             : KvFuzzOpKind::Get,
                           hot});
        break;
      }
      case 1: {
        // Fill run: a sweep of puts deep enough to force evictions.
        const kv::KvKey base = key();
        for (std::size_t i = 0; i < budget; ++i)
            out.push_back({thread(), KvFuzzOpKind::Put,
                           (base + i) % keyspace_});
        break;
      }
      case 2:
        // Skewed read-mostly mix: the steady-state workload the
        // lock-free path is optimized for, with batched reads mixed
        // in so getMany's batch-wide epoch windows race the writers.
        for (std::size_t i = 0; i < budget; ++i) {
            const kv::KvKey k = rng_.zipfApprox(keyspace_, 0.99);
            KvFuzzOpKind kind = KvFuzzOpKind::Get;
            if (rng_.chance(0.10))
                kind = KvFuzzOpKind::Put;
            else if (rng_.chance(0.05))
                kind = KvFuzzOpKind::Fetch;
            else if (rng_.chance(0.10))
                kind = KvFuzzOpKind::MGet;
            out.push_back({thread(), kind, k});
        }
        break;
      case 3: {
        // Erase burst racing readers: exercises unlink + epoch
        // reclamation while probes traverse the chains.
        for (std::size_t i = 0; i < budget; ++i)
            out.push_back({thread(),
                           rng_.chance(0.4) ? KvFuzzOpKind::Erase
                                            : KvFuzzOpKind::Get,
                           key()});
        break;
      }
      case 4: {
        // TTL churn: short-lived puts racing clock advances and
        // readers on a small key range, so expiry verdicts land on
        // both the locked and lock-free probe paths mid-flight.
        const kv::KvKey base = key();
        for (std::size_t i = 0; i < budget; ++i) {
            const kv::KvKey k = (base + rng_.below(8)) % keyspace_;
            const double r = rng_.uniform();
            KvFuzzOp op{thread(), KvFuzzOpKind::Get, k};
            if (r < 0.3)
                op.kind = KvFuzzOpKind::PutTtl;
            else if (r < 0.45)
                op.kind = KvFuzzOpKind::Advance;
            else if (r < 0.55)
                op.kind = KvFuzzOpKind::Put;
            out.push_back(op);
        }
        break;
      }
      default: {
        // Pin churn on a small set: pins (and the rare pinned put)
        // race victim selection's removal claim; unpins are biased
        // so pins don't accumulate and wedge the cache.
        const kv::KvKey base = key();
        for (std::size_t i = 0; i < budget; ++i) {
            const kv::KvKey k = (base + rng_.below(4)) % keyspace_;
            KvFuzzOpKind kind = KvFuzzOpKind::Get;
            const double r = rng_.uniform();
            if (r < 0.2)
                kind = KvFuzzOpKind::Pin;
            else if (r < 0.5)
                kind = KvFuzzOpKind::Unpin;
            else if (r < 0.53)
                kind = KvFuzzOpKind::PutPinned;
            else if (r < 0.7)
                kind = KvFuzzOpKind::Put;
            out.push_back({thread(), kind, k});
        }
        break;
      }
    }
}

KvFuzzSchedule
KvConcurrencyFuzzer::generate(std::size_t length)
{
    KvFuzzSchedule out;
    out.reserve(length);
    while (out.size() < length) {
        const std::size_t remaining = length - out.size();
        const std::size_t budget =
            std::min<std::size_t>(remaining, 8 + rng_.below(48));
        emitSegment(out, budget);
    }
    out.resize(length);
    return out;
}

namespace
{

/** Run one op; @return "" or an identity-violation description. */
std::string
applyOp(kv::AdaptiveKvCache &cache, const KvFuzzOp &op)
{
    switch (op.kind) {
      case KvFuzzOpKind::Get:
        if (auto v = cache.get(op.key)) {
            if (*v != kvExpectedValue(op.key)) {
                std::ostringstream out;
                out << "get(" << op.key << ") returned \"" << *v
                    << "\", expected \"" << kvExpectedValue(op.key)
                    << "\"";
                return out.str();
            }
        }
        break;
      case KvFuzzOpKind::Put:
        cache.put(op.key, kvExpectedValue(op.key));
        break;
      case KvFuzzOpKind::Fetch: {
        const std::string v = cache.fetch(
            op.key, [&] { return kvExpectedValue(op.key); });
        if (v != kvExpectedValue(op.key)) {
            std::ostringstream out;
            out << "fetch(" << op.key << ") returned \"" << v
                << "\", expected \"" << kvExpectedValue(op.key)
                << "\"";
            return out.str();
        }
        break;
      }
      case KvFuzzOpKind::Erase:
        cache.erase(op.key);
        break;
      case KvFuzzOpKind::Pin:
        cache.pin(op.key);
        break;
      case KvFuzzOpKind::Unpin:
        cache.unpin(op.key);
        break;
      case KvFuzzOpKind::PutTtl:
        cache.put(op.key, kvExpectedValue(op.key),
                  /*pinned=*/false, 1 + op.key % 4);
        break;
      case KvFuzzOpKind::PutPinned:
        cache.put(op.key, kvExpectedValue(op.key), /*pinned=*/true);
        break;
      case KvFuzzOpKind::Advance:
        cache.clockAdvance();
        break;
      case KvFuzzOpKind::MGet: {
        // A batch over a contiguous window lands members on several
        // shards, so one call exercises the per-shard-group epoch
        // and mutex windows; each returned member gets the same
        // identity check a lone get would.
        std::array<kv::KvKey, 8> keys;
        for (std::size_t i = 0; i < keys.size(); ++i)
            keys[i] = op.key + i;
        std::array<std::optional<std::string>, 8> got;
        cache.getMany(std::span<const kv::KvKey>(keys),
                      got.data());
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (got[i] && *got[i] != kvExpectedValue(keys[i])) {
                std::ostringstream out;
                out << "mget(" << op.key << ")[" << i
                    << "] returned \"" << *got[i]
                    << "\", expected \""
                    << kvExpectedValue(keys[i]) << "\"";
                return out.str();
            }
        }
        break;
      }
    }
    return "";
}

/**
 * Quiescent-state audit: per-shard accounting identities, residency
 * consistency, and the value-identity of every resident key.
 */
std::string
auditCache(kv::AdaptiveKvCache &cache)
{
    std::ostringstream out;
    std::size_t total_resident = 0;
    std::vector<kv::KvKey> resident;
    for (unsigned s = 0; s < cache.numShards(); ++s) {
        const kv::KvShard &shard = cache.shard(s);
        const kv::KvShardStats st = shard.stats();
        if (st.references != st.hits + st.misses) {
            out << "shard " << s << ": references "
                << st.references << " != hits " << st.hits
                << " + misses " << st.misses;
            return out.str();
        }
        if (st.misses !=
            st.inserts + st.rejected + st.admitRejects) {
            out << "shard " << s << ": misses " << st.misses
                << " != inserts " << st.inserts << " + rejected "
                << st.rejected << " + admit_rejects "
                << st.admitRejects;
            return out.str();
        }
        if (st.getHits > st.gets) {
            out << "shard " << s << ": get_hits " << st.getHits
                << " > gets " << st.gets;
            return out.str();
        }
        const std::uint64_t retained = st.inserts - st.evictions -
                                       st.erases - st.expirations;
        if (shard.size() != retained) {
            out << "shard " << s << ": size " << shard.size()
                << " != inserts " << st.inserts << " - evictions "
                << st.evictions << " - erases " << st.erases
                << " - expirations " << st.expirations;
            return out.str();
        }
        if (shard.pinnedCount() > shard.size()) {
            out << "shard " << s << ": pinned "
                << shard.pinnedCount() << " > size "
                << shard.size();
            return out.str();
        }
        std::vector<kv::KvKey> keys = shard.residentKeys();
        if (keys.size() != shard.size()) {
            out << "shard " << s << ": residentKeys "
                << keys.size() << " != size " << shard.size();
            return out.str();
        }
        std::sort(keys.begin(), keys.end());
        if (std::adjacent_find(keys.begin(), keys.end()) !=
            keys.end()) {
            out << "shard " << s << ": duplicate resident key";
            return out.str();
        }
        for (kv::KvKey k : keys) {
            if (cache.shardOf(k) != s) {
                out << "key " << k << " resident in shard " << s
                    << " but maps to shard " << cache.shardOf(k);
                return out.str();
            }
        }
        total_resident += keys.size();
        resident.insert(resident.end(), keys.begin(), keys.end());
    }
    if (total_resident != cache.size()) {
        out << "sum of shard residencies " << total_resident
            << " != size() " << cache.size();
        return out.str();
    }
    for (kv::KvKey k : resident) {
        auto v = cache.get(k);
        if (!v) {
            // Lazy expiry keeps TTL-lapsed entries physically
            // resident until the next locked contact; a missed get
            // on one of those is correct, not a lost key. contains()
            // is expiry-aware, so it separates the two.
            if (!cache.contains(k))
                continue;
            out << "resident key " << k << " missed on get";
            return out.str();
        }
        if (*v != kvExpectedValue(k)) {
            out << "resident key " << k << " holds \"" << *v
                << "\", expected \"" << kvExpectedValue(k) << "\"";
            return out.str();
        }
    }
    return "";
}

} // namespace

std::string
KvConcurrencyFuzzer::runOnce(const KvFuzzSchedule &sched,
                             const kv::KvConfig &config,
                             unsigned threads)
{
    adcache_assert(threads >= 1);
    kv::AdaptiveKvCache cache(config);

    // Partition the flat schedule into per-thread programs; each
    // thread's ops keep their schedule order.
    std::vector<std::vector<const KvFuzzOp *>> programs(threads);
    for (const KvFuzzOp &op : sched)
        programs[op.thread % threads].push_back(&op);

    std::vector<std::string> errors(threads);
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (const KvFuzzOp *op : programs[t]) {
                std::string err = applyOp(cache, *op);
                if (!err.empty()) {
                    errors[t] = std::move(err);
                    return;
                }
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (auto &th : pool)
        th.join();

    for (unsigned t = 0; t < threads; ++t) {
        if (!errors[t].empty())
            return "thread " + std::to_string(t) + ": " + errors[t];
    }
    return auditCache(cache);
}

std::string
KvConcurrencyFuzzer::runSerial(const KvFuzzSchedule &sched,
                               const kv::KvConfig &config)
{
    kv::AdaptiveKvCache cache(config);
    for (std::size_t i = 0; i < sched.size(); ++i) {
        std::string err = applyOp(cache, sched[i]);
        if (!err.empty()) {
            std::ostringstream out;
            out << "op " << i << " ("
                << kvFuzzOpName(sched[i].kind) << " "
                << sched[i].key << "): " << err;
            return out.str();
        }
    }
    return auditCache(cache);
}

KvFuzzSchedule
KvConcurrencyFuzzer::shrink(
    const std::function<bool(const KvFuzzSchedule &)> &still_fails,
    KvFuzzSchedule failing)
{
    // No divergence-point truncation, unlike the trace shrinker:
    // concurrent failures have no deterministic index.
    return ddmin(std::move(failing), still_fails);
}

std::string
KvConcurrencyFuzzer::toLiteral(const KvFuzzSchedule &sched)
{
    std::ostringstream out;
    out << "// " << sched.size() << " ops\n";
    out << "static const KvFuzzOp kRepro[] = {\n";
    for (const KvFuzzOp &op : sched) {
        out << "    {" << unsigned(op.thread) << ", KvFuzzOpKind::";
        switch (op.kind) {
          case KvFuzzOpKind::Get:
            out << "Get";
            break;
          case KvFuzzOpKind::Put:
            out << "Put";
            break;
          case KvFuzzOpKind::Fetch:
            out << "Fetch";
            break;
          case KvFuzzOpKind::Erase:
            out << "Erase";
            break;
          case KvFuzzOpKind::Pin:
            out << "Pin";
            break;
          case KvFuzzOpKind::Unpin:
            out << "Unpin";
            break;
          case KvFuzzOpKind::PutTtl:
            out << "PutTtl";
            break;
          case KvFuzzOpKind::Advance:
            out << "Advance";
            break;
          case KvFuzzOpKind::MGet:
            out << "MGet";
            break;
          case KvFuzzOpKind::PutPinned:
            out << "PutPinned";
            break;
        }
        out << ", " << op.key << "ull},\n";
    }
    out << "};\n";
    return out.str();
}

} // namespace adcache
