/**
 * @file
 * The key-value workloads: kv-hot-read (two threads on the lock-free
 * hit path of AdaptiveKvCache) and serve-ycsb-a (YCSB-A from two
 * clients over loopback connections into one read-through
 * KvService).
 */

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "kv/adaptive_kv_cache.hh"
#include "net/client.hh"
#include "net/loopback.hh"
#include "net/server.hh"
#include "net/service.hh"
#include "util/rng.hh"
#include "workloads.hh"
#include "workloads/key_stream.hh"

using namespace adcache;

namespace perfbench
{

namespace
{

/** Ops in each thread's program; the timed loop wraps around it. */
constexpr std::size_t kProgramOps = std::size_t(1) << 20;
constexpr std::uint32_t kWriteBit = 0x8000'0000u;
const ValueSpec kValues{64, 256};
/** Wall seconds of one trace-overhead slice. */
constexpr double kSliceSeconds = 0.4;
/** Layered replays time every call but keep a span for 1 in this
 *  many, so the rings hold every layer's pass. */
constexpr std::uint64_t kSpanEvery = 16;

/** Every rank's key and canonical value, stored back to back. */
class KeyTable
{
  public:
    void
    build(const KeyStreamSpec &spec)
    {
        const KeyStream stream(spec);
        keys_.clear();
        bytes_.clear();
        offset_.assign(1, 0);
        headerLen_.clear();
        // Reserved up front: regrowth would leave transient copies in
        // the peak RSS that bufferBytes() cannot account for.
        keys_.reserve(spec.keySpace);
        bytes_.reserve(spec.keySpace * kValues.maxBytes);
        offset_.reserve(spec.keySpace + 1);
        headerLen_.reserve(spec.keySpace);
        for (std::uint64_t r = 0; r < spec.keySpace; ++r) {
            const std::uint64_t key = stream.keyAt(r);
            const std::string v = valueFor(key, kValues);
            keys_.push_back(key);
            bytes_ += v;
            offset_.push_back(std::uint32_t(bytes_.size()));
            headerLen_.push_back(std::uint8_t(v.find(':') + 1));
        }
    }

    std::uint64_t key(std::uint32_t r) const { return keys_[r]; }

    std::string_view
    value(std::uint32_t r) const
    {
        return std::string_view(bytes_).substr(offset_[r],
                                               offset_[r + 1] - offset_[r]);
    }

    /** Does @p v carry rank @p r's "v<key>:" identity header? */
    bool
    hasHeader(std::uint32_t r, std::string_view v) const
    {
        return v.substr(0, headerLen_[r]) ==
               std::string_view(bytes_).substr(offset_[r], headerLen_[r]);
    }

    std::uint64_t
    bufferBytes() const
    {
        return keys_.size() * 8 + bytes_.size() + offset_.size() * 4 +
               headerLen_.size();
    }

  private:
    std::vector<std::uint64_t> keys_;
    std::string bytes_;
    std::vector<std::uint32_t> offset_;
    std::vector<std::uint8_t> headerLen_;
};

/** A thread's program: key rank per op, kWriteBit marks a write. */
using Program = std::vector<std::uint32_t>;

Program
makeProgram(const KeyStreamSpec &spec, double write_share,
            std::uint64_t seed)
{
    KeyStream stream(spec);
    Rng rng(seed);
    Program p(kProgramOps);
    for (std::uint32_t &e : p)
        e = std::uint32_t(stream.nextRank()) |
            (rng.chance(write_share) ? kWriteBit : 0);
    return p;
}

KeyStreamSpec
zipfKeys(std::uint64_t key_space, std::uint64_t seed)
{
    KeyStreamSpec spec;
    spec.pattern = KeyPattern::Zipf;
    spec.keySpace = key_space;
    spec.skew = 0.99;
    spec.seed = seed;
    return spec;
}

/**
 * A cache of @p capacity entries over @p shards shards, with
 * numBuckets x bucketWays = capacity / shards so the leader buckets'
 * shadow directories simulate the capacity each shard really has
 * (the sizing rule of docs/KVCACHE.md).
 */
kv::KvConfig
sizedCache(std::uint64_t capacity, unsigned shards)
{
    kv::KvConfig c;
    c.capacity = capacity;
    c.numShards = shards;
    c.numBuckets = unsigned(capacity / shards / c.bucketWays);
    return c;
}

/** Counter sums over shardTelemetry(). */
struct KvTotals
{
    std::uint64_t lookups = 0, hits = 0, gets = 0, evictions = 0;
    std::uint64_t readRetries = 0, slowProbes = 0, flips = 0;
    std::uint64_t diffMisses = 0;

    KvTotals
    operator-(const KvTotals &b) const
    {
        return {lookups - b.lookups,         hits - b.hits,
                gets - b.gets,               evictions - b.evictions,
                readRetries - b.readRetries, slowProbes - b.slowProbes,
                flips - b.flips,             diffMisses - b.diffMisses};
    }

    double
    hitRatio() const
    {
        return double(hits) / double(lookups);
    }
};

KvTotals
totals(const kv::AdaptiveKvCache &cache)
{
    KvTotals s;
    for (const kv::KvShardTelemetry &t : cache.shardTelemetry()) {
        s.lookups += t.references + t.gets;
        s.hits += t.hits + t.getHits;
        s.gets += t.gets;
        s.evictions += t.evictions;
        s.readRetries += t.readRetries;
        s.slowProbes += t.slowProbes;
        s.flips += t.selectionFlips;
        s.diffMisses += t.diffMisses;
    }
    return s;
}

/**
 * Shared shape of the two kv workloads: per-thread programs over a
 * key table, driven by kLoadThreads workers; subclasses supply op().
 */
class KvWorkload : public Workload
{
  public:
    /** @p sample_mask: every (mask + 1)-th op of the timed phase is
     *  timed; @p request_span: span name of one traced request. */
    KvWorkload(std::uint64_t sample_mask, const char *request_span)
        : sampleMask_(sample_mask), requestSpan_(request_span)
    {
    }

    RunResult
    run(double seconds) override
    {
        const KvTotals before = totals(cache());
        RunResult res = timedPhase(
            kLoadThreads, seconds, sampleMask_,
            [this](unsigned t, std::uint64_t i) { return Done{1, op(t, i)}; });
        res.hitRatio = (totals(cache()) - before).hitRatio();
        return res;
    }

    double
    slice(Tracer *tracer, Checks &checks) override
    {
        const RunResult r = timedPhase(
            kLoadThreads, kSliceSeconds, kNoSamples,
            [&](unsigned t, std::uint64_t i) {
                if (!tracer)
                    return Done{1, op(t, i)};
                SpanRing &ring = tracer->ring(t);
                const std::uint64_t t0 = nowNs();
                const bool ok = op(t, i);
                ring.record(requestSpan_, ring.newId(), 0, i, t0, nowNs());
                return Done{1, ok};
            });
        checks.add(r.checks);
        return r.phase.wallS * 1e9 / double(r.phase.ops);
    }

    std::uint64_t
    bufferBytes() const override
    {
        std::uint64_t bytes = table_.bufferBytes();
        for (const Program &p : programs_)
            bytes += p.size() * sizeof(p[0]);
        return bytes;
    }

  protected:
    /** Run op @p i of thread @p t's program; false = check failed. */
    virtual bool op(unsigned t, std::uint64_t i) = 0;
    virtual const kv::AdaptiveKvCache &cache() const = 0;

    std::uint32_t
    entry(unsigned t, std::uint64_t i) const
    {
        return programs_[t][i & (kProgramOps - 1)];
    }

    /** Build the key table and one program per thread. */
    void
    buildInputs(std::uint64_t seed, std::uint64_t key_space,
                double write_share)
    {
        programs_.clear();
        const KeyStreamSpec spec =
            zipfKeys(key_space, deriveSeed(seed, 100));
        table_.build(spec);
        for (unsigned t = 0; t < kLoadThreads; ++t)
            programs_.push_back(
                makeProgram(spec.forClient(t, kLoadThreads), write_share,
                            deriveSeed(seed, 200 + t)));
    }

    KeyTable table_;
    std::vector<Program> programs_;

  private:
    std::uint64_t sampleMask_;
    const char *requestSpan_;
};

/** kv-hot-read: the key space is half the capacity, so after warm-up
 *  every get hits and every put overwrites in place. */
class KvHotRead final : public KvWorkload
{
  public:
    KvHotRead() : KvWorkload(31, "kv.call") {}

    void
    setup(std::uint64_t seed) override
    {
        cache_.reset();
        buildInputs(seed, kKeys, 0.05);
        cache_ = std::make_unique<kv::AdaptiveKvCache>(config());
        for (std::uint32_t r = 0; r < kKeys; ++r)
            cache_->put(table_.key(r), table_.value(r));
        for (std::uint64_t i = 0; i < kWarmOps; ++i)
            op(0, i);
    }

    /**
     * kv.get_ns from per-call spans in a one-thread pass; the 2- vs
     * 1-thread throughput ratio from interleaved windows (median of
     * the paired ratios); read retries and slow probes per get from
     * the telemetry of the 2-thread windows.
     */
    void
    profile(SpanRing &ring, Metrics &out, Checks &checks) override
    {
        const double clock = clockCostNs();
        const std::uint64_t pass = ring.newId();
        const std::uint64_t p0 = nowNs();
        double get_ns = 0.0;
        std::uint64_t gets = 0;
        for (std::uint64_t i = 0; i < kProfileOps; ++i) {
            const bool is_get = !(entry(0, i) & kWriteBit);
            const std::uint64_t t0 = nowNs();
            checks.check(op(0, i));
            const std::uint64_t t1 = nowNs();
            if (i % kSpanEvery == 0)
                ring.record(is_get ? "kv.get" : "kv.put", ring.newId(),
                            pass, i, t0, t1);
            if (is_get) {
                get_ns += double(t1 - t0);
                ++gets;
            }
        }
        ring.record("kv.one_thread_pass", pass, 0, 0, p0, nowNs());
        out["kv.get_ns"] = {get_ns / double(gets) - clock, "ns"};

        std::vector<double> ratios;
        KvTotals two_thread;
        const auto call = [this](unsigned t, std::uint64_t i) {
            return Done{1, op(t, i)};
        };
        for (unsigned round = 0; round < 3; ++round) {
            const RunResult one =
                timedPhase(1, kScalingSeconds, kNoSamples, call);
            const KvTotals before = totals(*cache_);
            const RunResult two =
                timedPhase(2, kScalingSeconds, kNoSamples, call);
            const KvTotals d = totals(*cache_) - before;
            checks.add(one.checks);
            checks.add(two.checks);
            two_thread.gets += d.gets;
            two_thread.readRetries += d.readRetries;
            two_thread.slowProbes += d.slowProbes;
            ratios.push_back(
                (double(two.phase.ops) / two.phase.wallS) /
                (double(one.phase.ops) / one.phase.wallS));
        }
        out["kv.scaling_2t_vs_1t"] = {median(ratios), "x"};
        out["kv.read_retries_per_get"] = {
            double(two_thread.readRetries) / double(two_thread.gets),
            "count/get"};
        out["kv.slow_probes_per_get"] = {
            double(two_thread.slowProbes) / double(two_thread.gets),
            "count/get"};
    }

  private:
    static constexpr std::uint32_t kKeys = 32 * 1024;
    static constexpr std::uint64_t kWarmOps = 200'000;
    static constexpr std::uint64_t kProfileOps = 1 << 16;
    static constexpr double kScalingSeconds = 0.3;

    static kv::KvConfig config() { return sizedCache(2 * kKeys, 16); }

    bool
    op(unsigned t, std::uint64_t i) override
    {
        const std::uint32_t e = entry(t, i);
        const std::uint32_t r = e & ~kWriteBit;
        if (e & kWriteBit)
            return cache_->put(table_.key(r), table_.value(r)).updated;
        const auto v = cache_->get(table_.key(r));
        return v && table_.hasHeader(r, *v);
    }

    const kv::AdaptiveKvCache &cache() const override { return *cache_; }

    std::unique_ptr<kv::AdaptiveKvCache> cache_;
};

/** serve-ycsb-a: 50 % read / 50 % update over a key space 16x the
 *  cache, so reads miss into read-through fills and evictions. */
class ServeYcsbA final : public KvWorkload
{
  public:
    ServeYcsbA() : KvWorkload(3, "net.request") {}

    void
    setup(std::uint64_t seed) override
    {
        conns_.clear();
        service_.reset();
        buildInputs(seed, kKeys, 0.5);
        service_ = std::make_unique<net::KvService>(config());
        for (unsigned t = 0; t < kLoadThreads; ++t)
            conns_.push_back(
                std::make_unique<net::LoopbackConnection>(*service_));
        for (std::uint64_t i = 0; i < kWarmOps; ++i)
            for (unsigned t = 0; t < kLoadThreads; ++t)
                op(t, i);
    }

    /**
     * Layered replay of client 0's program: the same ops go through
     * the cache calls KvService makes, KvService::handle, a loopback
     * connection, and a socket client to an in-process KvServer, each
     * on a fresh service warmed identically. Self time of a layer =
     * its per-op time minus that of the layer inside it.
     */
    void
    profile(SpanRing &ring, Metrics &out, Checks &checks) override
    {
        static const char *const kLayers[4] = {
            "kv.cache_op", "net.handle", "net.loopback", "net.socket"};
        const double clock = clockCostNs();
        std::vector<net::Message> requests;
        for (std::uint64_t i = kWarmOps; i < kWarmOps + kLayerOps; ++i) {
            const std::uint32_t e = entry(0, i);
            const std::uint32_t r = e & ~kWriteBit;
            requests.push_back(
                e & kWriteBit
                    ? net::Message::put(table_.key(r), table_.value(r))
                    : net::Message::get(table_.key(r)));
        }

        double per_op[4] = {};
        double fetch_ns = 0.0, put_ns = 0.0;
        std::uint64_t fetches = 0;
        std::uint64_t hits[4] = {};
        KvTotals kv_delta;
        std::uint64_t bytes_in = 0, bytes_out = 0, high_water = 0;
        for (unsigned layer = 0; layer < 4; ++layer) {
            net::KvService svc(config());
            kv::AdaptiveKvCache &cache = svc.cache();
            for (std::uint64_t i = 0; i < kWarmOps; ++i)
                cacheOp(cache, entry(0, i));
            std::unique_ptr<net::LoopbackConnection> conn;
            std::unique_ptr<net::KvServer> server;
            net::KvClient client;
            if (layer == 2)
                conn = std::make_unique<net::LoopbackConnection>(svc);
            if (layer == 3) {
                net::KvServerConfig sc;
                sc.workers = 1;
                server = std::make_unique<net::KvServer>(svc, sc);
                const bool up = server->start() &&
                                client.connect("127.0.0.1", server->port());
                checks.check(up);
                if (!up) {
                    std::fprintf(stderr, "serve-ycsb-a: socket layer: %s%s\n",
                                 server->lastError().c_str(),
                                 client.lastError().c_str());
                    server->stop();
                    continue;
                }
            }
            const KvTotals before = totals(cache);
            const std::uint64_t pass = ring.newId();
            const std::uint64_t p0 = nowNs();
            double sum = 0.0;
            for (std::uint64_t k = 0; k < kLayerOps; ++k) {
                const std::uint32_t e = entry(0, kWarmOps + k);
                const std::uint32_t r = e & ~kWriteBit;
                const bool write = e & kWriteBit;
                const std::uint64_t t0 = nowNs();
                bool ok = false;
                if (layer == 0) {
                    ok = cacheOp(cache, e);
                } else if (layer == 1) {
                    const net::Message resp = svc.handle(requests[k]);
                    ok = write ? resp.kind == net::MsgKind::Ok
                               : resp.kind == net::MsgKind::Value &&
                                     table_.hasHeader(r, resp.payload);
                } else if (layer == 2) {
                    ok = write ? conn->put(table_.key(r), table_.value(r))
                               : readOk(r, conn->get(table_.key(r)));
                } else {
                    ok = write ? client.put(table_.key(r), table_.value(r))
                               : readOk(r, client.get(table_.key(r)));
                }
                const std::uint64_t t1 = nowNs();
                if (k % kSpanEvery == 0)
                    ring.record(kLayers[layer], ring.newId(), pass,
                                kWarmOps + k, t0, t1);
                checks.check(ok);
                sum += double(t1 - t0);
                if (layer == 0) {
                    (write ? put_ns : fetch_ns) += double(t1 - t0);
                    fetches += write ? 0 : 1;
                }
            }
            ring.record("net.layer_pass", pass, 0, layer, p0, nowNs());
            const KvTotals d = totals(cache) - before;
            hits[layer] = d.hits;
            if (layer == 0)
                kv_delta = d;
            per_op[layer] = sum / double(kLayerOps) - clock;
            if (layer == 3) {
                client.close();
                server->stop();
                bytes_in = server->bytesReceived();
                bytes_out = server->bytesSent();
                high_water = server->outBufHighWater();
            }
        }
        // Identically warmed instances see identical cache outcomes.
        for (unsigned layer = 1; layer < 4; ++layer)
            checks.check(hits[layer] == hits[0]);

        const double n = double(kLayerOps);
        out["kv.fetch_ns"] = {fetch_ns / double(fetches) - clock, "ns"};
        out["kv.put_ns"] = {put_ns / (n - double(fetches)) - clock, "ns"};
        out["kv.evictions_per_op"] = {double(kv_delta.evictions) / n,
                                      "count/op"};
        out["kv.diff_misses_per_op"] = {double(kv_delta.diffMisses) / n,
                                        "count/op"};
        out["kv.selection_flips"] = {double(kv_delta.flips), "count"};
        out["net.service_ns"] = {per_op[1] - per_op[0], "ns"};
        out["net.codec_ns"] = {per_op[2] - per_op[1], "ns"};
        out["net.socket_ns"] = {per_op[3] - per_op[2], "ns"};
        out["net.bytes_in_per_op"] = {double(bytes_in) / n, "B/op"};
        out["net.bytes_out_per_op"] = {double(bytes_out) / n, "B/op"};
        out["net.outbuf_high_water_kb"] = {double(high_water) / 1024.0,
                                           "KiB"};
    }

  private:
    static constexpr std::uint64_t kCapacity = 16 * 1024;
    static constexpr std::uint32_t kKeys = 16 * kCapacity;
    static constexpr std::uint64_t kWarmOps = 4 * kCapacity;
    static constexpr std::uint64_t kLayerOps = 1 << 14;

    static net::KvServiceConfig
    config()
    {
        net::KvServiceConfig c;
        c.readThrough = true;
        c.loaderValues = kValues;
        c.cache = sizedCache(kCapacity, 8);
        return c;
    }

    bool
    readOk(std::uint32_t r, const std::optional<std::string> &v) const
    {
        return v && table_.hasHeader(r, *v);
    }

    /** The cache call KvService::handle makes for program entry @p e. */
    bool
    cacheOp(kv::AdaptiveKvCache &cache, std::uint32_t e) const
    {
        const std::uint32_t r = e & ~kWriteBit;
        const std::uint64_t key = table_.key(r);
        if (e & kWriteBit)
            return !cache.put(key, table_.value(r)).rejected;
        return table_.hasHeader(
            r, cache.fetch(key, [key] { return valueFor(key, kValues); }));
    }

    bool
    op(unsigned t, std::uint64_t i) override
    {
        const std::uint32_t e = entry(t, i);
        const std::uint32_t r = e & ~kWriteBit;
        net::LoopbackConnection &conn = *conns_[t];
        if (e & kWriteBit)
            return conn.put(table_.key(r), table_.value(r));
        return readOk(r, conn.get(table_.key(r)));
    }

    const kv::AdaptiveKvCache &
    cache() const override
    {
        return service_->cache();
    }

    std::unique_ptr<net::KvService> service_;
    std::vector<std::unique_ptr<net::LoopbackConnection>> conns_;
};

} // namespace

std::unique_ptr<Workload>
makeKvHotRead()
{
    return std::make_unique<KvHotRead>();
}

std::unique_ptr<Workload>
makeServeYcsbA()
{
    return std::make_unique<ServeYcsbA>();
}

} // namespace perfbench
