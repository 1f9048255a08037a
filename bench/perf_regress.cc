/**
 * @file
 * Hot-path throughput regression gate. Runs a fixed matrix of cache
 * organisations (conventional, adaptive full/partial-tag, SBAR, KV
 * shard) over seeded access streams that are decoded once into chunk
 * buffers before any timing starts, measures wall-clock accesses/sec
 * and ns/access per organisation, and emits the results as a
 * ReportGrid JSON document (BENCH_hotpath.json). Two additional rows
 * (kv-read-1t, kv-read-mt) drive the kv cache's lock-free read path
 * with a Zipf(0.99) read-mostly mix, single-threaded and with 4 real
 * threads; --check enforces a hardware-concurrency-aware scaling
 * floor between them on top of the per-row ns/access envelope. The
 * batched hot-path rows time getMany batches against their serial
 * twin (kv-mget), MGet pipelining over real TCP against one-get
 * round trips (serve-pipeline), and the same pair over the
 * syscall-free loopback transport (serve-pipeline-loopback);
 * --check demands getMany stay within noise of serial gets
 * (>= 0.90x), socket pipelining win >= 2x, and loopback pipelining
 * win >= 1.15x.
 *
 * Modes:
 *   perf_regress                    measure and write the JSON
 *   perf_regress --check <base>     also compare against a committed
 *                                   baseline; exit 1 if any
 *                                   organisation's ns/access
 *                                   regressed by more than 10%, or,
 *                                   before measuring, if the
 *                                   baseline's hardware_concurrency
 *                                   is missing or not this host's
 *   perf_regress --smoke            short run that validates JSON
 *                                   emission (no thresholds); wired
 *                                   to ctest label perf_smoke
 *   perf_regress --slo <base>       serving SLO gate: run a YCSB B
 *                                   mix through the loopback
 *                                   transport and fail (closed)
 *                                   unless read p99 stays within the
 *                                   budget committed in the
 *                                   baseline's kv-slo row;
 *                                   --slo-slowdown-us N arms the
 *                                   backend-slowdown scenario to
 *                                   demonstrate the gate trips
 *   perf_regress --trace-overhead   prove the compiled-in-but-
 *                                   disabled tracing hooks cost less
 *                                   than 1% of adaptive-full's
 *                                   ns/access: measures the cost of
 *                                   one disabled gate check, counts
 *                                   how often gates execute on a
 *                                   replay (misses + shadow misses
 *                                   per access — gates live off the
 *                                   hit path), and fails closed on
 *                                   degenerate measurements
 *   perf_regress --metrics-overhead prove the live metrics plane
 *                                   costs less than 1% of the kv
 *                                   read hot path: every component
 *                                   registers a scrape-time
 *                                   collector (zero per-access
 *                                   work), so the enabled cost is
 *                                   one scrape + Prometheus render
 *                                   per second — measured against a
 *                                   live-shaped registry and
 *                                   amortised at 1 Hz against
 *                                   kv-read-1t; also bounds the
 *                                   marginal ThreadCounters::add
 *                                   and LatencyHistogram::record
 *                                   the serving path pays per
 *                                   request, and fails closed on
 *                                   degenerate measurements
 *
 * Baselines live in bench/baselines/BENCH_hotpath.json and are only
 * meaningful for Release builds on the machine that recorded them
 * (see docs/PERFORMANCE.md for the update procedure).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "core/adaptive_cache.hh"
#include "core/sbar_cache.hh"
#include "kv/adaptive_kv_cache.hh"
#include "net/client.hh"
#include "net/loopback.hh"
#include "net/server.hh"
#include "net/service.hh"
#include "obs/latency.hh"
#include "obs/metrics.hh"
#include "obs/pump.hh"
#include "obs/run_meta.hh"
#include "obs/trace.hh"
#include "sim/report.hh"
#include "util/rng.hh"
#include "workloads/key_stream.hh"
#include "ycsb/ycsb.hh"

using namespace adcache;

namespace
{

/**
 * A pre-decoded access stream: addresses and write flags expanded
 * into flat chunk buffers up front so the timed loop touches no
 * generator or decoder state.
 */
struct Stream
{
    std::vector<Addr> addrs;
    std::vector<std::uint8_t> writes;
};

/**
 * Seeded mixed stream: uniform reuse over a working set, interleaved
 * with strided scan bursts (the motif mix perf_micro's random stream
 * lacks; scans are what stress victim search and the packed probe).
 */
Stream
makeStream(std::size_t n, std::uint64_t seed)
{
    Stream s;
    s.addrs.reserve(n);
    s.writes.reserve(n);
    Rng rng(seed);
    Addr scan = 0;
    while (s.addrs.size() < n) {
        if (rng.chance(0.2)) {
            // Scan burst: 64 sequential lines.
            for (unsigned i = 0; i < 64 && s.addrs.size() < n; ++i) {
                s.addrs.push_back((scan++ & 0xFFFF) * 64);
                s.writes.push_back(0);
            }
        } else {
            s.addrs.push_back(rng.below(1 << 15) * 64);
            s.writes.push_back(rng.chance(0.3) ? 1 : 0);
        }
    }
    return s;
}

/** Wall-clock seconds for one full replay of @p s through @p fn. */
template <class Fn>
double
timedReplay(const Stream &s, Fn &&fn)
{
    constexpr std::size_t kChunk = 4096;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t base = 0; base < s.addrs.size(); base += kChunk) {
        const std::size_t end =
            std::min(base + kChunk, s.addrs.size());
        for (std::size_t i = base; i < end; ++i)
            fn(s.addrs[i], s.writes[i] != 0);
    }
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

/** Best-of-@p reps replay time for one organisation. */
template <class Fn>
double
bestOf(unsigned reps, const Stream &s, Fn &&fn)
{
    double best = 1e300;
    for (unsigned r = 0; r < reps; ++r)
        best = std::min(best, timedReplay(s, fn));
    return best;
}

struct Measurement
{
    std::string variant;
    double nsPerAccess = 0.0;
    double accessesPerSec = 0.0;
    double scalingVs1t = 0.0; //!< kv-read-mt only; 0 = not set
    /** Batched rows: ns/op of the serial twin measured in the same
     *  run divided by this row's ns/op (> 1 = batching wins). The
     *  stat is emitted under @c speedupStat when set. */
    double speedup = 0.0;
    const char *speedupStat = nullptr;
};

Measurement
record(const std::string &variant, double seconds, std::size_t n)
{
    Measurement m;
    m.variant = variant;
    m.nsPerAccess = seconds * 1e9 / double(n);
    m.accessesPerSec = double(n) / seconds;
    return m;
}

std::vector<Measurement>
runMatrix(std::size_t accesses, unsigned reps)
{
    const Stream s = makeStream(accesses, 42);
    std::vector<Measurement> out;

    {
        CacheConfig conf;
        conf.policy = PolicyType::LRU;
        Cache cache(conf);
        out.push_back(record(
            "conventional-lru",
            bestOf(reps, s,
                   [&](Addr a, bool w) { cache.access(a, w); }),
            s.addrs.size()));
    }
    {
        CacheConfig conf;
        conf.policy = PolicyType::LFU;
        Cache cache(conf);
        out.push_back(record(
            "conventional-lfu",
            bestOf(reps, s,
                   [&](Addr a, bool w) { cache.access(a, w); }),
            s.addrs.size()));
    }
    {
        AdaptiveCache cache(
            AdaptiveConfig::dual(PolicyType::LRU, PolicyType::LFU));
        out.push_back(record(
            "adaptive-full",
            bestOf(reps, s,
                   [&](Addr a, bool w) { cache.access(a, w); }),
            s.addrs.size()));
    }
    {
        AdaptiveConfig conf =
            AdaptiveConfig::dual(PolicyType::LRU, PolicyType::LFU);
        conf.partialTagBits = 8;
        AdaptiveCache cache(conf);
        out.push_back(record(
            "adaptive-partial8",
            bestOf(reps, s,
                   [&](Addr a, bool w) { cache.access(a, w); }),
            s.addrs.size()));
    }
    {
        // The sketch-backed adaptive path: CMS-LFU eviction plus a
        // TinyLFU admission filter — every new src/adapt hot-path
        // component (sketch probes, decay, admission verdicts) in one
        // organisation.
        AdaptiveConfig conf =
            AdaptiveConfig::dual(PolicyType::LRU, PolicyType::CmsLfu);
        conf.admission = {0, 1};
        AdaptiveCache cache(conf);
        out.push_back(record(
            "adaptive-sketch",
            bestOf(reps, s,
                   [&](Addr a, bool w) { cache.access(a, w); }),
            s.addrs.size()));
    }
    {
        SbarConfig conf;
        conf.partialTagBits = 8;
        SbarCache cache(conf);
        out.push_back(record(
            "sbar-partial8",
            bestOf(reps, s,
                   [&](Addr a, bool w) { cache.access(a, w); }),
            s.addrs.size()));
    }
    {
        kv::KvConfig conf;
        conf.capacity = 16 * 1024;
        conf.numShards = 1;  // single-threaded replay; lock uncontended
        conf.numBuckets = 2048;
        kv::AdaptiveKvCache cache(conf);
        const char value[8] = "v";
        out.push_back(record(
            "kv-shard",
            bestOf(reps, s,
                   [&](Addr a, bool) {
                       cache.reference(kv::KvKey(a), value);
                   }),
            s.addrs.size()));
    }
    return out;
}

/** Number of worker threads in the kv-read-mt row (fixed, so the
 *  committed baseline is comparable across runs; the --check floor
 *  adapts to the machine's core count instead). */
constexpr unsigned kKvReadThreads = 4;

/**
 * The lock-free read path rows: a prepopulated 16-shard cache
 * driven by pre-generated Zipf(0.99) read-mostly streams (90% get /
 * 10% put), measured single-threaded and with kKvReadThreads real
 * std::threads released together off a spin barrier. Wall-clock
 * ns/op, best-of-@p reps; the same cache instance is reused across
 * reps so every rep measures the steady state.
 */
std::vector<Measurement>
runKvReadRows(std::size_t total_ops, unsigned reps)
{
    kv::KvConfig conf;
    conf.capacity = 16 * 1024;
    conf.numShards = 16;
    conf.numBuckets = 256;
    kv::AdaptiveKvCache cache(conf);

    // The shared workload shape: every thread draws the same full
    // Zipf distribution from its own salted seed (forClient,
    // non-disjoint) — the thread-key-partitioning helper the kv
    // drivers share instead of hand-rolled "seed + thread" copies.
    KeyStreamSpec base;
    base.pattern = KeyPattern::Zipf;
    base.keySpace = 1 << 17;
    base.skew = 0.99;
    base.seed = 71;
    {
        KeyStreamSpec warm = base;
        warm.seed = 7;
        KeyStream stream(warm);
        for (std::uint64_t i = 0; i < 2 * conf.capacity; ++i)
            cache.put(stream.next(), "v");
    }

    // Pre-generated per-thread programs: no sampler in the timed
    // loop, mirroring the decoded streams of the cache matrix.
    const std::size_t per_thread = total_ops / kKvReadThreads;
    std::vector<std::vector<kv::KvKey>> keys(kKvReadThreads);
    std::vector<std::vector<std::uint8_t>> puts(kKvReadThreads);
    for (unsigned t = 0; t < kKvReadThreads; ++t) {
        KeyStream stream(base.forClient(t, kKvReadThreads));
        keys[t].reserve(per_thread);
        puts[t].reserve(per_thread);
        for (std::size_t i = 0; i < per_thread; ++i) {
            keys[t].push_back(stream.next());
            puts[t].push_back(i % 10 == 0 ? 1 : 0);
        }
    }

    auto runThread = [&cache](const std::vector<kv::KvKey> &ks,
                              const std::vector<std::uint8_t> &ps) {
        for (std::size_t i = 0; i < ks.size(); ++i) {
            if (ps[i])
                cache.put(ks[i], "v");
            else
                cache.get(ks[i]);
        }
    };

    auto timedRound = [&](unsigned threads) {
        if (threads == 1) {
            const auto start = std::chrono::steady_clock::now();
            for (unsigned t = 0; t < kKvReadThreads; ++t)
                runThread(keys[t], puts[t]);
            return std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                .count();
        }
        std::atomic<unsigned> arrived{0};
        std::atomic<bool> go{false};
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back([&, t] {
                arrived.fetch_add(1);
                while (!go.load(std::memory_order_acquire)) {
                }
                runThread(keys[t], puts[t]);
            });
        while (arrived.load() < threads) {
        }
        const auto start = std::chrono::steady_clock::now();
        go.store(true, std::memory_order_release);
        for (auto &th : pool)
            th.join();
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    const std::size_t n = per_thread * kKvReadThreads;
    std::vector<Measurement> out;
    double best_1t = 1e300, best_mt = 1e300;
    for (unsigned r = 0; r < reps; ++r)
        best_1t = std::min(best_1t, timedRound(1));
    for (unsigned r = 0; r < reps; ++r)
        best_mt = std::min(best_mt, timedRound(kKvReadThreads));

    out.push_back(record("kv-read-1t", best_1t, n));
    out.push_back(record("kv-read-mt", best_mt, n));
    out.back().scalingVs1t = best_1t / best_mt;
    return out;
}

/** Keys getMany/MGet rows batch per call. */
constexpr std::size_t kBatchDepth = 16;

/**
 * The multi-get row: the kv-read workload shape (same Zipf(0.99) key
 * population) driven single-threaded as getMany batches of
 * kBatchDepth, with the serial get loop over the identical key
 * program measured in the same run — the speedup_vs_serial stat and
 * the --check floor come from that in-run pair, so they hold on any
 * machine. The batch amortises one epoch guard and one timer over
 * its keys, whatever shards they map to.
 */
std::vector<Measurement>
runKvMgetRow(std::size_t total_ops, unsigned reps)
{
    kv::KvConfig conf;
    conf.capacity = 16 * 1024;
    conf.numShards = 4;
    conf.numBuckets = 1024;
    kv::AdaptiveKvCache cache(conf);

    KeyStreamSpec base;
    base.pattern = KeyPattern::Zipf;
    base.keySpace = 1 << 17;
    base.skew = 0.99;
    base.seed = 71;
    {
        KeyStreamSpec warm = base;
        warm.seed = 7;
        KeyStream stream(warm);
        for (std::uint64_t i = 0; i < 2 * conf.capacity; ++i)
            cache.put(stream.next(), "v");
    }

    const std::size_t n =
        (total_ops / kBatchDepth) * kBatchDepth;
    std::vector<kv::KvKey> keys;
    keys.reserve(n);
    {
        KeyStream stream(base.forClient(1, 2));
        for (std::size_t i = 0; i < n; ++i)
            keys.push_back(stream.next());
    }

    // Interleave the two sides of the pair (serial, batched,
    // serial, batched …) so both minima sample the same machine
    // weather; back-to-back phases let a host slow spell land
    // entirely on one side and skew the ratio.
    double best_serial = 1e300, best_batched = 1e300;
    std::vector<std::optional<std::string>> out(kBatchDepth);
    for (unsigned r = 0; r < reps; ++r) {
        auto start = std::chrono::steady_clock::now();
        for (const kv::KvKey key : keys)
            cache.get(key);
        best_serial = std::min(
            best_serial,
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count());
        start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < n; i += kBatchDepth)
            cache.getMany(
                std::span<const kv::KvKey>(keys.data() + i,
                                           kBatchDepth),
                out.data());
        best_batched = std::min(
            best_batched,
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count());
    }

    std::vector<Measurement> rows;
    rows.push_back(record("kv-mget", best_batched, n));
    rows.back().speedup = best_serial / best_batched;
    rows.back().speedupStat = "speedup_vs_serial";
    return rows;
}

/**
 * The pipelined serving rows: a read-through KvService driven with
 * MGet batches of kBatchDepth keys per round trip, against the
 * one-get-per-round-trip loop over the identical key program
 * measured in the same run.
 *
 * Two transports, two rows, two very different honest floors:
 *
 * - "serve-pipeline" (TCP sockets, in-process server): a depth-1
 *   round trip pays two syscalls + a poll wakeup on each side, all
 *   of which depth-16 pipelining amortises — measured ~5-7x here,
 *   gated at >= 2x. This is the headline batching win.
 * - "serve-pipeline-loopback": no syscalls, so the only amortisable
 *   work is framing/dispatch (~200ns/round-trip) while the per-key
 *   work — probe, LRU/LFU promotion, value copy, per-entry
 *   encode/decode — dominates and is paid on both sides. Profiling
 *   puts the honest ceiling near 1.5x; the floor guards the
 *   contrast at 1.15x rather than pretending syscall-scale wins
 *   exist in a syscall-free transport.
 *
 * The key program draws uniformly from a warm set half the cache's
 * capacity, so the run is hit-served: these rows gate *transport*
 * amortisation, and a miss-heavy program would just measure the
 * read-through fill path — identical on both sides of the pair —
 * and dilute the contrast toward 1x. (The fill path has its own
 * rows: kv-shard for the locked reference cost, kv-slo for serving
 * tail latency.)
 */
std::vector<Measurement>
runServePipelineRows(std::size_t total_ops, unsigned reps)
{
    net::KvServiceConfig sc;
    sc.readThrough = true;
    sc.loaderValues = ValueSpec{64, 64};
    // Compact cache shape (entries + bucket arrays live in L2):
    // the pair being contrasted is the per-round-trip transport
    // work, and a DRAM-bound probe — identical on both sides —
    // would only dilute the ratio toward 1x.
    sc.cache.capacity = 8 * 1024;
    sc.cache.numShards = 4;
    sc.cache.numBuckets = 512;
    net::KvService service(sc);

    const std::uint64_t kWarmKeys =
        sc.cache.capacity / 2; // comfortably admitted, all resident

    const std::size_t n =
        (total_ops / kBatchDepth) * kBatchDepth;
    std::vector<std::uint64_t> keys;
    keys.reserve(n);
    {
        KeyStreamSpec spec;
        spec.pattern = KeyPattern::Uniform;
        spec.keySpace = kWarmKeys;
        spec.seed = 71;
        KeyStream stream(spec);
        for (std::uint64_t rank = 0; rank < kWarmKeys; ++rank) {
            const std::uint64_t key = stream.keyAt(rank);
            service.cache().put(key,
                                valueFor(key, sc.loaderValues));
        }
        for (std::size_t i = 0; i < n; ++i)
            keys.push_back(stream.next());
    }
    // Pre-chunked batches: the timed loop issues round trips only.
    std::vector<std::vector<std::uint64_t>> batches;
    batches.reserve(n / kBatchDepth);
    for (std::size_t i = 0; i < n; i += kBatchDepth)
        batches.emplace_back(keys.begin() + long(i),
                             keys.begin() + long(i + kBatchDepth));

    std::vector<Measurement> rows;

    {
        net::LoopbackConnection conn(service);
        // Interleaved pair: both minima sample the same machine
        // weather (see runKvMgetRow).
        double best_p1 = 1e300, best_p16 = 1e300;
        for (unsigned r = 0; r < reps; ++r) {
            auto start = std::chrono::steady_clock::now();
            for (const std::uint64_t key : keys)
                conn.get(key);
            best_p1 = std::min(
                best_p1,
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count());
            start = std::chrono::steady_clock::now();
            for (const auto &batch : batches)
                conn.mget(batch);
            best_p16 = std::min(
                best_p16,
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count());
        }
        rows.push_back(
            record("serve-pipeline-loopback", best_p16, n));
        rows.back().speedup = best_p1 / best_p16;
        rows.back().speedupStat = "speedup_vs_p1";
    }

    {
        // In-process TCP server: ephemeral port, one worker. The
        // socket key program is a prefix — depth-1 socket round
        // trips are ~100x slower than loopback ones, and the ratio
        // converges long before the full program would.
        net::KvServerConfig server_conf;
        net::KvServer server(service, server_conf);
        if (!server.start()) {
            std::fprintf(stderr, "perf_regress: serve-pipeline "
                                 "server failed to start\n");
            return rows;
        }
        net::KvClient client;
        if (!client.connect("127.0.0.1", server.port())) {
            std::fprintf(stderr, "perf_regress: serve-pipeline "
                                 "client failed to connect\n");
            server.stop();
            return rows;
        }
        const std::size_t sock_n = std::min<std::size_t>(
            n, 64 * std::size_t(1024));
        const std::size_t sock_batches = sock_n / kBatchDepth;
        double best_p1 = 1e300, best_p16 = 1e300;
        for (unsigned r = 0; r < reps; ++r) {
            auto start = std::chrono::steady_clock::now();
            for (std::size_t i = 0; i < sock_n; ++i)
                client.get(keys[i]);
            best_p1 = std::min(
                best_p1,
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count());
            start = std::chrono::steady_clock::now();
            for (std::size_t i = 0; i < sock_batches; ++i)
                client.mget(batches[i]);
            best_p16 = std::min(
                best_p16,
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count());
        }
        client.close();
        server.stop();
        rows.push_back(record("serve-pipeline", best_p16, sock_n));
        rows.back().speedup = best_p1 / best_p16;
        rows.back().speedupStat = "speedup_vs_p1";
    }
    return rows;
}

ReportGrid
toGrid(const std::vector<Measurement> &ms, std::size_t accesses,
       unsigned reps)
{
    ReportGrid grid;
    grid.experiment = "BENCH_hotpath";
    grid.variantHeader = "organisation";
    grid.addMeta("accesses", std::to_string(accesses));
    grid.addMeta("reps", std::to_string(reps));
#ifdef NDEBUG
    grid.addMeta("build", "release");
#else
    grid.addMeta("build", "debug");
#endif
    grid.addMeta("kv_read_mt_threads",
                 std::to_string(kKvReadThreads));
    grid.addMeta("hardware_concurrency",
                 std::to_string(std::thread::hardware_concurrency()));
    for (const auto &m : ms) {
        ReportRow &row = grid.add("hotpath", m.variant);
        // ns_per_access must stay the FIRST stat of every variant:
        // parseBaseline pairs each "variant" with the next
        // "ns_per_access" occurrence.
        row.stats.value("ns_per_access", m.nsPerAccess);
        row.stats.value("accesses_per_sec", m.accessesPerSec);
        if (m.scalingVs1t > 0.0)
            row.stats.value("scaling_vs_1t", m.scalingVs1t);
        if (m.speedupStat && m.speedup > 0.0)
            row.stats.value(m.speedupStat, m.speedup);
    }
    return grid;
}

/**
 * Pull "ns_per_access" per organisation out of a BENCH_hotpath.json
 * document (our own renderJson output: one row object per
 * organisation, "variant" preceding its "stats"). Returns false on
 * structural surprises so --check fails closed.
 */
bool
parseBaseline(const std::string &json,
              std::vector<Measurement> &out)
{
    std::size_t pos = 0;
    while (true) {
        const std::size_t v = json.find("\"variant\": \"", pos);
        if (v == std::string::npos)
            break;
        const std::size_t name_begin = v + std::strlen("\"variant\": \"");
        const std::size_t name_end = json.find('"', name_begin);
        if (name_end == std::string::npos)
            return false;
        const std::size_t stat =
            json.find("\"ns_per_access\": ", name_end);
        if (stat == std::string::npos)
            return false;
        Measurement m;
        m.variant = json.substr(name_begin, name_end - name_begin);
        m.nsPerAccess = std::strtod(
            json.c_str() + stat + std::strlen("\"ns_per_access\": "),
            nullptr);
        if (m.nsPerAccess <= 0.0)
            return false;
        out.push_back(m);
        pos = stat;
    }
    return !out.empty();
}

/**
 * Wall-clock ns/access only compares against a baseline recorded on a
 * host like this one, so --check refuses, before measuring, a baseline
 * whose hardware_concurrency is missing or differs from this host's.
 * @return process exit code.
 */
int
checkBaselineHost(const std::string &baseline_path)
{
    std::ifstream in(baseline_path);
    if (!in) {
        std::fprintf(stderr, "perf_regress: cannot read baseline %s\n",
                     baseline_path.c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::string json = text.str();
    const std::string key = "\"hardware_concurrency\": \"";
    std::string recorded = "(missing)";
    const std::size_t at = json.find(key);
    if (at != std::string::npos) {
        const std::size_t begin = at + key.size();
        const std::size_t end = json.find('"', begin);
        if (end != std::string::npos)
            recorded = json.substr(begin, end - begin);
    }
    const std::string here =
        std::to_string(std::thread::hardware_concurrency());
    if (recorded == here)
        return 0;
    std::fprintf(stderr,
                 "perf_regress: refusing --check: baseline %s was "
                 "recorded at hardware_concurrency %s, this host has "
                 "%s; record a baseline on this host with --out\n",
                 baseline_path.c_str(), recorded.c_str(), here.c_str());
    return 1;
}

/** @return process exit code. */
int
check(const std::vector<Measurement> &measured,
      const std::string &baseline_path)
{
    std::ifstream in(baseline_path);
    if (!in) {
        std::fprintf(stderr, "perf_regress: cannot read baseline %s\n",
                     baseline_path.c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::vector<Measurement> base;
    if (!parseBaseline(text.str(), base)) {
        std::fprintf(stderr,
                     "perf_regress: malformed baseline %s\n",
                     baseline_path.c_str());
        return 1;
    }

    constexpr double kTolerance = 1.10;  // fail beyond +10% ns/access
    int failures = 0;
    for (const auto &m : measured) {
        const Measurement *b = nullptr;
        for (const auto &candidate : base)
            if (candidate.variant == m.variant)
                b = &candidate;
        if (!b) {
            std::fprintf(stderr,
                         "perf_regress: %-18s no baseline entry\n",
                         m.variant.c_str());
            ++failures;
            continue;
        }
        const double ratio = m.nsPerAccess / b->nsPerAccess;
        const bool bad = ratio > kTolerance;
        std::fprintf(stderr,
                     "perf_regress: %-18s %8.2f ns vs baseline "
                     "%8.2f ns (%+.1f%%)%s\n",
                     m.variant.c_str(), m.nsPerAccess, b->nsPerAccess,
                     100.0 * (ratio - 1.0), bad ? "  REGRESSION" : "");
        if (bad)
            ++failures;
    }

    // Multi-threaded read scaling gate: the kv-read rows share one
    // operation count, so throughput scaling is the ns/op ratio.
    // The floor adapts to this machine's core count — a 4-thread
    // 2.5x demand is physics on >= 4 cores and fiction on 1 — and
    // the rows are required, so a build that silently dropped them
    // fails closed.
    double kv_1t = 0.0, kv_mt = 0.0;
    for (const auto &m : measured) {
        if (m.variant == "kv-read-1t")
            kv_1t = m.nsPerAccess;
        else if (m.variant == "kv-read-mt")
            kv_mt = m.nsPerAccess;
    }
    if (kv_1t <= 0.0 || kv_mt <= 0.0) {
        std::fprintf(stderr,
                     "perf_regress: kv-read scaling rows missing "
                     "from the measurement — failing closed\n");
        ++failures;
    } else {
        const unsigned hw = std::thread::hardware_concurrency();
        // >= 4 cores: demand real parallel speedup. 2-3 cores:
        // partial. <= 1 core: threads time-slice; only bound the
        // synchronization overhead of the lock-free path.
        const double floor =
            hw >= 4 ? 2.5 : (hw >= 2 ? 1.2 : 0.40);
        const double scaling = kv_1t / kv_mt;
        const bool bad = scaling < floor;
        std::fprintf(stderr,
                     "perf_regress: kv-read-mt scaling %.2fx vs 1t "
                     "(floor %.2fx at hw=%u)%s\n",
                     scaling, floor, hw,
                     bad ? "  REGRESSION" : "");
        if (bad)
            ++failures;
    }

    // Batched hot-path gates. Like the scaling gate these compare
    // two measurements from THIS run (batched vs its serial twin),
    // so they hold on any machine; the per-row envelope above still
    // pins absolute ns/op to the committed baseline. Required rows:
    // a build that silently dropped them fails closed.
    const Measurement *mget = nullptr, *pipe = nullptr,
                      *pipe_loop = nullptr;
    for (const auto &m : measured) {
        if (m.variant == "kv-mget")
            mget = &m;
        else if (m.variant == "serve-pipeline")
            pipe = &m;
        else if (m.variant == "serve-pipeline-loopback")
            pipe_loop = &m;
    }
    if (!mget || !(mget->speedup > 0.0)) {
        std::fprintf(stderr,
                     "perf_regress: kv-mget row missing from the "
                     "measurement — failing closed\n");
        ++failures;
    } else {
        // Single-threaded, hit-dominated, uncontended: what a batch
        // saves per key is epoch guard and timer amortisation. The
        // floor demands parity within the run-to-run noise envelope,
        // not a win.
        constexpr double kMgetFloor = 0.90;
        const bool bad = mget->speedup < kMgetFloor;
        std::fprintf(stderr,
                     "perf_regress: kv-mget %.2fx vs serial gets "
                     "(floor %.2fx)%s\n",
                     mget->speedup, kMgetFloor,
                     bad ? "  REGRESSION" : "");
        if (bad)
            ++failures;
    }
    if (!pipe || !(pipe->speedup > 0.0)) {
        std::fprintf(stderr,
                     "perf_regress: serve-pipeline row missing from "
                     "the measurement — failing closed\n");
        ++failures;
    } else {
        // One MGet round trip answers kBatchDepth keys and pays the
        // per-round-trip syscalls once: pipelining must at least
        // halve the per-key cost (measured ~5-7x; the floor leaves
        // room for scheduler weather on shared hosts).
        constexpr double kPipeFloor = 2.0;
        const bool bad = pipe->speedup < kPipeFloor;
        std::fprintf(stderr,
                     "perf_regress: serve-pipeline %.2fx vs depth-1 "
                     "round trips (floor %.2fx)%s\n",
                     pipe->speedup, kPipeFloor,
                     bad ? "  REGRESSION" : "");
        if (bad)
            ++failures;
    }
    if (!pipe_loop || !(pipe_loop->speedup > 0.0)) {
        std::fprintf(stderr,
                     "perf_regress: serve-pipeline-loopback row "
                     "missing from the measurement — failing "
                     "closed\n");
        ++failures;
    } else {
        // Syscall-free transport: only framing/dispatch amortises,
        // per-key work dominates both sides (see the row comment).
        // The floor guards the contrast, not a syscall-scale win.
        constexpr double kPipeLoopFloor = 1.15;
        const bool bad = pipe_loop->speedup < kPipeLoopFloor;
        std::fprintf(stderr,
                     "perf_regress: serve-pipeline-loopback %.2fx "
                     "vs depth-1 round trips (floor %.2fx)%s\n",
                     pipe_loop->speedup, kPipeLoopFloor,
                     bad ? "  REGRESSION" : "");
        if (bad)
            ++failures;
    }
    return failures ? 1 : 0;
}

/**
 * Tracing-disabled overhead gate (see file comment). The disabled
 * cost of the hooks is gate_ns x gates-per-access; the gate count is
 * an upper bound (one diff-miss-block gate per access with at least
 * one shadow miss, one eviction-path gate per real eviction).
 * @return process exit code.
 */
int
traceOverheadCheck(const std::vector<Measurement> &measured,
                   std::size_t accesses)
{
    if (!obs::kTraceCompiled) {
        std::fprintf(stderr,
                     "perf_regress: trace-overhead: tracing compiled "
                     "out (ADCACHE_TRACE=OFF), overhead is zero by "
                     "construction\n");
        return 0;
    }

    const double gate_ns = obs::measureGateCostNs();

    double ns_per_access = 0.0;
    for (const auto &m : measured)
        if (m.variant == "adaptive-full")
            ns_per_access = m.nsPerAccess;
    if (!(ns_per_access > 0.0) || !(gate_ns >= 0.0)) {
        std::fprintf(stderr,
                     "perf_regress: trace-overhead: degenerate "
                     "measurement (ns/access %.3f, gate %.3f ns) — "
                     "failing closed\n",
                     ns_per_access, gate_ns);
        return 1;
    }

    // Replay the matrix stream untimed and count how often the
    // instrumented (off-hit-path) blocks run.
    const Stream s = makeStream(accesses, 42);
    AdaptiveCache cache(
        AdaptiveConfig::dual(PolicyType::LRU, PolicyType::LFU));
    for (std::size_t i = 0; i < s.addrs.size(); ++i)
        cache.access(s.addrs[i], s.writes[i] != 0);
    const CacheStats &st = cache.stats();
    if (st.accesses == 0) {
        std::fprintf(stderr, "perf_regress: trace-overhead: empty "
                             "replay — failing closed\n");
        return 1;
    }
    // One gate fires per access whose shadow block ran (at most one
    // check covers the diff-miss event and every shadow evict; an
    // access needs >= 1 shadow miss to reach it, so the sum over
    // components bounds that count from above) plus one per real
    // eviction. Hits test nothing.
    std::uint64_t shadow_misses = 0;
    for (unsigned k = 0; k < cache.numPolicies(); ++k)
        shadow_misses += cache.shadowMisses(k);
    const std::uint64_t gates =
        std::min<std::uint64_t>(st.accesses, shadow_misses) +
        st.evictions;
    const double gates_per_access =
        double(gates) / double(st.accesses);

    const double overhead_ns = gate_ns * gates_per_access;
    const double fraction = overhead_ns / ns_per_access;
    std::fprintf(stderr,
                 "perf_regress: trace-overhead: gate %.4f ns x %.3f "
                 "gates/access = %.4f ns (%.3f%% of %.2f ns/access, "
                 "budget 1%%)\n",
                 gate_ns, gates_per_access, overhead_ns,
                 100.0 * fraction, ns_per_access);
    if (!(fraction < 0.01)) {
        std::fprintf(stderr, "perf_regress: trace-overhead: "
                             "REGRESSION — disabled tracing costs "
                             ">= 1%%\n");
        return 1;
    }
    return 0;
}

/**
 * Live-metrics overhead gate (see file comment). Every component
 * registers into the MetricsRegistry via scrape-time collectors
 * only, so the enabled cost is the scrape + render a 1 Hz exporter
 * pays on the serving core: measure that against the registry a live
 * kv_server --metrics-port builds (served 16-shard cache and
 * service, socket transport, trace plane, drift pump) and demand it
 * stay under 1% of a core-second — exactly the throughput fraction a
 * kv-read-1t loop sharing that core would lose. The per-request
 * counting KvService does (one ThreadCounters::add per counter, one
 * LatencyHistogram::record per request) is bounded separately: each
 * must stay within kCounterBudgetNs. Degenerate measurements —
 * missing kv-read-1t row, an exposition that lost the kv families,
 * negative costs — fail closed.
 * @return process exit code.
 */
int
metricsOverheadCheck(const std::vector<Measurement> &measured)
{
    double ns_per_access = 0.0;
    for (const auto &m : measured)
        if (m.variant == "kv-read-1t")
            ns_per_access = m.nsPerAccess;
    if (!(ns_per_access > 0.0)) {
        std::fprintf(stderr,
                     "perf_regress: metrics-overhead: kv-read-1t row "
                     "missing from the measurement — failing "
                     "closed\n");
        return 1;
    }

    obs::ThreadCounters<1> counters;
    obs::LatencyHistogram histogram;
    counters.add(0); // claim the thread slot and cells before timing
    histogram.record(1);
    const double add_ns = obs::marginalCostNs([&](int) { counters.add(0); });
    // Spread samples over ~1 us .. ~1 ms so bucket indexing runs
    // for real.
    const double record_ns = obs::marginalCostNs([&](int i) {
        histogram.record(std::uint64_t(1000 + (i & 1023) * 997));
    });
    // The per-event budget is a production-cost bound; sanitizer
    // instrumentation multiplies every atomic by an order of
    // magnitude, so under tsan/asan only the sign check applies (the
    // ratio-based scrape gate below still runs at full strength).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
    constexpr bool enforce_budget = false;
#elif defined(__has_feature)
    constexpr bool enforce_budget = !(__has_feature(thread_sanitizer) ||
                                      __has_feature(address_sanitizer));
#else
    constexpr bool enforce_budget = true;
#endif
    constexpr double kCounterBudgetNs = 25.0;
    for (const auto &[what, ns] :
         {std::pair{"ThreadCounters::add", add_ns},
          std::pair{"LatencyHistogram::record", record_ns}}) {
        if (!(ns >= 0.0) || (enforce_budget && ns > kCounterBudgetNs)) {
            std::fprintf(stderr,
                         "perf_regress: metrics-overhead: %s %.3f ns "
                         "exceeds the %.0f ns per-event budget — "
                         "failing closed\n",
                         what, ns, kCounterBudgetNs);
            return 1;
        }
    }

    // The registry kv_server --metrics-port builds, in the kv-read
    // rows' 16-shard configuration, with enough traffic behind it
    // that the scrape reads and renders real values.
    net::KvServiceConfig sc;
    sc.cache.capacity = 16 * 1024;
    sc.cache.numShards = 16;
    sc.cache.numBuckets = 256;
    net::KvService service(sc);
    net::KvServer server(service, net::KvServerConfig{});
    obs::TelemetryPumpConfig pump_config;
    pump_config.logSink = [](const std::string &) {};
    pump_config.driftSampler = [&service] {
        std::vector<obs::DriftShardSample> out;
        for (const kv::KvShardStats &t : service.cache().shardTelemetry())
            out.push_back({t.selectionFlips, t.diffMisses, t.ops()});
        return out;
    };
    obs::TelemetryPump pump(std::move(pump_config));
    obs::MetricsRegistry reg;
    service.registerMetrics(reg);
    server.registerMetrics(reg);
    obs::registerTraceMetrics(reg);
    pump.registerMetrics(reg);
    {
        net::LoopbackConnection conn(service);
        for (std::uint64_t k = 0; k < 4096; ++k) {
            conn.put(k, "v");
            conn.get(k / 2);
        }
    }
    pump.tickOnce();

    constexpr unsigned kScrapeReps = 7;
    double scrape_ns = 1e18;
    std::size_t exposition_bytes = 0;
    for (unsigned rep = 0; rep < kScrapeReps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        const obs::MetricsSnapshot snap = reg.scrape();
        const std::string text = obs::renderPrometheus(snap);
        const double ns =
            std::chrono::duration<double, std::nano>(
                std::chrono::steady_clock::now() - start)
                .count();
        scrape_ns = std::min(scrape_ns, ns);
        exposition_bytes = text.size();
        if (text.find("adcache_kv_references_total") ==
                std::string::npos ||
            text.find("adcache_net_requests_total") ==
                std::string::npos ||
            text.find("adcache_kv_drift_flip_ewma") == std::string::npos) {
            std::fprintf(stderr,
                         "perf_regress: metrics-overhead: exposition "
                         "lost the kv/net/drift families — failing "
                         "closed\n");
            return 1;
        }
    }
    if (!(scrape_ns > 0.0)) {
        std::fprintf(stderr,
                     "perf_regress: metrics-overhead: degenerate "
                     "scrape measurement (%.0f ns) — failing "
                     "closed\n",
                     scrape_ns);
        return 1;
    }

    // One scrape per second steals scrape_ns of every core-second,
    // so the hot path sharing that core loses scrape_ns/1e9 of its
    // throughput; per kv-read-1t op that is the same fraction of its
    // ns/access.
    const double fraction = scrape_ns / 1e9;
    const double per_op_ns = fraction * ns_per_access;
    std::fprintf(stderr,
                 "perf_regress: metrics-overhead: add %.3f ns, "
                 "record %.3f ns (budget %.0f ns each); scrape+render "
                 "%.0f ns / %zu B at 1 Hz = %.6f ns per kv-read-1t op "
                 "(%.4f%% of %.2f ns/access, budget 1%%)\n",
                 add_ns, record_ns, kCounterBudgetNs, scrape_ns,
                 exposition_bytes, per_op_ns, 100.0 * fraction,
                 ns_per_access);
    if (!(fraction < 0.01)) {
        std::fprintf(stderr, "perf_regress: metrics-overhead: "
                             "REGRESSION — a 1 Hz scrape costs >= 1%% "
                             "of the kv read hot path\n");
        return 1;
    }
    return 0;
}

/**
 * Serving SLO gate — fail-closed by construction. Serves a
 * read-heavy YCSB B mix through the in-process loopback transport
 * and demands the observed read p99 stay within the budget committed
 * in the baseline's "kv-slo" row (carried in its ns_per_access stat,
 * which parseBaseline requires to be the row's first stat). Missing
 * baseline, missing budget row, or a degenerate run all fail; with
 * @p slowdown_us nonzero the backend-slowdown scenario is armed from
 * the first op, which is the standing demonstration that a stalled
 * backend actually trips the gate.
 * @return process exit code.
 */
int
sloCheck(const std::string &baseline_path,
         std::uint32_t slowdown_us)
{
    std::ifstream in(baseline_path);
    if (!in) {
        std::fprintf(stderr,
                     "perf_regress: slo: cannot read baseline %s\n",
                     baseline_path.c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::vector<Measurement> base;
    if (!parseBaseline(text.str(), base)) {
        std::fprintf(stderr,
                     "perf_regress: slo: malformed baseline %s\n",
                     baseline_path.c_str());
        return 1;
    }
    double budget_ns = 0.0;
    for (const auto &b : base)
        if (b.variant == "kv-slo")
            budget_ns = b.nsPerAccess;
    if (!(budget_ns > 0.0)) {
        std::fprintf(stderr,
                     "perf_regress: slo: no kv-slo budget row in %s "
                     "— failing closed\n",
                     baseline_path.c_str());
        return 1;
    }

    net::KvServiceConfig sc;
    sc.readThrough = true;
    sc.loaderValues = ValueSpec{64, 64};
    net::KvService service(sc);

    ycsb::YcsbConfig yc;
    yc.workload = 'b';
    yc.records = 1 << 18;
    yc.opsPerClient = 40'000;
    yc.clients = 2;
    yc.seed = 9;
    if (slowdown_us) {
        yc.scenario = ycsb::Scenario::BackendSlowdown;
        yc.slowdownUs = slowdown_us;
        yc.scenarioAt = 0.0; // armed from the first op
    }
    ycsb::YcsbDriver driver(yc, &service, [&service](unsigned) {
        return ycsb::makeLoopbackConnection(service);
    });
    const ycsb::YcsbResult r = driver.run();

    const double p99 = r.readP99Ns();
    if (!(p99 > 0.0) || r.runOps == 0) {
        std::fprintf(stderr,
                     "perf_regress: slo: degenerate run (p99 %.0f, "
                     "ops %llu) — failing closed\n",
                     p99,
                     static_cast<unsigned long long>(r.runOps));
        return 1;
    }
    const bool bad = p99 > budget_ns;
    std::fprintf(stderr,
                 "perf_regress: slo: read p99 %.0f ns vs budget "
                 "%.0f ns over %llu ops (%.0f ops/s%s)%s\n",
                 p99, budget_ns,
                 static_cast<unsigned long long>(r.runOps),
                 r.opsPerSec(),
                 slowdown_us ? ", backend slowdown armed" : "",
                 bad ? "  SLO VIOLATION" : "");
    return bad ? 1 : 0;
}

/** Smoke self-check: the emitted JSON carries every organisation. */
int
validateJson(const std::string &json,
             const std::vector<Measurement> &ms)
{
    for (const auto &m : ms) {
        if (json.find("\"" + m.variant + "\"") == std::string::npos ||
            json.find("ns_per_access") == std::string::npos) {
            std::fprintf(stderr,
                         "perf_regress: JSON emission missing %s\n",
                         m.variant.c_str());
            return 1;
        }
    }
    std::vector<Measurement> roundtrip;
    if (!parseBaseline(json, roundtrip) ||
        roundtrip.size() != ms.size()) {
        std::fprintf(stderr,
                     "perf_regress: JSON does not round-trip through "
                     "the baseline parser\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t accesses = 4'000'000;
    unsigned reps = 3;
    bool smoke = false;
    bool trace_overhead = false;
    bool metrics_overhead = false;
    std::string baseline_path;
    std::string slo_path;
    std::uint32_t slo_slowdown_us = 0;
    std::string out_path = "BENCH_hotpath.json";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
            accesses = 50'000;
            reps = 1;
        } else if (arg == "--trace-overhead") {
            trace_overhead = true;
        } else if (arg == "--metrics-overhead") {
            metrics_overhead = true;
        } else if (arg == "--check" && i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (arg == "--slo" && i + 1 < argc) {
            slo_path = argv[++i];
        } else if (arg == "--slo-slowdown-us" && i + 1 < argc) {
            slo_slowdown_us = std::uint32_t(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--accesses" && i + 1 < argc) {
            accesses = std::strtoull(argv[++i], nullptr, 10);
        } else {
            std::fprintf(stderr,
                         "usage: perf_regress [--smoke] "
                         "[--trace-overhead] [--metrics-overhead] "
                         "[--check <baseline.json>] "
                         "[--slo <baseline.json>] "
                         "[--slo-slowdown-us N] [--out <path>] "
                         "[--accesses N]\n");
            return 2;
        }
    }

    if (!baseline_path.empty() && checkBaselineHost(baseline_path) != 0)
        return 1;

#ifndef NDEBUG
    std::fprintf(stderr,
                 "perf_regress: *** UNOPTIMIZED BUILD *** numbers are "
                 "meaningless for baselines; build Release "
                 "(cmake --preset release)\n");
    if (!baseline_path.empty() || !slo_path.empty()) {
        std::fprintf(stderr,
                     "perf_regress: refusing --check/--slo in a "
                     "debug build\n");
        return 1;
    }
#endif

    // The SLO gate is self-contained: it does not need the hot-path
    // matrix, so it runs (and exits) on its own.
    if (!slo_path.empty())
        return sloCheck(slo_path, slo_slowdown_us);

    auto measured = runMatrix(accesses, reps);
    {
        // The kv read rows use a quarter of the matrix budget: two
        // timed configurations x reps over a prepopulated cache.
        const auto kv_rows = runKvReadRows(accesses / 4, reps);
        measured.insert(measured.end(), kv_rows.begin(),
                        kv_rows.end());
        // The batched rows each time two configurations too (the
        // batch and its serial twin); smaller budgets keep the whole
        // run's wall clock in the same ballpark.
        const auto mget_rows = runKvMgetRow(accesses / 8, reps);
        measured.insert(measured.end(), mget_rows.begin(),
                        mget_rows.end());
        const auto serve_rows =
            runServePipelineRows(accesses / 16, reps);
        measured.insert(measured.end(), serve_rows.begin(),
                        serve_rows.end());
    }
    ReportGrid grid = toGrid(measured, accesses, reps);
    obs::appendRunMeta(grid); // artifact identifies its build
    const std::string json = renderJson(grid);

    {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr,
                         "perf_regress: cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
        out << json;
    }
    for (const auto &m : measured)
        std::fprintf(stderr, "perf_regress: %-18s %10.2f ns/access  "
                             "%12.0f accesses/sec\n",
                     m.variant.c_str(), m.nsPerAccess,
                     m.accessesPerSec);
    std::fprintf(stderr, "perf_regress: wrote %s\n", out_path.c_str());

    int rc = 0;
    if (trace_overhead)
        rc = traceOverheadCheck(measured, accesses);
    if (!rc && metrics_overhead)
        rc = metricsOverheadCheck(measured);
    if (!rc && smoke)
        rc = validateJson(json, measured);
    if (!rc && !baseline_path.empty())
        rc = check(measured, baseline_path);
    return rc;
}
