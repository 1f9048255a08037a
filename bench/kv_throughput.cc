/**
 * @file
 * Concurrent throughput of the sharded kv cache: a fixed operation
 * budget is split across each thread count in {1, 2, 4,
 * hardware_concurrency}, every thread driving its own seeded
 * Zipf(0.99) read-mostly stream (90% get / 10% put) against one
 * shared, prepopulated cache — the workload the lock-free read path
 * is shaped for. Each row reports ops/sec, the scaling factor versus
 * single-threaded, and the lock-free path's observable counters:
 * optimistic retry rate and slow-probe (mutex fallback) rate per
 * get. The machine's hardware concurrency is recorded so results
 * from core-starved CI containers read honestly.
 *
 * With ADCACHE_LAT=1 each round additionally reports merged latency
 * percentiles (p50/p95/p99/p999, log-bucketed) across all worker
 * threads,
 * split per op — including "get_slow", the gets that fell off the
 * lock-free path — so fast-path and fallback distributions are
 * separately visible. The timing cost itself lands inside the
 * measured region, so latency mode and throughput mode are separate
 * runs by design.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "kv/adaptive_kv_cache.hh"
#include "obs/latency.hh"
#include "obs/session.hh"
#include "obs/trace.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "workloads/key_stream.hh"

using namespace adcache;
using namespace adcache::kv;

namespace
{

constexpr std::uint64_t kTotalOps = 1'600'000;
constexpr std::uint64_t kKeySpace = 1 << 17;

KvConfig
cacheConfig()
{
    KvConfig c;
    c.capacity = 64 * 1024;
    c.numShards = 16;
    c.numBuckets = 1'024;
    c.bucketWays = 4;
    c.leaderEvery = 8;
    c.shadowTagBits = 16;
    c.selector = SelectorMode::Adaptive;
    c.keyHash = KeyHashKind::Mix;
    return c;
}

struct RoundResult
{
    double opsPerSec = 0.0;
    double retryPerGet = 0.0;    //!< optimistic re-walks / get
    double slowProbePerGet = 0.0; //!< mutex-fallback gets / get
    double getHitRate = 0.0;
};

/** One measured run over a fresh, prepopulated cache. */
RoundResult
runOne(unsigned threads)
{
    AdaptiveKvCache cache(cacheConfig());
    // Prepopulate the hot head of the Zipf distribution so the
    // read-mostly phase measures the hit path, not cold misses.
    {
        KeyStreamSpec spec;
        spec.pattern = KeyPattern::Zipf;
        spec.keySpace = kKeySpace;
        spec.skew = 0.99;
        spec.seed = 7;
        KeyStream stream(spec);
        for (std::uint64_t i = 0; i < cache.capacity(); ++i) {
            const KvKey key = stream.next();
            cache.put(key, "v");
        }
    }

    const std::uint64_t per_thread = kTotalOps / threads;
    // Every worker draws the same full Zipf distribution from its
    // own salted seed (KeyStreamSpec::forClient, non-disjoint) — the
    // shared-population contention profile the lock-free read path
    // is shaped for.
    KeyStreamSpec base;
    base.pattern = KeyPattern::Zipf;
    base.keySpace = kKeySpace;
    base.skew = 0.99;
    base.seed = 71;
    const auto start = std::chrono::steady_clock::now();
    runIndexed(threads, threads, [&](std::size_t t) {
        KeyStream stream(base.forClient(unsigned(t), threads));
        for (std::uint64_t i = 0; i < per_thread; ++i) {
            const KvKey key = stream.next();
            if (i % 10 == 0)
                cache.put(key, "v");
            else
                cache.get(key);
        }
    });
    const auto elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    RoundResult r;
    r.opsPerSec = double(per_thread * threads) / elapsed;
    KvShardStats total;
    for (unsigned s = 0; s < cache.numShards(); ++s)
        total.add(cache.shard(s).stats());
    if (total.gets > 0) {
        r.retryPerGet =
            double(total.readRetries) / double(total.gets);
        r.slowProbePerGet =
            double(total.slowProbes) / double(total.gets);
        r.getHitRate = double(total.getHits) / double(total.gets);
    }
    return r;
}

} // namespace

int
main()
{
    obs::Session session("kv_throughput");
    const unsigned hw = std::thread::hardware_concurrency();
    const bool latency = obs::latencyEnabled();

    // 1/2/4/hardware_concurrency, deduplicated and sorted — on a
    // 2-core box this is {1, 2, 4}; on a 32-core box {1, 2, 4, 32}.
    std::vector<unsigned> rounds = {1, 2, 4};
    if (hw > 0)
        rounds.push_back(hw);
    std::sort(rounds.begin(), rounds.end());
    rounds.erase(std::unique(rounds.begin(), rounds.end()),
                 rounds.end());

    ReportGrid grid;
    grid.experiment = "kv_throughput";
    grid.benchmarkHeader = "threads";
    grid.variantHeader = "cache";
    grid.addMeta("total_ops", std::to_string(kTotalOps));
    grid.addMeta("hardware_concurrency", std::to_string(hw));
    grid.addMeta("shards", "16");
    grid.addMeta("mix", "zipf0.99 90/10 get/put");
    grid.addMeta("latency_sampled", latency ? "true" : "false");

    // Warm-up run outside the measurement (page cache, allocator).
    runOne(1);

    double base = 0.0;
    for (const unsigned threads : rounds) {
        obs::resetLatency(); // per-round distributions
        const RoundResult r = runOne(threads);
        if (threads == 1)
            base = r.opsPerSec;
        const double scaling = base > 0.0 ? r.opsPerSec / base : 0.0;
        ReportRow &row =
            grid.add(std::to_string(threads), "adaptive16");
        row.stats.value("ops_per_sec", r.opsPerSec);
        row.stats.value("scaling_vs_1t", scaling);
        row.stats.value("get_hit_rate", r.getHitRate);
        row.stats.value("read_retries_per_get", r.retryPerGet);
        row.stats.value("slow_probes_per_get", r.slowProbePerGet);
        if (latency) {
            // Workers are joined, so the merge is race-free.
            for (unsigned op = 0; op < obs::kNumKvOps; ++op) {
                const auto o = static_cast<obs::KvOp>(op);
                const auto hist = obs::latencySnapshot(o);
                hist.registerInto(row.stats,
                                  std::string("lat.") +
                                      obs::kvOpName(o) + ".");
                if (reportFormat() == ReportFormat::Table &&
                    hist.count() > 0)
                    std::printf(
                        "  %u thread(s) %-8s p50 %6.0fns  p95 "
                        "%6.0fns  p99 %6.0fns  p999 %6.0fns  "
                        "(n=%llu)\n",
                        threads, obs::kvOpName(o),
                        hist.percentileNs(0.50),
                        hist.percentileNs(0.95),
                        hist.percentileNs(0.99),
                        hist.percentileNs(0.999),
                        static_cast<unsigned long long>(
                            hist.count()));
            }
        }
        if (reportFormat() == ReportFormat::Table)
            std::printf("%u thread(s): %10.0f ops/s  (%.2fx vs 1t, "
                        "%.4f retries/get, %.4f slow/get)\n",
                        threads, r.opsPerSec, scaling,
                        r.retryPerGet, r.slowProbePerGet);
    }

    if (reportFormat() == ReportFormat::Table) {
        std::printf("hardware concurrency: %u\n", hw);
        if (hw < 4)
            std::printf("note: fewer than 4 hardware cores — "
                        "thread scaling is bounded by the core "
                        "count, not by shard contention.\n");
    } else {
        emitReport(grid, reportFormat());
    }
    return 0;
}
