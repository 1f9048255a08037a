/**
 * @file
 * Hit-rate sweep of the kv cache across the key-stream families:
 * Zipf at several skews, uniform, and a capacity-exceeding scan,
 * each run against the adaptive selector and both fixed policies.
 * The companion to kv_phase_flip — where that bench asks "does
 * adaptation win when the workload shifts", this one maps how each
 * policy behaves on the stationary patterns the shifts are built
 * from.
 *
 * The fetch rows drive read-through fetch(), which promotes under
 * the shard mutex. The "/aside" rows drive the same streams
 * cache-aside — a get, then a put on a miss — once with lock-free
 * reads (hits only set access marks) and once with locked reads
 * ("/aside-locked", exact promotion), so the marks' effect on the
 * get hit rate shows side by side.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "kv/adaptive_kv_cache.hh"
#include "sim/report.hh"
#include "workloads/key_stream.hh"

using namespace adcache;
using namespace adcache::kv;

namespace
{

constexpr std::uint64_t kOps = 250'000;
constexpr std::uint64_t kCapacity = 4'096;

KvConfig
cacheConfig(SelectorMode mode)
{
    KvConfig c;
    c.capacity = kCapacity;
    c.numShards = 1;
    c.numBuckets = 1'024;
    c.bucketWays = 4;
    c.leaderEvery = 8;
    c.shadowTagBits = 16;
    c.selector = mode;
    c.keyHash = KeyHashKind::Mix;
    return c;
}

/** The benchmarked variants: the three selector modes, and
 *  admission adaptivity over filter-on/filter-off LRU twins. */
std::vector<std::pair<std::string, KvConfig>>
variants()
{
    std::vector<std::pair<std::string, KvConfig>> out;
    out.emplace_back("adaptive", cacheConfig(SelectorMode::Adaptive));
    out.emplace_back("lru", cacheConfig(SelectorMode::FixedLru));
    out.emplace_back("lfu", cacheConfig(SelectorMode::FixedLfu));

    KvConfig adm = cacheConfig(SelectorMode::Adaptive);
    adm.components[0] = {PolicyType::LRU, true};
    adm.components[1] = {PolicyType::LRU, false};
    out.emplace_back("adm", adm);
    return out;
}

std::vector<std::pair<std::string, KeyStreamSpec>>
streams()
{
    std::vector<std::pair<std::string, KeyStreamSpec>> out;
    for (const double skew : {0.6, 0.9, 1.2}) {
        KeyStreamSpec spec;
        spec.pattern = KeyPattern::Zipf;
        spec.keySpace = 1 << 16;
        spec.skew = skew;
        spec.seed = 21;
        char name[32];
        std::snprintf(name, sizeof name, "zipf_%.1f", skew);
        out.emplace_back(name, spec);
    }

    KeyStreamSpec uniform;
    uniform.pattern = KeyPattern::Uniform;
    uniform.keySpace = 1 << 14;
    uniform.seed = 22;
    out.emplace_back("uniform_16k", uniform);

    KeyStreamSpec scan;
    scan.pattern = KeyPattern::Scan;
    scan.keySpace = 1 << 16;
    scan.scanSpan = 2 * kCapacity;
    scan.seed = 23;
    out.emplace_back("scan_2xcap", scan);

    return out;
}

/** Cache-aside: a get, then a put on a miss. */
void
runCacheAside(AdaptiveKvCache &cache, const KeyStreamSpec &spec)
{
    KeyStream stream(spec);
    for (std::uint64_t i = 0; i < kOps; ++i) {
        const KvKey key = stream.next();
        if (!cache.get(key))
            cache.put(key, "v");
    }
}

/** Get hits over gets. */
double
getHitRate(const StatRegistry &stats)
{
    const double gets = stats.numeric("kv.gets");
    return gets == 0 ? 0.0 : stats.numeric("kv.get_hits") / gets;
}

} // namespace

int
main()
{
    const auto configs = variants();

    ReportGrid grid;
    grid.experiment = "kv_workloads";
    grid.benchmarkHeader = "stream";
    grid.variantHeader = "selector";
    grid.addMeta("ops", std::to_string(kOps));
    grid.addMeta("capacity", std::to_string(kCapacity));

    for (const auto &[name, spec] : streams()) {
        std::vector<double> rate(configs.size());
        for (std::size_t m = 0; m < configs.size(); ++m) {
            AdaptiveKvCache cache(configs[m].second);
            KeyStream stream(spec);
            for (std::uint64_t i = 0; i < kOps; ++i)
                cache.fetch(stream.next(),
                            [] { return std::string("v"); });
            ReportRow &row = grid.add(name, configs[m].first);
            row.stats.text("stream", spec.describe());
            cache.registerStats(row.stats, "kv.");
            rate[m] = row.stats.numeric("kv.hit_rate");
        }
        if (reportFormat() == ReportFormat::Table)
            std::printf("[%-11s] adaptive %.4f  lru %.4f  lfu %.4f"
                        "  adm %.4f\n",
                        name.c_str(), rate[0], rate[1], rate[2],
                        rate[3]);

        // Cache-aside rows: the three selectors, marks vs exact.
        double aside[3][2] = {};
        for (std::size_t m = 0; m < 3; ++m) {
            for (const bool lock_free : {true, false}) {
                KvConfig config = configs[m].second;
                config.lockFreeReads = lock_free;
                AdaptiveKvCache cache(config);
                runCacheAside(cache, spec);
                ReportRow &row = grid.add(
                    name, configs[m].first +
                              (lock_free ? "/aside" : "/aside-locked"));
                row.stats.text("stream", spec.describe());
                cache.registerStats(row.stats, "kv.");
                aside[m][lock_free] = getHitRate(row.stats);
            }
        }
        if (reportFormat() == ReportFormat::Table)
            std::printf("[%-11s] aside get hit rate, marks/exact:"
                        " adaptive %.4f/%.4f  lru %.4f/%.4f"
                        "  lfu %.4f/%.4f\n",
                        name.c_str(), aside[0][1], aside[0][0],
                        aside[1][1], aside[1][0], aside[2][1],
                        aside[2][0]);
    }

    if (reportFormat() != ReportFormat::Table)
        emitReport(grid, reportFormat());
    return 0;
}
