/**
 * @file
 * Accuracy gate of the lock-free read path's access marks: a
 * lock-free get hit only marks its entry (LRU turns second chance,
 * LFU counts at most one such hit per fold), so the marks must not
 * cost hit rate against exact locked promotion. Every stream runs
 * cache-aside on one thread — a get, then a put on a miss — with
 * lockFreeReads on and off, under all three selectors; the marks may
 * lose at most 0.5 percentage points of get hit rate. The streams are
 * bench/kv_workloads.cc's five plus a Zipf/scan phase flip shaped
 * like bench/kv_phase_flip.cc's flip_fast.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "kv/adaptive_kv_cache.hh"
#include "workloads/key_stream.hh"

namespace adcache::kv
{
namespace
{

constexpr std::uint64_t kOps = 250'000;
constexpr std::uint64_t kCapacity = 4'096;
constexpr double kMaxLoss = 0.005;

/** kv_workloads' cache shape. */
KvConfig
cacheConfig(SelectorMode mode, bool lock_free)
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
    c.lockFreeReads = lock_free;
    return c;
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
        out.emplace_back("zipf_" + std::to_string(skew).substr(0, 3),
                         spec);
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

    KeyStreamSpec flip;
    flip.pattern = KeyPattern::PhaseFlip;
    flip.keySpace = 1 << 16;
    flip.skew = 1.0;
    flip.phasePeriod = 20'000;
    flip.scanSpan = 4 * kCapacity;
    flip.seed = 14;
    out.emplace_back("flip_fast", flip);
    return out;
}

/** Get hit rate of @p spec run cache-aside against @p config. */
double
cacheAsideGetHitRate(const KvConfig &config, const KeyStreamSpec &spec)
{
    AdaptiveKvCache cache(config);
    KeyStream stream(spec);
    for (std::uint64_t i = 0; i < kOps; ++i) {
        const KvKey key = stream.next();
        if (!cache.get(key))
            cache.put(key, "v");
    }
    const KvShardStats s = cache.total(cache.shardTelemetry());
    return s.gets == 0 ? 0.0 : double(s.getHits) / double(s.gets);
}

TEST(KvMarkAccuracyTest, MarksLoseAtMostHalfAPointOfGetHitRate)
{
    for (const auto &[name, spec] : streams()) {
        for (const SelectorMode mode :
             {SelectorMode::Adaptive, SelectorMode::FixedLru,
              SelectorMode::FixedLfu}) {
            const double marks =
                cacheAsideGetHitRate(cacheConfig(mode, true), spec);
            const double exact =
                cacheAsideGetHitRate(cacheConfig(mode, false), spec);
            std::printf("%-11s %-8s marks %.4f exact %.4f (%+.2f pp)\n",
                        name.c_str(), selectorModeName(mode), marks,
                        exact, 100.0 * (marks - exact));
            EXPECT_GE(marks, exact - kMaxLoss)
                << name << " " << selectorModeName(mode);
        }
    }
}

} // namespace
} // namespace adcache::kv
