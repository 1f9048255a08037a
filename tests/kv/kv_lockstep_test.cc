/**
 * @file
 * Lockstep verification of the kv cache in the shape it ships: a
 * single-shard AdaptiveKvCache against the naive RefKvShard
 * (oracle/kv_lockstep.hh), op by op, across the matrix of selector,
 * leader sampling, shadow tag width, component pair, read mode and
 * key hash. Every config runs a single-thread fuzzer schedule (put,
 * pinned put, fetch, get, MGet, erase, pin, unpin, TTL puts and
 * clock advances) and the four teststream motifs as fetch streams,
 * in 16 buckets and in one or two overflowing ones. A divergence
 * fails with the ddmin-shrunk schedule as a replayable literal.
 */

#include "oracle/kv_lockstep.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "support/access_streams.hh"

namespace adcache
{
namespace
{

using kv::KvComponentSpec;
using kv::KvConfig;
using kv::SelectorMode;

constexpr unsigned kBuckets = 16;
constexpr unsigned kWays = 4;
constexpr std::uint64_t kCapacity = kBuckets * kWays;

const KvComponentSpec kLruVsLfu[] = {{PolicyType::LRU, false},
                                     {PolicyType::LFU, false}};
const KvComponentSpec kAdmLruVsLru[] = {{PolicyType::LRU, true},
                                        {PolicyType::LRU, false}};
const KvComponentSpec kAdmLruVsLfu[] = {{PolicyType::LRU, true},
                                        {PolicyType::LFU, false}};

KvConfig
baseConfig(SelectorMode mode, const KvComponentSpec *components)
{
    KvConfig c;
    c.capacity = kCapacity;
    c.numShards = 1;
    c.numBuckets = kBuckets;
    c.bucketWays = kWays;
    c.selector = mode;
    c.components[0] = components[0];
    c.components[1] = components[1];
    return c;
}

/** @p base across leaderEvery, shadow tag width, read mode and key
 *  hash. */
std::vector<KvConfig>
matrix(const KvConfig &base)
{
    std::vector<KvConfig> out;
    for (const unsigned leader_every : {1u, 8u})
        for (const unsigned tag_bits : {0u, 6u})
            for (const bool lock_free : {true, false})
                for (const auto hash : {kv::KeyHashKind::Identity,
                                        kv::KeyHashKind::Mix}) {
                    KvConfig c = base;
                    c.leaderEvery = leader_every;
                    c.shadowTagBits = tag_bits;
                    c.lockFreeReads = lock_free;
                    c.keyHash = hash;
                    out.push_back(c);
                }
    return out;
}

KvFuzzSchedule
fuzzSchedule(std::uint64_t seed, std::size_t length)
{
    return KvConcurrencyFuzzer(seed, 1, 4 * kCapacity).generate(length);
}

/** A teststream motif as a stream of fetches, one key per block. */
KvFuzzSchedule
motifSchedule(teststream::Pattern pattern, std::size_t length,
              std::uint64_t seed)
{
    const teststream::StreamParams params =
        teststream::StreamParams::forCache(kWays, kBuckets);
    Rng rng(seed);
    KvFuzzSchedule sched;
    for (std::size_t i = 0; i < length; ++i)
        sched.push_back({0, KvFuzzOpKind::Fetch,
                         teststream::patternAddr(pattern, params, rng, i) /
                             params.lineSize});
    return sched;
}

/** The fuzzer schedule and every motif, on every config of
 *  matrix(@p base); stops at the first divergence. */
void
expectMatrixAgrees(const KvConfig &base, std::uint64_t seed)
{
    std::vector<KvFuzzSchedule> streams = {fuzzSchedule(seed, 3'000)};
    for (const auto pattern :
         {teststream::Pattern::Uniform, teststream::Pattern::Loop,
          teststream::Pattern::HotCold,
          teststream::Pattern::PhaseSwitch})
        streams.push_back(
            motifSchedule(pattern, 1'500, seed + unsigned(pattern)));
    for (const KvConfig &config : matrix(base)) {
        for (const KvFuzzSchedule &sched : streams) {
            const std::string report = kvLockstepReport(config, sched);
            ASSERT_TRUE(report.empty()) << report;
        }
    }
}

TEST(KvLockstepTest, AdaptiveLruVsLfuAgrees)
{
    expectMatrixAgrees(baseConfig(SelectorMode::Adaptive, kLruVsLfu),
                       11);
}

TEST(KvLockstepTest, AdaptiveAdmissionTwinsAgree)
{
    expectMatrixAgrees(
        baseConfig(SelectorMode::Adaptive, kAdmLruVsLru), 23);
}

TEST(KvLockstepTest, AdaptiveAdmissionLruVsLfuAgrees)
{
    expectMatrixAgrees(
        baseConfig(SelectorMode::Adaptive, kAdmLruVsLfu), 37);
}

TEST(KvLockstepTest, FixedLruAgreesForEveryComponentPair)
{
    expectMatrixAgrees(baseConfig(SelectorMode::FixedLru, kLruVsLfu),
                       41);
    expectMatrixAgrees(
        baseConfig(SelectorMode::FixedLru, kAdmLruVsLru), 43);
    expectMatrixAgrees(
        baseConfig(SelectorMode::FixedLru, kAdmLruVsLfu), 47);
}

TEST(KvLockstepTest, FixedLfuAgreesForEveryComponentPair)
{
    expectMatrixAgrees(baseConfig(SelectorMode::FixedLfu, kLruVsLfu),
                       53);
    expectMatrixAgrees(
        baseConfig(SelectorMode::FixedLfu, kAdmLruVsLru), 59);
    expectMatrixAgrees(
        baseConfig(SelectorMode::FixedLfu, kAdmLruVsLfu), 61);
}

TEST(KvLockstepTest, OverflowingBucketsAgree)
{
    // Capacity 64 in one and in two buckets: 32 to 64 entries a
    // bucket, far past its 16 index slots, so probes and unlinks
    // reach the chain and freed slots are reused.
    for (const unsigned buckets : {1u, 2u}) {
        KvConfig base = baseConfig(SelectorMode::Adaptive, kLruVsLfu);
        base.numBuckets = buckets;
        expectMatrixAgrees(base, 67 + buckets);
    }
}

/**
 * A cache of 8 whose six hot keys saturate their frequencies, while
 * pinned cold keys push the policy walk past the low classes: the
 * order inside the saturated class, the bounded walk, the fallback
 * cursor and all-pinned rejections all decide victims here.
 */
KvFuzzSchedule
saturatingSchedule(std::uint64_t seed, std::size_t length)
{
    constexpr kv::KvKey kHot = 6;
    constexpr kv::KvKey kCold = 32;
    Rng rng(seed);
    KvFuzzSchedule sched;
    for (kv::KvKey k = 0; k < kHot; ++k)
        sched.push_back({0, KvFuzzOpKind::Fetch, k});
    for (unsigned round = 0; round < 260; ++round)
        for (kv::KvKey k = 0; k < kHot; ++k)
            sched.push_back({0, KvFuzzOpKind::Get, k});
    kv::KvKey last = kHot;
    while (sched.size() < length) {
        const double r = rng.uniform();
        if (r < 0.55) {
            sched.push_back({0, KvFuzzOpKind::Get, rng.below(kHot)});
        } else if (r < 0.75) {
            last = kHot + rng.below(kCold);
            sched.push_back({0, KvFuzzOpKind::Fetch, last});
        } else if (r < 0.85) {
            sched.push_back({0, KvFuzzOpKind::Pin, last});
        } else if (r < 0.95) {
            sched.push_back(
                {0, KvFuzzOpKind::Unpin, kHot + rng.below(kCold)});
        } else {
            sched.push_back(
                {0, KvFuzzOpKind::Erase, kHot + rng.below(kCold)});
        }
    }
    return sched;
}

TEST(KvLockstepTest, SaturatedFrequenciesUnderPinsAgree)
{
    for (const SelectorMode mode :
         {SelectorMode::FixedLfu, SelectorMode::Adaptive}) {
        KvConfig base = baseConfig(mode, kLruVsLfu);
        base.capacity = 8;
        base.numBuckets = 4;
        base.bucketWays = 4;
        base.leaderEvery = 1;
        for (const bool lock_free : {true, false}) {
            KvConfig c = base;
            c.lockFreeReads = lock_free;
            for (const std::uint64_t seed : {71u, 72u}) {
                const std::string report = kvLockstepReport(
                    c, saturatingSchedule(seed, 6'000));
                ASSERT_TRUE(report.empty()) << report;
            }
        }
    }
}

/** Short-lived puts, clock ticks and every read kind on 16 keys. */
KvFuzzSchedule
ttlSchedule(std::uint64_t seed, std::size_t length)
{
    Rng rng(seed);
    KvFuzzSchedule sched;
    while (sched.size() < length) {
        const kv::KvKey key = rng.below(16);
        const double r = rng.uniform();
        KvFuzzOpKind kind = KvFuzzOpKind::Get;
        if (r < 0.30)
            kind = KvFuzzOpKind::PutTtl;
        else if (r < 0.45)
            kind = KvFuzzOpKind::Advance;
        else if (r < 0.55)
            kind = KvFuzzOpKind::MGet;
        else if (r < 0.62)
            kind = KvFuzzOpKind::Pin;
        else if (r < 0.69)
            kind = KvFuzzOpKind::Unpin;
        else if (r < 0.74)
            kind = KvFuzzOpKind::Erase;
        else if (r < 0.80)
            kind = KvFuzzOpKind::Fetch;
        sched.push_back({0, kind, key});
    }
    return sched;
}

TEST(KvLockstepTest, BothReadModesAgreeUnderTtlChurn)
{
    // Locked reads purge an expired entry on contact; lock-free reads
    // leave it resident until the next locked contact (and mark their
    // hits). The model carries both differences, so both modes agree
    // with it and the purges they count differ.
    std::uint64_t expirations[2] = {};
    for (const bool lock_free : {false, true}) {
        KvConfig c = baseConfig(SelectorMode::Adaptive, kLruVsLfu);
        c.capacity = 8;
        c.numBuckets = 4;
        c.leaderEvery = 1;
        c.lockFreeReads = lock_free;
        kv::KvShardStats stats;
        const std::string report =
            kvLockstepReport(c, ttlSchedule(83, 4'000), &stats);
        ASSERT_TRUE(report.empty()) << report;
        expirations[lock_free] = stats.expirations;
    }
    EXPECT_GT(expirations[false], expirations[true]);
    EXPECT_GT(expirations[true], 0u);
}

TEST(KvLockstepTest, StreamsReachEveryVictimCaseAndReadPath)
{
    // The agreement above is only as strong as the paths the streams
    // reach: every victim case, both rejection kinds, lazy expiry,
    // pinned puts, both kinds of mark fold and selection flips must
    // actually occur.
    kv::KvShardStats total;
    RefKvCounters folds;
    std::size_t pinned_puts = 0;
    const auto run = [&](const KvConfig &c, const KvFuzzSchedule &sched) {
        pinned_puts += std::count_if(
            sched.begin(), sched.end(), [](const KvFuzzOp &op) {
                return op.kind == KvFuzzOpKind::PutPinned;
            });
        kv::KvShardStats stats;
        RefKvCounters model;
        const std::string report =
            kvLockstepReport(c, sched, &stats, &model);
        ASSERT_TRUE(report.empty()) << report;
        total.add(stats);
        folds.hitFolds += model.hitFolds;
        folds.walkFolds += model.walkFolds;
    };
    for (const auto *components : {kLruVsLfu, kAdmLruVsLfu}) {
        KvConfig c = baseConfig(SelectorMode::Adaptive, components);
        c.leaderEvery = 1;
        c.shadowTagBits = 6;
        run(c, fuzzSchedule(11, 3'000));
        run(c, motifSchedule(teststream::Pattern::HotCold, 1'500, 5));
        c.capacity = 8;
        c.numBuckets = 4;
        run(c, saturatingSchedule(71, 6'000));
    }
    EXPECT_GT(total.directedEvictions, 0u);
    EXPECT_GT(total.evictions,
              total.directedEvictions + total.fallbackEvictions);
    EXPECT_GT(total.fallbackEvictions, total.rejected);
    EXPECT_GT(total.rejected, 0u);
    EXPECT_GT(total.admitRejects, 0u);
    EXPECT_GT(total.expirations, 0u);
    EXPECT_GT(pinned_puts, 0u);
    EXPECT_GT(folds.hitFolds, 0u);
    EXPECT_GT(folds.walkFolds, 0u);
    EXPECT_GT(total.selectionFlips, 0u);
    EXPECT_GT(total.decisions[kv::kvComponentLru], 0u);
    EXPECT_GT(total.decisions[kv::kvComponentLfu], 0u);
}

} // namespace
} // namespace adcache
