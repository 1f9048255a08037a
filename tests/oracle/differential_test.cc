/**
 * @file
 * Differential harness behaviour tests: fixed seeded streams run each
 * production organisation in lockstep with its oracle, and the
 * deliberately-broken pair proves the harness both catches a
 * replacement bug and shrinks it to a tiny replayable repro.
 *
 * Long randomized soaks live in fuzz_differential_test.cc; these
 * tests pin down the harness's own contract.
 */

#include <gtest/gtest.h>

#include "core/sbar_cache.hh"
#include "oracle/differential.hh"
#include "oracle/trace_fuzzer.hh"

namespace adcache
{
namespace
{

std::vector<Access>
fuzzedStream(std::uint64_t seed, const FuzzShape &shape,
             std::size_t length)
{
    TraceFuzzer fuzzer(seed, shape);
    return fuzzer.generate(length);
}

void
expectAgreement(const PairFactory &factory, const FuzzShape &shape,
                std::size_t length = 4000)
{
    DifferentialChecker checker(factory);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto stream = fuzzedStream(seed, shape, length);
        const auto mismatch = checker.run(stream);
        ASSERT_FALSE(mismatch.has_value())
            << checker.describePair() << " seed " << seed << ": "
            << mismatch->format();
    }
}

TEST(Differential, PlainCachesMatchTheirOracles)
{
    for (PolicyType p : {PolicyType::LRU, PolicyType::FIFO,
                         PolicyType::MRU, PolicyType::LFU,
                         PolicyType::CmsLfu, PolicyType::TreePLRU,
                         PolicyType::SRRIP}) {
        CacheConfig config;
        config.sizeBytes = 16 * 64 * 4;  // 16 sets x 4 ways
        config.assoc = 4;
        config.lineSize = 64;
        config.policy = p;
        FuzzShape shape;
        shape.numSets = 16;
        shape.assoc = 4;
        expectAgreement(makeCachePair(config), shape);
    }
}

TEST(Differential, AdaptiveDualsMatchAlgorithmOne)
{
    struct Case
    {
        PolicyType a, b;
        unsigned partial;
        bool xorFold;
    };
    const Case cases[] = {
        {PolicyType::LRU, PolicyType::LFU, 0, false},
        {PolicyType::LRU, PolicyType::MRU, 0, false},
        {PolicyType::FIFO, PolicyType::LFU, 0, false},
        {PolicyType::LRU, PolicyType::LFU, 8, false},
        {PolicyType::LRU, PolicyType::LFU, 4, true},
        {PolicyType::TreePLRU, PolicyType::SRRIP, 0, false},
        {PolicyType::SRRIP, PolicyType::LFU, 8, false},
    };
    for (const Case &c : cases) {
        AdaptiveConfig config = AdaptiveConfig::dual(
            c.a, c.b, /*size_bytes=*/16 * 64 * 4, /*assoc=*/4);
        config.partialTagBits = c.partial;
        config.xorFoldTags = c.xorFold;
        FuzzShape shape;
        shape.numSets = 16;
        shape.assoc = 4;
        shape.partialTagBits = c.partial;
        expectAgreement(makeAdaptivePair(config), shape);
    }
}

TEST(Differential, MultiPolicyAdaptiveMatches)
{
    // Three- and four-policy configs; Random has no reference model,
    // so the five-policy paper config is excluded.
    AdaptiveConfig three = AdaptiveConfig::dual(
        PolicyType::LRU, PolicyType::LFU, 8 * 64 * 4, 4);
    three.policies = {PolicyType::LRU, PolicyType::LFU,
                      PolicyType::FIFO};
    AdaptiveConfig four = three;
    four.policies = {PolicyType::LRU, PolicyType::LFU,
                     PolicyType::FIFO, PolicyType::MRU};
    FuzzShape shape;
    shape.numSets = 8;
    shape.assoc = 4;
    expectAgreement(makeAdaptivePair(three), shape);
    expectAgreement(makeAdaptivePair(four), shape);
}

TEST(Differential, SketchLfuAdaptiveMatches)
{
    // CMS-LFU as an adaptive component: the shared sketch's decay
    // schedule and fill-stamp tie-breaks must agree bit-for-bit.
    for (unsigned partial : {0u, 8u}) {
        AdaptiveConfig config = AdaptiveConfig::dual(
            PolicyType::LRU, PolicyType::CmsLfu, 16 * 64 * 4, 4);
        config.partialTagBits = partial;
        FuzzShape shape;
        shape.numSets = 16;
        shape.assoc = 4;
        shape.partialTagBits = partial;
        expectAgreement(makeAdaptivePair(config), shape);
    }
}

TEST(Differential, TinyLfuAdmissionMatches)
{
    // Admission changes what enters the cache, not just what leaves:
    // bypass verdicts, imitated rejects, and the shared filter's
    // decay schedule must all stay in lockstep.
    struct Case
    {
        std::vector<std::uint8_t> admission;
        unsigned partial;
    };
    const Case cases[] = {
        {{0, 1}, 0}, // admission on the LFU component only
        {{1, 1}, 0}, // admission everywhere
        {{0, 1}, 8}, // folded keys feed the filter
    };
    for (const Case &c : cases) {
        AdaptiveConfig config = AdaptiveConfig::dual(
            PolicyType::LRU, PolicyType::LFU, 16 * 64 * 4, 4);
        config.admission = c.admission;
        config.partialTagBits = c.partial;
        FuzzShape shape;
        shape.numSets = 16;
        shape.assoc = 4;
        shape.partialTagBits = c.partial;
        expectAgreement(makeAdaptivePair(config), shape);
    }
}

TEST(Differential, SketchPolicyWithAdmissionMatches)
{
    // Both sketch consumers at once: CMS-LFU eviction plus TinyLFU
    // admission, each with its own sketch instance.
    AdaptiveConfig config = AdaptiveConfig::dual(
        PolicyType::LRU, PolicyType::CmsLfu, 16 * 64 * 4, 4);
    config.admission = {0, 1};
    FuzzShape shape;
    shape.numSets = 16;
    shape.assoc = 4;
    expectAgreement(makeAdaptivePair(config), shape);
}

TEST(Differential, SbarLeadersAndFollowersMatch)
{
    SbarConfig config;
    config.sizeBytes = 32 * 64 * 4;  // 32 sets x 4 ways
    config.assoc = 4;
    config.lineSize = 64;
    config.numLeaders = 4;
    config.pselBits = 6;
    FuzzShape shape;
    shape.numSets = 32;
    shape.assoc = 4;
    expectAgreement(makeSbarPair(config), shape, 8000);

    // Same pairing with partial-tag leader shadows.
    config.partialTagBits = 8;
    shape.partialTagBits = 8;
    expectAgreement(makeSbarPair(config), shape, 8000);

    // SRRIP on either side: a follower eviction ages only the
    // component that chose the victim.
    config.partialTagBits = 0;
    shape.partialTagBits = 0;
    config.policyA = PolicyType::SRRIP;
    expectAgreement(makeSbarPair(config), shape, 8000);
    config.policyA = PolicyType::LRU;
    config.policyB = PolicyType::SRRIP;
    expectAgreement(makeSbarPair(config), shape, 8000);
}

TEST(Differential, SbarStreamActuallyExercisesSelectionFlips)
{
    // The follower lockstep test above is only meaningful if the
    // global selection changes sides mid-stream, forcing followers to
    // switch policies over inherited contents. Prove the fuzzed
    // stream does that on the production cache.
    SbarConfig config;
    config.sizeBytes = 32 * 64 * 4;
    config.assoc = 4;
    config.numLeaders = 4;
    config.pselBits = 6;
    SbarCache cache(config);
    FuzzShape shape;
    shape.numSets = 32;
    shape.assoc = 4;
    for (const Access &a : fuzzedStream(1, shape, 8000))
        cache.access(a.addr, a.write);
    EXPECT_GT(cache.selectionFlips(), 0u)
        << "stream never flipped the global selection; the follower "
           "policy-switch path went untested";
}

TEST(Differential, InjectedBugIsCaughtAndShrunkToTinyRepro)
{
    // Production runs MRU while the oracle expects LRU — an
    // inverted-recency replacement bug.
    CacheConfig config;
    config.sizeBytes = 4 * 64 * 4;  // 4 sets x 4 ways
    config.assoc = 4;
    config.lineSize = 64;
    config.policy = PolicyType::MRU;
    DifferentialChecker checker(
        makeBuggyCachePair(config, PolicyType::LRU));

    FuzzShape shape;
    shape.numSets = 4;
    shape.assoc = 4;
    TraceFuzzer fuzzer(fuzzSeed(99), shape);
    const auto stream = fuzzer.generate(4000);
    const auto mismatch = checker.run(stream);
    ASSERT_TRUE(mismatch.has_value())
        << "harness failed to notice an inverted-LRU bug";

    const auto repro = TraceFuzzer::shrink(checker, stream);
    ASSERT_TRUE(checker.run(repro).has_value())
        << "shrunk stream no longer reproduces";
    EXPECT_LE(repro.size(), 50u)
        << "shrink left a bloated repro:\n"
        << TraceFuzzer::toLiteral(repro);
    // A minimal inverted-recency repro needs at least assoc+1 blocks.
    EXPECT_GE(repro.size(), config.assoc + 1);
}

TEST(Differential, ShrinkPreservesFirstMismatchReachability)
{
    // Shrinking a correct pair's stream is a contract violation the
    // harness should never hide: run() on the original must fail.
    CacheConfig config;
    config.sizeBytes = 2 * 64 * 2;
    config.assoc = 2;
    config.lineSize = 64;
    config.policy = PolicyType::FIFO;
    DifferentialChecker checker(
        makeBuggyCachePair(config, PolicyType::LRU));
    // FIFO and LRU diverge once a hit refreshes a block that FIFO
    // still evicts: fill 2 ways, touch the oldest, then miss.
    const std::vector<Access> stream = {
        {0x000, false}, {0x080, false}, {0x000, false},
        {0x100, false}, {0x000, false}};
    ASSERT_TRUE(checker.run(stream).has_value());
    const auto repro = TraceFuzzer::shrink(checker, stream);
    EXPECT_TRUE(checker.run(repro).has_value());
    EXPECT_LE(repro.size(), stream.size());
}

TEST(Differential, MismatchFormatNamesFieldAndIndex)
{
    CacheConfig config;
    config.sizeBytes = 2 * 64 * 2;
    config.assoc = 2;
    config.lineSize = 64;
    config.policy = PolicyType::MRU;
    DifferentialChecker checker(
        makeBuggyCachePair(config, PolicyType::LRU));
    FuzzShape shape;
    shape.numSets = 2;
    shape.assoc = 2;
    TraceFuzzer fuzzer(5, shape);
    const auto mismatch = checker.run(fuzzer.generate(2000));
    ASSERT_TRUE(mismatch.has_value());
    const std::string msg = mismatch->format();
    EXPECT_NE(msg.find("access"), std::string::npos) << msg;
    EXPECT_FALSE(mismatch->field.empty());
}

} // namespace
} // namespace adcache
