/**
 * @file
 * Unit tests of the oracle's reference models themselves: the stack
 * policies, the counter LFU, the literal history window, the naive
 * reference cache, and the corpus text format. The oracle is only
 * trustworthy if these hand-traced scenarios hold.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "oracle/corpus.hh"
#include "oracle/ref_cache.hh"
#include "oracle/ref_history.hh"
#include "oracle/ref_policy.hh"
#include "oracle/trace_fuzzer.hh"

namespace adcache
{
namespace
{

TEST(RefPolicy, SupportMatrix)
{
    EXPECT_TRUE(refPolicySupported(PolicyType::LRU));
    EXPECT_TRUE(refPolicySupported(PolicyType::LFU));
    EXPECT_TRUE(refPolicySupported(PolicyType::FIFO));
    EXPECT_TRUE(refPolicySupported(PolicyType::MRU));
    EXPECT_FALSE(refPolicySupported(PolicyType::Random));
    EXPECT_TRUE(refPolicySupported(PolicyType::TreePLRU));
    EXPECT_TRUE(refPolicySupported(PolicyType::SRRIP));
}

TEST(RefPolicy, LruStackOrder)
{
    auto p = makeRefPolicy(PolicyType::LRU, 4);
    for (unsigned w = 0; w < 4; ++w)
        p->onFill(w);
    EXPECT_EQ(p->victim(), 0u) << "way 0 is least recent";
    p->onHit(0);
    EXPECT_EQ(p->victim(), 1u) << "hit refreshed way 0";
    p->onHit(1);
    p->onHit(2);
    EXPECT_EQ(p->victim(), 3u);
}

TEST(RefPolicy, MruStackOrder)
{
    auto p = makeRefPolicy(PolicyType::MRU, 4);
    for (unsigned w = 0; w < 4; ++w)
        p->onFill(w);
    EXPECT_EQ(p->victim(), 3u) << "way 3 is most recent";
    p->onHit(1);
    EXPECT_EQ(p->victim(), 1u);
}

TEST(RefPolicy, FifoIgnoresHits)
{
    auto p = makeRefPolicy(PolicyType::FIFO, 4);
    for (unsigned w = 0; w < 4; ++w)
        p->onFill(w);
    p->onHit(0);
    p->onHit(0);
    EXPECT_EQ(p->victim(), 0u) << "hits must not refresh FIFO order";
    p->onInvalidate(0);
    p->onFill(0);
    EXPECT_EQ(p->victim(), 1u) << "refill made way 0 youngest";
}

TEST(RefPolicy, LfuCountsAndTieBreak)
{
    auto p = makeRefPolicy(PolicyType::LFU, 4);
    for (unsigned w = 0; w < 4; ++w)
        p->onFill(w);
    p->onHit(0);
    p->onHit(1);
    p->onHit(3);
    // Way 2 is the only count-1 entry.
    EXPECT_EQ(p->victim(), 2u);
    p->onHit(2);
    // All tied at 2: oldest fill (way 0) loses.
    EXPECT_EQ(p->victim(), 0u);
}

TEST(RefPolicy, TreePlruPointsAwayFromTouchedHalf)
{
    auto p = makeRefPolicy(PolicyType::TreePLRU, 8);
    for (unsigned w = 0; w < 8; ++w)
        p->onFill(w);
    EXPECT_EQ(p->victim(), 0u) << "in-order fills leave way 0 oldest";
    p->onHit(0);
    // Every node on way 0's path now points away from it: the root
    // to ways 4..7, and that half's older quarter (4, 5) to way 4.
    EXPECT_EQ(p->victim(), 4u);
    p->onHit(4);
    // The root flips back to ways 0..3, whose node points away from
    // way 0's quarter, to the older way of 2 and 3.
    EXPECT_EQ(p->victim(), 2u);
}

TEST(RefPolicy, SrripAgesEveryWayOnEvict)
{
    auto p = makeRefPolicy(PolicyType::SRRIP, 4);
    for (unsigned w = 0; w < 4; ++w)
        p->onFill(w);
    p->onHit(1);
    p->onHit(2);
    p->onHit(3);
    // Predictions {2, 0, 0, 0}.
    ASSERT_EQ(p->victim(), 0u);
    p->onEvict(0); // ages every way by 1: {3, 1, 1, 1}
    p->onFill(0);
    p->onHit(0);
    // {0, 1, 1, 1}: without the aging, way 0 would tie at 0 and win.
    EXPECT_EQ(p->victim(), 1u);
    p->onEvict(1); // ages by 2: {2, 3, 3, 3}
    p->onFill(1);
    // {2, 2, 3, 3}: ways 2 and 3 reached the distant prediction.
    EXPECT_EQ(p->victim(), 2u);
}

TEST(RefHistory, WindowEvictsOldestMask)
{
    RefWindowHistory h(2, 2);
    h.record(0b01);
    h.record(0b01);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.best(), 1u) << "policy 1 has no recorded misses";
    h.record(0b10);
    h.record(0b10);
    // The two 0b01 entries have scrolled out of the 2-deep window.
    EXPECT_EQ(h.count(0), 0u);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.best(), 0u);
}

TEST(RefHistory, ExactCountersNeverForget)
{
    RefExactCounters c(3);
    c.record(0b011);
    c.record(0b001);
    c.record(0b100);
    EXPECT_EQ(c.count(0), 2u);
    EXPECT_EQ(c.count(1), 1u);
    EXPECT_EQ(c.count(2), 1u);
    EXPECT_EQ(c.best(), 1u) << "ties break to the lowest index";
}

TEST(RefCache, HitMissAndEviction)
{
    RefGeometry g{64, 2, 2};  // 2 sets x 2 ways
    RefCache cache(g, PolicyType::LRU);
    EXPECT_FALSE(cache.access(0x000, false).hit);
    EXPECT_FALSE(cache.access(0x100, false).hit);
    EXPECT_TRUE(cache.access(0x000, false).hit);
    // Set 0 now holds tags for 0x000 (recent) and 0x100; a third
    // block evicts the LRU one, 0x100.
    const RefOutcome out = cache.access(0x200, false);
    EXPECT_FALSE(out.hit);
    EXPECT_TRUE(out.evicted);
    EXPECT_FALSE(cache.contains(0x100));
    EXPECT_TRUE(cache.contains(0x000));
    EXPECT_TRUE(cache.contains(0x200));
}

TEST(RefCache, DirtyTrackingDrivesWritebacks)
{
    RefGeometry g{64, 1, 1};  // direct-mapped single set
    RefCache cache(g, PolicyType::LRU);
    cache.access(0x00, true);
    const RefOutcome out = cache.access(0x40, false);
    EXPECT_TRUE(out.evicted);
    EXPECT_TRUE(out.evictedDirty);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(RefCache, PartialTagAliasingHitsLikeTheShadow)
{
    RefGeometry g{64, 1, 2};
    RefCache cache(g, PolicyType::LRU, /*partial_bits=*/2);
    // Tags 0x1 and 0x5 fold to the same 2-bit stored tag.
    cache.access(Addr(0x1) << 6, false);
    EXPECT_TRUE(cache.access(Addr(0x5) << 6, false).hit)
        << "aliased partial tags must count as hits (Sec. 3.1)";
}

TEST(Corpus, RoundTripsStreamsAndConfigs)
{
    CacheConfig c;
    c.sizeBytes = 4096;
    c.assoc = 4;
    c.lineSize = 64;
    c.policy = PolicyType::FIFO;
    const std::vector<Access> stream = {
        {0x40, false}, {0x80, true}, {0x40, false}};

    const std::string text =
        formatTrace(cacheConfigLine(c), stream);
    std::istringstream in(text);
    const RegressionTrace trace = parseTrace(in);
    EXPECT_EQ(trace.stream, stream);
    EXPECT_NE(trace.configLine.find("policy=fifo"),
              std::string::npos);
    // The parsed factory must build a runnable pair.
    DifferentialChecker checker(trace.factory);
    EXPECT_FALSE(checker.run(trace.stream).has_value());
}

TEST(Corpus, ParsesAdaptiveAndSbarKinds)
{
    AdaptiveConfig a = AdaptiveConfig::dual(
        PolicyType::LRU, PolicyType::LFU, 4096, 4, 64);
    a.partialTagBits = 8;
    const PairFactory fa = pairFactoryFor(adaptiveConfigLine(a));
    EXPECT_NE(fa()->describe().find("Adaptive"), std::string::npos);

    SbarConfig s;
    s.sizeBytes = 8192;
    s.assoc = 4;
    s.numLeaders = 4;
    const PairFactory fs = pairFactoryFor(sbarConfigLine(s));
    EXPECT_NE(fs()->describe().find("Sbar"), std::string::npos);
}

TEST(TraceFuzzer, DeterministicFromSeed)
{
    FuzzShape shape;
    shape.numSets = 8;
    shape.assoc = 4;
    TraceFuzzer a(42, shape), b(42, shape), c(43, shape);
    const auto sa = a.generate(2000);
    const auto sb = b.generate(2000);
    const auto sc = c.generate(2000);
    EXPECT_EQ(sa, sb) << "same seed, same stream";
    EXPECT_NE(sa, sc) << "different seed, different stream";
}

TEST(TraceFuzzer, StreamsAreBlockAligned)
{
    FuzzShape shape;
    shape.numSets = 16;
    shape.assoc = 4;
    shape.lineSize = 64;
    TraceFuzzer fuzzer(7, shape);
    for (const Access &a : fuzzer.generate(5000))
        EXPECT_EQ(a.addr % 64, 0u);
}

TEST(TraceFuzzer, LiteralIsReplayable)
{
    const std::vector<Access> stream = {{0x40, true}, {0x80, false}};
    const std::string lit = TraceFuzzer::toLiteral(stream);
    EXPECT_NE(lit.find("{0x40ull, true}"), std::string::npos);
    EXPECT_NE(lit.find("{0x80ull, false}"), std::string::npos);
}

} // namespace
} // namespace adcache
