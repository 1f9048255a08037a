/**
 * @file
 * Hot-path differential sweep: lockstep-runs the packed tag lanes,
 * the adaptive cache's set rows and the policy sets against the
 * reference models across every fuzz motif (thrash/scan/phase-flip/
 * alias-cluster/store-mix via TraceFuzzer) and the shapes that ship:
 * every partial-tag width 1..15 — the 8-bit-lane (1..7) and
 * 16-bit-lane (8..15) SWAR probes — at the paper's 8 ways, the sim-l2
 * organisations, the Sec. 4.4 components, 16 and 32 ways, history
 * depths 2..64, and tags too wide for a 16-bit lane. Every per-access observable (hit/miss, writeback
 * identity, shadow misses, selector decisions, fallbacks, bypasses,
 * psel) must be unchanged; divergences shrink to a replayable repro.
 */

#include <gtest/gtest.h>

#include <functional>

#include "oracle/corpus.hh"
#include "oracle/trace_fuzzer.hh"

namespace adcache
{
namespace
{

/** Rewrites each access of a fuzzed stream (e.g. its tag). */
using StreamMap = std::function<Access(const Access &)>;

void
fuzzPair(const PairFactory &factory, const FuzzShape &shape,
         const std::string &config_line, std::uint64_t seed_offset,
         const StreamMap &map = {})
{
    const std::size_t iters = fuzzIters(6000);
    const std::uint64_t base = fuzzSeed(1) + 77000 + seed_offset * 1000;
    DifferentialChecker checker(factory);

    const std::size_t kStreams = 2;
    const std::size_t per = (iters + kStreams - 1) / kStreams;
    for (std::size_t s = 0; s < kStreams; ++s) {
        TraceFuzzer fuzzer(base + s, shape);
        auto stream = fuzzer.generate(per);
        if (map)
            for (Access &a : stream)
                a = map(a);
        const auto mismatch = checker.run(stream);
        if (!mismatch)
            continue;
        const auto repro = TraceFuzzer::shrink(checker, stream);
        FAIL() << checker.describePair() << " diverged (seed "
               << (base + s) << "): " << mismatch->format()
               << "\nShrunk repro ( " << repro.size()
               << " accesses):\n"
               << TraceFuzzer::toLiteral(repro)
               << "\nCorpus trace (save under "
                  "tests/data/regressions/):\n"
               << formatTrace(config_line, repro);
    }
}

FuzzShape
shapeFor(unsigned sets, unsigned assoc, unsigned partial_bits = 0)
{
    FuzzShape shape;
    shape.numSets = sets;
    shape.assoc = assoc;
    shape.partialTagBits = partial_bits;
    return shape;
}

/**
 * 8-way conventional caches: full tags exercise the SoA scan probe
 * and the valid-bitmask invalid-way/setFull fast paths under every
 * motif, per devirtualized policy.
 */
TEST(HotpathDifferential, ConventionalEightWay)
{
    std::uint64_t offset = 0;
    for (PolicyType p : {PolicyType::LRU, PolicyType::FIFO,
                         PolicyType::MRU, PolicyType::LFU}) {
        CacheConfig config;
        config.sizeBytes = 16 * 64 * 8;
        config.assoc = 8;
        config.lineSize = 64;
        config.policy = p;
        fuzzPair(makeCachePair(config), shapeFor(16, 8),
                 cacheConfigLine(config), ++offset);
    }
}

/**
 * Adaptive LRU+LFU at 8 ways for every partial-tag width 4..12, both
 * fold functions: each width uses the packed probe in all shadow
 * arrays, and alias-cluster motifs force the case-3 fallback.
 */
TEST(HotpathDifferential, AdaptiveAllPartialTagWidths)
{
    std::uint64_t offset = 10;
    for (unsigned bits = 4; bits <= 12; ++bits) {
        for (bool xf : {false, true}) {
            AdaptiveConfig config = AdaptiveConfig::dual(
                PolicyType::LRU, PolicyType::LFU, 16 * 64 * 8, 8);
            config.partialTagBits = bits;
            config.xorFoldTags = xf;
            fuzzPair(makeAdaptivePair(config), shapeFor(16, 8, bits),
                     adaptiveConfigLine(config), ++offset);
        }
    }
}

/** Full-tag adaptive at 8 ways: the scan path of the same structures. */
TEST(HotpathDifferential, AdaptiveFullTagsEightWay)
{
    AdaptiveConfig config = AdaptiveConfig::dual(
        PolicyType::LRU, PolicyType::LFU, 16 * 64 * 8, 8);
    fuzzPair(makeAdaptivePair(config), shapeFor(16, 8),
             adaptiveConfigLine(config), 40);
}

/**
 * The three adaptive L2 organisations perfbench's sim-l2 replays, at
 * the paper's 8 ways and in the windowed history they ship with:
 * LRU/LFU with full and 8-bit tags, and LRU/CMS-LFU with TinyLFU
 * admission on the sketch component.
 */
TEST(HotpathDifferential, SimL2OrganisationsEightWay)
{
    std::uint64_t offset = 60;
    for (unsigned bits : {0u, 8u}) {
        AdaptiveConfig config = AdaptiveConfig::dual(
            PolicyType::LRU, PolicyType::LFU, 32 * 64 * 8, 8);
        config.partialTagBits = bits;
        fuzzPair(makeAdaptivePair(config), shapeFor(32, 8, bits),
                 adaptiveConfigLine(config), ++offset);
    }
    AdaptiveConfig sketch = AdaptiveConfig::dual(
        PolicyType::LRU, PolicyType::CmsLfu, 32 * 64 * 8, 8);
    sketch.admission = {0, 1};
    fuzzPair(makeAdaptivePair(sketch), shapeFor(32, 8),
             adaptiveConfigLine(sketch), ++offset);
}

/**
 * The Sec. 4.4 multi-policy cache over every component the oracle
 * models (Random has none), at 8 ways with a 16-deep history.
 */
TEST(HotpathDifferential, FourComponentsEightWayDepthSixteen)
{
    AdaptiveConfig config = AdaptiveConfig::dual(
        PolicyType::LRU, PolicyType::LFU, 16 * 64 * 8, 8);
    config.policies = {PolicyType::LRU, PolicyType::LFU,
                       PolicyType::FIFO, PolicyType::MRU};
    config.historyDepth = 16;
    fuzzPair(makeAdaptivePair(config), shapeFor(16, 8),
             adaptiveConfigLine(config), 70);
}

/** LRU/LFU at the wide associativities of Fig. 9, full and 8-bit tags. */
TEST(HotpathDifferential, AdaptiveSixteenAndThirtyTwoWays)
{
    std::uint64_t offset = 80;
    for (unsigned assoc : {16u, 32u}) {
        for (unsigned bits : {0u, 8u}) {
            AdaptiveConfig config = AdaptiveConfig::dual(
                PolicyType::LRU, PolicyType::LFU, 16 * 64 * assoc,
                assoc);
            config.partialTagBits = bits;
            fuzzPair(makeAdaptivePair(config),
                     shapeFor(16, assoc, bits),
                     adaptiveConfigLine(config), ++offset);
        }
    }
}

/**
 * History depths at the ends of the history-depth ablation (2 and
 * 64), and the exact-counter form, at 8 ways.
 */
TEST(HotpathDifferential, HistoryDepthsAndExactCounters)
{
    std::uint64_t offset = 90;
    for (unsigned depth : {2u, 64u}) {
        AdaptiveConfig config = AdaptiveConfig::dual(
            PolicyType::LRU, PolicyType::LFU, 16 * 64 * 8, 8);
        config.historyDepth = depth;
        fuzzPair(makeAdaptivePair(config), shapeFor(16, 8),
                 adaptiveConfigLine(config), ++offset);
    }
    AdaptiveConfig exact = AdaptiveConfig::dual(
        PolicyType::LRU, PolicyType::LFU, 16 * 64 * 8, 8);
    exact.exactCounters = true;
    exact.partialTagBits = 8;
    fuzzPair(makeAdaptivePair(exact), shapeFor(16, 8, 8),
             adaptiveConfigLine(exact), ++offset);
}

/**
 * Partial-tag widths at the lane-width edges: 1-3 bits (narrowest
 * 8-bit lanes, aliasing on nearly every access) and 13-15 bits (the
 * widest tags a 16-bit lane still holds with its empty filler).
 */
TEST(HotpathDifferential, PartialTagLaneEdges)
{
    std::uint64_t offset = 100;
    for (unsigned bits : {1u, 2u, 3u, 13u, 14u, 15u}) {
        for (bool xf : {false, true}) {
            AdaptiveConfig config = AdaptiveConfig::dual(
                PolicyType::LRU, PolicyType::LFU, 16 * 64 * 8, 8);
            config.partialTagBits = bits;
            config.xorFoldTags = xf;
            fuzzPair(makeAdaptivePair(config), shapeFor(16, 8, bits),
                     adaptiveConfigLine(config), ++offset);
        }
    }
}

/**
 * Tags that do not fit a 16-bit lane: the adaptive cache keeps full
 * tags (and partial tags of 16 bits or more) exactly in 16-bit lanes
 * only while a set's tags stay below 0xFFFF, and a set that takes a
 * wider one switches to verified probes over its side array. The
 * fuzzed tags are moved, by a hash of the tag, onto 0xFFF0 + tag
 * (across the boundary, 0xFFFF itself included), tag + 0x10000, or
 * tag | 2^30, so narrow and wide tags share sets.
 */
TEST(HotpathDifferential, WideTagsTakeTheSideArrays)
{
    const auto widen = [](unsigned sets) {
        const unsigned shift = 6 + floorLog2(sets);
        return [shift](const Access &a) {
            const Addr tag = a.addr >> shift;
            Addr wide = tag;
            switch ((tag * 0x9e3779b97f4a7c15ULL) >> 62) {
              case 1: wide = tag + 0xFFF0; break;
              case 2: wide = tag + 0x10000; break;
              case 3: wide = tag | (Addr{1} << 30); break;
              default: break;
            }
            return Access{(wide << shift) | (a.addr & lowMask(shift)),
                          a.write};
        };
    };
    std::uint64_t offset = 120;
    struct Case
    {
        std::vector<PolicyType> policies;
        unsigned assoc, partial;
        bool xorFold;
        std::vector<std::uint8_t> admission;
    };
    const Case cases[] = {
        {{PolicyType::LRU, PolicyType::LFU}, 8, 0, false, {}},
        {{PolicyType::LRU, PolicyType::CmsLfu}, 8, 0, false, {0, 1}},
        {{PolicyType::LRU, PolicyType::LFU}, 8, 16, false, {}},
        {{PolicyType::LRU, PolicyType::LFU}, 8, 20, true, {}},
        {{PolicyType::LRU, PolicyType::LFU}, 16, 0, false, {}},
        {{PolicyType::LRU, PolicyType::LFU, PolicyType::FIFO,
          PolicyType::MRU},
         8, 0, false, {}},
    };
    for (const Case &c : cases) {
        AdaptiveConfig config = AdaptiveConfig::dual(
            PolicyType::LRU, PolicyType::LFU, 16 * 64 * c.assoc, c.assoc);
        config.policies = c.policies;
        config.partialTagBits = c.partial;
        config.xorFoldTags = c.xorFold;
        config.admission = c.admission;
        fuzzPair(makeAdaptivePair(config), shapeFor(16, c.assoc),
                 adaptiveConfigLine(config), ++offset, widen(16));
    }
}

/**
 * SBAR leaders at the lane-width extremes: 4-bit (8-bit lanes) and
 * 12-bit (16-bit lanes) leader shadows, with psel/selection-flip
 * observables diffed throughout.
 */
TEST(HotpathDifferential, SbarPartialTagLaneWidths)
{
    std::uint64_t offset = 50;
    for (unsigned bits : {4u, 12u}) {
        SbarConfig config;
        config.sizeBytes = 32 * 64 * 8;
        config.assoc = 8;
        config.lineSize = 64;
        config.numLeaders = 4;
        config.partialTagBits = bits;
        config.pselBits = 6;
        fuzzPair(makeSbarPair(config), shapeFor(32, 8, bits),
                 sbarConfigLine(config), ++offset);
    }
}

} // namespace
} // namespace adcache
