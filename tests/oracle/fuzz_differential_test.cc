/**
 * @file
 * Randomized differential soak: every production organisation is
 * lockstep-verified against its oracle over >= 10k fuzzed accesses
 * per configuration (deterministic by default; scalable via env):
 *
 *   ADCACHE_FUZZ_ITERS  accesses per configuration (default 12000)
 *   ADCACHE_FUZZ_SEED   base seed (default 1)
 *
 * On divergence the failure message prints the shrunk minimal stream
 * both as a replayable C++ literal and as a corpus trace ready to be
 * dropped into tests/data/regressions/ (see docs/TESTING.md).
 */

#include <gtest/gtest.h>

#include "oracle/corpus.hh"
#include "oracle/trace_fuzzer.hh"

namespace adcache
{
namespace
{

/**
 * Fuzz @p factory with streams shaped for the cache under test; on
 * mismatch, shrink and fail with a replayable repro.
 */
void
fuzzPair(const PairFactory &factory, const FuzzShape &shape,
         const std::string &config_line, std::uint64_t seed_offset)
{
    const std::size_t iters = fuzzIters(12000);
    const std::uint64_t base = fuzzSeed(1) + seed_offset * 1000;
    DifferentialChecker checker(factory);

    // Several shorter streams beat one long one: each re-runs the
    // pair from a cold cache, covering warm-up behaviour too.
    const std::size_t kStreams = 4;
    const std::size_t per = (iters + kStreams - 1) / kStreams;
    for (std::size_t s = 0; s < kStreams; ++s) {
        TraceFuzzer fuzzer(base + s, shape);
        const auto stream = fuzzer.generate(per);
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

TEST(FuzzDifferential, PlainCaches)
{
    std::uint64_t offset = 0;
    for (PolicyType p : {PolicyType::LRU, PolicyType::FIFO,
                         PolicyType::MRU, PolicyType::LFU,
                         PolicyType::CmsLfu, PolicyType::TreePLRU,
                         PolicyType::SRRIP}) {
        CacheConfig config;
        config.sizeBytes = 16 * 64 * 4;
        config.assoc = 4;
        config.lineSize = 64;
        config.policy = p;
        fuzzPair(makeCachePair(config), shapeFor(16, 4),
                 cacheConfigLine(config), ++offset);
    }
}

TEST(FuzzDifferential, AdaptiveFullTags)
{
    std::uint64_t offset = 10;
    const std::pair<PolicyType, PolicyType> duals[] = {
        {PolicyType::LRU, PolicyType::LFU},
        {PolicyType::LRU, PolicyType::MRU},
        {PolicyType::FIFO, PolicyType::LFU},
        {PolicyType::MRU, PolicyType::LFU},
    };
    for (const auto &[a, b] : duals) {
        AdaptiveConfig config =
            AdaptiveConfig::dual(a, b, 16 * 64 * 4, 4);
        fuzzPair(makeAdaptivePair(config), shapeFor(16, 4),
                 adaptiveConfigLine(config), ++offset);
    }
}

TEST(FuzzDifferential, AdaptivePartialTags)
{
    // Narrow stored tags so alias-cluster motifs actually collide;
    // case-3 fallback paths get real coverage here.
    std::uint64_t offset = 20;
    for (unsigned bits : {4u, 8u}) {
        for (bool xf : {false, true}) {
            AdaptiveConfig config = AdaptiveConfig::dual(
                PolicyType::LRU, PolicyType::LFU, 16 * 64 * 4, 4);
            config.partialTagBits = bits;
            config.xorFoldTags = xf;
            fuzzPair(makeAdaptivePair(config),
                     shapeFor(16, 4, bits),
                     adaptiveConfigLine(config), ++offset);
        }
    }
}

TEST(FuzzDifferential, AdaptiveMultiPolicy)
{
    AdaptiveConfig config = AdaptiveConfig::dual(
        PolicyType::LRU, PolicyType::LFU, 8 * 64 * 4, 4);
    config.policies = {PolicyType::LRU, PolicyType::LFU,
                       PolicyType::FIFO, PolicyType::MRU};
    fuzzPair(makeAdaptivePair(config), shapeFor(8, 4),
             adaptiveConfigLine(config), 30);
}

TEST(FuzzDifferential, SketchPoliciesAndAdmission)
{
    // Sketch-backed configs: CMS-LFU eviction and TinyLFU admission
    // ride the frequency-phase-shift motif hard enough to cross decay
    // epochs many times per stream.
    std::uint64_t offset = 50;

    AdaptiveConfig cms = AdaptiveConfig::dual(
        PolicyType::LRU, PolicyType::CmsLfu, 16 * 64 * 4, 4);
    fuzzPair(makeAdaptivePair(cms), shapeFor(16, 4),
             adaptiveConfigLine(cms), ++offset);

    AdaptiveConfig admit = AdaptiveConfig::dual(
        PolicyType::LRU, PolicyType::LFU, 16 * 64 * 4, 4);
    admit.admission = {0, 1};
    fuzzPair(makeAdaptivePair(admit), shapeFor(16, 4),
             adaptiveConfigLine(admit), ++offset);

    AdaptiveConfig both = AdaptiveConfig::dual(
        PolicyType::LRU, PolicyType::CmsLfu, 16 * 64 * 4, 4);
    both.admission = {1, 1};
    both.partialTagBits = 8;
    fuzzPair(makeAdaptivePair(both), shapeFor(16, 4, 8),
             adaptiveConfigLine(both), ++offset);
}

TEST(FuzzDifferential, Sbar)
{
    std::uint64_t offset = 40;
    for (unsigned partial : {0u, 8u}) {
        SbarConfig config;
        config.sizeBytes = 32 * 64 * 4;
        config.assoc = 4;
        config.lineSize = 64;
        config.numLeaders = 4;
        config.partialTagBits = partial;
        config.pselBits = 6;
        fuzzPair(makeSbarPair(config), shapeFor(32, 4, partial),
                 sbarConfigLine(config), ++offset);
    }
}

} // namespace
} // namespace adcache
