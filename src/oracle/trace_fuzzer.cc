#include "oracle/trace_fuzzer.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "oracle/ddmin.hh"
#include "util/logging.hh"

namespace adcache
{

namespace
{

std::uint64_t
parseEnvU64(const char *name, std::uint64_t fallback)
{
    const char *text = std::getenv(name);
    if (!text)
        return fallback;
    // strtoull silently wraps negative input; accept digits only.
    if (*text < '0' || *text > '9') {
        warn("ignoring malformed %s='%s'", name, text);
        return fallback;
    }
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end && *end == '\0')
        return std::uint64_t(v);
    warn("ignoring malformed %s='%s'", name, text);
    return fallback;
}

} // namespace

std::size_t
fuzzIters(std::size_t fallback)
{
    static const std::uint64_t v =
        parseEnvU64("ADCACHE_FUZZ_ITERS", fallback);
    return std::size_t(v);
}

std::uint64_t
fuzzSeed(std::uint64_t fallback)
{
    static const std::uint64_t v =
        parseEnvU64("ADCACHE_FUZZ_SEED", fallback);
    return v;
}

TraceFuzzer::TraceFuzzer(std::uint64_t seed, const FuzzShape &shape)
    : shape_(shape), rng_(seed)
{
    adcache_assert(shape.numSets >= 1 && shape.assoc >= 1);
}

Addr
TraceFuzzer::blockAddr(std::uint64_t block) const
{
    return block * shape_.lineSize;
}

void
TraceFuzzer::emitSegment(std::vector<Access> &out, std::size_t budget)
{
    const unsigned sets = shape_.numSets;
    const unsigned assoc = shape_.assoc;
    const double writes = rng_.chance(0.3)
                              ? (rng_.chance(0.5) ? 0.0 : 0.9)
                              : shape_.writeFraction;

    auto push = [&](std::uint64_t block) {
        out.push_back({blockAddr(block), rng_.chance(writes)});
    };

    // Block index landing in @p set with in-set tag ordinal @p t.
    auto setBlock = [&](unsigned set, std::uint64_t t) {
        return std::uint64_t(set) + t * sets;
    };

    switch (rng_.below(7)) {
      case 0: {
        // Thrash loop at assoc-1 / assoc / assoc+1 / assoc+2 blocks
        // of one set — the boundary where stack policies diverge.
        const unsigned set = unsigned(rng_.below(sets));
        const std::uint64_t depth =
            std::max<std::uint64_t>(1, assoc - 1 + rng_.below(4));
        for (std::size_t i = 0; i < budget; ++i)
            push(setBlock(set, i % depth));
        break;
      }
      case 1: {
        // Sequential scan from a random base.
        const std::uint64_t base = rng_.below(64) * sets;
        for (std::size_t i = 0; i < budget; ++i)
            push(base + i);
        break;
      }
      case 2: {
        // Phase flip: tight hot loop, then a flushing scan, repeat.
        const unsigned set = unsigned(rng_.below(sets));
        const std::uint64_t hot = std::max<std::uint64_t>(
            1, rng_.below(assoc) + 1);
        std::size_t i = 0;
        while (i < budget) {
            for (std::size_t j = 0; j < 3 * assoc && i < budget;
                 ++j, ++i)
                push(setBlock(set, j % hot));
            for (std::size_t j = 0; j < 2 * assoc && i < budget;
                 ++j, ++i)
                push(setBlock(set, 100 + rng_.below(4 * assoc)));
        }
        break;
      }
      case 3: {
        // Partial-tag alias cluster: same set, folded tags collide
        // (exactly, for low-bit folding; adversarially close for
        // XOR folding), full tags distinct.
        const unsigned set = unsigned(rng_.below(sets));
        const unsigned bits =
            shape_.partialTagBits != 0 ? shape_.partialTagBits : 6;
        const std::uint64_t stride = std::uint64_t(1) << bits;
        const std::uint64_t base_tag = rng_.below(stride);
        const std::uint64_t cluster = assoc + 1 + rng_.below(assoc);
        for (std::size_t i = 0; i < budget; ++i)
            push(setBlock(set,
                          base_tag + rng_.below(cluster) * stride));
        break;
      }
      case 4: {
        // Hot/cold mix across all sets.
        const std::uint64_t capacity =
            std::uint64_t(sets) * assoc;
        for (std::size_t i = 0; i < budget; ++i) {
            if (rng_.chance(0.5))
                push(rng_.below(capacity / 2 + 1));
            else
                push(capacity + rng_.below(4 * capacity + 1));
        }
        break;
      }
      case 5: {
        // Frequency phase shift: hammer one small block group until
        // its sketch estimates saturate, then move the hot group and
        // only occasionally re-touch the old one. Long runs cross
        // several decay_half windows, so CMS-LFU eviction order and
        // TinyLFU admission verdicts must track the *aging* counts —
        // the motif that catches decay-scheduling bugs.
        const unsigned set = unsigned(rng_.below(sets));
        const std::uint64_t group = 1 + rng_.below(assoc);
        const std::uint64_t old_base = rng_.below(16) * group;
        const std::uint64_t new_base = old_base + group +
                                       rng_.below(8) * group;
        for (std::size_t i = 0; i < budget; ++i) {
            const bool shifted = i >= budget / 2;
            if (shifted && rng_.chance(0.1))
                push(setBlock(set, old_base + rng_.below(group)));
            else
                push(setBlock(set,
                              (shifted ? new_base : old_base) +
                                  rng_.below(group)));
        }
        break;
      }
      default: {
        // Uniform random over a working set a few times capacity.
        const std::uint64_t span =
            std::uint64_t(sets) * assoc * (2 + rng_.below(4));
        for (std::size_t i = 0; i < budget; ++i)
            push(rng_.below(span));
        break;
      }
    }
}

std::vector<Access>
TraceFuzzer::generate(std::size_t length)
{
    std::vector<Access> out;
    out.reserve(length);
    while (out.size() < length) {
        const std::size_t remaining = length - out.size();
        const std::size_t budget = std::min<std::size_t>(
            remaining, 8 * shape_.assoc + rng_.below(64));
        emitSegment(out, budget);
    }
    out.resize(length);
    return out;
}

std::vector<Access>
TraceFuzzer::shrink(const DifferentialChecker &checker,
                    std::vector<Access> failing)
{
    auto fails = [&](std::vector<Access> &candidate) {
        if (auto m = checker.run(candidate)) {
            // Everything after the divergence is irrelevant.
            if (m->index + 1 < candidate.size())
                candidate.resize(m->index + 1);
            return true;
        }
        return false;
    };

    return ddmin(std::move(failing), fails);
}

std::string
TraceFuzzer::toLiteral(const std::vector<Access> &stream)
{
    std::ostringstream out;
    out << "// " << stream.size() << " accesses\n";
    out << "static const Access kRepro[] = {\n";
    for (const Access &a : stream) {
        out << "    {0x" << std::hex << a.addr << std::dec << "ull, "
            << (a.write ? "true" : "false") << "},\n";
    }
    out << "};\n";
    return out.str();
}

} // namespace adcache
