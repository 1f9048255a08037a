#include "workloads/key_stream.hh"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <sstream>

#include "util/logging.hh"

namespace adcache
{

namespace
{

/** splitmix64 finalizer: a 64-bit bijection, so distinct (rank,
 *  drift) pairs always yield distinct keys. */
std::uint64_t
mix64(std::uint64_t v)
{
    std::uint64_t z = v + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

const char *
keyPatternName(KeyPattern pattern)
{
    switch (pattern) {
      case KeyPattern::Uniform:
        return "uniform";
      case KeyPattern::Zipf:
        return "zipf";
      case KeyPattern::Scan:
        return "scan";
      case KeyPattern::PhaseFlip:
        return "phase_flip";
    }
    return "?";
}

KeyStreamSpec
KeyStreamSpec::forClient(unsigned client, unsigned num_clients,
                         bool disjoint_slice) const
{
    adcache_assert(num_clients >= 1 && client < num_clients);
    KeyStreamSpec c = *this;
    c.numClients = num_clients;
    c.clientIndex = client;
    c.disjoint = disjoint_slice;
    c.seed = mix64(seed ^ (std::uint64_t(client) + 1));
    return c;
}

std::string
KeyStreamSpec::describe() const
{
    std::ostringstream out;
    out << keyPatternName(pattern);
    if (pattern == KeyPattern::Zipf || pattern == KeyPattern::PhaseFlip)
        out << "(" << skew << ")";
    out << "@" << keySpace;
    if (driftEvery)
        out << " drift/" << driftEvery;
    if (numClients > 1)
        out << " client " << clientIndex << "/" << numClients
            << (disjoint ? " disjoint" : "");
    return out.str();
}

std::string
ValueSpec::describe() const
{
    std::ostringstream out;
    if (minBytes == maxBytes)
        out << minBytes << "B";
    else
        out << minBytes << "-" << maxBytes << "B";
    return out.str();
}

std::size_t
valueSizeFor(std::uint64_t key, const ValueSpec &spec)
{
    adcache_assert(spec.minBytes <= spec.maxBytes);
    if (spec.minBytes == spec.maxBytes)
        return spec.minBytes;
    const std::uint64_t span = spec.maxBytes - spec.minBytes + 1;
    return spec.minBytes +
           std::size_t(mix64(key ^ 0x517e'5eedULL) % span);
}

std::string
valueFor(std::uint64_t key, const ValueSpec &spec)
{
    char header[24] = {'v'};
    char *end = std::to_chars(header + 1, header + sizeof header - 1,
                              key)
                    .ptr;
    *end++ = ':';
    const std::size_t head = std::size_t(end - header);
    const std::size_t size = std::max(valueSizeFor(key, spec), head);
    // Printable padding keeps report dumps and test failures
    // readable: byte i of it is 'a' + nibble (i mod 16) of
    // mix64(key), so it repeats every 16 bytes.
    char pattern[16];
    std::uint64_t fill = mix64(key);
    for (char &c : pattern) {
        c = char('a' + (fill & 15));
        fill >>= 4;
    }
    std::string v(size, '\0');
    std::memcpy(v.data(), header, head);
    for (std::size_t i = head; i < size; i += sizeof pattern)
        std::memcpy(v.data() + i, pattern,
                    std::min(sizeof pattern, size - i));
    return v;
}

KeyStream::KeyStream(const KeyStreamSpec &spec)
    : spec_(spec), rng_(spec.seed)
{
    adcache_assert(spec_.keySpace > 0);
    adcache_assert(spec_.numClients >= 1 &&
                   spec_.clientIndex < spec_.numClients);
    if (spec_.pattern == KeyPattern::Zipf ||
        spec_.pattern == KeyPattern::PhaseFlip) {
        // Above ~4M ranks the exact sampler's cumulative table costs
        // more memory than the cache under test; switch to the O(1)
        // Gray construction (same shape, bucket-level accuracy).
        constexpr std::uint64_t kTableMax = 1ULL << 22;
        if (rankSpace() <= kTableMax)
            zipf_ = std::make_unique<ZipfSampler>(rankSpace(),
                                                  spec_.skew);
        else
            zipfApprox_ = std::make_unique<ZipfApproxSampler>(
                rankSpace(), spec_.skew);
    }
    if (spec_.pattern == KeyPattern::PhaseFlip)
        adcache_assert(spec_.phasePeriod > 0);
}

std::uint64_t
KeyStream::rankSpace() const
{
    if (!spec_.disjoint || spec_.numClients <= 1)
        return spec_.keySpace;
    const std::uint64_t slice = spec_.keySpace / spec_.numClients;
    return slice > 0 ? slice : 1;
}

std::uint64_t
KeyStream::rankToKey(std::uint64_t rank) const
{
    // A disjoint client's ranks interleave across the key space
    // (global rank % numClients == clientIndex), the Nautilus-style
    // ownership split, before drift and scrambling apply.
    if (spec_.disjoint && spec_.numClients > 1)
        rank = rank * spec_.numClients + spec_.clientIndex;
    // Drift relocates the whole ranking by salting the mix; without
    // scrambling it becomes a plain shift so tests stay predictable.
    if (spec_.scramble)
        return mix64(rank + drift_ * spec_.keySpace);
    return rank + drift_ * spec_.keySpace;
}

std::uint64_t
KeyStream::drawZipf()
{
    return zipf_ ? (*zipf_)(rng_) : (*zipfApprox_)(rng_);
}

std::uint64_t
KeyStream::drawScan()
{
    const std::uint64_t span =
        spec_.scanSpan ? spec_.scanSpan : rankSpace();
    const std::uint64_t rank = scanPos_ % span;
    ++scanPos_;
    return rank;
}

bool
KeyStream::scanPhase() const
{
    return spec_.pattern == KeyPattern::PhaseFlip &&
           (pos_ / spec_.phasePeriod) % 2 == 1;
}

std::uint64_t
KeyStream::nextRank()
{
    if (spec_.driftEvery && pos_ > 0 && pos_ % spec_.driftEvery == 0)
        ++drift_;

    std::uint64_t rank = 0;
    switch (spec_.pattern) {
      case KeyPattern::Uniform:
        rank = rng_.below(rankSpace());
        break;
      case KeyPattern::Zipf:
        rank = drawZipf();
        break;
      case KeyPattern::Scan:
        rank = drawScan();
        break;
      case KeyPattern::PhaseFlip:
        rank = scanPhase() ? drawScan() : drawZipf();
        break;
    }
    ++pos_;
    return rank;
}

std::uint64_t
KeyStream::next()
{
    return rankToKey(nextRank());
}

void
KeyStream::reset()
{
    rng_ = Rng(spec_.seed);
    pos_ = 0;
    scanPos_ = 0;
    drift_ = 0;
}

} // namespace adcache
