#include "adapt/sketch.hh"

#include "util/bits.hh"

namespace adcache::adapt
{

SketchParams
SketchParams::forGeometry(unsigned num_sets, unsigned assoc)
{
    adcache_assert(num_sets >= 1 && assoc >= 1);
    SketchParams p;
    std::uint64_t want = std::uint64_t(4) * num_sets * assoc;
    if (want < 64)
        want = 64;
    if (want > 4096)
        want = 4096;
    unsigned width = 64;
    while (width < want)
        width <<= 1;
    p.width = width;
    p.decayEvery = std::uint64_t(16) * width;
    return p;
}

CountMinSketch::CountMinSketch(const SketchParams &params)
    : params_(params), untilDecay_(params.decayEvery)
{
    adcache_assert(params_.width >= 2 && isPowerOfTwo(params_.width));
    adcache_assert(params_.rows >= 1 && params_.rows <= 4);
    adcache_assert(std::uint64_t(params_.rows) * params_.width <= 0x10000);
    adcache_assert(params_.counterMax >= 1);
    adcache_assert(params_.decayEvery >= 1);
    cells_.assign(std::size_t(params_.rows) * params_.width, 0);
}

void
CountMinSketch::decayHalf()
{
    for (std::uint8_t &cell : cells_)
        cell = std::uint8_t(cell >> 1);
    ++decays_;
}

} // namespace adcache::adapt
