/**
 * @file
 * Frequency sketches for the adaptive engine's approximate-LFU
 * component and TinyLFU admission filter (ROADMAP item 2; cf.
 * "Analyzing Adaptive Cache Replacement Strategies" and AWRP in
 * PAPERS.md).
 *
 * A Count-Min sketch estimates per-key reference frequency in O(1)
 * memory: `rows` hash rows of `width` saturating counters; add()
 * increments one counter per row, estimate() takes the row minimum
 * (an over-approximation — collisions only inflate). Every
 * `decayEvery` adds all counters are halved (`decay_half`), so stale
 * popularity ages out and the sketch tracks the *recent* frequency
 * distribution — the property both CMS-LFU eviction and TinyLFU
 * admission depend on under phase changes.
 *
 * The row hash and parameter derivation below are the spec shared
 * with the oracle models in src/oracle/ref_sketch.hh: both sides
 * call sketchRowHash()/SketchParams::forGeometry() so production and
 * reference sketches index the same cells in the same order and stay
 * bit-identical under lockstep.
 */

#ifndef ADCACHE_ADAPT_SKETCH_HH
#define ADCACHE_ADAPT_SKETCH_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace adcache::adapt
{

/**
 * Row hash of the sketch spec: splitmix64 finalizer over the key,
 * offset per row so rows are independent. Deterministic and
 * seed-stable across platforms.
 */
constexpr std::uint64_t
sketchRowHash(std::uint64_t key, unsigned row, std::uint64_t seed)
{
    std::uint64_t z =
        key + seed + (std::uint64_t(row) + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Sketch key of one resident entry: the set/bucket index composed
 * into the (folded) tag so equal tags in different sets count as
 * distinct keys. Part of the shared spec.
 */
constexpr std::uint64_t
sketchEntryKey(std::uint64_t tag, unsigned set, unsigned set_bits)
{
    return (tag << set_bits) | set;
}

/** Geometry-derived sketch dimensions (the shared spec). */
struct SketchParams {
    unsigned width = 1024;  ///< counters per row; power of two
    /** 1..4, with rows * width <= 2^16: a key's four cell indices
     *  pack into one 64-bit word (SketchColumns). */
    unsigned rows = 4;
    std::uint8_t counterMax = 15; ///< saturation ceiling per counter
    std::uint64_t decayEvery = 16 * 1024; ///< adds between decay_half
    std::uint64_t seed = 0x51e7c4a11dULL;

    /**
     * Standard sizing for a structure of @p num_sets x @p assoc
     * entries: width = next power of two >= 4x the entry count,
     * clamped to [64, 4096]; one decay_half per 16*width adds. Small
     * geometries (the lockstep shapes) decay every few thousand
     * accesses, so fuzz runs cross several decay windows.
     */
    static SketchParams forGeometry(unsigned num_sets, unsigned assoc);
};

/**
 * The cells a key maps to, one per sketch row, as indices into the
 * row-major cell array (row * width + the row's hashed column), 16
 * bits a row: row r in bits [16r, 16r + 16). Hashing a key once into
 * its columns serves every later add or estimate of the same key.
 */
struct SketchColumns {
    std::uint64_t packed = 0;

    unsigned
    cell(unsigned row) const
    {
        return unsigned(packed >> (16 * row)) & 0xFFFFu;
    }
};

/** Count-Min sketch with saturating counters and periodic decay. */
class CountMinSketch
{
  public:
    explicit CountMinSketch(const SketchParams &params);

    /** The cells @p key maps to: one sketchRowHash per row. */
    SketchColumns
    columns(std::uint64_t key) const
    {
        const unsigned rows = params_.rows;
        const std::uint64_t width = params_.width;
        const std::uint64_t seed = params_.seed;
        SketchColumns c;
        for (unsigned r = 0; r < rows; ++r)
            c.packed |= (r * width +
                         (sketchRowHash(key, r, seed) & (width - 1)))
                        << (16 * r);
        return c;
    }

    /** Count one reference to @p key; may trigger decay_half. */
    void add(std::uint64_t key) { add(columns(key)); }

    /** add() of the key whose columns are @p c. */
    void
    add(SketchColumns c)
    {
        // Locals: the byte stores below may alias any member.
        std::uint8_t *cells = cells_.data();
        const unsigned rows = params_.rows;
        const std::uint8_t max = params_.counterMax;
        for (unsigned r = 0; r < rows; ++r) {
            std::uint8_t &cell = cells[c.cell(r)];
            cell = std::uint8_t(cell < max ? cell + 1 : cell);
        }
        ++adds_;
        if (--untilDecay_ == 0) {
            untilDecay_ = params_.decayEvery;
            decayHalf();
        }
    }

    /** Frequency estimate: minimum over the key's row counters. */
    std::uint32_t
    estimate(std::uint64_t key) const
    {
        return estimate(columns(key));
    }

    /** estimate() of the key whose columns are @p c. */
    std::uint32_t
    estimate(SketchColumns c) const
    {
        const std::uint8_t *cells = cells_.data();
        std::uint32_t est = params_.counterMax;
        for (unsigned r = 0; r < params_.rows; ++r)
            est = std::min<std::uint32_t>(est, cells[c.cell(r)]);
        return est;
    }

    /** Halve every counter (aging). Public for tests. */
    void decayHalf();

    const SketchParams &params() const { return params_; }
    std::uint64_t adds() const { return adds_; }
    std::uint64_t decays() const { return decays_; }

  private:
    SketchParams params_;
    std::vector<std::uint8_t> cells_; ///< rows x width, row-major
    std::uint64_t adds_ = 0;
    /** Adds left until the next scheduled decay_half: the schedule
     *  of "every decayEvery-th add" without a divide per add. */
    std::uint64_t untilDecay_;
    std::uint64_t decays_ = 0;
};

/**
 * TinyLFU admission filter: a frequency doorkeeper in front of a
 * cache. Every candidate key is touch()ed on access; on a full-set
 * miss the owner asks admit(candidate, victim) and *bypasses* the
 * fill when the candidate's estimated frequency does not strictly
 * exceed the victim's — the incumbent keeps its slot on ties, so a
 * scan cannot displace an established working set.
 */
class TinyLfuAdmission
{
  public:
    explicit TinyLfuAdmission(const SketchParams &params)
        : sketch_(params)
    {
    }

    /**
     * Record one reference to @p key (call once per access); returns
     * the key's columns, for this access's admit().
     */
    SketchColumns
    touch(std::uint64_t key)
    {
        const SketchColumns c = sketch_.columns(key);
        sketch_.add(c);
        return c;
    }

    /** True iff the candidate touch() returned @p candidate for
     *  should displace @p victim. */
    bool
    admit(SketchColumns candidate, std::uint64_t victim) const
    {
        return sketch_.estimate(candidate) > sketch_.estimate(victim);
    }

    /** True iff @p candidate should displace @p victim. */
    bool
    admit(std::uint64_t candidate, std::uint64_t victim) const
    {
        return admit(sketch_.columns(candidate), victim);
    }

    const CountMinSketch &sketch() const { return sketch_; }

  private:
    CountMinSketch sketch_;
};

} // namespace adcache::adapt

#endif // ADCACHE_ADAPT_SKETCH_HH
