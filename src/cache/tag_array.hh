/**
 * @file
 * Struct-of-arrays tag store: a contiguous tag-word array plus
 * per-set valid/dirty bitmasks for every numSets x assoc structure.
 * Used by the real cache and (with folded partial tags) by the shadow
 * tag structures of the adaptive scheme.
 *
 * For narrow stored tags (the partial-tag shadow arrays of Sec. 3.1)
 * the array additionally maintains a packed lane image of each set —
 * 8-bit lanes for tag widths up to 7, 16-bit lanes up to 15 — so a
 * whole 8-way set is probed with one or two 64-bit XOR/mask
 * operations instead of a per-way loop. Full-width tag arrays with
 * assoc <= 8 use the same SWAR test on 16-bit fingerprint lanes to
 * nominate candidate ways, verifying candidates against the full tag
 * row only on a fingerprint match. Lookup results are identical to
 * the linear scan: the lowest matching valid way wins. The lane
 * probes are free functions over a set's lane words, so the adaptive
 * cache's set rows (core/adaptive_cache.hh) probe with the same code.
 */

#ifndef ADCACHE_CACHE_TAG_ARRAY_HH
#define ADCACHE_CACHE_TAG_ARRAY_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "util/bits.hh"
#include "util/types.hh"

namespace adcache
{

/** "No such lane/way" result of the lane probes and TagArray. */
inline constexpr unsigned kNoLane = ~0u;

/**
 * SWAR zero-lane test over the 8- or 16-bit lanes of one word: the
 * high bit of each lane that may equal @p v is set, and the lowest
 * flagged lane is always a true match (see matchLanes16).
 */
template <unsigned LaneBits>
constexpr std::uint64_t
matchLanes(std::uint64_t lanes, std::uint64_t v)
{
    static_assert(LaneBits == 8 || LaneBits == 16);
    if constexpr (LaneBits == 16) {
        return matchLanes16(lanes, v);
    } else {
        constexpr std::uint64_t ones = 0x0101010101010101ULL;
        constexpr std::uint64_t high = 0x8080808080808080ULL;
        const std::uint64_t x = lanes ^ (v * ones);
        return (x - ones) & ~x & high;
    }
}

/**
 * Lowest lane of the @p n lane words at @p w equal to @p v, or
 * kNoLane. Lane i lives in word i / (64 / LaneBits). Exact, because
 * each word's lowest flagged lane is a true match; lanes that must
 * never match hold a value no probe takes (the all-ones filler).
 */
template <unsigned LaneBits>
inline unsigned
firstEqualLane(const std::uint64_t *w, unsigned n, std::uint64_t v)
{
    for (unsigned i = 0; i < n; ++i) {
        const std::uint64_t m = matchLanes<LaneBits>(w[i], v);
        if (m)
            return i * (64 / LaneBits) +
                   unsigned(std::countr_zero(m)) / LaneBits;
    }
    return kNoLane;
}

/**
 * Lowest lane of the @p n lane words at @p w that may equal @p v and
 * passes @p verify(lane), or kNoLane: fingerprint lanes nominate
 * candidates in ascending order, and @p verify — which must imply
 * lane equality, e.g. a full-tag compare under the valid mask —
 * rejects aliases, invalid lanes and borrow artifacts.
 */
template <unsigned LaneBits, class Verify>
inline unsigned
firstVerifiedLane(const std::uint64_t *w, unsigned n, std::uint64_t v,
                  Verify verify)
{
    for (unsigned i = 0; i < n; ++i) {
        for (std::uint64_t m = matchLanes<LaneBits>(w[i], v); m;
             m &= m - 1) {
            const unsigned lane =
                i * (64 / LaneBits) +
                unsigned(std::countr_zero(m)) / LaneBits;
            if (verify(lane))
                return lane;
        }
    }
    return kNoLane;
}

/**
 * Tags for a numSets x assoc structure. The array stores whatever tag
 * value the caller provides — full tags or partial (folded) tags —
 * and has no knowledge of address decomposition.
 *
 * Hot-path queries return a way index or kNoWay; no optionals.
 */
class TagArray
{
  public:
    /** Sentinel "no such way" result of lookup()/invalidWay(). */
    static constexpr unsigned kNoWay = kNoLane;

    /**
     * @param num_sets number of sets (>= 1).
     * @param assoc    ways per set (1..64; bitmask representation).
     * @param tag_bits width of the stored tags when known to be
     *                 narrow (partial/folded tags); 0 means full
     *                 tags. Widths 1..15 with assoc <= 8 enable the
     *                 packed probe path.
     */
    TagArray(unsigned num_sets, unsigned assoc, unsigned tag_bits = 0);

    /** Way holding @p tag in @p set, or kNoWay. */
    unsigned
    lookup(unsigned set, Addr tag) const
    {
        if (laneBits_ == 8)
            return lookupPacked8(set, tag);
        if (laneBits_ == 16)
            return lookupPacked16(set, tag);
        if (fpProbe_)
            return lookupFp(set, tag);
        return lookupScan(set, tag);
    }

    /** Lowest invalid way in @p set, or kNoWay when the set is full. */
    unsigned
    invalidWay(unsigned set) const
    {
        const unsigned w = unsigned(std::countr_one(valid_[set]));
        return w < assoc_ ? w : kNoWay;
    }

    /** True iff every way in @p set is valid. */
    bool setFull(unsigned set) const { return valid_[set] == fullMask_; }

    /**
     * Stored tag of (set, way). Meaningful only while valid. In
     * packed mode the lane image is the sole tag store (an invalid
     * lane reads back as the all-ones filler, never a stored tag).
     */
    Addr
    tag(unsigned set, unsigned way) const
    {
        if (laneBits_ == 8)
            return (lanes_[set] >> (way * 8)) & 0xFF;
        if (laneBits_ == 16)
            return (lanes_[std::size_t(set) * 2 + way / 4] >>
                    ((way & 3) * 16)) &
                   0xFFFF;
        return tags_[index(set, way)];
    }

    bool
    valid(unsigned set, unsigned way) const
    {
        return (valid_[set] >> way) & 1;
    }

    bool
    dirty(unsigned set, unsigned way) const
    {
        return (dirty_[set] >> way) & 1;
    }

    /** Bitmask of valid ways in @p set (bit w = way w). */
    std::uint64_t validMask(unsigned set) const { return valid_[set]; }

    /** Mark (set, way) dirty. @pre the way is valid. */
    void
    markDirty(unsigned set, unsigned way)
    {
        dirty_[set] |= std::uint64_t{1} << way;
    }

    /** Install @p tag into (set, way), marking it valid and clean. */
    void
    fill(unsigned set, unsigned way, Addr tag)
    {
        valid_[set] |= std::uint64_t{1} << way;
        dirty_[set] &= ~(std::uint64_t{1} << way);
        if (laneBits_ != 0) {
            setLane(set, way, std::uint64_t(tag));
        } else {
            tags_[index(set, way)] = tag;
            if (fpProbe_)
                setFpLane(set, way, tag);
        }
    }

    /** Invalidate (set, way). */
    void
    invalidate(unsigned set, unsigned way)
    {
        valid_[set] &= ~(std::uint64_t{1} << way);
        dirty_[set] &= ~(std::uint64_t{1} << way);
        if (laneBits_ != 0)
            setLane(set, way, emptyLane_);
        else
            tags_[index(set, way)] = 0;
    }

    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

    /** True when the packed SWAR probe path is active. */
    bool packedProbe() const { return laneBits_ != 0; }

    /** Count of valid entries across the whole array (popcounts). */
    std::uint64_t validCount() const;

  private:
    std::size_t
    index(unsigned set, unsigned way) const
    {
        return std::size_t(set) * assoc_ + way;
    }

    unsigned
    lookupScan(unsigned set, Addr tag) const
    {
        // Branchless: compare every way (invalid slots hold 0 and are
        // masked out), then pick the lowest match. An early-exit loop
        // mispredicts once per lookup at a random match position;
        // eight flag-setting compares cost less.
        const Addr *t = &tags_[std::size_t(set) * assoc_];
        std::uint64_t match = 0;
        for (unsigned w = 0; w < assoc_; ++w)
            match |= std::uint64_t(t[w] == tag) << w;
        match &= valid_[set];
        return match ? unsigned(std::countr_zero(match)) : kNoWay;
    }

    /*
     * SWAR zero-lane detection (the lane probes above): the *lowest*
     * flagged lane is always a true match. Invalid (and absent, when
     * assoc < lanes) lanes hold the all-ones lane value, which no
     * probe narrower than the lane can equal, so they never produce a
     * genuine zero.
     */
    unsigned
    lookupPacked8(unsigned set, Addr tag) const
    {
        if (tag >> tagBits_)
            return kNoWay;  // wider than any stored folded tag
        return firstEqualLane<8>(&lanes_[set], 1, tag);
    }

    unsigned
    lookupPacked16(unsigned set, Addr tag) const
    {
        if (tag >> tagBits_)
            return kNoWay;
        return firstEqualLane<16>(&lanes_[std::size_t(set) * 2], 2, tag);
    }

    /*
     * Two-level probe for full-width tags (assoc <= 8): 16-bit
     * fingerprint lanes nominate candidate ways, then each candidate
     * (ascending, so the lowest true match wins) is verified against
     * the stored full tag. The valid mask filters invalid lanes and
     * keeps the t[w] read in bounds for the unused lanes of sets
     * narrower than 8 ways. On the common miss the probe never
     * touches the full tag row at all.
     */
    unsigned
    lookupFp(unsigned set, Addr tag) const
    {
        const Addr *t = &tags_[std::size_t(set) * assoc_];
        const std::uint64_t valid = valid_[set];
        return firstVerifiedLane<16>(
            &fp_[std::size_t(set) * 2], 2, std::uint64_t(tag) & 0xFFFF,
            [&](unsigned w) { return ((valid >> w) & 1) && t[w] == tag; });
    }

    void
    setFpLane(unsigned set, unsigned way, Addr tag)
    {
        const unsigned shift = (way & 3) * 16;
        std::uint64_t &w64 = fp_[std::size_t(set) * 2 + way / 4];
        w64 = (w64 & ~(std::uint64_t{0xFFFF} << shift)) |
              ((std::uint64_t(tag) & 0xFFFF) << shift);
    }

    void
    setLane(unsigned set, unsigned way, std::uint64_t value)
    {
        if (laneBits_ == 8) {
            const unsigned shift = way * 8;
            std::uint64_t &w64 = lanes_[set];
            w64 = (w64 & ~(std::uint64_t{0xFF} << shift)) |
                  (value << shift);
        } else {
            const unsigned shift = (way & 3) * 16;
            std::uint64_t &w64 = lanes_[std::size_t(set) * 2 + way / 4];
            w64 = (w64 & ~(std::uint64_t{0xFFFF} << shift)) |
                  (value << shift);
        }
    }

    unsigned numSets_;
    unsigned assoc_;
    unsigned tagBits_;
    unsigned laneBits_ = 0;      //!< 0 (scan), 8, or 16
    bool fpProbe_ = false;       //!< fingerprint probe for full tags
    std::uint64_t emptyLane_ = 0;
    std::uint64_t fullMask_;
    std::vector<Addr> tags_;             // set-major; empty if packed
    std::vector<std::uint64_t> valid_;   // one mask per set
    std::vector<std::uint64_t> dirty_;   // one mask per set
    std::vector<std::uint64_t> lanes_;   // packed tag store (1-2 w/set)
    std::vector<std::uint64_t> fp_;      // fingerprint lanes (2 w/set)
};

} // namespace adcache

#endif // ADCACHE_CACHE_TAG_ARRAY_HH
