/**
 * @file
 * Replacement-policy state for a whole cache, and the simulator's only
 * implementation of each policy: one concrete *Sets class per
 * algorithm keeps each set's metadata in a few 64-bit words
 * (util/set_words.hh) — its own array when it stands alone, or its
 * words of a host's set rows (AdaptiveCache) — and PolicySet wraps
 * them in a variant so the caller pays one dispatch per access —
 * visit() once, then every onFill/onHit/victim call inside the access
 * body is a direct, inlinable call.
 *
 * Every policy takes the same hooks: onFill(set, way, tag),
 * onHit(set, way, tag), onInvalidate(set, way), victim(set),
 * evictFill(set, tag) and peekVictim(set). Only CMS-LFU reads the tag.
 * tests/cache/policy_sets_test.cc checks each policy against its naive
 * model in oracle/ref_policy.cc (Random against a twin Rng), and the
 * differential oracle verifies the composed caches end to end.
 */

#ifndef ADCACHE_CACHE_POLICY_SETS_HH
#define ADCACHE_CACHE_POLICY_SETS_HH

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <variant>
#include <vector>

#include "adapt/sketch.hh"
#include "cache/replacement.hh"
#include "util/bits.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/set_words.hh"

namespace adcache
{

/**
 * Per-set event stamps packed into one 64-bit word of 8-bit lanes
 * (assoc <= 8), with an 8-bit per-set clock in a second word. Victim
 * scans only ever compare stamps *within* a set, and nonzero stamps
 * of a set are pairwise distinct, so when the clock would wrap past
 * 255 the lanes renormalize to their ranks — an order-preserving
 * compression that leaves every victim choice identical to unbounded
 * 64-bit stamps (zero lanes, the "never used / invalidated" marker,
 * stay zero).
 *
 * The packing is what makes recency metadata L1-resident: two words
 * per set instead of 8 * 8 + 8 bytes.
 */
class StampLanes8
{
  public:
    /** Words per set: the lane word, then the clock word. */
    static constexpr unsigned kWords = 2;

    StampLanes8(SetWords words, unsigned assoc)
        : words_(words), assoc_(assoc)
    {
        adcache_assert(assoc >= 1 && assoc <= 8);
    }

    /** Stamp (set, way) with the set's next event number. */
    void
    bump(unsigned set, unsigned way)
    {
        std::uint64_t *w = words_.at(set);
        unsigned c = unsigned(w[1]) + 1u;
        if (c > 0xFF)
            c = renormalize(w) + 1u;
        w[1] = c;
        setLane(w, way, c);
    }

    void clear(unsigned set, unsigned way) { setLane(words_.at(set), way, 0); }

    std::uint8_t
    stamp(unsigned set, unsigned way) const
    {
        return std::uint8_t(words_.at(set)[0] >> (way * 8));
    }

    /** Lowest way with the strictly smallest stamp. */
    unsigned minWay(unsigned set) const { return minOf(words_.at(set)[0]); }

    /** Lowest way with the strictly largest stamp. */
    unsigned maxWay(unsigned set) const { return maxOf(words_.at(set)[0]); }

    /**
     * Fused victim-select + restamp for the eviction path: pick the
     * min (PickMax false) or max lane and stamp it with the set's
     * next event number, loading and storing the lane word once.
     * Equivalent to minWay/maxWay followed by bump on the result.
     */
    template <bool PickMax>
    unsigned
    evictBump(unsigned set)
    {
        std::uint64_t *w = words_.at(set);
        const std::uint64_t w64 = w[0];
        const unsigned way = PickMax ? maxOf(w64) : minOf(w64);
        unsigned c = unsigned(w[1]) + 1u;
        if (c > 0xFF) {
            c = renormalize(w) + 1u;
            w[1] = c;
            setLane(w, way, c);
            return way;
        }
        w[1] = c;
        const unsigned shift = way * 8;
        w[0] = (w64 & ~(std::uint64_t{0xFF} << shift)) |
               (std::uint64_t(c) << shift);
        return way;
    }

  private:
    unsigned
    minOf(std::uint64_t w64) const
    {
        if (assoc_ == 8) {
            // Depth-3 cmov tournament over stamp<<3|way keys, fully
            // unrolled so every key lives in a register (a runtime-
            // bounded key array spills to the stack and loses). The
            // way in the low bits makes ties resolve to the lowest
            // way, exactly like the serial first-occurrence scan.
            const auto key = [w64](unsigned w) {
                return ((unsigned(w64 >> (w * 8)) & 0xFFu) << 3) | w;
            };
            const unsigned a = std::min(key(0), key(1));
            const unsigned b = std::min(key(2), key(3));
            const unsigned c = std::min(key(4), key(5));
            const unsigned d = std::min(key(6), key(7));
            return std::min(std::min(a, b), std::min(c, d)) & 7;
        }
        unsigned best = 0;
        std::uint8_t best_v = std::uint8_t(w64);
        for (unsigned w = 1; w < assoc_; ++w) {
            const std::uint8_t v = std::uint8_t(w64 >> (w * 8));
            if (v < best_v) {
                best_v = v;
                best = w;
            }
        }
        return best;
    }

    unsigned
    maxOf(std::uint64_t w64) const
    {
        if (assoc_ == 8) {
            // Max tournament; 7-way in the low bits so equal stamps
            // resolve to the lowest way on a max compare.
            const auto key = [w64](unsigned w) {
                return ((unsigned(w64 >> (w * 8)) & 0xFFu) << 3) |
                       (7 - w);
            };
            const unsigned a = std::max(key(0), key(1));
            const unsigned b = std::max(key(2), key(3));
            const unsigned c = std::max(key(4), key(5));
            const unsigned d = std::max(key(6), key(7));
            return 7 -
                   (std::max(std::max(a, b), std::max(c, d)) & 7);
        }
        unsigned best = 0;
        std::uint8_t best_v = std::uint8_t(w64);
        for (unsigned w = 1; w < assoc_; ++w) {
            const std::uint8_t v = std::uint8_t(w64 >> (w * 8));
            if (v > best_v) {
                best_v = v;
                best = w;
            }
        }
        return best;
    }

    /** Compress stamps to ranks 1..n; @return the new clock value. */
    unsigned
    renormalize(std::uint64_t *w) const
    {
        const std::uint64_t w64 = w[0];
        std::uint64_t out = 0;
        unsigned used = 0;
        for (unsigned l = 0; l < assoc_; ++l) {
            const std::uint8_t v = std::uint8_t(w64 >> (l * 8));
            if (v == 0)
                continue;
            unsigned rank = 1;
            for (unsigned o = 0; o < assoc_; ++o) {
                const std::uint8_t ov = std::uint8_t(w64 >> (o * 8));
                rank += unsigned(ov != 0 && ov < v);
            }
            out |= std::uint64_t(rank) << (l * 8);
            ++used;
        }
        w[0] = out;
        return used;
    }

    static void
    setLane(std::uint64_t *w, unsigned way, unsigned value)
    {
        const unsigned shift = way * 8;
        w[0] = (w[0] & ~(std::uint64_t{0xFF} << shift)) |
               (std::uint64_t(value) << shift);
    }

    SetWords words_;
    unsigned assoc_;
};

/**
 * Per-set event stamps, stored by associativity: packed StampLanes8
 * lanes when assoc <= 8, else one 64-bit stamp per way and a 64-bit
 * per-set clock. Every stamp-ordered policy keeps its order here, and
 * both forms give every scan the same answer: zero marks a never-used
 * or invalidated way, a set's nonzero stamps are pairwise distinct,
 * and lane renormalization preserves their order.
 */
class StampStore
{
  public:
    static unsigned
    wordsPerSet(unsigned assoc)
    {
        return assoc <= 8 ? StampLanes8::kWords : assoc + 1;
    }

    StampStore(SetWords words, unsigned assoc)
        : words_(words), assoc_(assoc), packed_(assoc <= 8),
          lanes_(words, packed_ ? assoc : 1)
    {
    }

    /** Stamp (set, way) with the set's next event number. */
    void
    bump(unsigned set, unsigned way)
    {
        if (packed_) {
            lanes_.bump(set, way);
        } else {
            std::uint64_t *s = words_.at(set);
            s[way] = ++s[assoc_];
        }
    }

    void
    clear(unsigned set, unsigned way)
    {
        if (packed_)
            lanes_.clear(set, way);
        else
            words_.at(set)[way] = 0;
    }

    /** Lowest way with the smallest (PickMax false) or largest stamp. */
    template <bool PickMax>
    unsigned
    pick(unsigned set) const
    {
        if (packed_)
            return PickMax ? lanes_.maxWay(set) : lanes_.minWay(set);
        const std::uint64_t *s = words_.at(set);
        unsigned best = 0;
        for (unsigned w = 1; w < assoc_; ++w)
            if (PickMax ? s[w] > s[best] : s[w] < s[best])
                best = w;
        return best;
    }

    /** pick<PickMax> followed by bump on the chosen way. */
    template <bool PickMax>
    unsigned
    evictBump(unsigned set)
    {
        if (packed_)
            return lanes_.evictBump<PickMax>(set);
        const unsigned way = pick<PickMax>(set);
        bump(set, way);
        return way;
    }

    /**
     * Lowest way with the least rank(way), ties to the oldest stamp.
     * rank(way) must be below 2^24; it is called once per way.
     */
    template <class Rank>
    unsigned
    minRanked(unsigned set, Rank rank) const
    {
        if (packed_) {
            // Branchless: (rank << 8 | stamp) << 3 | way orders
            // exactly like "rank, tie-broken by older stamp, then
            // lower way", so a min over the keys (conditional moves,
            // no data-dependent branch) picks what the first-wins
            // scan would.
            const std::uint64_t s = words_.at(set)[0];
            std::uint64_t best = ~std::uint64_t{0};
            for (unsigned w = 0; w < assoc_; ++w) {
                const std::uint64_t key =
                    ((std::uint64_t(rank(w)) << 8 | ((s >> (8 * w)) & 0xFF))
                     << 3) |
                    w;
                best = std::min(best, key);
            }
            return unsigned(best & 7);
        }
        const std::uint64_t *s = words_.at(set);
        unsigned best = 0;
        unsigned best_rank = rank(0);
        for (unsigned w = 1; w < assoc_; ++w) {
            const unsigned r = rank(w);
            if (r < best_rank || (r == best_rank && s[w] < s[best])) {
                best_rank = r;
                best = w;
            }
        }
        return best;
    }

  private:
    SetWords words_;
    unsigned assoc_;
    bool packed_;
    StampLanes8 lanes_;
};

/** The words of @p w after the first @p offset of every set. */
inline SetWords
afterWords(SetWords w, unsigned offset)
{
    return {w.base + offset, w.stride};
}

/** Words of one byte lane per way. */
inline unsigned
byteLaneWords(unsigned assoc)
{
    return (assoc + 7) / 8;
}

/** A set's byte lanes, one per way, in its first words. The words
 *  are std::uint64_t objects, read and written here as bytes. */
inline std::uint8_t *
byteLanes(SetWords w, unsigned set)
{
    return reinterpret_cast<std::uint8_t *>(w.at(set));
}

/**
 * Stamp-ordered policies: the victim is the way with the oldest stamp
 * (or the newest, for EvictNewest), and a fill always restamps. LRU
 * and MRU also restamp on a hit, and MRU evicts the newest; FIFO
 * ignores hits.
 */
template <bool EvictNewest, bool RefreshOnHit>
class StampOrderSets
{
  public:
    static unsigned
    wordsPerSet(unsigned assoc)
    {
        return StampStore::wordsPerSet(assoc);
    }

    StampOrderSets(SetWords words, unsigned, unsigned assoc, Rng *)
        : stamps_(words, assoc)
    {
    }

    void
    onFill(unsigned set, unsigned way, std::uint64_t)
    {
        stamps_.bump(set, way);
    }

    void
    onHit(unsigned set, unsigned way, std::uint64_t)
    {
        if constexpr (RefreshOnHit)
            stamps_.bump(set, way);
    }

    void onInvalidate(unsigned set, unsigned way) { stamps_.clear(set, way); }

    unsigned victim(unsigned set) { return peekVictim(set); }

    /** Fused victim + onFill on the chosen way (see PolicySet). */
    unsigned
    evictFill(unsigned set, std::uint64_t)
    {
        return stamps_.evictBump<EvictNewest>(set);
    }

    unsigned
    peekVictim(unsigned set) const
    {
        return stamps_.pick<EvictNewest>(set);
    }

  private:
    StampStore stamps_;
};

using LruSets = StampOrderSets<false, true>;
using MruSets = StampOrderSets<true, true>;
using FifoSets = StampOrderSets<false, false>;

/**
 * LFU with 5-bit saturating frequency counters (Table 1), one byte
 * lane per way. A fill resets the counter to 1; hits increment.
 * Victim is the minimum count, tie-broken by oldest fill.
 */
class LfuSets
{
  public:
    static constexpr unsigned counterBits = 5;
    static constexpr std::uint8_t counterMax = (1u << counterBits) - 1;

    static unsigned
    wordsPerSet(unsigned assoc)
    {
        return byteLaneWords(assoc) + StampStore::wordsPerSet(assoc);
    }

    LfuSets(SetWords words, unsigned, unsigned assoc, Rng *)
        : count_(words),
          fills_(afterWords(words, byteLaneWords(assoc)), assoc)
    {
    }

    void
    onFill(unsigned set, unsigned way, std::uint64_t)
    {
        byteLanes(count_, set)[way] = 1;
        fills_.bump(set, way);
    }

    void
    onHit(unsigned set, unsigned way, std::uint64_t)
    {
        std::uint8_t &c = byteLanes(count_, set)[way];
        if (c < counterMax)
            ++c;
    }

    void
    onInvalidate(unsigned set, unsigned way)
    {
        byteLanes(count_, set)[way] = 0;
        fills_.clear(set, way);
    }

    unsigned victim(unsigned set) { return peekVictim(set); }

    /** Fused victim + onFill on the chosen way (see PolicySet). */
    unsigned
    evictFill(unsigned set, std::uint64_t tag)
    {
        const unsigned way = peekVictim(set);
        onFill(set, way, tag);
        return way;
    }

    unsigned
    peekVictim(unsigned set) const
    {
        const std::uint8_t *c = byteLanes(count_, set);
        return fills_.minRanked(set, [c](unsigned w) { return c[w]; });
    }

  private:
    SetWords count_; // byte lanes
    StampStore fills_;
};

/**
 * Random replacement. The upcoming victim is drawn lazily per set and
 * cached so peekVictim() agrees with the following victim() call;
 * draws come from the shared Rng in the order sets first ask for a
 * victim. A set's word holds the drawn way plus a drawn flag.
 */
class RandomSets
{
  public:
    static unsigned wordsPerSet(unsigned) { return 1; }

    RandomSets(SetWords words, unsigned, unsigned assoc, Rng *rng)
        : words_(words), assoc_(assoc), rng_(rng)
    {
        adcache_assert(rng != nullptr);
    }

    void onFill(unsigned, unsigned, std::uint64_t) {}
    void onHit(unsigned, unsigned, std::uint64_t) {}
    void onInvalidate(unsigned, unsigned) {}

    unsigned
    victim(unsigned set)
    {
        const unsigned v = peekVictim(set);
        words_.at(set)[0] = 0;
        return v;
    }

    /** Fused victim + onFill on the chosen way (see PolicySet). */
    unsigned evictFill(unsigned set, std::uint64_t) { return victim(set); }

    unsigned
    peekVictim(unsigned set) const
    {
        std::uint64_t &pending = words_.at(set)[0];
        if (!(pending & kDrawn))
            pending = kDrawn | rng_->below(assoc_);
        return unsigned(pending & 0xFF);
    }

  private:
    static constexpr std::uint64_t kDrawn = 0x100;

    SetWords words_;
    unsigned assoc_;
    Rng *rng_;
};

/**
 * Tree pseudo-LRU over a power-of-two associativity; each set's
 * heap-indexed tree bits live in one 64-bit word (bit k = node k,
 * set means "victim is in right half").
 */
class TreePlruSets
{
  public:
    static unsigned wordsPerSet(unsigned) { return 1; }

    TreePlruSets(SetWords words, unsigned, unsigned assoc, Rng *)
        : words_(words), assoc_(assoc)
    {
        adcache_assert(isPowerOfTwo(assoc) && assoc <= 64);
    }

    void onFill(unsigned set, unsigned way, std::uint64_t) { touch(set, way); }
    void onHit(unsigned set, unsigned way, std::uint64_t) { touch(set, way); }
    void onInvalidate(unsigned, unsigned) {}

    unsigned victim(unsigned set) { return peekVictim(set); }

    /** Fused victim + onFill on the chosen way (see PolicySet). */
    unsigned
    evictFill(unsigned set, std::uint64_t)
    {
        const unsigned way = peekVictim(set);
        touch(set, way);
        return way;
    }

    unsigned
    peekVictim(unsigned set) const
    {
        if (assoc_ == 1)
            return 0;
        const std::uint64_t b = words_.at(set)[0];
        unsigned node = 0;
        unsigned lo = 0, span = assoc_;
        while (span > 1) {
            const bool right = (b >> node) & 1;
            span /= 2;
            if (right)
                lo += span;
            node = 2 * node + (right ? 2 : 1);
        }
        return lo;
    }

  private:
    void
    touch(unsigned set, unsigned way)
    {
        if (assoc_ == 1)
            return;
        std::uint64_t &bits = words_.at(set)[0];
        std::uint64_t b = bits;
        unsigned node = 0;
        unsigned lo = 0, span = assoc_;
        while (span > 1) {
            span /= 2;
            const bool in_right = way >= lo + span;
            // Point away from the touched half.
            if (in_right) {
                b &= ~(std::uint64_t{1} << node);
                lo += span;
            } else {
                b |= std::uint64_t{1} << node;
            }
            node = 2 * node + (in_right ? 2 : 1);
        }
        bits = b;
    }

    SetWords words_;
    unsigned assoc_;
};

/** Static RRIP with 2-bit re-reference prediction values. */
class SrripSets
{
  public:
    static constexpr std::uint8_t maxRrpv = 3;

    static unsigned wordsPerSet(unsigned assoc) { return byteLaneWords(assoc); }

    SrripSets(SetWords words, unsigned num_sets, unsigned assoc, Rng *)
        : rrpv_(words), assoc_(assoc)
    {
        adcache_assert(assoc <= 64);
        for (unsigned s = 0; s < num_sets; ++s)
            for (unsigned w = 0; w < assoc; ++w)
                byteLanes(rrpv_, s)[w] = maxRrpv;
    }

    void
    onFill(unsigned set, unsigned way, std::uint64_t)
    {
        byteLanes(rrpv_, set)[way] = maxRrpv - 1;
    }

    void
    onHit(unsigned set, unsigned way, std::uint64_t)
    {
        byteLanes(rrpv_, set)[way] = 0;
    }

    void
    onInvalidate(unsigned set, unsigned way)
    {
        byteLanes(rrpv_, set)[way] = maxRrpv;
    }

    unsigned
    victim(unsigned set)
    {
        std::uint8_t *r = byteLanes(rrpv_, set);
        for (;;) {
            for (unsigned w = 0; w < assoc_; ++w)
                if (r[w] == maxRrpv)
                    return w;
            for (unsigned w = 0; w < assoc_; ++w)
                ++r[w];
        }
    }

    /** Fused victim + onFill on the chosen way (see PolicySet). */
    unsigned
    evictFill(unsigned set, std::uint64_t tag)
    {
        const unsigned way = victim(set);
        onFill(set, way, tag);
        return way;
    }

    unsigned
    peekVictim(unsigned set) const
    {
        // Same search as victim(), but on a scratch copy (SRRIP's
        // aging mutates state; preview must not).
        const std::uint8_t *r = byteLanes(rrpv_, set);
        std::uint8_t scratch[64];
        for (unsigned w = 0; w < assoc_; ++w)
            scratch[w] = r[w];
        for (;;) {
            for (unsigned w = 0; w < assoc_; ++w)
                if (scratch[w] == maxRrpv)
                    return w;
            for (unsigned w = 0; w < assoc_; ++w)
                ++scratch[w];
        }
    }

  private:
    SetWords rrpv_;
    unsigned assoc_;
};

/**
 * Approximate LFU over a shared Count-Min sketch. Unlike LfuSets'
 * per-way 5-bit counters, the frequency state is one per-cache
 * sketch: O(1) memory in the number of entries, with periodic
 * decay_half aging so popularity estimates track the recent phase.
 * Victim is the way whose stored key has the smallest estimate,
 * tie-broken by oldest fill, then lowest way.
 *
 * This is the one policy that reads the tag its hooks are given:
 * sketch keys compose the set index into the (folded) tag
 * (adapt::sketchEntryKey) so same-tag blocks in different sets count
 * separately. A fill hashes the key once into its sketch columns and
 * keeps them per way, so hits and victim scans hash nothing: a hit's
 * key is the hit way's key (the probe matched its stored tag).
 */
class CmsLfuSets
{
  public:
    /** Per set only the fill stamps; the ways' sketch columns are a
     *  set-major side array, read by victim scans and hits. */
    static unsigned
    wordsPerSet(unsigned assoc)
    {
        return StampStore::wordsPerSet(assoc);
    }

    CmsLfuSets(SetWords words, unsigned num_sets, unsigned assoc, Rng *)
        : assoc_(assoc),
          setBits_(num_sets <= 1 ? 0 : floorLog2(num_sets)),
          sketch_(adapt::SketchParams::forGeometry(num_sets, assoc)),
          emptyCols_(sketch_.columns(0)),
          cols_(std::size_t(num_sets) * assoc, emptyCols_),
          fills_(words, assoc)
    {
        adcache_assert(isPowerOfTwo(num_sets) || num_sets == 1);
    }

    void
    onFill(unsigned set, unsigned way, std::uint64_t tag)
    {
        const adapt::SketchColumns c = sketch_.columns(
            adapt::sketchEntryKey(tag, set, setBits_));
        cols_[index(set, way)] = c;
        fills_.bump(set, way);
        sketch_.add(c);
    }

    void
    onHit(unsigned set, unsigned way, std::uint64_t)
    {
        sketch_.add(cols_[index(set, way)]);
    }

    /** Fused victim + fill: the victim scan runs strictly before the
     *  candidate's sketch add (the add could inflate a colliding
     *  resident key's estimate and change the choice). */
    unsigned
    evictFill(unsigned set, std::uint64_t tag)
    {
        const unsigned way = peekVictim(set);
        onFill(set, way, tag);
        return way;
    }

    /** An invalid way scans as the columns of key 0. */
    void
    onInvalidate(unsigned set, unsigned way)
    {
        cols_[index(set, way)] = emptyCols_;
        fills_.clear(set, way);
    }

    unsigned victim(unsigned set) { return peekVictim(set); }

    unsigned
    peekVictim(unsigned set) const
    {
        const adapt::SketchColumns *c = &cols_[index(set, 0)];
        return fills_.minRanked(set, [this, c](unsigned w) {
            return sketch_.estimate(c[w]);
        });
    }

    const adapt::CountMinSketch &sketch() const { return sketch_; }

  private:
    std::size_t
    index(unsigned set, unsigned way) const
    {
        return std::size_t(set) * assoc_ + way;
    }

    unsigned assoc_;
    unsigned setBits_;
    adapt::CountMinSketch sketch_;
    adapt::SketchColumns emptyCols_;        // columns of key 0
    std::vector<adapt::SketchColumns> cols_; // stored key's columns
    StampStore fills_;                       // tie-break: oldest fill
};

/**
 * Variant over the concrete policy-set implementations. Hot paths
 * call visit() once per access and run a fully static body; the
 * plain member forwarders below are for cold/boundary code.
 */
class PolicySet
{
  public:
    using Variant =
        std::variant<LruSets, MruSets, FifoSets, LfuSets, RandomSets,
                     TreePlruSets, SrripSets, CmsLfuSets>;

    /** Words of per-set state @p type keeps at @p assoc ways. */
    static unsigned wordsPerSet(PolicyType type, unsigned assoc);

    /** A policy that owns its per-set words. */
    PolicySet(PolicyType type, unsigned num_sets, unsigned assoc,
              Rng *rng)
        : type_(type), own_(num_sets, wordsPerSet(type, assoc)),
          impl_(make(type, own_.words(), num_sets, assoc, rng))
    {
    }

    /**
     * A policy whose per-set words live in a host's rows: @p words
     * addresses wordsPerSet(type, assoc) zeroed words of each row.
     */
    PolicySet(PolicyType type, SetWords words, unsigned num_sets,
              unsigned assoc, Rng *rng)
        : type_(type), impl_(make(type, words, num_sets, assoc, rng))
    {
    }

    /*
     * Hand-rolled visit: a switch on the variant index compiles to a
     * direct (and, with a fixed policy, perfectly predicted) branch
     * whose per-alternative bodies inline into the caller, where
     * std::visit dispatches through a function-pointer table that
     * defeats that inlining. The variant is never valueless: every
     * alternative is nothrow-movable.
     */
    template <class F>
    decltype(auto)
    visit(F &&f)
    {
        static_assert(std::variant_size_v<Variant> == 8,
                      "update the visit() switches");
        switch (impl_.index()) {
          case 0: return f(*std::get_if<0>(&impl_));
          case 1: return f(*std::get_if<1>(&impl_));
          case 2: return f(*std::get_if<2>(&impl_));
          case 3: return f(*std::get_if<3>(&impl_));
          case 4: return f(*std::get_if<4>(&impl_));
          case 5: return f(*std::get_if<5>(&impl_));
          case 6: return f(*std::get_if<6>(&impl_));
          case 7: return f(*std::get_if<7>(&impl_));
        }
        panic("valueless policy variant");
    }

    template <class F>
    decltype(auto)
    visit(F &&f) const
    {
        switch (impl_.index()) {
          case 0: return f(*std::get_if<0>(&impl_));
          case 1: return f(*std::get_if<1>(&impl_));
          case 2: return f(*std::get_if<2>(&impl_));
          case 3: return f(*std::get_if<3>(&impl_));
          case 4: return f(*std::get_if<4>(&impl_));
          case 5: return f(*std::get_if<5>(&impl_));
          case 6: return f(*std::get_if<6>(&impl_));
          case 7: return f(*std::get_if<7>(&impl_));
        }
        panic("valueless policy variant");
    }

    void
    onFill(unsigned set, unsigned way, std::uint64_t tag)
    {
        visit([&](auto &p) { p.onFill(set, way, tag); });
    }

    void
    onHit(unsigned set, unsigned way, std::uint64_t tag)
    {
        visit([&](auto &p) { p.onHit(set, way, tag); });
    }

    void
    onInvalidate(unsigned set, unsigned way)
    {
        visit([&](auto &p) { p.onInvalidate(set, way); });
    }

    unsigned
    victim(unsigned set)
    {
        return visit([&](auto &p) { return p.victim(set); });
    }

    /**
     * Fused eviction: victim() followed by onFill() on the chosen
     * way, with no intermediate onInvalidate — every policy's onFill
     * fully overwrites the per-way state onInvalidate would clear,
     * and victim choices depend only on the relative order of the
     * surviving ways, so the result is identical to the three-call
     * sequence. Stamp-lane policies additionally fuse the victim
     * scan and the restamp into one load/store of the lane word.
     */
    unsigned
    evictFill(unsigned set, std::uint64_t tag)
    {
        return visit([&](auto &p) { return p.evictFill(set, tag); });
    }

    unsigned
    peekVictim(unsigned set) const
    {
        return visit([&](const auto &p) { return p.peekVictim(set); });
    }

    PolicyType type() const { return type_; }

    /** The alternative a visit() reported, by type. */
    template <class P>
    P &
    as()
    {
        return *std::get_if<P>(&impl_);
    }

  private:
    /** Build the alternative of @p type, or apply @p f to its type. */
    template <class F>
    static decltype(auto)
    forType(PolicyType type, F &&f)
    {
        switch (type) {
          case PolicyType::LRU: return f(std::type_identity<LruSets>{});
          case PolicyType::MRU: return f(std::type_identity<MruSets>{});
          case PolicyType::FIFO: return f(std::type_identity<FifoSets>{});
          case PolicyType::LFU: return f(std::type_identity<LfuSets>{});
          case PolicyType::Random:
            return f(std::type_identity<RandomSets>{});
          case PolicyType::TreePLRU:
            return f(std::type_identity<TreePlruSets>{});
          case PolicyType::SRRIP:
            return f(std::type_identity<SrripSets>{});
          case PolicyType::CmsLfu:
            return f(std::type_identity<CmsLfuSets>{});
        }
        panic("unknown policy type %d", int(type));
    }

    static Variant
    make(PolicyType type, SetWords words, unsigned num_sets,
         unsigned assoc, Rng *rng)
    {
        return forType(type, [&](auto t) -> Variant {
            return typename decltype(t)::type(words, num_sets, assoc,
                                              rng);
        });
    }

    PolicyType type_;
    SetRows own_; ///< empty when the words live in a host's rows
    Variant impl_;
};

inline unsigned
PolicySet::wordsPerSet(PolicyType type, unsigned assoc)
{
    return forType(type, [assoc](auto t) {
        return decltype(t)::type::wordsPerSet(assoc);
    });
}

} // namespace adcache

#endif // ADCACHE_CACHE_POLICY_SETS_HH
