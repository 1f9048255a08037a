/**
 * @file
 * Replacement-policy state for a whole cache, and the simulator's only
 * implementation of each policy: one concrete *Sets class per
 * algorithm holds the metadata of every set contiguously (no per-set
 * heap objects), and PolicySet wraps them in a variant so the caller
 * pays one dispatch per access — visit() once, then every
 * onFill/onHit/victim call inside the access body is a direct,
 * inlinable call.
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
#include <variant>
#include <vector>

#include "adapt/sketch.hh"
#include "cache/replacement.hh"
#include "util/bits.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace adcache
{

/**
 * Per-set event stamps packed into one 64-bit word of 8-bit lanes
 * (assoc <= 8), with an 8-bit per-set clock. Victim scans only ever
 * compare stamps *within* a set, and nonzero stamps of a set are
 * pairwise distinct, so when the clock would wrap past 255 the lanes
 * renormalize to their ranks — an order-preserving compression that
 * leaves every victim choice identical to unbounded 64-bit stamps
 * (zero lanes, the "never used / invalidated" marker, stay zero).
 *
 * The packing is what makes recency metadata L1-resident: 9 bytes
 * per set instead of 8 * 8 + 8.
 */
class StampLanes8
{
  public:
    StampLanes8(unsigned num_sets, unsigned assoc)
        : assoc_(assoc), lanes_(num_sets, 0), clock_(num_sets, 0)
    {
        adcache_assert(assoc >= 1 && assoc <= 8);
    }

    /** Stamp (set, way) with the set's next event number. */
    void
    bump(unsigned set, unsigned way)
    {
        unsigned c = clock_[set] + 1u;
        if (c > 0xFF)
            c = renormalize(set) + 1u;
        clock_[set] = std::uint8_t(c);
        setLane(set, way, c);
    }

    void clear(unsigned set, unsigned way) { setLane(set, way, 0); }

    std::uint8_t
    stamp(unsigned set, unsigned way) const
    {
        return std::uint8_t(lanes_[set] >> (way * 8));
    }

    /** Lowest way with the strictly smallest stamp. */
    unsigned minWay(unsigned set) const { return minOf(lanes_[set]); }

    /** Lowest way with the strictly largest stamp. */
    unsigned maxWay(unsigned set) const { return maxOf(lanes_[set]); }

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
        const std::uint64_t w64 = lanes_[set];
        const unsigned way = PickMax ? maxOf(w64) : minOf(w64);
        unsigned c = clock_[set] + 1u;
        if (c > 0xFF) {
            c = renormalize(set) + 1u;
            clock_[set] = std::uint8_t(c);
            setLane(set, way, c);
            return way;
        }
        clock_[set] = std::uint8_t(c);
        const unsigned shift = way * 8;
        lanes_[set] = (w64 & ~(std::uint64_t{0xFF} << shift)) |
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

  private:
    /** Compress stamps to ranks 1..n; @return the new clock value. */
    unsigned
    renormalize(unsigned set)
    {
        const std::uint64_t w64 = lanes_[set];
        std::uint64_t out = 0;
        unsigned used = 0;
        for (unsigned w = 0; w < assoc_; ++w) {
            const std::uint8_t v = std::uint8_t(w64 >> (w * 8));
            if (v == 0)
                continue;
            unsigned rank = 1;
            for (unsigned o = 0; o < assoc_; ++o) {
                const std::uint8_t ov = std::uint8_t(w64 >> (o * 8));
                rank += unsigned(ov != 0 && ov < v);
            }
            out |= std::uint64_t(rank) << (w * 8);
            ++used;
        }
        lanes_[set] = out;
        return used;
    }

    void
    setLane(unsigned set, unsigned way, unsigned value)
    {
        const unsigned shift = way * 8;
        std::uint64_t &w64 = lanes_[set];
        w64 = (w64 & ~(std::uint64_t{0xFF} << shift)) |
              (std::uint64_t(value) << shift);
    }

    unsigned assoc_;
    std::vector<std::uint64_t> lanes_;
    std::vector<std::uint8_t> clock_;
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
    StampStore(unsigned num_sets, unsigned assoc)
        : assoc_(assoc), packed_(assoc <= 8),
          lanes_(packed_ ? num_sets : 0, packed_ ? assoc : 1),
          wide_(packed_ ? 0 : std::size_t(num_sets) * assoc, 0),
          clock_(packed_ ? 0 : num_sets, 0)
    {
    }

    /** Stamp (set, way) with the set's next event number. */
    void
    bump(unsigned set, unsigned way)
    {
        if (packed_)
            lanes_.bump(set, way);
        else
            wide_[index(set, way)] = ++clock_[set];
    }

    void
    clear(unsigned set, unsigned way)
    {
        if (packed_)
            lanes_.clear(set, way);
        else
            wide_[index(set, way)] = 0;
    }

    /** Lowest way with the smallest (PickMax false) or largest stamp. */
    template <bool PickMax>
    unsigned
    pick(unsigned set) const
    {
        if (packed_)
            return PickMax ? lanes_.maxWay(set) : lanes_.minWay(set);
        const std::uint64_t *s = &wide_[index(set, 0)];
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
        unsigned best = 0;
        if (packed_) {
            // Branchless: (rank << 8) | lane orders exactly like
            // "rank, tie-broken by older stamp", and a strict-< min
            // scan keeps the lowest way among equals.
            unsigned best_key = (unsigned(rank(0)) << 8) |
                                lanes_.stamp(set, 0);
            for (unsigned w = 1; w < assoc_; ++w) {
                const unsigned key = (unsigned(rank(w)) << 8) |
                                     lanes_.stamp(set, w);
                if (key < best_key) {
                    best_key = key;
                    best = w;
                }
            }
            return best;
        }
        const std::uint64_t *s = &wide_[index(set, 0)];
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
    std::size_t
    index(unsigned set, unsigned way) const
    {
        return std::size_t(set) * assoc_ + way;
    }

    unsigned assoc_;
    bool packed_;
    StampLanes8 lanes_;
    std::vector<std::uint64_t> wide_;
    std::vector<std::uint64_t> clock_;
};

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
    StampOrderSets(unsigned num_sets, unsigned assoc, Rng *)
        : stamps_(num_sets, assoc)
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
 * LFU with 5-bit saturating frequency counters (Table 1). A fill
 * resets the counter to 1; hits increment. Victim is the minimum
 * count, tie-broken by oldest fill.
 */
class LfuSets
{
  public:
    static constexpr unsigned counterBits = 5;
    static constexpr std::uint8_t counterMax = (1u << counterBits) - 1;

    LfuSets(unsigned num_sets, unsigned assoc, Rng *)
        : assoc_(assoc), count_(std::size_t(num_sets) * assoc, 0),
          fills_(num_sets, assoc)
    {
    }

    void
    onFill(unsigned set, unsigned way, std::uint64_t)
    {
        count_[index(set, way)] = 1;
        fills_.bump(set, way);
    }

    void
    onHit(unsigned set, unsigned way, std::uint64_t)
    {
        std::uint8_t &c = count_[index(set, way)];
        if (c < counterMax)
            ++c;
    }

    void
    onInvalidate(unsigned set, unsigned way)
    {
        count_[index(set, way)] = 0;
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
        const std::uint8_t *c = &count_[index(set, 0)];
        return fills_.minRanked(set, [c](unsigned w) { return c[w]; });
    }

  private:
    std::size_t
    index(unsigned set, unsigned way) const
    {
        return std::size_t(set) * assoc_ + way;
    }

    unsigned assoc_;
    std::vector<std::uint8_t> count_;
    StampStore fills_;
};

/**
 * Random replacement. The upcoming victim is drawn lazily per set and
 * cached so peekVictim() agrees with the following victim() call;
 * draws come from the shared Rng in the order sets first ask for a
 * victim.
 */
class RandomSets
{
  public:
    RandomSets(unsigned num_sets, unsigned assoc, Rng *rng)
        : assoc_(assoc), rng_(rng), pending_(num_sets, 0),
          pendingValid_(num_sets, 0)
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
        pendingValid_[set] = 0;
        return v;
    }

    /** Fused victim + onFill on the chosen way (see PolicySet). */
    unsigned evictFill(unsigned set, std::uint64_t) { return victim(set); }

    unsigned
    peekVictim(unsigned set) const
    {
        if (!pendingValid_[set]) {
            pending_[set] = std::uint8_t(rng_->below(assoc_));
            pendingValid_[set] = 1;
        }
        return pending_[set];
    }

  private:
    unsigned assoc_;
    Rng *rng_;
    mutable std::vector<std::uint8_t> pending_;
    mutable std::vector<std::uint8_t> pendingValid_;
};

/**
 * Tree pseudo-LRU over a power-of-two associativity; each set's
 * heap-indexed tree bits live in one 64-bit word (bit k = node k,
 * set means "victim is in right half").
 */
class TreePlruSets
{
  public:
    TreePlruSets(unsigned num_sets, unsigned assoc, Rng *)
        : assoc_(assoc), bits_(num_sets, 0)
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
        const std::uint64_t b = bits_[set];
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
        std::uint64_t b = bits_[set];
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
        bits_[set] = b;
    }

    unsigned assoc_;
    std::vector<std::uint64_t> bits_;
};

/** Static RRIP with 2-bit re-reference prediction values. */
class SrripSets
{
  public:
    static constexpr std::uint8_t maxRrpv = 3;

    SrripSets(unsigned num_sets, unsigned assoc, Rng *)
        : assoc_(assoc),
          rrpv_(std::size_t(num_sets) * assoc, maxRrpv)
    {
        adcache_assert(assoc <= 64);
    }

    void
    onFill(unsigned set, unsigned way, std::uint64_t)
    {
        rrpv_[index(set, way)] = maxRrpv - 1;
    }

    void
    onHit(unsigned set, unsigned way, std::uint64_t)
    {
        rrpv_[index(set, way)] = 0;
    }

    void
    onInvalidate(unsigned set, unsigned way)
    {
        rrpv_[index(set, way)] = maxRrpv;
    }

    unsigned
    victim(unsigned set)
    {
        std::uint8_t *r = &rrpv_[index(set, 0)];
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
        const std::uint8_t *r = &rrpv_[index(set, 0)];
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
    std::size_t
    index(unsigned set, unsigned way) const
    {
        return std::size_t(set) * assoc_ + way;
    }

    unsigned assoc_;
    std::vector<std::uint8_t> rrpv_;
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
 * separately.
 */
class CmsLfuSets
{
  public:
    CmsLfuSets(unsigned num_sets, unsigned assoc, Rng *)
        : assoc_(assoc),
          setBits_(num_sets <= 1 ? 0 : floorLog2(num_sets)),
          sketch_(adapt::SketchParams::forGeometry(num_sets, assoc)),
          key_(std::size_t(num_sets) * assoc, 0),
          fills_(num_sets, assoc)
    {
        adcache_assert(isPowerOfTwo(num_sets) || num_sets == 1);
    }

    void
    onFill(unsigned set, unsigned way, std::uint64_t tag)
    {
        const std::uint64_t k =
            adapt::sketchEntryKey(tag, set, setBits_);
        key_[index(set, way)] = k;
        fills_.bump(set, way);
        sketch_.add(k);
    }

    void
    onHit(unsigned set, unsigned, std::uint64_t tag)
    {
        sketch_.add(adapt::sketchEntryKey(tag, set, setBits_));
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

    void
    onInvalidate(unsigned set, unsigned way)
    {
        key_[index(set, way)] = 0;
        fills_.clear(set, way);
    }

    unsigned victim(unsigned set) { return peekVictim(set); }

    unsigned
    peekVictim(unsigned set) const
    {
        const std::uint64_t *k = &key_[index(set, 0)];
        return fills_.minRanked(set, [this, k](unsigned w) {
            return sketch_.estimate(k[w]);
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
    std::vector<std::uint64_t> key_; // stored sketch key per way
    StampStore fills_;               // tie-break: oldest fill
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

    PolicySet(PolicyType type, unsigned num_sets, unsigned assoc,
              Rng *rng)
        : type_(type), impl_(make(type, num_sets, assoc, rng))
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

  private:
    static Variant
    make(PolicyType type, unsigned num_sets, unsigned assoc, Rng *rng)
    {
        switch (type) {
          case PolicyType::LRU:
            return LruSets(num_sets, assoc, rng);
          case PolicyType::MRU:
            return MruSets(num_sets, assoc, rng);
          case PolicyType::FIFO:
            return FifoSets(num_sets, assoc, rng);
          case PolicyType::LFU:
            return LfuSets(num_sets, assoc, rng);
          case PolicyType::Random:
            return RandomSets(num_sets, assoc, rng);
          case PolicyType::TreePLRU:
            return TreePlruSets(num_sets, assoc, rng);
          case PolicyType::SRRIP:
            return SrripSets(num_sets, assoc, rng);
          case PolicyType::CmsLfu:
            return CmsLfuSets(num_sets, assoc, rng);
        }
        panic("unknown policy type %d", int(type));
    }

    PolicyType type_;
    Variant impl_;
};

} // namespace adcache

#endif // ADCACHE_CACHE_POLICY_SETS_HH
