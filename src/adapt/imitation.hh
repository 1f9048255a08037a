/**
 * @file
 * The Algorithm 1 three-case victim-imitation decision, factored out
 * of the host structures.
 *
 * On a full-domain miss the adaptive structure evicts what the
 * imitated (winning) component would evict:
 *
 *  1. VictimMatch — the winner's simulation also missed and displaced
 *     an entry; if that entry is resident here, evict the same entry.
 *  2. ShadowAbsent — otherwise evict any resident entry that is *not*
 *     in the winner's simulated contents. With full tags such an
 *     entry is guaranteed to exist whenever case 1 did not apply.
 *  3. Fallback — partial-tag aliasing (or a bounded candidate walk in
 *     the kv layer) defeated both searches; evict an arbitrary entry
 *     (Sec. 3.1). Views rotate the arbitrary choice so it cannot pin
 *     a single slot. A view may also report that no entry is
 *     evictable at all (every kv candidate pinned) — Reject.
 *
 * The decision is parameterized by a *view* of one selection domain's
 * resident entries, so a sim cache set (ways + TagArray + shadow) and
 * a kv shard (intrusive entry chains + shadow directory) run
 * the identical decision procedure. A view models:
 *
 *   using Handle = ...;            // way index, entry pointer, ...
 *   static constexpr Handle kNone; // "no such entry"
 *   Handle findDisplacedMatch(std::uint64_t displaced_tag);
 *   Handle findOutsideWinner();    // resident but not in winner
 *   Handle fallback();             // arbitrary evictable, or kNone
 *
 * Views fold tags and walk candidates however their layer requires;
 * this header owns only the case ordering.
 */

#ifndef ADCACHE_ADAPT_IMITATION_HH
#define ADCACHE_ADAPT_IMITATION_HH

#include <bit>
#include <cstdint>

namespace adcache::adapt
{

/** Which Algorithm 1 case selected the victim. */
enum class VictimCase : std::uint8_t {
    VictimMatch = 0,
    ShadowAbsent = 1,
    Fallback = 2,
    Reject = 3, ///< no evictable entry (kv: all candidates pinned)
};

/** A victim handle plus the case that produced it. */
template <class View>
struct VictimChoice {
    typename View::Handle handle;
    VictimCase kind;
};

/**
 * Run the three-case decision over @p view.
 * @param winner_displaced the winner's simulation displaced an entry
 *        on this reference.
 * @param displaced_tag    that entry's (folded) tag.
 */
template <class View>
VictimChoice<View>
imitateVictim(View &view, bool winner_displaced,
              std::uint64_t displaced_tag)
{
    if (winner_displaced) {
        const auto h = view.findDisplacedMatch(displaced_tag);
        if (h != View::kNone)
            return {h, VictimCase::VictimMatch};
    }
    const auto h = view.findOutsideWinner();
    if (h != View::kNone)
        return {h, VictimCase::ShadowAbsent};
    const auto f = view.fallback();
    return {f, f == View::kNone ? VictimCase::Reject
                                : VictimCase::Fallback};
}

/**
 * The sim-layer view: one TagArray set against one shadow cache,
 * with a per-set rotating fallback pointer. Both AdaptiveCache and
 * SbarCache leader sets instantiate this.
 */
template <class Tags, class Shadow>
class WaySetView
{
  public:
    using Handle = unsigned;
    static constexpr Handle kNone = ~0u;

    WaySetView(const Tags &tags, const Shadow &shadow, unsigned set,
               unsigned assoc, unsigned *fallback_ptr)
        : tags_(tags), shadow_(shadow), set_(set), assoc_(assoc),
          fallbackPtr_(fallback_ptr)
    {
    }

    Handle
    findDisplacedMatch(std::uint64_t displaced_tag) const
    {
        for (std::uint64_t m = tags_.validMask(set_); m != 0;
             m &= m - 1) {
            const unsigned w = unsigned(std::countr_zero(m));
            if (shadow_.foldTag(tags_.tag(set_, w)) == displaced_tag)
                return w;
        }
        return kNone;
    }

    Handle
    findOutsideWinner() const
    {
        for (std::uint64_t m = tags_.validMask(set_); m != 0;
             m &= m - 1) {
            const unsigned w = unsigned(std::countr_zero(m));
            if (!shadow_.containsTag(
                    set_, shadow_.foldTag(tags_.tag(set_, w))))
                return w;
        }
        return kNone;
    }

    Handle
    fallback() const
    {
        const unsigned w = *fallbackPtr_;
        *fallbackPtr_ = (w + 1) % assoc_;
        return w;
    }

  private:
    const Tags &tags_;
    const Shadow &shadow_;
    unsigned set_;
    unsigned assoc_;
    unsigned *fallbackPtr_;
};

} // namespace adcache::adapt

#endif // ADCACHE_ADAPT_IMITATION_HH
