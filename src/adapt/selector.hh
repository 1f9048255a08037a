/**
 * @file
 * Winner selection of the adaptive engine: which component policy a
 * selection domain imitates right now.
 *
 * Two selector forms cover every host structure in the repo:
 *
 *  - Selector: per-domain differentiating-miss voting (Sec. 2.2).
 *    Each domain owns a miss history (window or exact mode, see
 *    adapt/history.hh) and imitates the component with the fewest
 *    recorded misses. AdaptiveCache runs one domain per set, KvShard
 *    one per shard, SbarCache one per leader ordinal for its local
 *    leader histories. A fixed mode pins the winner for
 *    baseline/fixed-policy configurations without a second code path
 *    in the host.
 *
 *  - PselSelector: the SBAR global policy-selection counter
 *    (Sec. 4.7): a saturating counter fed one up/down step per
 *    leader-set differentiating miss; the high half of the range
 *    selects component 1 ("A has been missing more; prefer B").
 *
 * Both report selection flips so hosts can trace/account them.
 */

#ifndef ADCACHE_ADAPT_SELECTOR_HH
#define ADCACHE_ADAPT_SELECTOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "adapt/history.hh"
#include "util/sat_counter.hh"

namespace adcache::adapt
{

/** Differentiating-miss winner selection over domains. */
class Selector
{
  public:
    /**
     * Adaptive form: per-domain miss history drives the winner.
     * @param exact_counters exact since-start counters (theory form).
     * @param depth          window depth m (ignored when exact).
     */
    static Selector
    makeAdaptive(unsigned num_domains, unsigned num_components,
                 bool exact_counters, unsigned depth)
    {
        return Selector(num_domains, num_components, exact_counters,
                        depth, 0, true);
    }

    /** Fixed form: every domain always imitates @p winner. */
    static Selector
    makeFixed(unsigned num_domains, unsigned num_components,
              unsigned winner)
    {
        adcache_assert(winner < num_components);
        return Selector(num_domains, num_components, false, 1, winner,
                        false);
    }

    /**
     * Present one shadow miss mask for @p domain (bit k set iff
     * component k missed). Non-differentiating masks (none/all
     * missed) are ignored, as is everything in fixed mode. Returns
     * true iff this observation changed the domain's selection.
     */
    bool
    record(unsigned domain, std::uint32_t miss_mask)
    {
        if (!history_)
            return false;
        if (miss_mask == 0 || miss_mask == allMask_)
            return false;
        if (!history_->record(domain, miss_mask))
            return false;
        ++flips_;
        return true;
    }

    /** The component @p domain imitates right now. */
    unsigned
    winner(unsigned domain) const
    {
        return history_ ? history_->best(domain) : fixedWinner_;
    }

    /** Recorded miss weight of component @p k (0 in fixed mode). */
    std::uint64_t
    count(unsigned domain, unsigned k) const
    {
        return history_ ? history_->count(domain, k) : 0;
    }

    /** Times any domain's selection changed sides. */
    std::uint64_t flips() const { return flips_; }

    bool adaptive() const { return history_.has_value(); }
    unsigned numComponents() const { return numComponents_; }

  private:
    Selector(unsigned num_domains, unsigned num_components,
             bool exact_counters, unsigned depth, unsigned winner,
             bool adaptive)
        : numComponents_(num_components),
          allMask_(num_components >= 32 ? ~std::uint32_t{0}
                                        : (1u << num_components) - 1),
          fixedWinner_(winner)
    {
        adcache_assert(num_components >= 1 && num_components <= 32);
        if (adaptive)
            history_.emplace(exact_counters, depth, num_domains,
                             num_components);
    }

    unsigned numComponents_;
    std::uint32_t allMask_;
    unsigned fixedWinner_;
    std::optional<HistorySet> history_; ///< disengaged in fixed mode
    std::uint64_t flips_ = 0;
};

/** SBAR global policy-selection counter (Sec. 4.7). */
class PselSelector
{
  public:
    /** @param bits counter width; starts at the midpoint. */
    explicit PselSelector(unsigned bits)
        : psel_(bits, (1u << bits) / 2)
    {
    }

    /**
     * One leader differentiating miss: component A missing drifts the
     * choice toward B and vice versa. Returns true iff the global
     * choice flipped sides.
     */
    bool
    record(bool a_missed)
    {
        const unsigned before = choice();
        if (a_missed)
            psel_.increment();
        else
            psel_.decrement();
        if (choice() == before)
            return false;
        ++flips_;
        return true;
    }

    /** Globally-selected component (0 = A, 1 = B). */
    unsigned choice() const { return psel_.high() ? 1 : 0; }

    std::uint32_t value() const { return psel_.value(); }
    std::uint64_t flips() const { return flips_; }

  private:
    SatCounter psel_;
    std::uint64_t flips_ = 0;
};

} // namespace adcache::adapt

#endif // ADCACHE_ADAPT_SELECTOR_HH
