/**
 * @file
 * Differentiating-miss history state of the adaptive selection engine
 * (Sec. 2.2), generalized over *selection domains*. A domain is
 * whatever unit of the host structure carries its own selection
 * state: a cache set (AdaptiveCache), a leader-set ordinal
 * (SbarCache) or a whole kv shard (KvShard). The engine itself never
 * interprets the domain index.
 *
 * The state of every domain lives in flat arrays — one heap object
 * per host structure instead of per domain, no virtual dispatch on
 * record/best, and the state of neighbouring domains shares cache
 * lines (the PR-4 hot-path layout, now the only representation).
 *
 * Two event semantics are provided:
 *  - window mode: a ring of the last `depth` miss bitmasks per domain
 *    (the hardware design; for two components this is exactly the
 *    paper's m-bit vector) with incrementally maintained counts;
 *  - exact mode: unbounded per-component counters, the form the 2x
 *    bound in the Appendix is proved for.
 * Ties in best() break toward the lowest component index (so
 * component A wins a fresh buffer).
 */

#ifndef ADCACHE_ADAPT_HISTORY_HH
#define ADCACHE_ADAPT_HISTORY_HH

#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace adcache::adapt
{

/** Miss histories of every selection domain of one host structure. */
class HistorySet
{
  public:
    /**
     * @param exact_counters exact mode (unbounded counters).
     * @param depth          window length m (window mode only).
     * @param num_domains    selection domains covered.
     * @param num_components component policies (1..32).
     */
    HistorySet(bool exact_counters, unsigned depth,
               unsigned num_domains, unsigned num_components)
        : exact_(exact_counters), depth_(depth),
          numComponents_(num_components)
    {
        adcache_assert(num_components >= 1 && num_components <= 32);
        adcache_assert(exact_counters ||
                       (depth >= 1 && depth <= 0xFFFF));
        const std::size_t cells =
            std::size_t(num_domains) * num_components;
        if (exact_counters) {
            exactCounts_.assign(cells, 0);
            return;
        }
        counts_.assign(cells, 0);
        if (num_components <= 8)
            ring8_.assign(std::size_t(num_domains) * depth, 0);
        else
            ring32_.assign(std::size_t(num_domains) * depth, 0);
        head_.assign(num_domains, 0);
        filled_.assign(num_domains, 0);
    }

    /**
     * Record one miss event in @p domain. @p miss_mask has bit k set
     * iff component k missed; callers pass proper non-empty subsets
     * (the differentiating-miss filter lives in Selector).
     */
    void
    record(unsigned domain, std::uint32_t miss_mask)
    {
        if (exact_) {
            std::uint64_t *counts =
                &exactCounts_[std::size_t(domain) * numComponents_];
            for (unsigned p = 0; p < numComponents_; ++p)
                if (miss_mask & (1u << p))
                    ++counts[p];
            return;
        }
        // Window mode: counts are bounded by depth (<= 0xFFFF) and
        // masks by the component count, so the whole per-domain state
        // packs into narrow arrays that stay L1-resident.
        std::uint16_t *counts =
            &counts_[std::size_t(domain) * numComponents_];
        const unsigned head = head_[domain];
        if (filled_[domain] == depth_) {
            const std::uint32_t old = ringOld(domain, head);
            for (unsigned p = 0; p < numComponents_; ++p)
                counts[p] = std::uint16_t(counts[p] -
                                          ((old >> p) & 1));
        } else {
            ++filled_[domain];
        }
        ringStore(domain, head, miss_mask);
        head_[domain] =
            std::uint16_t(head + 1 == depth_ ? 0 : head + 1);
        for (unsigned p = 0; p < numComponents_; ++p)
            counts[p] =
                std::uint16_t(counts[p] + ((miss_mask >> p) & 1));
    }

    /** Recorded miss weight of component @p component in @p domain. */
    std::uint64_t
    count(unsigned domain, unsigned component) const
    {
        if (exact_)
            return exactCounts_[std::size_t(domain) * numComponents_ +
                                component];
        return counts_[std::size_t(domain) * numComponents_ +
                       component];
    }

    /** Component with the fewest recorded misses (ties: low index). */
    unsigned
    best(unsigned domain) const
    {
        unsigned best_component = 0;
        if (exact_) {
            const std::uint64_t *counts =
                &exactCounts_[std::size_t(domain) * numComponents_];
            for (unsigned p = 1; p < numComponents_; ++p)
                if (counts[p] < counts[best_component])
                    best_component = p;
            return best_component;
        }
        const std::uint16_t *counts =
            &counts_[std::size_t(domain) * numComponents_];
        for (unsigned p = 1; p < numComponents_; ++p)
            if (counts[p] < counts[best_component])
                best_component = p;
        return best_component;
    }

    bool exact() const { return exact_; }
    unsigned depth() const { return depth_; }
    unsigned numComponents() const { return numComponents_; }

  private:
    std::uint32_t
    ringOld(unsigned domain, unsigned head) const
    {
        if (!ring8_.empty())
            return ring8_[std::size_t(domain) * depth_ + head];
        return ring32_[std::size_t(domain) * depth_ + head];
    }

    void
    ringStore(unsigned domain, unsigned head, std::uint32_t mask)
    {
        if (!ring8_.empty())
            ring8_[std::size_t(domain) * depth_ + head] =
                std::uint8_t(mask);
        else
            ring32_[std::size_t(domain) * depth_ + head] = mask;
    }

    bool exact_;
    unsigned depth_;
    unsigned numComponents_;
    std::vector<std::uint16_t> counts_;      // window mode
    std::vector<std::uint64_t> exactCounts_; // exact mode
    std::vector<std::uint8_t> ring8_;        // <= 8 components
    std::vector<std::uint32_t> ring32_;
    std::vector<std::uint16_t> head_;
    std::vector<std::uint16_t> filled_;
};

} // namespace adcache::adapt

#endif // ADCACHE_ADAPT_HISTORY_HH
