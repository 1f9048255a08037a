/**
 * @file
 * Differentiating-miss history state of the adaptive selection engine
 * (Sec. 2.2), generalized over *selection domains*. A domain is
 * whatever unit of the host structure carries its own selection
 * state: a cache set (AdaptiveCache), a leader-set ordinal
 * (SbarCache) or a whole kv shard (KvShard). The engine itself never
 * interprets the domain index.
 *
 * The state of every domain lives in a few words per domain — one
 * heap object per host structure instead of per domain (or none, when
 * the host keeps the words in its own rows), no virtual dispatch on
 * record/best, and best() is a cached word, not a scan.
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

#include "util/logging.hh"
#include "util/set_words.hh"

namespace adcache::adapt
{

/**
 * Miss histories of every selection domain of one host structure.
 *
 * Each domain's state is a few 64-bit words (util/set_words.hh):
 *   word 0       the current best component (bits 0-7); in window
 *                mode also the ring head (bits 16-31) and the number
 *                of filled ring slots (bits 32-47);
 *   window mode  16-bit count lanes, then the ring of masks in 8-bit
 *                lanes (<= 8 components) or 32-bit lanes;
 *   exact mode   one 64-bit counter per component.
 * A standalone history owns its words; a host may keep them in its
 * own per-set rows instead (AdaptiveCache).
 */
class HistorySet
{
  public:
    /** Words of state per domain. */
    static unsigned
    wordsPerDomain(bool exact_counters, unsigned depth,
                   unsigned num_components)
    {
        if (exact_counters)
            return 1 + num_components;
        return 1 + countWords(num_components) +
               ringWords(depth, num_components);
    }

    /**
     * A history that owns its words.
     * @param exact_counters exact mode (unbounded counters).
     * @param depth          window length m (window mode only).
     * @param num_domains    selection domains covered.
     * @param num_components component policies (1..32).
     */
    HistorySet(bool exact_counters, unsigned depth,
               unsigned num_domains, unsigned num_components)
        : own_(num_domains, wordsPerDomain(exact_counters, depth,
                                           num_components)),
          words_(own_.words()), exact_(exact_counters), depth_(depth),
          numComponents_(num_components)
    {
        check();
    }

    /** A history whose words live in a host's rows: @p words
     *  addresses wordsPerDomain() zeroed words of each row. */
    HistorySet(bool exact_counters, unsigned depth,
               unsigned num_components, SetWords words)
        : words_(words), exact_(exact_counters), depth_(depth),
          numComponents_(num_components)
    {
        check();
    }

    /**
     * Record one miss event in @p domain. @p miss_mask has bit k set
     * iff component k missed; callers pass proper non-empty subsets
     * (the differentiating-miss filter lives with the caller).
     * @return true iff the domain's best component changed.
     */
    bool
    record(unsigned domain, std::uint32_t miss_mask)
    {
        std::uint64_t *d = words_.at(domain);
        if (exact_) {
            for (unsigned p = 0; p < numComponents_; ++p)
                if (miss_mask & (1u << p))
                    ++d[1 + p];
        } else {
            // Window mode: counts are bounded by depth (<= 0xFFFF)
            // and masks by the component count, so the whole
            // per-domain state packs into a few words.
            std::uint64_t *counts = d + 1;
            std::uint64_t *ring = counts + countWords(numComponents_);
            const std::uint64_t meta = d[0];
            const unsigned head = unsigned(meta >> 16) & 0xFFFF;
            unsigned filled = unsigned(meta >> 32) & 0xFFFF;
            if (filled == depth_) {
                const std::uint32_t old = ringAt(ring, head);
                for (unsigned p = 0; p < numComponents_; ++p)
                    counts[p / 4] -= std::uint64_t((old >> p) & 1)
                                     << (16 * (p % 4));
            } else {
                ++filled;
            }
            ringSet(ring, head, miss_mask);
            for (unsigned p = 0; p < numComponents_; ++p)
                counts[p / 4] += std::uint64_t((miss_mask >> p) & 1)
                                 << (16 * (p % 4));
            const unsigned next = head + 1 == depth_ ? 0 : head + 1;
            d[0] = (meta & 0xFF) | (std::uint64_t(next) << 16) |
                   (std::uint64_t(filled) << 32);
        }
        const unsigned before = unsigned(d[0] & 0xFF);
        const unsigned now = scanBest(d);
        if (now == before)
            return false;
        d[0] = (d[0] & ~std::uint64_t{0xFF}) | now;
        return true;
    }

    /** Recorded miss weight of component @p component in @p domain. */
    std::uint64_t
    count(unsigned domain, unsigned component) const
    {
        return countOf(words_.at(domain), component);
    }

    /** Component with the fewest recorded misses (ties: low index). */
    unsigned
    best(unsigned domain) const
    {
        return unsigned(words_.at(domain)[0] & 0xFF);
    }

    bool exact() const { return exact_; }
    unsigned depth() const { return depth_; }
    unsigned numComponents() const { return numComponents_; }

  private:
    static unsigned countWords(unsigned k) { return (k + 3) / 4; }

    static unsigned
    ringWords(unsigned depth, unsigned k)
    {
        return k <= 8 ? (depth + 7) / 8 : (depth + 1) / 2;
    }

    void
    check() const
    {
        adcache_assert(numComponents_ >= 1 && numComponents_ <= 32);
        adcache_assert(exact_ || (depth_ >= 1 && depth_ <= 0xFFFF));
    }

    std::uint64_t
    countOf(const std::uint64_t *d, unsigned p) const
    {
        if (exact_)
            return d[1 + p];
        return (d[1 + p / 4] >> (16 * (p % 4))) & 0xFFFF;
    }

    unsigned
    scanBest(const std::uint64_t *d) const
    {
        unsigned best_component = 0;
        std::uint64_t best_count = countOf(d, 0);
        for (unsigned p = 1; p < numComponents_; ++p) {
            const std::uint64_t c = countOf(d, p);
            if (c < best_count) {
                best_count = c;
                best_component = p;
            }
        }
        return best_component;
    }

    std::uint32_t
    ringAt(const std::uint64_t *ring, unsigned i) const
    {
        if (numComponents_ <= 8)
            return std::uint32_t(ring[i / 8] >> (8 * (i % 8))) & 0xFF;
        return std::uint32_t(ring[i / 2] >> (32 * (i % 2)));
    }

    void
    ringSet(std::uint64_t *ring, unsigned i, std::uint32_t mask) const
    {
        const unsigned bits = numComponents_ <= 8 ? 8 : 32;
        const unsigned per = 64 / bits;
        const unsigned shift = bits * (i % per);
        std::uint64_t &w = ring[i / per];
        w = (w & ~(lowBits(bits) << shift)) |
            (std::uint64_t(mask) << shift);
    }

    static std::uint64_t
    lowBits(unsigned n)
    {
        return (std::uint64_t{1} << n) - 1;
    }

    SetRows own_; ///< empty when the words live in a host's rows
    SetWords words_;
    bool exact_;
    unsigned depth_;
    unsigned numComponents_;
};

} // namespace adcache::adapt

#endif // ADCACHE_ADAPT_HISTORY_HH
