/**
 * @file
 * The paper's primary contribution: a set-associative cache that
 * adapts between component replacement policies (Algorithm 1).
 *
 * One shadow tag array per component policy tracks what each
 * component cache would contain; a per-set miss history buffer tracks
 * which component recently missed less; on every real miss the cache
 * imitates the currently-better component:
 *
 *   1. if the imitated policy also missed and the block it just
 *      evicted is resident in the adaptive cache, evict that block;
 *   2. otherwise evict any resident block that is *not* in the
 *      imitated policy's (shadow) contents;
 *   3. with partial tags both searches can fail due to aliasing, in
 *      which case an arbitrary block is evicted (Sec. 3.1).
 *
 * The class supports any number of component policies >= 2; the
 * two-policy LRU/LFU instance is the paper's headline configuration,
 * and the five-policy instance reproduces Sec. 4.4.
 *
 * Like the paper's hardware, which probes the real tags and every
 * shadow array in parallel, one access reads one set row: a
 * 64-byte-aligned run of words per set, laid out once from the
 * config, holding
 *   - the real ways' valid and dirty masks and tag lanes;
 *   - per component, its valid mask, tag lanes and policy words;
 *   - the set's miss history (ring, counts, winner) and the case-3
 *     fallback cursor.
 * Tag lanes are the stored (folded) tags themselves when partial tags
 * fit a lane (1..15 bits: 8-bit lanes up to 7, else 16-bit), and
 * 16-bit fingerprints of the stored tags otherwise; full tags live in
 * a set-major side array read only to verify a fingerprint candidate.
 * The policies (cache/policy_sets.hh) and the history
 * (adapt/history.hh) run their usual code over their row words.
 */

#ifndef ADCACHE_CORE_ADAPTIVE_CACHE_HH
#define ADCACHE_CORE_ADAPTIVE_CACHE_HH

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "adapt/history.hh"
#include "adapt/sketch.hh"
#include "cache/cache_model.hh"
#include "cache/policy_sets.hh"
#include "cache/replacement.hh"
#include "core/shadow_cache.hh"
#include "obs/event.hh"
#include "util/set_words.hh"

namespace adcache
{

/** Configuration of an adaptive cache. */
struct AdaptiveConfig
{
    std::uint64_t sizeBytes = 512 * 1024;
    unsigned assoc = 8;
    unsigned lineSize = 64;

    /** Component policies, in priority (tie-break) order. */
    std::vector<PolicyType> policies{PolicyType::LRU, PolicyType::LFU};

    /** 0 = full tags; else stored shadow-tag width in bits. */
    unsigned partialTagBits = 0;

    /** Fold tags by XOR of bit groups instead of low-order bits. */
    bool xorFoldTags = false;

    /** Miss-history window depth m; 0 selects the paper default, the
     *  cache associativity. Ignored when exactCounters is set. */
    unsigned historyDepth = 0;

    /** Use exact since-start counters (the theory variant). */
    bool exactCounters = false;

    /**
     * Per-component TinyLFU admission flags (parallel to policies;
     * empty = admission off everywhere). A flagged component's shadow
     * bypasses full-set fills the filter refuses, and the real cache
     * imitates the bypass when that component wins — adaptivity over
     * *admission*, not just eviction.
     */
    std::vector<std::uint8_t> admission;

    std::uint64_t rngSeed = 1;

    bool
    anyAdmission() const
    {
        for (std::uint8_t f : admission)
            if (f)
                return true;
        return false;
    }

    CacheGeometry
    geometry() const
    {
        return CacheGeometry::fromSize(sizeBytes, assoc, lineSize);
    }

    /** Convenience two-policy constructor helper. */
    static AdaptiveConfig
    dual(PolicyType a, PolicyType b, std::uint64_t size_bytes = 512 * 1024,
         unsigned assoc = 8, unsigned line_size = 64)
    {
        AdaptiveConfig c;
        c.sizeBytes = size_bytes;
        c.assoc = assoc;
        c.lineSize = line_size;
        c.policies = {a, b};
        return c;
    }

    /** The five-policy configuration of Sec. 4.4. */
    static AdaptiveConfig fivePolicy(std::uint64_t size_bytes = 512 * 1024,
                                     unsigned assoc = 8,
                                     unsigned line_size = 64);
};

/** The adaptive cache (Algorithm 1). */
class AdaptiveCache : public CacheModel
{
  public:
    explicit AdaptiveCache(const AdaptiveConfig &config);

    AccessResult access(Addr addr, bool is_write) override;
    const CacheStats &stats() const override { return stats_; }
    const CacheGeometry &geometry() const override { return geom_; }
    std::string describe() const override;
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const override;

    /** Number of component policies. */
    unsigned numPolicies() const { return numPolicies_; }

    /** Misses suffered so far by component @p k's shadow. */
    std::uint64_t shadowMisses(unsigned k) const;

    /** Component policy type of shadow @p k. */
    PolicyType componentPolicy(unsigned k) const;

    /** True iff the block containing @p addr is resident. */
    bool contains(Addr addr) const;

    /**
     * Replacement decisions made in @p set, by imitated component,
     * since the last clearDecisions(). Drives the Fig. 7 phase maps.
     */
    std::span<const std::uint64_t> decisionsFor(unsigned set) const;

    /** Reset the per-set decision counters (per sampling quantum). */
    void clearDecisions();

    /** Times the partial-tag fallback ("arbitrary victim") fired. */
    std::uint64_t fallbackEvictions() const { return fallbacks_; }

    /** Full-set misses left unfilled because the winning component's
     *  admission filter refused the candidate. */
    std::uint64_t admissionBypasses() const { return bypasses_; }

    const AdaptiveConfig &config() const { return config_; }

  private:
    /** Algorithm 1's victim cases over one set row. */
    template <class Form>
    class RowView;

    /**
     * Where a set row keeps each structure, in words from the row's
     * start: the real ways' [valid][dirty][full-tag lanes][stored-tag
     * lanes, with packed components only], every component's
     * [valid][lanes], every component's policy words, the history
     * and the cursor. Every access reads the tag lanes and a hit
     * updates policy words, so those come first.
     */
    struct RowLayout
    {
        bool packed;          //!< components hold 1..15-bit tags
        unsigned laneBits;    //!< component lanes: 8 or 16 bits
        unsigned laneWords;   //!< words of one component's lanes
        unsigned fullWords;   //!< words of the real full-tag lanes
        unsigned stored;      //!< real stored-tag lanes (packed only)
        /** Per component: [valid][lanes]. */
        std::array<unsigned, 32> comp;
        /** Per component: its policy's words. */
        std::array<unsigned, 32> policy;
        unsigned history;     //!< the set's HistorySet words
        unsigned cursor;      //!< case-3 fallback cursor
        std::size_t stride;   //!< row words, whole 64-byte lines

        static RowLayout of(const AdaptiveConfig &config,
                            unsigned assoc);
    };

    /** Run @p f with the component lane form as its argument type. */
    template <class F>
    decltype(auto) withLanes(F &&f) const;

    /** Stored-domain (folded) form of a full tag. */
    Addr
    stored(Addr full_tag) const
    {
        return foldTag(full_tag, config_.partialTagBits,
                       config_.xorFoldTags);
    }

    /** Side array of structure @p s (0 = real, 1 + k = component k)
     *  in @p set: its tags, kept once the set holds a wide one (the
     *  array is allocated when the first set does). */
    Addr *
    sideTags(unsigned set, unsigned s)
    {
        return &side_[(std::size_t(set) * sides_ + s) * assoc_];
    }
    const Addr *
    sideTags(unsigned set, unsigned s) const
    {
        return &side_[(std::size_t(set) * sides_ + s) * assoc_];
    }

    // A full-tag structure of a set: its valid word, its lanes and,
    // once the set has held a wide tag, its side array @p s.
    unsigned findFull(std::uint64_t valid, const std::uint64_t *lanes,
                      unsigned words, unsigned set, unsigned s,
                      Addr t) const;
    Addr atFull(std::uint64_t valid, const std::uint64_t *lanes,
                unsigned set, unsigned s, unsigned way) const;
    void fillFull(std::uint64_t &valid, std::uint64_t *lanes,
                  unsigned set, unsigned s, unsigned way, Addr t);
    void fillWide(std::uint64_t &valid, std::uint64_t *lanes,
                  unsigned set, unsigned s, unsigned way, Addr t);

    /** Real way holding full tag @p tag, or kNoLane. */
    unsigned findReal(const std::uint64_t *row, unsigned set,
                      Addr tag) const;

    /** Full tag of real way @p way. */
    Addr realFull(const std::uint64_t *row, unsigned set,
                  unsigned way) const;

    /** Lowest valid real way whose stored tag is @p st, or kNoLane. */
    template <class Form>
    unsigned findRealStored(const std::uint64_t *row, unsigned set,
                            Addr st) const;

    /** Stored tag of real way @p way. */
    template <class Form>
    Addr realStored(const std::uint64_t *row, unsigned set,
                    unsigned way) const;

    /** Way of component @p k holding stored tag @p st, or kNoLane. */
    template <class Form>
    unsigned findComponent(const std::uint64_t *row, unsigned set,
                           unsigned k, Addr st) const;

    /** Stored tag of component @p k's way @p way. */
    template <class Form>
    Addr componentStored(const std::uint64_t *row, unsigned set,
                         unsigned k, unsigned way) const;

    /** Present one reference to component @p k's simulation. */
    template <class Form, class Policy>
    void componentAccess(Policy &policy, unsigned k, std::uint64_t *row,
                         unsigned set, Addr st,
                         adapt::SketchColumns candidate,
                         ShadowOutcome &out);

    /** access() in lane form @p Form over @p components (see
     *  adaptive_cache.cc: two typed components, or any number). */
    template <class Form, class Components>
    AccessResult accessRow(Components &components, Addr addr,
                           bool is_write);

    template <class Form>
    AccessResult accessAny(Addr addr, bool is_write);
    template <class Form, class P0, class P1>
    AccessResult accessPair(Addr addr, bool is_write);

    /** The accessRow instantiation this cache's shape runs, chosen
     *  once: its lane form and, with two components, their pair. */
    using AccessFn = AccessResult (AdaptiveCache::*)(Addr, bool);
    AccessFn pickAccess();

    AdaptiveConfig config_;
    CacheGeometry geom_;
    AddrMap map_;
    Rng rng_;
    unsigned assoc_;
    unsigned numPolicies_;
    std::uint32_t allMask_;
    RowLayout lay_;
    SetRows rows_;

    unsigned sides_;         //!< side-array structures per set
    std::vector<Addr> side_; //!< set-major tags; empty until needed

    /** Shared TinyLFU filter of the admission-flagged components. */
    std::unique_ptr<adapt::TinyLfuAdmission> admission_;
    std::vector<std::uint8_t> admits_;      //!< per component
    std::vector<PolicySet> policies_;       //!< on the rows
    adapt::HistorySet history_;             //!< on the rows
    std::vector<std::uint64_t> shadowMisses_;
    std::vector<std::uint64_t> decisions_;  // [set * k + k], flat
    /** AnyComponents' outcomes, reused so the hot path never
     *  allocates. */
    std::vector<ShadowOutcome> outcomeScratch_;
    /** Last imitated component per set (0xFF = none yet); only
     *  maintained while tracing is enabled, to detect winner flips. */
    std::vector<std::uint8_t> lastWinner_;
    AccessFn access_;
    CacheStats stats_;
    std::uint64_t fallbacks_ = 0;
    std::uint64_t bypasses_ = 0;
};

} // namespace adcache

#endif // ADCACHE_CORE_ADAPTIVE_CACHE_HH
