/**
 * @file
 * Reference model of the adaptive cache (Algorithm 1), in either
 * selector form the production cache ships: the windowed per-set
 * differentiating-miss history every figure runs (RefWindowHistory,
 * depth m), or the exact since-start counters the Appendix's 2x
 * theorem is proved for (RefExactCounters).
 *
 * Components are reference shadow arrays (RefCache), and the
 * victim-selection cases 1-3 of Algorithm 1
 * are transcribed directly from the paper: follow the imitated
 * component's eviction if that block is resident, otherwise evict any
 * resident block outside the imitated component's contents, otherwise
 * (partial-tag aliasing only) fall back to the same rotating
 * arbitrary choice the production cache documents.
 */

#ifndef ADCACHE_ORACLE_REF_ADAPTIVE_HH
#define ADCACHE_ORACLE_REF_ADAPTIVE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "oracle/ref_cache.hh"
#include "oracle/ref_history.hh"

namespace adcache
{

/** Outcome of one reference to the reference adaptive cache. */
struct RefAdaptiveOutcome
{
    bool hit = false;
    bool evicted = false;
    Addr evictedBlock = 0;  //!< full block address of the victim
    bool evictedDirty = false;
    bool replaced = false;  //!< a replacement decision was made
    unsigned winner = 0;    //!< imitated component (iff replaced)
    bool fallback = false;  //!< case-3 arbitrary eviction fired
    bool bypassed = false;  //!< winner's admission refused the fill
};

/** The naive adaptive-cache model. */
class RefAdaptiveCache
{
  public:
    /**
     * @param admission per-component TinyLFU flags, parallel to
     *                  @p policies (empty = admission off). A flagged
     *                  component's shadow bypasses refused fills and
     *                  the adaptive array imitates the winner's
     *                  verdict, matching the production AdaptiveCache.
     * @param history_depth window depth m of each set's history; 0
     *                  selects the associativity (the paper default).
     * @param exact_counters exact since-start counters instead of the
     *                  window (@p history_depth is then ignored).
     */
    RefAdaptiveCache(const RefGeometry &geom,
                     const std::vector<PolicyType> &policies,
                     unsigned partial_bits = 0, bool xor_fold = false,
                     const std::vector<std::uint8_t> &admission = {},
                     unsigned history_depth = 0,
                     bool exact_counters = false);

    RefAdaptiveOutcome access(Addr addr, bool is_write);

    bool contains(Addr addr) const;
    std::vector<Addr> residentBlocks() const;

    unsigned numPolicies() const { return unsigned(shadows_.size()); }
    std::uint64_t shadowMisses(unsigned k) const;

    /** Differentiating misses of component @p k recorded in @p set
     *  (windowed or exact, per the selector form). */
    std::uint64_t counterOf(unsigned set, unsigned k) const;

    /** Replacement decisions imitating component @p k in @p set. */
    std::uint64_t decisionsOf(unsigned set, unsigned k) const;

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t writebacks() const { return writebacks_; }
    std::uint64_t fallbacks() const { return fallbacks_; }
    std::uint64_t bypasses() const { return bypasses_; }

    const RefGeometry &geometry() const { return geom_; }

  private:
    struct Way
    {
        Addr tag = 0;  //!< always the full tag
        bool valid = false;
        bool dirty = false;
    };

    /** Component @p set imitates: the fewest recorded misses. */
    unsigned bestOf(unsigned set) const;

    unsigned chooseVictim(unsigned set, unsigned winner,
                          const RefOutcome &winner_outcome,
                          bool *used_fallback);

    RefGeometry geom_;
    /** Shared admission filter of the flagged components; declared
     *  before shadows_, which hold pointers into it. */
    std::unique_ptr<RefTinyLfu> admission_;
    std::vector<std::unique_ptr<RefCache>> shadows_;
    std::vector<std::vector<Way>> sets_;
    bool exact_;
    std::vector<RefWindowHistory> windows_;             // per set
    std::vector<RefExactCounters> counters_;            // per set
    std::vector<std::vector<std::uint64_t>> decisions_; // [set][k]
    std::vector<unsigned> fallbackPtr_;                 // per set
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t fallbacks_ = 0;
    std::uint64_t bypasses_ = 0;
};

} // namespace adcache

#endif // ADCACHE_ORACLE_REF_ADAPTIVE_HH
