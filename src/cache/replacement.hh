/**
 * @file
 * Replacement-policy names and costs. The adaptive cache (src/core)
 * composes any two (or more) of these policies, per Sec. 2 of the
 * paper; cache/policy_sets.hh implements them.
 */

#ifndef ADCACHE_CACHE_REPLACEMENT_HH
#define ADCACHE_CACHE_REPLACEMENT_HH

#include <string>

namespace adcache
{

/** The component policies evaluated in the paper, plus extensions. */
enum class PolicyType
{
    LRU,      //!< least recently used
    LFU,      //!< least frequently used (5-bit saturating counters)
    FIFO,     //!< first-in first-out
    MRU,      //!< most recently used (bad alone, good for linear loops)
    Random,   //!< uniform random victim
    TreePLRU, //!< tree pseudo-LRU (extension baseline)
    SRRIP,    //!< static RRIP (extension baseline, 2-bit RRPV)
    CmsLfu,   //!< approximate LFU over a Count-Min sketch (O(1) memory)
};

/** Parse a policy name ("lru", "lfu", ...); fatal() on unknown names. */
PolicyType parsePolicyType(const std::string &name);

/** Printable policy name. */
const char *policyName(PolicyType type);

/**
 * Per-entry metadata cost of a policy in bits, for the storage model
 * of Sec. 3 (e.g. log2(assoc) recency bits for LRU, 5 for LFU).
 */
unsigned policyMetaBits(PolicyType type, unsigned assoc);

} // namespace adcache

#endif // ADCACHE_CACHE_REPLACEMENT_HH
