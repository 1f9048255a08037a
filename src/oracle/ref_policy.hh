/**
 * @file
 * Reference replacement models for the differential oracle.
 *
 * These are deliberately naive re-implementations of the replacement
 * policies, written in the most obviously-correct style available:
 * LRU/FIFO/MRU as explicit stacks (ordered lists of ways), LFU and
 * SRRIP as plain integers, and tree PLRU as an explicit tree of
 * bools. They share no code with the production policies in
 * cache/policy_sets.hh — the production code encodes the same orders
 * as packed stamps, saturating counters and tree bit words — so a bug
 * in either implementation shows up as a lockstep divergence.
 *
 * Random is the only policy without a reference model;
 * refPolicySupported() reports which types can be oracle-checked.
 */

#ifndef ADCACHE_ORACLE_REF_POLICY_HH
#define ADCACHE_ORACLE_REF_POLICY_HH

#include <memory>

#include "cache/replacement.hh"
#include "util/types.hh"

namespace adcache
{

/**
 * Reference model of one set's replacement metadata, driven by the
 * same fill, hit and invalidate events as the production policies.
 * victim() is const: every reference model is a pure function of the
 * event history, and state that the production policy changes while
 * choosing a victim (SRRIP's aging) changes in onEvict() instead.
 */
class RefPolicy
{
  public:
    virtual ~RefPolicy() = default;

    virtual void onFill(unsigned way) = 0;
    virtual void onHit(unsigned way) = 0;
    virtual void onInvalidate(unsigned way) = 0;

    /**
     * The owner evicted @p way, the victim() it just chose, to refill
     * it. Owners call this only where production lets the policy pick
     * the victim itself.
     */
    virtual void onEvict(unsigned way) { onInvalidate(way); }

    /**
     * Tag-carrying variants for policies whose metadata derives from
     * the referenced (stored) tag — CMS-LFU re-keys its sketch from
     * the tag on every fill *and* hit. Order-only policies ignore the
     * tag; owners always call these so the dispatch stays uniform.
     */
    virtual void
    onFillTag(unsigned way, Addr stored_tag)
    {
        (void)stored_tag;
        onFill(way);
    }

    virtual void
    onHitTag(unsigned way, Addr stored_tag)
    {
        (void)stored_tag;
        onHit(way);
    }

    /** Way the policy would evict. Only meaningful when the owning
     *  set is full (mirrors the production contract). */
    virtual unsigned victim() const = 0;

    virtual unsigned assoc() const = 0;
};

/** True iff @p type has a reference model. */
bool refPolicySupported(PolicyType type);

/** Build the reference model for @p type; panics if unsupported. */
std::unique_ptr<RefPolicy> makeRefPolicy(PolicyType type,
                                         unsigned assoc);

} // namespace adcache

#endif // ADCACHE_ORACLE_REF_POLICY_HH
