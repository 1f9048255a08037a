/**
 * @file
 * Parallel (shadow) tag structure: tracks what the cache contents
 * would be if a single component policy managed it (Sec. 2.2). Holds
 * tags only — full tags or partial tags of a configurable width
 * (Sec. 3.1) — never data.
 */

#ifndef ADCACHE_CORE_SHADOW_CACHE_HH
#define ADCACHE_CORE_SHADOW_CACHE_HH

#include "adapt/imitation.hh"
#include "adapt/sketch.hh"
#include "cache/cache_model.hh"
#include "cache/policy_sets.hh"
#include "cache/replacement.hh"
#include "cache/tag_array.hh"
#include "obs/event.hh"
#include "obs/trace.hh"

namespace adcache
{

/** Map an engine victim case onto the obs trace encoding. */
inline obs::EvictCase
toEvictCase(adapt::VictimCase c)
{
    switch (c) {
      case adapt::VictimCase::VictimMatch:
        return obs::EvictCase::VictimMatch;
      case adapt::VictimCase::ShadowAbsent:
        return obs::EvictCase::ShadowAbsent;
      default:
        return obs::EvictCase::AliasingFallback;
    }
}

/**
 * Fold a full tag into the stored (shadow) domain: itself with full
 * tags (@p partial_bits 0), else its low @p partial_bits bits or, with
 * @p xor_fold, the XOR of its @p partial_bits-bit groups (Sec. 3.1).
 */
inline Addr
foldTag(Addr full_tag, unsigned partial_bits, bool xor_fold)
{
    if (partial_bits == 0)
        return full_tag;
    if (xor_fold)
        return xorFold(full_tag, partial_bits);
    return full_tag & lowMask(partial_bits);
}

/** Result of presenting one reference to a shadow cache. */
struct ShadowOutcome
{
    bool miss = false;
    /** A (valid) block was displaced to make room. */
    bool evicted = false;
    /** Stored tag of the displaced block, in this shadow's domain. */
    Addr evictedTag = 0;
    /** Full-set miss the admission filter refused to fill. */
    bool bypassed = false;
};

/**
 * A tag-only simulation of one component replacement policy.
 *
 * The shadow shares the real cache's geometry (same sets, same
 * associativity). With partialTagBits > 0 stored tags are folded, so
 * aliasing can make two distinct blocks indistinguishable; the
 * adaptive algorithm tolerates this (Sec. 3.1).
 */
class ShadowCache
{
  public:
    /**
     * @param geom        geometry shared with the real cache.
     * @param policy      the component policy this shadow simulates.
     * @param partial_bits 0 for full tags, else stored tag width.
     * @param xor_fold    fold via XOR of tag groups instead of
     *                    keeping the low-order bits.
     * @param rng         shared generator for stochastic policies.
     * @param admission   optional TinyLFU admission filter; on a
     *                    full-set miss the fill is bypassed when the
     *                    filter refuses the candidate (the outcome
     *                    reports bypassed). Not owned; the owner
     *                    touch()es it once per reference and passes
     *                    the columns it returns to access().
     */
    ShadowCache(const CacheGeometry &geom, PolicyType policy,
                unsigned partial_bits, bool xor_fold, Rng *rng,
                const adapt::TinyLfuAdmission *admission = nullptr);

    /**
     * Simulate the component policy for one reference. @p candidate
     * is this reference's admission columns (the filter's touch()
     * result); only a shadow with an admission filter reads it.
     */
    ShadowOutcome
    access(Addr addr, adapt::SketchColumns candidate = {})
    {
        return policies_.visit([&](auto &policy) {
            return accessImpl(policy, addr, candidate);
        });
    }

    /** Map a full address to this shadow's stored-tag domain. */
    Addr transformTag(Addr addr) const { return foldTag(map_.tag(addr)); }

    /** Fold an already-extracted full tag into the stored domain. */
    Addr
    foldTag(Addr full_tag) const
    {
        return adcache::foldTag(full_tag, partialBits_, xorFold_);
    }

    /** Membership test in the stored-tag domain. */
    bool
    containsTag(unsigned set, Addr stored_tag) const
    {
        return tags_.lookup(set, stored_tag) != TagArray::kNoWay;
    }

    /** Total misses this shadow has suffered. */
    std::uint64_t misses() const { return misses_; }

    /** Total accesses presented. */
    std::uint64_t accesses() const { return accesses_; }

    PolicyType policyType() const { return policyType_; }
    unsigned partialTagBits() const { return partialBits_; }

    /**
     * Emit the ShadowEvict event for an access() outcome that
     * displaced a block. Owners call this from their own
     * `obs::traceEnabled()` blocks — the shadow hot path itself
     * carries no tracing gate.
     */
    void
    traceEvict(std::uint64_t t, unsigned set, unsigned component,
               const ShadowOutcome &out) const
    {
        obs::emit(
            obs::shadowEvictEvent(t, set, component, out.evictedTag));
    }

  private:
    template <class Policy>
    ShadowOutcome
    accessImpl(Policy &policy, Addr addr, adapt::SketchColumns candidate)
    {
        ShadowOutcome out;
        ++accesses_;

        const unsigned set = map_.set(addr);
        const Addr tag = foldTag(map_.tag(addr));

        const unsigned way = tags_.lookup(set, tag);
        if (way != TagArray::kNoWay) {
            // With partial tags this may be a false-positive match
            // for a different block; the component simulation simply
            // proceeds as if it were a hit (Sec. 3.1).
            policy.onHit(set, way, tag);
            return out;
        }

        out.miss = true;
        ++misses_;

        unsigned fill_way = tags_.invalidWay(set);
        if (fill_way == TagArray::kNoWay) {
            if (admission_ != nullptr) {
                const unsigned vw = policy.peekVictim(set);
                if (!admission_->admit(candidate, tags_.tag(set, vw))) {
                    out.bypassed = true;
                    return out;
                }
            }
            fill_way = policy.evictFill(set, tag);
            out.evicted = true;
            out.evictedTag = tags_.tag(set, fill_way);
        } else {
            policy.onFill(set, fill_way, tag);
        }
        tags_.fill(set, fill_way, tag);
        return out;
    }

    CacheGeometry geom_;
    AddrMap map_;
    PolicyType policyType_;
    unsigned partialBits_;
    bool xorFold_;
    TagArray tags_;
    PolicySet policies_;
    const adapt::TinyLfuAdmission *admission_;
    std::uint64_t misses_ = 0;
    std::uint64_t accesses_ = 0;
};

} // namespace adcache

#endif // ADCACHE_CORE_SHADOW_CACHE_HH
