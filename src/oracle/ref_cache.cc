#include "oracle/ref_cache.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace adcache
{

RefCache::RefCache(const RefGeometry &geom, PolicyType policy,
                   unsigned partial_bits, bool xor_fold,
                   const RefTinyLfu *admission)
    : geom_(geom), policy_(policy), partialBits_(partial_bits),
      xorFold_(xor_fold), admission_(admission)
{
    adcache_assert(refPolicySupported(policy));
    sets_.assign(geom.numSets, std::vector<Way>(geom.assoc));
    policies_.reserve(geom.numSets);
    if (policy == PolicyType::CmsLfu) {
        // All sets share one frequency sketch (the production
        // CmsLfuSets layout); each per-set model composes its own
        // set index into the sketch keys.
        const unsigned set_bits =
            geom.numSets <= 1 ? 0 : floorLog2(geom.numSets);
        cmsSketch_ = std::make_unique<RefCountMinSketch>(
            adapt::SketchParams::forGeometry(geom.numSets,
                                             geom.assoc));
        for (unsigned s = 0; s < geom.numSets; ++s)
            policies_.push_back(makeRefCmsLfuPolicy(
                geom.assoc, s, set_bits, cmsSketch_.get()));
    } else {
        for (unsigned s = 0; s < geom.numSets; ++s)
            policies_.push_back(makeRefPolicy(policy, geom.assoc));
    }
}

Addr
RefCache::foldTag(Addr full_tag) const
{
    if (partialBits_ == 0)
        return full_tag;
    if (xorFold_)
        return xorFold(full_tag, partialBits_);
    return full_tag & lowMask(partialBits_);
}

bool
RefCache::containsTag(unsigned set, Addr stored_tag) const
{
    for (const Way &w : sets_.at(set))
        if (w.valid && w.tag == stored_tag)
            return true;
    return false;
}

bool
RefCache::contains(Addr addr) const
{
    return containsTag(geom_.setOf(addr),
                       foldTag(geom_.tagOf(addr)));
}

std::vector<Addr>
RefCache::residentBlocks() const
{
    adcache_assert(partialBits_ == 0);
    std::vector<Addr> blocks;
    for (unsigned s = 0; s < geom_.numSets; ++s)
        for (const Way &w : sets_[s])
            if (w.valid)
                blocks.push_back(geom_.blockAddr(s, w.tag));
    return blocks;
}

RefOutcome
RefCache::access(Addr addr, bool is_write)
{
    RefOutcome out;
    const unsigned set = geom_.setOf(addr);
    const Addr tag = foldTag(geom_.tagOf(addr));
    std::vector<Way> &ways = sets_[set];
    RefPolicy &policy = *policies_[set];

    for (unsigned w = 0; w < geom_.assoc; ++w) {
        if (ways[w].valid && ways[w].tag == tag) {
            // With partial tags this can be an aliased false
            // positive; the reference proceeds as a hit exactly like
            // the production shadow (Sec. 3.1).
            ++hits_;
            out.hit = true;
            out.way = w;
            policy.onHitTag(w, tag);
            if (is_write)
                ways[w].dirty = true;
            return out;
        }
    }

    ++misses_;

    unsigned fill = geom_.assoc;
    for (unsigned w = 0; w < geom_.assoc; ++w) {
        if (!ways[w].valid) {
            fill = w;
            break;
        }
    }
    if (fill == geom_.assoc) {
        // The admission filter sees the candidate against the way the
        // policy would evict; a refused candidate leaves the set (and
        // the policy metadata) untouched.
        if (admission_ != nullptr) {
            const unsigned vw = policy.victim();
            if (!admission_->admit(tag, ways[vw].tag)) {
                out.bypassed = true;
                return out;
            }
        }
        fill = policy.victim();
        out.evicted = true;
        out.evictedTag = ways[fill].tag;
        out.evictedDirty = ways[fill].dirty;
        ++evictions_;
        if (ways[fill].dirty)
            ++writebacks_;
        policy.onEvict(fill);
    }

    ways[fill] = Way{tag, true, is_write};
    policy.onFillTag(fill, tag);
    out.way = fill;
    return out;
}

} // namespace adcache
