#include "oracle/ref_adaptive.hh"

#include "util/logging.hh"

namespace adcache
{

RefAdaptiveCache::RefAdaptiveCache(
    const RefGeometry &geom, const std::vector<PolicyType> &policies,
    unsigned partial_bits, bool xor_fold,
    const std::vector<std::uint8_t> &admission, unsigned history_depth,
    bool exact_counters)
    : geom_(geom), exact_(exact_counters)
{
    adcache_assert(policies.size() >= 2);
    adcache_assert(admission.empty() ||
                   admission.size() == policies.size());
    for (std::uint8_t f : admission) {
        if (f) {
            admission_ = std::make_unique<RefTinyLfu>(
                adapt::SketchParams::forGeometry(geom.numSets,
                                                 geom.assoc));
            break;
        }
    }
    for (std::size_t k = 0; k < policies.size(); ++k) {
        const bool admit = k < admission.size() && admission[k];
        shadows_.push_back(std::make_unique<RefCache>(
            geom, policies[k], partial_bits, xor_fold,
            admit ? admission_.get() : nullptr));
    }
    sets_.assign(geom.numSets, std::vector<Way>(geom.assoc));
    const auto num_policies = unsigned(policies.size());
    if (exact_counters)
        counters_.assign(geom.numSets, RefExactCounters(num_policies));
    else
        windows_.assign(geom.numSets,
                        RefWindowHistory(history_depth != 0
                                             ? history_depth
                                             : geom.assoc,
                                         num_policies));
    decisions_.assign(geom.numSets,
                      std::vector<std::uint64_t>(policies.size(), 0));
    fallbackPtr_.assign(geom.numSets, 0);
}

std::uint64_t
RefAdaptiveCache::shadowMisses(unsigned k) const
{
    return shadows_.at(k)->misses();
}

std::uint64_t
RefAdaptiveCache::counterOf(unsigned set, unsigned k) const
{
    return exact_ ? counters_.at(set).count(k)
                  : windows_.at(set).count(k);
}

unsigned
RefAdaptiveCache::bestOf(unsigned set) const
{
    return exact_ ? counters_[set].best() : windows_[set].best();
}

std::uint64_t
RefAdaptiveCache::decisionsOf(unsigned set, unsigned k) const
{
    return decisions_.at(set).at(k);
}

bool
RefAdaptiveCache::contains(Addr addr) const
{
    const unsigned set = geom_.setOf(addr);
    const Addr tag = geom_.tagOf(addr);
    for (const Way &w : sets_[set])
        if (w.valid && w.tag == tag)
            return true;
    return false;
}

std::vector<Addr>
RefAdaptiveCache::residentBlocks() const
{
    std::vector<Addr> blocks;
    for (unsigned s = 0; s < geom_.numSets; ++s)
        for (const Way &w : sets_[s])
            if (w.valid)
                blocks.push_back(geom_.blockAddr(s, w.tag));
    return blocks;
}

unsigned
RefAdaptiveCache::chooseVictim(unsigned set, unsigned winner,
                               const RefOutcome &winner_outcome,
                               bool *used_fallback)
{
    RefCache &shadow = *shadows_[winner];
    std::vector<Way> &ways = sets_[set];

    // Case 1: the imitated component displaced a block this access;
    // if a resident block folds to that tag, evict it (lowest way).
    if (winner_outcome.evicted) {
        for (unsigned w = 0; w < geom_.assoc; ++w)
            if (ways[w].valid &&
                shadow.foldTag(ways[w].tag) == winner_outcome.evictedTag)
                return w;
    }

    // Case 2: evict a resident block outside the imitated
    // component's (shadow) contents.
    for (unsigned w = 0; w < geom_.assoc; ++w)
        if (ways[w].valid &&
            !shadow.containsTag(set, shadow.foldTag(ways[w].tag)))
            return w;

    // Case 3: aliasing defeated both searches — rotate through the
    // ways, as the production cache documents for its arbitrary pick.
    *used_fallback = true;
    ++fallbacks_;
    const unsigned w = fallbackPtr_[set];
    fallbackPtr_[set] = (w + 1) % geom_.assoc;
    return w;
}

RefAdaptiveOutcome
RefAdaptiveCache::access(Addr addr, bool is_write)
{
    RefAdaptiveOutcome out;
    const unsigned set = geom_.setOf(addr);
    const Addr tag = geom_.tagOf(addr);
    const auto num_policies = unsigned(shadows_.size());

    // The admission filter sees every candidate before any component
    // simulation consults it (same order as the production cache).
    if (admission_)
        admission_->touch(shadows_[0]->foldTag(tag));

    // Every reference updates every component simulation.
    std::vector<RefOutcome> shadow_out(num_policies);
    std::uint32_t miss_mask = 0;
    for (unsigned k = 0; k < num_policies; ++k) {
        shadow_out[k] = shadows_[k]->access(addr, false);
        if (!shadow_out[k].hit)
            miss_mask |= 1u << k;
    }

    // Only differentiating misses (proper non-empty subsets) train
    // the selector.
    const std::uint32_t all = (1u << num_policies) - 1;
    if (miss_mask != 0 && miss_mask != all) {
        if (exact_)
            counters_[set].record(miss_mask);
        else
            windows_[set].record(miss_mask);
    }

    std::vector<Way> &ways = sets_[set];
    for (Way &w : ways) {
        if (w.valid && w.tag == tag) {
            ++hits_;
            out.hit = true;
            if (is_write)
                w.dirty = true;
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
        const unsigned winner = bestOf(set);
        out.replaced = true;
        out.winner = winner;
        ++decisions_[set][winner];

        // Imitate the winner's admission verdict: a bypass is still a
        // counted decision, but nothing is evicted or filled.
        if (shadow_out[winner].bypassed) {
            ++bypasses_;
            out.bypassed = true;
            return out;
        }

        fill = chooseVictim(set, winner, shadow_out[winner],
                            &out.fallback);

        out.evicted = true;
        out.evictedBlock = geom_.blockAddr(set, ways[fill].tag);
        out.evictedDirty = ways[fill].dirty;
        ++evictions_;
        if (ways[fill].dirty)
            ++writebacks_;
    }

    ways[fill] = Way{tag, true, is_write};
    return out;
}

} // namespace adcache
