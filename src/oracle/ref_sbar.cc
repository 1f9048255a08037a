#include "oracle/ref_sbar.hh"

#include "util/logging.hh"

namespace adcache
{

RefSbarCache::RefSbarCache(const RefSbarParams &params)
    : params_(params)
{
    const RefGeometry &g = params.geom;
    adcache_assert(params.numLeaders >= 1 &&
                   params.numLeaders <= g.numSets);

    sets_.assign(g.numSets, std::vector<Way>(g.assoc));
    metaA_.reserve(g.numSets);
    metaB_.reserve(g.numSets);
    for (unsigned s = 0; s < g.numSets; ++s) {
        metaA_.push_back(makeRefPolicy(params.policyA, g.assoc));
        metaB_.push_back(makeRefPolicy(params.policyB, g.assoc));
    }

    shadowA_ = std::make_unique<RefCache>(g, params.policyA,
                                          params.partialTagBits,
                                          params.xorFoldTags);
    shadowB_ = std::make_unique<RefCache>(g, params.policyB,
                                          params.partialTagBits,
                                          params.xorFoldTags);

    const unsigned spacing = g.numSets / params.numLeaders;
    adcache_assert(spacing >= 1);
    const unsigned depth =
        params.historyDepth != 0 ? params.historyDepth : g.assoc;
    leaderOrdinal_.assign(g.numSets, -1);
    unsigned ordinal = 0;
    for (unsigned s = 0; s < g.numSets; s += spacing) {
        if (ordinal >= params.numLeaders)
            break;
        leaderOrdinal_[s] = int(ordinal++);
        leaderHistory_.emplace_back(depth, 2);
    }
    fallbackPtr_.assign(g.numSets, 0);

    pselMax_ = (1u << params.pselBits) - 1;
    psel_ = (1u << params.pselBits) / 2;
}

bool
RefSbarCache::isLeader(unsigned set) const
{
    return leaderOrdinal_.at(set) >= 0;
}

unsigned
RefSbarCache::globalChoice() const
{
    return psel_ > pselMax_ / 2 ? 1 : 0;
}

bool
RefSbarCache::contains(Addr addr) const
{
    const unsigned set = params_.geom.setOf(addr);
    const Addr tag = params_.geom.tagOf(addr);
    for (const Way &w : sets_[set])
        if (w.valid && w.tag == tag)
            return true;
    return false;
}

std::vector<Addr>
RefSbarCache::residentBlocks() const
{
    std::vector<Addr> blocks;
    for (unsigned s = 0; s < params_.geom.numSets; ++s)
        for (const Way &w : sets_[s])
            if (w.valid)
                blocks.push_back(params_.geom.blockAddr(s, w.tag));
    return blocks;
}

unsigned
RefSbarCache::leaderVictim(unsigned set, unsigned winner,
                           const RefOutcome &winner_outcome)
{
    RefCache &shadow = winner == 0 ? *shadowA_ : *shadowB_;
    std::vector<Way> &ways = sets_[set];

    if (winner_outcome.evicted) {
        for (unsigned w = 0; w < params_.geom.assoc; ++w)
            if (ways[w].valid &&
                shadow.foldTag(ways[w].tag) == winner_outcome.evictedTag)
                return w;
    }
    for (unsigned w = 0; w < params_.geom.assoc; ++w)
        if (ways[w].valid &&
            !shadow.containsTag(set, shadow.foldTag(ways[w].tag)))
            return w;
    const unsigned w = fallbackPtr_[set];
    fallbackPtr_[set] = (w + 1) % params_.geom.assoc;
    return w;
}

RefSbarOutcome
RefSbarCache::access(Addr addr, bool is_write)
{
    RefSbarOutcome out;
    const RefGeometry &g = params_.geom;
    const unsigned set = g.setOf(addr);
    const Addr tag = g.tagOf(addr);
    const int ordinal = leaderOrdinal_[set];

    RefOutcome out_a, out_b;
    if (ordinal >= 0) {
        out_a = shadowA_->access(addr, false);
        out_b = shadowB_->access(addr, false);
        if (out_a.hit != out_b.hit) {
            leaderHistory_[ordinal].record(out_a.hit ? 0b10 : 0b01);
            const unsigned before = globalChoice();
            if (!out_a.hit) {
                if (psel_ < pselMax_)
                    ++psel_;  // A missing -> drift toward B
            } else {
                if (psel_ > 0)
                    --psel_;
            }
            if (globalChoice() != before)
                ++flips_;
        }
    }

    std::vector<Way> &ways = sets_[set];
    for (unsigned w = 0; w < g.assoc; ++w) {
        if (ways[w].valid && ways[w].tag == tag) {
            ++hits_;
            out.hit = true;
            metaA_[set]->onHit(w);
            metaB_[set]->onHit(w);
            if (is_write)
                ways[w].dirty = true;
            return out;
        }
    }

    ++misses_;

    unsigned fill = g.assoc;
    for (unsigned w = 0; w < g.assoc; ++w) {
        if (!ways[w].valid) {
            fill = w;
            break;
        }
    }
    if (fill == g.assoc) {
        if (ordinal >= 0) {
            const unsigned winner = leaderHistory_[ordinal].best();
            fill = leaderVictim(set, winner,
                                winner == 0 ? out_a : out_b);
        } else {
            // Follower: run the selected component on whatever blocks
            // are currently resident. Only that component chose the
            // victim, so only it sees the eviction.
            RefPolicy &chosen =
                globalChoice() == 0 ? *metaA_[set] : *metaB_[set];
            fill = chosen.victim();
            chosen.onEvict(fill);
        }
        out.evicted = true;
        out.evictedBlock = g.blockAddr(set, ways[fill].tag);
        out.evictedDirty = ways[fill].dirty;
        ++evictions_;
        if (ways[fill].dirty)
            ++writebacks_;
        metaA_[set]->onInvalidate(fill);
        metaB_[set]->onInvalidate(fill);
    }

    ways[fill] = Way{tag, true, is_write};
    metaA_[set]->onFill(fill);
    metaB_[set]->onFill(fill);
    return out;
}

} // namespace adcache
