#include "core/sbar_cache.hh"

#include <sstream>

#include "adapt/imitation.hh"
#include "obs/trace.hh"
#include "util/stat_registry.hh"

namespace adcache
{

SbarCache::SbarCache(const SbarConfig &config)
    : config_(config), geom_(config.geometry()), map_(geom_),
      rng_(config.rngSeed), tags_(geom_.numSets, geom_.assoc),
      policyA_(config.policyA, geom_.numSets, geom_.assoc, &rng_),
      policyB_(config.policyB, geom_.numSets, geom_.assoc, &rng_),
      // Shadow structures are sized for the full set count but only
      // leader sets ever touch them; a hardware implementation would
      // provision numLeaders sets (the overhead model accounts bits
      // that way, see core/overhead.cc).
      shadowA_(geom_, config.policyA, config.partialTagBits,
               config.xorFoldTags, &rng_),
      shadowB_(geom_, config.policyB, config.partialTagBits,
               config.xorFoldTags, &rng_),
      leaderSelector_(adapt::Selector::makeAdaptive(
          config.numLeaders, 2, false,
          config.historyDepth != 0 ? config.historyDepth
                                   : geom_.assoc)),
      psel_(config.pselBits)
{
    adcache_assert(config.numLeaders >= 1 &&
                   config.numLeaders <= geom_.numSets);

    leaderSpacing_ = geom_.numSets / config.numLeaders;
    adcache_assert(leaderSpacing_ >= 1);
    leaderOrdinal_.assign(geom_.numSets, -1);
    unsigned ordinal = 0;
    for (unsigned s = 0; s < geom_.numSets; s += leaderSpacing_) {
        if (ordinal >= config.numLeaders)
            break;
        leaderOrdinal_[s] = int(ordinal++);
    }
    fallbackPtr_.assign(geom_.numSets, 0);
}

bool
SbarCache::isLeader(unsigned set) const
{
    return leaderOrdinal_.at(set) >= 0;
}

bool
SbarCache::contains(Addr addr) const
{
    return tags_.lookup(map_.set(addr), map_.tag(addr)) !=
           TagArray::kNoWay;
}

unsigned
SbarCache::globalChoice() const
{
    // High half of the counter range means "A has been missing more;
    // prefer B".
    return psel_.choice();
}

template <class PolicyA, class PolicyB>
AccessResult
SbarCache::accessImpl(PolicyA &pa, PolicyB &pb, Addr addr,
                      bool is_write)
{
    AccessResult result;
    ++stats_.accesses;

    const unsigned set = map_.set(addr);
    const Addr tag = map_.tag(addr);
    const int ordinal = leaderOrdinal_[set];

    ShadowOutcome out_a, out_b;
    if (ordinal >= 0) {
        out_a = shadowA_.access(addr);
        out_b = shadowB_.access(addr);
        if (out_a.miss != out_b.miss) {
            leaderSelector_.record(unsigned(ordinal),
                                   out_a.miss ? 0b01 : 0b10);
            // A missing drifts the counter toward B and vice versa.
            if (psel_.record(out_a.miss)) {
                if (obs::traceEnabled())
                    obs::emit(obs::sbarPselEvent(
                        stats_.accesses, psel_.value(),
                        psel_.choice() ^ 1u, psel_.choice()));
            }
            if (obs::traceEnabled())
                obs::emit(obs::diffMissEvent(
                    stats_.accesses, set, out_a.miss ? 0b01 : 0b10));
        }
        // Leader shadow displacements; gate only when some shadow
        // missed, never on the all-hit path.
        if ((out_a.miss || out_b.miss) && obs::traceEnabled()) {
            if (out_a.evicted)
                shadowA_.traceEvict(stats_.accesses, set, 0, out_a);
            if (out_b.evicted)
                shadowB_.traceEvict(stats_.accesses, set, 1, out_b);
        }
    }

    const unsigned way = tags_.lookup(set, tag);
    if (way != TagArray::kNoWay) {
        ++stats_.hits;
        pa.onHit(set, way, tag);
        pb.onHit(set, way, tag);
        if (is_write)
            tags_.markDirty(set, way);
        result.hit = true;
        return result;
    }

    ++stats_.misses;
    if (is_write)
        ++stats_.writeMisses;
    else
        ++stats_.readMisses;

    unsigned fill_way = tags_.invalidWay(set);
    if (fill_way == TagArray::kNoWay) {
        unsigned winner;
        if (ordinal >= 0) {
            winner = leaderSelector_.winner(unsigned(ordinal));
            const ShadowOutcome &wo = winner == 0 ? out_a : out_b;
            adapt::WaySetView<TagArray, ShadowCache> view(
                tags_, winner == 0 ? shadowA_ : shadowB_, set,
                geom_.assoc, &fallbackPtr_[set]);
            const auto choice =
                adapt::imitateVictim(view, wo.evicted, wo.evictedTag);
            fill_way = choice.handle;
            if (obs::traceEnabled())
                obs::emit(obs::evictionEvent(
                    stats_.accesses, set, winner,
                    toEvictCase(choice.kind),
                    tags_.tag(set, fill_way)));
        } else {
            winner = globalChoice();
            // The follower runs the selected algorithm on whatever
            // blocks are currently resident (Sec. 4.7).
            fill_way = winner == 0 ? pa.victim(set) : pb.victim(set);
        }

        ++stats_.evictions;
        if (tags_.dirty(set, fill_way)) {
            ++stats_.writebacks;
            result.writeback = true;
            result.writebackAddr =
                geom_.reconstruct(set, tags_.tag(set, fill_way));
        }
        // No onInvalidate: the onFill calls below fully overwrite
        // the victim's per-way policy state.
    }

    tags_.fill(set, fill_way, tag);
    pa.onFill(set, fill_way, tag);
    pb.onFill(set, fill_way, tag);
    if (is_write)
        tags_.markDirty(set, fill_way);
    return result;
}

AccessResult
SbarCache::access(Addr addr, bool is_write)
{
    return policyA_.visit([&](auto &pa) {
        return policyB_.visit([&](auto &pb) {
            return accessImpl(pa, pb, addr, is_write);
        });
    });
}

std::string
SbarCache::describe() const
{
    std::ostringstream out;
    out << "SBAR[" << policyName(config_.policyA) << "+"
        << policyName(config_.policyB) << "] ("
        << (geom_.sizeBytes() / 1024) << "KB, " << geom_.assoc
        << "-way, " << config_.numLeaders << " leaders, ";
    if (config_.partialTagBits == 0)
        out << "full-tag leaders)";
    else
        out << config_.partialTagBits << "-bit leaders)";
    return out.str();
}


void
SbarCache::registerStats(StatRegistry &reg,
                         const std::string &prefix) const
{
    stats_.registerInto(reg, prefix);
    reg.counter(prefix + "selection_flips", psel_.flips());
    reg.counter(prefix + "global_choice", globalChoice());
}

} // namespace adcache
