#include "cpu/btb.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace adcache
{

Btb::Btb(const BtbConfig &config)
    : config_(config), numSets_(config.entries / config.assoc),
      setBits_(floorLog2(numSets_)), entries_(config.entries)
{
    adcache_assert(config.assoc >= 1);
    adcache_assert(config.entries % config.assoc == 0);
    adcache_assert(isPowerOfTwo(numSets_));
}

unsigned
Btb::setIndex(Addr pc) const
{
    return unsigned((pc >> 2) & (numSets_ - 1));
}

Addr
Btb::tagOf(Addr pc) const
{
    return (pc >> 2) >> setBits_;
}

Btb::Probe
Btb::probe(Addr pc)
{
    const Addr tag = tagOf(pc);
    Entry *set = &entries_[std::size_t(setIndex(pc)) * config_.assoc];
    Entry *invalid = nullptr;
    Entry *lru = nullptr;
    for (unsigned w = 0; w < config_.assoc; ++w) {
        Entry &e = set[w];
        if (!e.valid) {
            if (!invalid)
                invalid = &e;
            continue;
        }
        if (e.tag == tag)
            return {&e, true};
        if (!lru || e.lastUse < lru->lastUse)
            lru = &e;
    }
    return {invalid ? invalid : lru, false};
}

std::optional<Addr>
Btb::lookup(Addr pc)
{
    ++stats_.lookups;
    const Probe p = probe(pc);
    if (!p.hit)
        return std::nullopt;
    ++stats_.hits;
    p.way->lastUse = ++clock_;
    return p.way->target;
}

bool
Btb::update(Addr pc, Addr target)
{
    const Probe p = probe(pc);
    if (!p.hit) {
        p.way->tag = tagOf(pc);
        p.way->valid = true;
    }
    p.way->target = target;
    p.way->lastUse = ++clock_;
    return p.hit;
}

bool
Btb::resolve(Addr pc, Addr target)
{
    ++stats_.lookups;
    const bool hit = update(pc, target);
    stats_.hits += hit;
    return hit;
}

} // namespace adcache
