#include "cache/cache.hh"

#include <sstream>

namespace adcache
{

CacheGeometry
CacheGeometry::fromSize(std::uint64_t size_bytes, unsigned assoc,
                        unsigned line_size)
{
    adcache_assert(assoc >= 1 && line_size >= 1);
    const std::uint64_t line_capacity =
        std::uint64_t(line_size) * assoc;
    adcache_assert(size_bytes % line_capacity == 0);
    CacheGeometry g;
    g.lineSize = line_size;
    g.assoc = assoc;
    g.numSets = unsigned(size_bytes / line_capacity);
    g.validate();
    return g;
}

Cache::Cache(const CacheConfig &config)
    : config_(config), geom_(config.geometry()), map_(geom_),
      rng_(config.rngSeed), tags_(geom_.numSets, geom_.assoc),
      policies_(config.policy, geom_.numSets, geom_.assoc, &rng_)
{
}

template <class Policy>
AccessResult
Cache::accessImpl(Policy &policy, Addr addr, bool is_write)
{
    AccessResult result;
    ++stats_.accesses;

    const unsigned set = map_.set(addr);
    const Addr tag = map_.tag(addr);

    const unsigned way = tags_.lookup(set, tag);
    if (way != TagArray::kNoWay) {
        ++stats_.hits;
        policy.onHit(set, way, tag);
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
        fill_way = policy.evictFill(set, tag);
        ++stats_.evictions;
        if (tags_.dirty(set, fill_way)) {
            ++stats_.writebacks;
            result.writeback = true;
            result.writebackAddr =
                geom_.reconstruct(set, tags_.tag(set, fill_way));
        }
    } else {
        policy.onFill(set, fill_way, tag);
    }

    tags_.fill(set, fill_way, tag);
    if (is_write)
        tags_.markDirty(set, fill_way);
    return result;
}

AccessResult
Cache::access(Addr addr, bool is_write)
{
    return policies_.visit([&](auto &policy) {
        return accessImpl(policy, addr, is_write);
    });
}

bool
Cache::contains(Addr addr) const
{
    return tags_.lookup(map_.set(addr), map_.tag(addr)) !=
           TagArray::kNoWay;
}

void
Cache::invalidateBlock(Addr addr)
{
    const unsigned set = map_.set(addr);
    const unsigned way = tags_.lookup(set, map_.tag(addr));
    if (way != TagArray::kNoWay) {
        tags_.invalidate(set, way);
        policies_.onInvalidate(set, way);
    }
}

std::string
Cache::describe() const
{
    std::ostringstream out;
    out << policyName(config_.policy) << " ("
        << (geom_.sizeBytes() / 1024) << "KB, " << geom_.assoc
        << "-way, " << geom_.lineSize << "B lines)";
    return out.str();
}

} // namespace adcache
