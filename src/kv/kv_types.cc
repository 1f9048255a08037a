#include "kv/kv_types.hh"

#include <cctype>

namespace adcache::kv
{

const char *
selectorModeName(SelectorMode mode)
{
    switch (mode) {
      case SelectorMode::Adaptive:
        return "adaptive";
      case SelectorMode::FixedLru:
        return "lru";
      case SelectorMode::FixedLfu:
        return "lfu";
    }
    return "?";
}

std::string
kvComponentName(const KvComponentSpec &spec)
{
    std::string name = policyName(spec.evict);
    for (char &c : name)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    if (spec.admission)
        name += "/adm";
    return name;
}

bool
KvConfig::anyAdmission() const
{
    for (const KvComponentSpec &c : components)
        if (c.admission)
            return true;
    return false;
}

void
KvConfig::validate() const
{
    adcache_assert(isPowerOfTwo(numShards));
    adcache_assert(isPowerOfTwo(numBuckets));
    adcache_assert(bucketWays >= 1);
    adcache_assert(leaderEvery >= 1);
    adcache_assert(shadowTagBits <= 40);
    adcache_assert(capacity >= numShards);
    // The shard walks its intrusive LRU and LFU orders; no other
    // eviction order has one.
    for (const KvComponentSpec &c : components)
        adcache_assert(c.evict == PolicyType::LRU ||
                       c.evict == PolicyType::LFU);
}

} // namespace adcache::kv
