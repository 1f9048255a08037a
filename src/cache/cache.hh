/**
 * @file
 * Conventional set-associative write-back, write-allocate cache with
 * a pluggable replacement policy. This is both the baseline in every
 * experiment and the L1 instruction/data cache substrate.
 */

#ifndef ADCACHE_CACHE_CACHE_HH
#define ADCACHE_CACHE_CACHE_HH

#include "cache/cache_model.hh"
#include "cache/policy_sets.hh"
#include "cache/replacement.hh"
#include "cache/tag_array.hh"
#include "util/rng.hh"

namespace adcache
{

/** Configuration of a conventional cache. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 512 * 1024;
    unsigned assoc = 8;
    unsigned lineSize = 64;
    PolicyType policy = PolicyType::LRU;
    std::uint64_t rngSeed = 1;  //!< only used by stochastic policies

    CacheGeometry
    geometry() const
    {
        return CacheGeometry::fromSize(sizeBytes, assoc, lineSize);
    }
};

/** A conventional set-associative cache. */
class Cache : public CacheModel
{
  public:
    explicit Cache(const CacheConfig &config);

    AccessResult access(Addr addr, bool is_write) override;
    const CacheStats &stats() const override { return stats_; }
    const CacheGeometry &geometry() const override { return geom_; }
    std::string describe() const override;

    /** True iff the block containing @p addr is resident. */
    bool contains(Addr addr) const;

    /** Invalidate the block containing @p addr if resident. */
    void invalidateBlock(Addr addr);

    PolicyType policyType() const { return config_.policy; }

  private:
    template <class Policy>
    AccessResult accessImpl(Policy &policy, Addr addr, bool is_write);

    CacheConfig config_;
    CacheGeometry geom_;
    AddrMap map_;
    Rng rng_;
    TagArray tags_;
    PolicySet policies_;
    CacheStats stats_;
};

} // namespace adcache

#endif // ADCACHE_CACHE_CACHE_HH
