/**
 * @file
 * Partial-hash shadow directory for the kv cache: simulates what a
 * pure component policy (LRU or LFU) would keep for the keys of each
 * bucket, holding folded key tags only — never values (Secs. 2.2 and
 * 3.1 re-hosted on the key-hash domain).
 *
 * Internally this is the production ShadowCache driven through a
 * synthetic address mapping (bucket -> set index, key tag -> block
 * tag), so partial-tag folding, false-positive aliasing, and the
 * per-set replacement metadata are byte-for-byte the semantics the
 * differential oracle already verifies.
 */

#ifndef ADCACHE_KV_SHADOW_DIR_HH
#define ADCACHE_KV_SHADOW_DIR_HH

#include <cstdint>

#include "core/shadow_cache.hh"
#include "kv/kv_types.hh"

namespace adcache::kv
{

/** Tag-only component-policy simulation over (bucket, key tag). */
class KvShadowDir
{
  public:
    /**
     * @param num_buckets  buckets covered (power of two).
     * @param ways         directory associativity per bucket.
     * @param policy       component policy simulated.
     * @param partial_bits stored tag width (0 = full key tags),
     *                     folded by keeping the low bits.
     * @param rng          shared generator (stochastic policies).
     * @param admission    optional TinyLFU filter (not owned); the
     *                     owning shard touch()es it per reference and
     *                     passes the columns to access().
     */
    KvShadowDir(unsigned num_buckets, unsigned ways, PolicyType policy,
                unsigned partial_bits, Rng *rng,
                const adapt::TinyLfuAdmission *admission = nullptr);

    /** Simulate the component policy for one key reference;
     *  @p candidate is the admission filter's touch() of this key. */
    ShadowOutcome access(std::uint32_t bucket, std::uint64_t key_tag,
                         adapt::SketchColumns candidate = {});

    /** Fold a key tag into the stored-tag domain. */
    Addr foldTag(std::uint64_t key_tag) const;

    /** Membership of @p stored_tag in @p bucket's directory. */
    bool containsTag(std::uint32_t bucket, Addr stored_tag) const;

    std::uint64_t misses() const { return shadow_.misses(); }
    std::uint64_t accesses() const { return shadow_.accesses(); }
    PolicyType policyType() const { return shadow_.policyType(); }

  private:
    Addr addrOf(std::uint32_t bucket, std::uint64_t key_tag) const;

    CacheGeometry geom_;
    std::uint64_t tagMask_; //!< keeps key tags reconstructible
    ShadowCache shadow_;
};

} // namespace adcache::kv

#endif // ADCACHE_KV_SHADOW_DIR_HH
