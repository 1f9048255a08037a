#include "kv/shadow_dir.hh"

namespace adcache::kv
{

namespace
{

CacheGeometry
dirGeometry(unsigned num_buckets, unsigned ways)
{
    CacheGeometry geom;
    geom.lineSize = 64; // arbitrary power of two; keys carry no offset
    geom.numSets = num_buckets;
    geom.assoc = ways;
    geom.validate();
    return geom;
}

} // namespace

KvShadowDir::KvShadowDir(unsigned num_buckets, unsigned ways,
                         PolicyType policy, unsigned partial_bits,
                         Rng *rng,
                         const adapt::TinyLfuAdmission *admission)
    : geom_(dirGeometry(num_buckets, ways)),
      tagMask_(lowMask(64 - geom_.offsetBits() - geom_.indexBits())),
      shadow_(geom_, policy, partial_bits, /*xor_fold=*/false, rng,
              admission)
{
}

Addr
KvShadowDir::addrOf(std::uint32_t bucket, std::uint64_t key_tag) const
{
    return geom_.reconstruct(bucket, key_tag & tagMask_);
}

ShadowOutcome
KvShadowDir::access(std::uint32_t bucket, std::uint64_t key_tag,
                    adapt::SketchColumns candidate)
{
    return shadow_.access(addrOf(bucket, key_tag), candidate);
}

Addr
KvShadowDir::foldTag(std::uint64_t key_tag) const
{
    return shadow_.foldTag(key_tag & tagMask_);
}

bool
KvShadowDir::containsTag(std::uint32_t bucket, Addr stored_tag) const
{
    return shadow_.containsTag(bucket, stored_tag);
}

} // namespace adcache::kv
