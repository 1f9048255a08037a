/**
 * @file
 * Checks every policy in cache/policy_sets.hh against its naive
 * reference model (oracle/ref_policy.cc; CMS-LFU's in
 * oracle/ref_sketch.cc) at 8 ways, where stamp-ordered policies pack
 * their stamps into lanes, and at 16 ways, where they keep 64-bit
 * stamps. Seeded random hits, fills and invalidations drive both
 * sides. Each victim query on a full set goes through peekVictim,
 * through victim followed by a refill, or through the fused evictFill,
 * and must name the model's victim. CMS-LFU's per-set models share one
 * reference sketch and see varied tags. Random has no model: its
 * victims must equal the draws of a twin Rng with the same seed, drawn
 * when a set's victim is first asked for.
 */

#include "cache/policy_sets.hh"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "oracle/ref_policy.hh"
#include "oracle/ref_sketch.hh"
#include "util/bits.hh"
#include "util/rng.hh"

namespace adcache
{
namespace
{

/** What PolicySet must do: per-set reference models, or for Random
 *  the lazy per-set draws of a twin Rng. */
class Expected
{
  public:
    Expected(PolicyType type, unsigned num_sets, unsigned assoc,
             std::uint64_t seed)
        : assoc_(assoc), twin_(seed), pending_(num_sets),
          sketch_(adapt::SketchParams::forGeometry(num_sets, assoc))
    {
        for (unsigned s = 0; s < num_sets; ++s) {
            if (type == PolicyType::CmsLfu)
                models_.push_back(makeRefCmsLfuPolicy(
                    assoc, s, floorLog2(num_sets), &sketch_));
            else if (type != PolicyType::Random)
                models_.push_back(makeRefPolicy(type, assoc));
        }
    }

    void
    onFill(unsigned set, unsigned way, Addr tag)
    {
        if (!models_.empty())
            models_[set]->onFillTag(way, tag);
    }

    void
    onHit(unsigned set, unsigned way, Addr tag)
    {
        if (!models_.empty())
            models_[set]->onHitTag(way, tag);
    }

    void
    onInvalidate(unsigned set, unsigned way)
    {
        if (!models_.empty())
            models_[set]->onInvalidate(way);
    }

    /** The way the set's next eviction takes. */
    unsigned
    victim(unsigned set)
    {
        if (!models_.empty())
            return models_[set]->victim();
        if (!pending_[set])
            pending_[set] = unsigned(twin_.below(assoc_));
        return *pending_[set];
    }

    /** The set evicted victim(set). */
    void
    onEvict(unsigned set, unsigned way)
    {
        if (!models_.empty())
            models_[set]->onEvict(way);
        pending_[set].reset();
    }

  private:
    unsigned assoc_;
    Rng twin_;
    std::vector<std::optional<unsigned>> pending_;
    RefCountMinSketch sketch_; // CMS-LFU only; outlives models_
    std::vector<std::unique_ptr<RefPolicy>> models_;
};

class PolicySetEquivalence
    : public ::testing::TestWithParam<PolicyType>
{
};

TEST_P(PolicySetEquivalence, MatchesVirtualPolicies)
{
    const PolicyType type = GetParam();
    constexpr unsigned numSets = 4;
    for (unsigned assoc : {8u, 16u}) {
        SCOPED_TRACE(::testing::Message() << assoc << " ways");
        Rng rng(99);
        PolicySet sets(type, numSets, assoc, &rng);
        Expected want(type, numSets, assoc, 99);

        Rng ops(7);
        std::vector<std::vector<Addr>> tags(numSets,
                                            std::vector<Addr>(assoc));
        std::vector<std::uint64_t> valid(numSets, 0);
        // Few distinct tags, so CMS-LFU estimates collide and tie.
        const auto fill = [&](unsigned set, unsigned way) {
            const Addr tag = ops.below(24);
            sets.onFill(set, way, tag);
            want.onFill(set, way, tag);
            tags[set][way] = tag;
            valid[set] |= std::uint64_t{1} << way;
        };
        // Owners ask for a victim only when the set is full.
        const auto fillEmpty = [&](unsigned set) {
            for (unsigned w = 0; w < assoc; ++w)
                if (!((valid[set] >> w) & 1))
                    fill(set, w);
        };

        for (unsigned step = 0; step < 8000; ++step) {
            const unsigned set = unsigned(ops.below(numSets));
            const unsigned way = unsigned(ops.below(assoc));
            switch (ops.below(6)) {
              case 0:
              case 1:
                if ((valid[set] >> way) & 1) {
                    sets.onHit(set, way, tags[set][way]);
                    want.onHit(set, way, tags[set][way]);
                } else {
                    fill(set, way);
                }
                break;
              case 2:
                sets.onInvalidate(set, way);
                want.onInvalidate(set, way);
                valid[set] &= ~(std::uint64_t{1} << way);
                break;
              case 3:
                fillEmpty(set);
                ASSERT_EQ(sets.peekVictim(set), want.victim(set))
                    << "peekVictim, step " << step;
                break;
              case 4: {
                fillEmpty(set);
                const unsigned v = sets.victim(set);
                ASSERT_EQ(v, want.victim(set)) << "victim, step " << step;
                want.onEvict(set, v);
                fill(set, v);
                break;
              }
              default: {
                fillEmpty(set);
                const unsigned v = want.victim(set);
                const Addr tag = ops.below(24);
                want.onEvict(set, v);
                want.onFill(set, v, tag);
                tags[set][v] = tag;
                ASSERT_EQ(sets.evictFill(set, tag), v)
                    << "evictFill, step " << step;
                break;
              }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySetEquivalence,
    ::testing::Values(PolicyType::LRU, PolicyType::MRU,
                      PolicyType::FIFO, PolicyType::LFU,
                      PolicyType::Random, PolicyType::TreePLRU,
                      PolicyType::SRRIP, PolicyType::CmsLfu),
    [](const ::testing::TestParamInfo<PolicyType> &info) {
        return policyName(info.param);
    });

} // namespace
} // namespace adcache
