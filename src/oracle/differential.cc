#include "oracle/differential.hh"

#include <sstream>

#include "oracle/ref_adaptive.hh"
#include "oracle/ref_sbar.hh"
#include "util/logging.hh"

namespace adcache
{

namespace
{

/** How often the full residency sweep runs. */
constexpr std::size_t kSweepInterval = 512;

std::string
hexAddr(Addr a)
{
    std::ostringstream out;
    out << "0x" << std::hex << a;
    return out.str();
}

Mismatch
diff(std::size_t index, const std::string &field, std::uint64_t want,
     std::uint64_t got)
{
    Mismatch m;
    m.index = index;
    m.field = field;
    std::ostringstream out;
    out << "oracle=" << want << " production=" << got;
    m.detail = out.str();
    return m;
}

Mismatch
diffAddr(std::size_t index, const std::string &field, Addr want,
         Addr got)
{
    Mismatch m;
    m.index = index;
    m.field = field;
    m.detail = "oracle=" + hexAddr(want) + " production=" +
               hexAddr(got);
    return m;
}

/**
 * Residency sweep helper: every oracle-resident block must be
 * resident in the production cache. (The other containment direction
 * is implied: both sides hold exactly capacity blocks once warm, and
 * any production-only block would mis-hit later.)
 */
template <typename ProductionT>
std::optional<Mismatch>
sweepResidency(std::size_t index, const ProductionT &production,
               const std::vector<Addr> &oracle_blocks)
{
    for (Addr block : oracle_blocks) {
        if (!production.contains(block)) {
            Mismatch m;
            m.index = index;
            m.field = "residency";
            m.detail = "oracle-resident block " + hexAddr(block) +
                       " missing from production cache";
            return m;
        }
    }
    return std::nullopt;
}

// ---------------------------------------------------------------- //

/** Conventional Cache vs RefCache (full tags, dirty tracked). */
class CachePair : public LockstepPair
{
  public:
    CachePair(const CacheConfig &config, PolicyType oracle_policy)
        : production_(config),
          oracle_(refGeometryOf(config.geometry()), oracle_policy)
    {
    }

    std::optional<Mismatch>
    step(std::size_t i, const Access &access) override
    {
        const AccessResult r =
            production_.access(access.addr, access.write);
        const RefOutcome o = oracle_.access(access.addr, access.write);

        if (r.hit != o.hit)
            return diff(i, "hit", o.hit, r.hit);

        const bool want_wb = o.evicted && o.evictedDirty;
        if (r.writeback != want_wb)
            return diff(i, "writeback", want_wb, r.writeback);
        if (want_wb) {
            const unsigned set =
                oracle_.geometry().setOf(access.addr);
            const Addr want =
                oracle_.geometry().blockAddr(set, o.evictedTag);
            if (r.writebackAddr != want)
                return diffAddr(i, "writeback_addr", want,
                                r.writebackAddr);
        }

        const CacheStats &s = production_.stats();
        if (s.hits != oracle_.hits())
            return diff(i, "stats.hits", oracle_.hits(), s.hits);
        if (s.misses != oracle_.misses())
            return diff(i, "stats.misses", oracle_.misses(), s.misses);
        if (s.evictions != oracle_.evictions())
            return diff(i, "stats.evictions", oracle_.evictions(),
                        s.evictions);
        if (s.writebacks != oracle_.writebacks())
            return diff(i, "stats.writebacks", oracle_.writebacks(),
                        s.writebacks);

        if ((i + 1) % kSweepInterval == 0)
            return sweepResidency(i, production_,
                                  oracle_.residentBlocks());
        return std::nullopt;
    }

    std::optional<Mismatch>
    finalCheck(std::size_t n) override
    {
        return sweepResidency(n, production_,
                              oracle_.residentBlocks());
    }

    std::string
    describe() const override
    {
        return "Cache{" + production_.describe() + "} vs Ref[" +
               policyName(oracle_.policyType()) + "]";
    }

  private:
    Cache production_;
    RefCache oracle_;
};

// ---------------------------------------------------------------- //

/** AdaptiveCache vs RefAdaptiveCache, in the config's selector form. */
class AdaptivePair : public LockstepPair
{
  public:
    explicit AdaptivePair(const AdaptiveConfig &config)
        : production_(config),
          oracle_(refGeometryOf(config.geometry()), config.policies,
                  config.partialTagBits, config.xorFoldTags,
                  config.admission, config.historyDepth,
                  config.exactCounters)
    {
        for (PolicyType p : config.policies)
            adcache_assert(refPolicySupported(p));
    }

    std::optional<Mismatch>
    step(std::size_t i, const Access &access) override
    {
        const AccessResult r =
            production_.access(access.addr, access.write);
        const RefAdaptiveOutcome o =
            oracle_.access(access.addr, access.write);

        if (r.hit != o.hit)
            return diff(i, "hit", o.hit, r.hit);

        const bool want_wb = o.evicted && o.evictedDirty;
        if (r.writeback != want_wb)
            return diff(i, "writeback", want_wb, r.writeback);
        if (want_wb && r.writebackAddr != o.evictedBlock)
            return diffAddr(i, "writeback_addr", o.evictedBlock,
                            r.writebackAddr);

        for (unsigned k = 0; k < oracle_.numPolicies(); ++k) {
            if (production_.shadowMisses(k) != oracle_.shadowMisses(k))
                return diff(i,
                            std::string("shadow_misses[") +
                                policyName(
                                    production_.componentPolicy(k)) +
                                "]",
                            oracle_.shadowMisses(k),
                            production_.shadowMisses(k));
        }

        if (production_.fallbackEvictions() != oracle_.fallbacks())
            return diff(i, "fallback_evictions", oracle_.fallbacks(),
                        production_.fallbackEvictions());

        if (production_.admissionBypasses() != oracle_.bypasses())
            return diff(i, "admission_bypasses", oracle_.bypasses(),
                        production_.admissionBypasses());

        const CacheStats &s = production_.stats();
        if (s.hits != oracle_.hits())
            return diff(i, "stats.hits", oracle_.hits(), s.hits);
        if (s.misses != oracle_.misses())
            return diff(i, "stats.misses", oracle_.misses(), s.misses);
        if (s.evictions != oracle_.evictions())
            return diff(i, "stats.evictions", oracle_.evictions(),
                        s.evictions);
        if (s.writebacks != oracle_.writebacks())
            return diff(i, "stats.writebacks", oracle_.writebacks(),
                        s.writebacks);

        // Selector decisions of the accessed set: which component the
        // replacement imitated, cumulatively.
        const unsigned set = oracle_.geometry().setOf(access.addr);
        const auto &decisions = production_.decisionsFor(set);
        for (unsigned k = 0; k < oracle_.numPolicies(); ++k) {
            if (decisions[k] != oracle_.decisionsOf(set, k))
                return diff(i,
                            "decisions[set=" + std::to_string(set) +
                                "][" + std::to_string(k) + "]",
                            oracle_.decisionsOf(set, k),
                            decisions[k]);
        }

        if ((i + 1) % kSweepInterval == 0)
            return sweepResidency(i, production_,
                                  oracle_.residentBlocks());
        return std::nullopt;
    }

    std::optional<Mismatch>
    finalCheck(std::size_t n) override
    {
        return sweepResidency(n, production_,
                              oracle_.residentBlocks());
    }

    std::string
    describe() const override
    {
        return "Adaptive{" + production_.describe() +
               "} vs RefAdaptive";
    }

  private:
    AdaptiveCache production_;
    RefAdaptiveCache oracle_;
};

// ---------------------------------------------------------------- //

/** SbarCache vs RefSbarCache. */
class SbarPair : public LockstepPair
{
  public:
    explicit SbarPair(const SbarConfig &config)
        : production_(config), oracle_(paramsOf(config))
    {
        adcache_assert(refPolicySupported(config.policyA));
        adcache_assert(refPolicySupported(config.policyB));
        // Leader placement is structural; check it once up front.
        for (unsigned s = 0; s < config.geometry().numSets; ++s)
            adcache_assert(production_.isLeader(s) ==
                           oracle_.isLeader(s));
    }

    std::optional<Mismatch>
    step(std::size_t i, const Access &access) override
    {
        const AccessResult r =
            production_.access(access.addr, access.write);
        const RefSbarOutcome o =
            oracle_.access(access.addr, access.write);

        if (r.hit != o.hit)
            return diff(i, "hit", o.hit, r.hit);

        const bool want_wb = o.evicted && o.evictedDirty;
        if (r.writeback != want_wb)
            return diff(i, "writeback", want_wb, r.writeback);
        if (want_wb && r.writebackAddr != o.evictedBlock)
            return diffAddr(i, "writeback_addr", o.evictedBlock,
                            r.writebackAddr);

        if (production_.globalChoice() != oracle_.globalChoice())
            return diff(i, "global_choice", oracle_.globalChoice(),
                        production_.globalChoice());
        if (production_.selectionFlips() != oracle_.selectionFlips())
            return diff(i, "selection_flips",
                        oracle_.selectionFlips(),
                        production_.selectionFlips());

        const CacheStats &s = production_.stats();
        if (s.hits != oracle_.hits())
            return diff(i, "stats.hits", oracle_.hits(), s.hits);
        if (s.misses != oracle_.misses())
            return diff(i, "stats.misses", oracle_.misses(), s.misses);
        if (s.evictions != oracle_.evictions())
            return diff(i, "stats.evictions", oracle_.evictions(),
                        s.evictions);
        if (s.writebacks != oracle_.writebacks())
            return diff(i, "stats.writebacks", oracle_.writebacks(),
                        s.writebacks);

        if ((i + 1) % kSweepInterval == 0)
            return sweepResidency(i, production_,
                                  oracle_.residentBlocks());
        return std::nullopt;
    }

    std::optional<Mismatch>
    finalCheck(std::size_t n) override
    {
        return sweepResidency(n, production_,
                              oracle_.residentBlocks());
    }

    std::string
    describe() const override
    {
        return "Sbar{" + production_.describe() + "} vs RefSbar";
    }

  private:
    static RefSbarParams
    paramsOf(const SbarConfig &config)
    {
        RefSbarParams p;
        p.geom = refGeometryOf(config.geometry());
        p.policyA = config.policyA;
        p.policyB = config.policyB;
        p.numLeaders = config.numLeaders;
        p.partialTagBits = config.partialTagBits;
        p.xorFoldTags = config.xorFoldTags;
        p.historyDepth = config.historyDepth;
        p.pselBits = config.pselBits;
        return p;
    }

    SbarCache production_;
    RefSbarCache oracle_;
};

} // namespace

std::string
Mismatch::format() const
{
    std::ostringstream out;
    out << "access #" << index << ": " << field << " diverged ("
        << detail << ")";
    return out.str();
}

std::optional<Mismatch>
DifferentialChecker::run(const std::vector<Access> &stream) const
{
    std::unique_ptr<LockstepPair> pair = factory_();
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (auto m = pair->step(i, stream[i]))
            return m;
    }
    return pair->finalCheck(stream.size());
}

std::string
DifferentialChecker::describePair() const
{
    return factory_()->describe();
}

RefGeometry
refGeometryOf(const CacheGeometry &geom)
{
    RefGeometry g;
    g.lineSize = geom.lineSize;
    g.numSets = geom.numSets;
    g.assoc = geom.assoc;
    return g;
}

PairFactory
makeCachePair(const CacheConfig &config)
{
    adcache_assert(refPolicySupported(config.policy));
    return [config] {
        return std::make_unique<CachePair>(config, config.policy);
    };
}

PairFactory
makeBuggyCachePair(const CacheConfig &config,
                   PolicyType oracle_policy)
{
    adcache_assert(refPolicySupported(oracle_policy));
    return [config, oracle_policy] {
        return std::make_unique<CachePair>(config, oracle_policy);
    };
}

PairFactory
makeAdaptivePair(const AdaptiveConfig &config)
{
    return [config] { return std::make_unique<AdaptivePair>(config); };
}

PairFactory
makeSbarPair(const SbarConfig &config)
{
    return [config] { return std::make_unique<SbarPair>(config); };
}

} // namespace adcache
