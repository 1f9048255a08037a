/**
 * @file
 * Lockstep differential verification of production caches against
 * the reference models in src/oracle.
 *
 * A LockstepPair owns one production cache and its oracle; step()
 * feeds both one access and diffs every per-access observable
 * (hit/miss, writeback identity, shadow miss counters, selector
 * decisions, fallback counts, global selection state) plus a
 * periodic full-residency sweep. The DifferentialChecker runs a pair
 * factory over an access stream and reports the first divergence.
 *
 * Pairs exist for every production organisation: conventional Cache,
 * AdaptiveCache (windowed or exact-counter selector, as configured),
 * multi-policy AdaptiveCache, and SbarCache. makeBuggyCachePair() deliberately mispairs the
 * production policy with a different oracle — the harness's own
 * smoke test: it must diverge, and the fuzzer must shrink it.
 */

#ifndef ADCACHE_ORACLE_DIFFERENTIAL_HH
#define ADCACHE_ORACLE_DIFFERENTIAL_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "core/adaptive_cache.hh"
#include "core/sbar_cache.hh"
#include "oracle/ref_cache.hh"

namespace adcache
{

/** One element of an access stream. */
struct Access
{
    Addr addr = 0;
    bool write = false;

    bool
    operator==(const Access &o) const
    {
        return addr == o.addr && write == o.write;
    }
};

/** First observed divergence between production and oracle. */
struct Mismatch
{
    std::size_t index = 0;    //!< access index (or stream size for
                              //!< end-of-run checks)
    std::string field;        //!< which observable diverged
    std::string detail;       //!< expected-vs-actual rendering

    std::string format() const;
};

/** A production cache and its oracle, stepped in lockstep. */
class LockstepPair
{
  public:
    virtual ~LockstepPair() = default;

    /** Feed access @p i to both sides; report the first divergence. */
    virtual std::optional<Mismatch> step(std::size_t i,
                                         const Access &access) = 0;

    /** End-of-stream checks (full residency sweep). */
    virtual std::optional<Mismatch> finalCheck(std::size_t n)
    {
        (void)n;
        return std::nullopt;
    }

    /** Human-readable pair description for failure messages. */
    virtual std::string describe() const = 0;
};

/** Builds a fresh pair; called once per checker run. */
using PairFactory = std::function<std::unique_ptr<LockstepPair>()>;

/** Runs pairs over access streams. */
class DifferentialChecker
{
  public:
    explicit DifferentialChecker(PairFactory factory)
        : factory_(std::move(factory))
    {
    }

    /**
     * Run a fresh pair over @p stream. Returns the first mismatch,
     * or nullopt if production and oracle agree throughout.
     */
    std::optional<Mismatch>
    run(const std::vector<Access> &stream) const;

    /** Description of a freshly built pair. */
    std::string describePair() const;

  private:
    PairFactory factory_;
};

/** RefGeometry with the same shape as @p geom. */
RefGeometry refGeometryOf(const CacheGeometry &geom);

/** Conventional cache vs reference model (policy must have one). */
PairFactory makeCachePair(const CacheConfig &config);

/**
 * Deliberately broken pair: the production cache runs its configured
 * policy while the oracle models @p oracle_policy. Used to prove the
 * harness catches (and shrinks) replacement bugs.
 */
PairFactory makeBuggyCachePair(const CacheConfig &config,
                               PolicyType oracle_policy);

/**
 * Adaptive cache vs reference Algorithm 1, in the selector form the
 * config names: the windowed history of depth historyDepth (0 = the
 * associativity), or exact counters. Every component policy must
 * have a reference model.
 */
PairFactory makeAdaptivePair(const AdaptiveConfig &config);

/** SBAR cache vs reference leader/follower model. */
PairFactory makeSbarPair(const SbarConfig &config);

} // namespace adcache

#endif // ADCACHE_ORACLE_DIFFERENTIAL_HH
