#include "core/adaptive_cache.hh"

#include <bit>
#include <sstream>
#include <type_traits>

#include "adapt/imitation.hh"
#include "obs/trace.hh"
#include "util/stat_registry.hh"

namespace adcache
{

namespace
{

/**
 * Tag lanes of one structure in a set row, LaneBits wide. Packed8
 * and Packed16 hold partial (folded) tags of up to 7 and 15 bits;
 * Full16 holds full tags (and partial tags of 16 bits or more). An
 * empty lane holds all ones, which no exact probe equals. A Full16
 * lane is exact while the tag is narrow (below 0xFFFF); once a set's
 * structure takes a wider tag, a sticky kWide bit in its valid word
 * says its tags are kept in a side array as well, and probes verify
 * lane candidates (16-bit fingerprints) there.
 */
template <unsigned LaneBits, bool Packed>
struct Lanes
{
    static constexpr unsigned kBits = LaneBits;
    static constexpr bool kPacked = Packed;
    static constexpr unsigned kPerWord = 64 / LaneBits;
    static constexpr std::uint64_t kMask = lowMask(LaneBits);

    static unsigned
    words(unsigned assoc)
    {
        return (assoc + kPerWord - 1) / kPerWord;
    }

    static std::uint64_t
    at(const std::uint64_t *lanes, unsigned way)
    {
        return (lanes[way / kPerWord] >> (LaneBits * (way % kPerWord))) &
               kMask;
    }

    static void
    set(std::uint64_t *lanes, unsigned way, std::uint64_t v)
    {
        const unsigned shift = LaneBits * (way % kPerWord);
        std::uint64_t &w = lanes[way / kPerWord];
        w = (w & ~(kMask << shift)) | (v << shift);
    }
};
using Packed8 = Lanes<8, true>;
using Packed16 = Lanes<16, true>;
using Full16 = Lanes<16, false>;

/** Row words of the real ways; their lanes start at kFull. */
constexpr unsigned kValid = 0, kDirty = 1, kFull = 2;

/** A valid word's "this set has held a wide tag" bit. */
constexpr std::uint64_t kWide = std::uint64_t{1} << 63;

/** True iff @p t fits a Full16 lane exactly. */
bool
narrow(Addr t)
{
    return t < Full16::kMask;
}

/**
 * The components of one access and their outcomes. With two
 * components their policy types are template arguments, so the
 * access body is one straight-line instantiation per (lane form,
 * pair); with more, each component's policy is visited in a loop.
 * Either way each() calls f(policy, k) for every component k in
 * order.
 */
template <class P0, class P1>
struct TwoComponents
{
    P0 &p0;
    P1 &p1;
    ShadowOutcome out[2];

    template <class F>
    void
    each(F &&f)
    {
        f(p0, 0u);
        f(p1, 1u);
    }
};

struct AnyComponents
{
    std::vector<PolicySet> &policies;
    ShadowOutcome *out; //!< one per component

    template <class F>
    void
    each(F &&f)
    {
        for (unsigned k = 0; k < unsigned(policies.size()); ++k)
            policies[k].visit([&](auto &p) { f(p, k); });
    }
};

} // namespace

template <class F>
decltype(auto)
AdaptiveCache::withLanes(F &&f) const
{
    if (!lay_.packed)
        return f(Full16{});
    if (lay_.laneBits == 8)
        return f(Packed8{});
    return f(Packed16{});
}

AdaptiveConfig
AdaptiveConfig::fivePolicy(std::uint64_t size_bytes, unsigned assoc,
                           unsigned line_size)
{
    AdaptiveConfig c;
    c.sizeBytes = size_bytes;
    c.assoc = assoc;
    c.lineSize = line_size;
    c.policies = {PolicyType::LRU, PolicyType::LFU, PolicyType::FIFO,
                  PolicyType::MRU, PolicyType::Random};
    // With five components a deeper window separates them better.
    c.historyDepth = 2 * assoc;
    return c;
}

AdaptiveCache::RowLayout
AdaptiveCache::RowLayout::of(const AdaptiveConfig &config,
                             unsigned assoc)
{
    RowLayout l{};
    const unsigned bits = config.partialTagBits;
    l.packed = bits >= 1 && bits <= 15;
    l.laneBits = l.packed && bits <= 7 ? 8 : 16;
    l.laneWords = (assoc * l.laneBits + 63) / 64;
    l.fullWords = Full16::words(assoc);
    l.stored = kFull + l.fullWords;
    std::size_t words = l.stored + (l.packed ? l.laneWords : 0);
    for (std::size_t k = 0; k < config.policies.size(); ++k) {
        l.comp[k] = unsigned(words);
        words += 1 + l.laneWords;
    }
    for (std::size_t k = 0; k < config.policies.size(); ++k) {
        l.policy[k] = unsigned(words);
        words += PolicySet::wordsPerSet(config.policies[k], assoc);
    }
    l.history = unsigned(words);
    words += adapt::HistorySet::wordsPerDomain(
        config.exactCounters,
        config.historyDepth != 0 ? config.historyDepth : assoc,
        unsigned(config.policies.size()));
    l.cursor = unsigned(words++);
    constexpr std::size_t line = SetRows::kAlign / sizeof(std::uint64_t);
    l.stride = (words + line - 1) / line * line;
    return l;
}

AdaptiveCache::AdaptiveCache(const AdaptiveConfig &config)
    : config_(config), geom_(config.geometry()), map_(geom_),
      rng_(config.rngSeed), assoc_(geom_.assoc),
      numPolicies_(unsigned(config.policies.size())),
      allMask_(numPolicies_ >= 32 ? ~std::uint32_t{0}
                                  : (1u << numPolicies_) - 1),
      lay_(RowLayout::of(config, geom_.assoc)),
      rows_(geom_.numSets, lay_.stride),
      sides_(lay_.packed ? 1 : 1 + numPolicies_),
      history_(config.exactCounters,
               config.historyDepth != 0 ? config.historyDepth
                                        : geom_.assoc,
               numPolicies_, rows_.words(lay_.history))
{
    adcache_assert(config.policies.size() >= 2 &&
                   config.policies.size() <= 32);
    adcache_assert(config.admission.empty() ||
                   config.admission.size() == config.policies.size());
    // Bit 63 of a valid word is its kWide flag.
    adcache_assert(assoc_ >= 1 && assoc_ <= 63);
    adcache_assert(config.partialTagBits <= geom_.tagBits());

    // Every lane starts as the all-ones empty lane.
    for (unsigned set = 0; set < geom_.numSets; ++set) {
        std::uint64_t *row = rows_.words().at(set);
        for (unsigned i = kFull; i < lay_.comp[0]; ++i)
            row[i] = ~std::uint64_t{0};
        for (unsigned k = 0; k < numPolicies_; ++k)
            for (unsigned i = 0; i < lay_.laneWords; ++i)
                row[lay_.comp[k] + 1 + i] = ~std::uint64_t{0};
    }

    if (config.anyAdmission())
        admission_ = std::make_unique<adapt::TinyLfuAdmission>(
            adapt::SketchParams::forGeometry(geom_.numSets,
                                             geom_.assoc));
    admits_.assign(numPolicies_, 0);
    policies_.reserve(numPolicies_);
    for (unsigned k = 0; k < numPolicies_; ++k) {
        admits_[k] = k < config.admission.size() && config.admission[k];
        policies_.emplace_back(config.policies[k],
                               rows_.words(lay_.policy[k]),
                               geom_.numSets, assoc_, &rng_);
    }

    shadowMisses_.assign(numPolicies_, 0);
    decisions_.assign(std::size_t(geom_.numSets) * numPolicies_, 0);
    outcomeScratch_.assign(numPolicies_, ShadowOutcome{});
    lastWinner_.assign(geom_.numSets, 0xFF);
    access_ = pickAccess();
}

std::uint64_t
AdaptiveCache::shadowMisses(unsigned k) const
{
    return shadowMisses_.at(k);
}

PolicyType
AdaptiveCache::componentPolicy(unsigned k) const
{
    return policies_.at(k).type();
}

bool
AdaptiveCache::contains(Addr addr) const
{
    const unsigned set = map_.set(addr);
    return findReal(rows_.words().at(set), set, map_.tag(addr)) !=
           kNoLane;
}

std::span<const std::uint64_t>
AdaptiveCache::decisionsFor(unsigned set) const
{
    adcache_assert(set < geom_.numSets);
    return {decisions_.data() + std::size_t(set) * numPolicies_,
            numPolicies_};
}

void
AdaptiveCache::clearDecisions()
{
    for (auto &c : decisions_)
        c = 0;
}

inline unsigned
AdaptiveCache::findFull(std::uint64_t valid, const std::uint64_t *lanes,
                        unsigned words, unsigned set, unsigned s,
                        Addr t) const
{
    // A set that has only held narrow tags holds no wide one.
    if (!(valid & kWide))
        return narrow(t) ? firstEqualLane<16>(lanes, words, t) : kNoLane;
    const Addr *side = sideTags(set, s);
    return firstVerifiedLane<16>(
        lanes, words, t & Full16::kMask,
        [&](unsigned w) { return ((valid >> w) & 1) && side[w] == t; });
}

inline Addr
AdaptiveCache::atFull(std::uint64_t valid, const std::uint64_t *lanes,
                      unsigned set, unsigned s, unsigned way) const
{
    return valid & kWide ? sideTags(set, s)[way] : Full16::at(lanes, way);
}

inline void
AdaptiveCache::fillFull(std::uint64_t &valid, std::uint64_t *lanes,
                        unsigned set, unsigned s, unsigned way, Addr t)
{
    if ((valid & kWide) || !narrow(t)) {
        fillWide(valid, lanes, set, s, way, t);
        return;
    }
    Full16::set(lanes, way, t);
    valid |= std::uint64_t{1} << way;
}

void
AdaptiveCache::fillWide(std::uint64_t &valid, std::uint64_t *lanes,
                        unsigned set, unsigned s, unsigned way, Addr t)
{
    if (side_.empty())
        side_.assign(std::size_t(geom_.numSets) * sides_ * assoc_, 0);
    Addr *side = sideTags(set, s);
    if (!(valid & kWide)) {
        // The set's first wide tag: from now on it keeps every tag in
        // the side array too, starting with the (narrow) residents.
        for (std::uint64_t m = valid; m != 0; m &= m - 1) {
            const unsigned w = unsigned(std::countr_zero(m));
            side[w] = Full16::at(lanes, w);
        }
        valid |= kWide;
    }
    Full16::set(lanes, way, t & Full16::kMask);
    side[way] = t;
    valid |= std::uint64_t{1} << way;
}

unsigned
AdaptiveCache::findReal(const std::uint64_t *row, unsigned set,
                        Addr tag) const
{
    return findFull(row[kValid], row + kFull, lay_.fullWords, set, 0,
                    tag);
}

Addr
AdaptiveCache::realFull(const std::uint64_t *row, unsigned set,
                        unsigned way) const
{
    return atFull(row[kValid], row + kFull, set, 0, way);
}

template <class Form>
unsigned
AdaptiveCache::findRealStored(const std::uint64_t *row, unsigned set,
                              Addr st) const
{
    if constexpr (Form::kPacked) {
        return firstEqualLane<Form::kBits>(row + lay_.stored,
                                           lay_.laneWords, st);
    } else {
        if (config_.partialTagBits == 0)
            return findReal(row, set, st);
        for (std::uint64_t m = row[kValid] & ~kWide; m != 0; m &= m - 1) {
            const unsigned w = unsigned(std::countr_zero(m));
            if (stored(realFull(row, set, w)) == st)
                return w;
        }
        return kNoLane;
    }
}

template <class Form>
Addr
AdaptiveCache::realStored(const std::uint64_t *row, unsigned set,
                          unsigned way) const
{
    if constexpr (Form::kPacked)
        return Form::at(row + lay_.stored, way);
    else
        return stored(realFull(row, set, way));
}

template <class Form>
unsigned
AdaptiveCache::findComponent(const std::uint64_t *row, unsigned set,
                             unsigned k, Addr st) const
{
    const std::uint64_t *c = row + lay_.comp[k];
    if constexpr (Form::kPacked)
        return firstEqualLane<Form::kBits>(c + 1, lay_.laneWords, st);
    else
        return findFull(c[0], c + 1, lay_.laneWords, set, 1 + k, st);
}

template <class Form>
Addr
AdaptiveCache::componentStored(const std::uint64_t *row, unsigned set,
                               unsigned k, unsigned way) const
{
    const std::uint64_t *c = row + lay_.comp[k];
    if constexpr (Form::kPacked)
        return Form::at(c + 1, way);
    else
        return atFull(c[0], c + 1, set, 1 + k, way);
}

/**
 * Algorithm 1's victim cases over one set row (adapt/imitation.hh
 * owns their order): case 1 probes the real ways' lanes for the
 * winner's displaced tag, case 2 probes the winner's lanes for each
 * real way's stored tag, case 3 advances the row's cursor.
 */
template <class Form>
class AdaptiveCache::RowView
{
  public:
    using Handle = unsigned;
    static constexpr Handle kNone = kNoLane;

    RowView(const AdaptiveCache &cache, std::uint64_t *row,
            unsigned set, unsigned winner)
        : cache_(cache), row_(row), set_(set), winner_(winner)
    {
    }

    Handle
    findDisplacedMatch(std::uint64_t displaced_tag) const
    {
        return cache_.findRealStored<Form>(row_, set_, displaced_tag);
    }

    Handle
    findOutsideWinner() const
    {
        for (std::uint64_t m = row_[kValid] & ~kWide; m != 0;
             m &= m - 1) {
            const unsigned w = unsigned(std::countr_zero(m));
            if (cache_.findComponent<Form>(
                    row_, set_, winner_,
                    cache_.realStored<Form>(row_, set_, w)) == kNoLane)
                return w;
        }
        return kNone;
    }

    Handle
    fallback() const
    {
        std::uint64_t &cursor = row_[cache_.lay_.cursor];
        const unsigned w = unsigned(cursor);
        cursor = (w + 1) % cache_.assoc_;
        return w;
    }

  private:
    const AdaptiveCache &cache_;
    std::uint64_t *row_;
    unsigned set_;
    unsigned winner_;
};

template <class Form, class Policy>
void
AdaptiveCache::componentAccess(Policy &policy, unsigned k,
                               std::uint64_t *row, unsigned set,
                               Addr st, adapt::SketchColumns candidate,
                               ShadowOutcome &out)
{
    out = ShadowOutcome{};
    std::uint64_t *c = row + lay_.comp[k];
    const unsigned way = findComponent<Form>(row, set, k, st);
    if (way != kNoLane) {
        // With partial tags this may be a false-positive match for a
        // different block; the component simulation simply proceeds
        // as if it were a hit (Sec. 3.1).
        policy.onHit(set, way, st);
        return;
    }

    out.miss = true;
    ++shadowMisses_[k];

    const std::uint64_t valid = c[0];
    unsigned fill_way = unsigned(std::countr_one(valid & ~kWide));
    if (fill_way >= assoc_) {
        if (admits_[k]) {
            const unsigned vw = policy.peekVictim(set);
            if (!admission_->admit(
                    candidate, componentStored<Form>(row, set, k, vw))) {
                out.bypassed = true;
                return;
            }
        }
        fill_way = policy.evictFill(set, st);
        out.evicted = true;
        out.evictedTag = componentStored<Form>(row, set, k, fill_way);
    } else {
        policy.onFill(set, fill_way, st);
    }
    if constexpr (Form::kPacked) {
        Form::set(c + 1, fill_way, st);
        c[0] = valid | (std::uint64_t{1} << fill_way);
    } else {
        fillFull(c[0], c + 1, set, 1 + k, fill_way, st);
    }
}

AccessResult
AdaptiveCache::access(Addr addr, bool is_write)
{
    return (this->*access_)(addr, is_write);
}

template <class Form>
AccessResult
AdaptiveCache::accessAny(Addr addr, bool is_write)
{
    AnyComponents any{policies_, outcomeScratch_.data()};
    return accessRow<Form>(any, addr, is_write);
}

template <class Form, class P0, class P1>
AccessResult
AdaptiveCache::accessPair(Addr addr, bool is_write)
{
    TwoComponents<P0, P1> two{policies_[0].as<P0>(),
                              policies_[1].as<P1>(), {}};
    return accessRow<Form>(two, addr, is_write);
}

AdaptiveCache::AccessFn
AdaptiveCache::pickAccess()
{
    return withLanes([&](auto form) -> AccessFn {
        using Form = decltype(form);
        if (numPolicies_ != 2)
            return &AdaptiveCache::accessAny<Form>;
        return policies_[0].visit([&](auto &p0) {
            return policies_[1].visit([&](auto &p1) -> AccessFn {
                return &AdaptiveCache::accessPair<
                    Form, std::remove_reference_t<decltype(p0)>,
                    std::remove_reference_t<decltype(p1)>>;
            });
        });
    });
}

template <class Form, class Components>
AccessResult
AdaptiveCache::accessRow(Components &components, Addr addr,
                         bool is_write)
{
    AccessResult result;
    ++stats_.accesses;

    const unsigned set = map_.set(addr);
    const Addr tag = map_.tag(addr);
    const Addr st = stored(tag);
    std::uint64_t *row = rows_.words().at(set);

    // The admission filter sees every candidate before any component
    // simulation consults it (the oracle follows the same order).
    adapt::SketchColumns candidate;
    if (admission_)
        candidate = admission_->touch(st);

    // Update every component simulation for this reference and build
    // the differentiating-miss mask (Sec. 2.3: "On every memory block
    // reference, we update the parallel tag structures"). Each
    // component writes its outcome in place (a returned aggregate
    // would be stored field by field and reloaded whole, stalling on
    // store forwarding).
    ShadowOutcome *outcomes = components.out;
    std::uint32_t miss_mask = 0;
    components.each([&](auto &policy, unsigned k) {
        componentAccess<Form>(policy, k, row, set, st, candidate,
                              outcomes[k]);
        if (outcomes[k].miss)
            miss_mask |= 1u << k;
    });

    // Record only differentiating misses: if all components missed
    // (or none did) the event carries no preference information.
    // The tracing gate lives inside the some-shadow-missed block so
    // the (dominant) all-hit path never tests it.
    if (miss_mask != 0) {
        if (miss_mask != allMask_)
            history_.record(set, miss_mask);
        if (obs::traceEnabled()) {
            if (miss_mask != allMask_)
                obs::emit(obs::diffMissEvent(stats_.accesses, set,
                                             miss_mask));
            for (unsigned k = 0; k < numPolicies_; ++k) {
                if (outcomes[k].evicted)
                    obs::emit(obs::shadowEvictEvent(
                        stats_.accesses, set, k,
                        outcomes[k].evictedTag));
            }
        }
    }

    // Real cache lookup. Hits never consult the adaptivity logic and
    // leave the critical path untouched (Sec. 3.3).
    std::uint64_t &valid = row[kValid];
    std::uint64_t &dirty = row[kDirty];
    const unsigned way = findReal(row, set, tag);
    if (way != kNoLane) {
        ++stats_.hits;
        if (is_write)
            dirty |= std::uint64_t{1} << way;
        result.hit = true;
        return result;
    }

    ++stats_.misses;
    if (is_write)
        ++stats_.writeMisses;
    else
        ++stats_.readMisses;

    unsigned fill_way = unsigned(std::countr_one(valid & ~kWide));
    if (fill_way >= assoc_) {
        const unsigned winner = history_.best(set);
        ++decisions_[std::size_t(set) * numPolicies_ + winner];

        // Imitate the winner's admission verdict: when its shadow
        // refused to fill, the real cache keeps its contents too.
        // The decision is still counted — "bypass" was the winning
        // component's replacement choice.
        if (outcomes[winner].bypassed) {
            ++bypasses_;
            return result;
        }

        RowView<Form> view(*this, row, set, winner);
        const auto choice = adapt::imitateVictim(
            view, outcomes[winner].evicted, outcomes[winner].evictedTag);
        if (choice.kind == adapt::VictimCase::Fallback)
            ++fallbacks_;
        fill_way = choice.handle;

        if (obs::traceEnabled()) {
            const std::uint8_t last = lastWinner_[set];
            if (last != winner) {
                if (last != 0xFF)
                    obs::emit(obs::winnerFlipEvent(stats_.accesses,
                                                   set, last, winner));
                lastWinner_[set] = std::uint8_t(winner);
            }
            // The row still holds the victim: emit before the fill.
            obs::emit(obs::evictionEvent(stats_.accesses, set, winner,
                                         toEvictCase(choice.kind),
                                         realFull(row, set, fill_way)));
        }

        ++stats_.evictions;
        if ((dirty >> fill_way) & 1) {
            ++stats_.writebacks;
            result.writeback = true;
            result.writebackAddr =
                geom_.reconstruct(set, realFull(row, set, fill_way));
        }
    }

    fillFull(valid, row + kFull, set, 0, fill_way, tag);
    if constexpr (Form::kPacked)
        Form::set(row + lay_.stored, fill_way, st);
    const std::uint64_t bit = std::uint64_t{1} << fill_way;
    dirty = is_write ? dirty | bit : dirty & ~bit;
    return result;
}

std::string
AdaptiveCache::describe() const
{
    std::ostringstream out;
    out << "Adaptive[";
    for (std::size_t k = 0; k < config_.policies.size(); ++k) {
        if (k)
            out << "+";
        out << policyName(config_.policies[k]);
        if (k < config_.admission.size() && config_.admission[k])
            out << "/adm";
    }
    out << "] (" << (geom_.sizeBytes() / 1024) << "KB, " << geom_.assoc
        << "-way, ";
    if (config_.partialTagBits == 0)
        out << "full tags";
    else
        out << config_.partialTagBits << "-bit tags";
    if (config_.exactCounters)
        out << ", exact counters";
    out << ")";
    return out.str();
}


void
AdaptiveCache::registerStats(StatRegistry &reg,
                             const std::string &prefix) const
{
    stats_.registerInto(reg, prefix);
    for (unsigned k = 0; k < numPolicies(); ++k) {
        reg.counter(prefix + "shadow." +
                        policyName(componentPolicy(k)) + ".misses",
                    shadowMisses(k));
    }
    reg.counter(prefix + "fallback_evictions", fallbacks_);
    if (admission_)
        reg.counter(prefix + "admission_bypasses", bypasses_);
}

} // namespace adcache
