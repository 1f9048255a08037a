#include "oracle/ref_policy.hh"

#include <algorithm>
#include <list>
#include <vector>

#include "util/bits.hh"
#include "util/logging.hh"

namespace adcache
{

namespace
{

/**
 * LRU / MRU / FIFO as one explicit stack of ways.
 *
 * The stack is ordered most-recent-first (for recency policies) or
 * newest-fill-first (for FIFO). Ways not currently valid are simply
 * absent from the stack; victim() is only consulted when the set is
 * full, i.e. when every way is on the stack.
 *
 * Tie-breaking: the production policies break stamp ties toward the
 * lowest way index, but stamps are unique for any way that has been
 * touched, so the stack order is the complete specification.
 */
class StackPolicy : public RefPolicy
{
  public:
    enum class Kind
    {
        Lru,  //!< victim = bottom of the recency stack
        Mru,  //!< victim = top of the recency stack
        Fifo, //!< fill-order stack, hits do not move entries
    };

    StackPolicy(Kind kind, unsigned assoc) : kind_(kind), assoc_(assoc)
    {
        adcache_assert(assoc >= 1);
    }

    void
    onFill(unsigned way) override
    {
        remove(way);
        stack_.push_front(way);
    }

    void
    onHit(unsigned way) override
    {
        if (kind_ == Kind::Fifo)
            return;  // FIFO never refreshes on a hit
        remove(way);
        stack_.push_front(way);
    }

    void onInvalidate(unsigned way) override { remove(way); }

    unsigned
    victim() const override
    {
        adcache_assert(!stack_.empty());
        switch (kind_) {
          case Kind::Mru:
            return stack_.front();
          case Kind::Lru:
          case Kind::Fifo:
            return stack_.back();
        }
        panic("unreachable");
    }

    unsigned assoc() const override { return assoc_; }

  private:
    void
    remove(unsigned way)
    {
        stack_.remove(way);
    }

    Kind kind_;
    unsigned assoc_;
    std::list<unsigned> stack_;
};

/**
 * LFU with plain integers: a per-way use count saturating at the same
 * 5-bit ceiling as the production counters, plus a fill sequence
 * number for the production tie-break (least count, then oldest
 * fill).
 */
class CounterLfuPolicy : public RefPolicy
{
  public:
    static constexpr unsigned countCeiling = 31;  // 5-bit saturation

    explicit CounterLfuPolicy(unsigned assoc)
        : assoc_(assoc), count_(assoc, 0), fillSeq_(assoc, 0)
    {
        adcache_assert(assoc >= 1);
    }

    void
    onFill(unsigned way) override
    {
        count_.at(way) = 1;
        fillSeq_.at(way) = ++clock_;
    }

    void
    onHit(unsigned way) override
    {
        if (count_.at(way) < countCeiling)
            ++count_[way];
    }

    void
    onInvalidate(unsigned way) override
    {
        count_.at(way) = 0;
        fillSeq_.at(way) = 0;
    }

    unsigned
    victim() const override
    {
        unsigned best = 0;
        for (unsigned w = 1; w < assoc_; ++w) {
            if (count_[w] < count_[best] ||
                (count_[w] == count_[best] &&
                 fillSeq_[w] < fillSeq_[best])) {
                best = w;
            }
        }
        return best;
    }

    unsigned assoc() const override { return assoc_; }

  private:
    unsigned assoc_;
    std::vector<unsigned> count_;
    std::vector<std::uint64_t> fillSeq_;
    std::uint64_t clock_ = 0;
};

/**
 * Tree pseudo-LRU as an explicit binary tree of bools, stored
 * heap-style: node n has children 2n+1 and 2n+2, the assoc-1 internal
 * nodes come first and leaf assoc-1+w is way w. Each internal node
 * says which of its subtrees holds the victim. A touch climbs from the
 * way's leaf to the root, pointing every node on the way at the
 * subtree the climb did not come from.
 */
class TreePlruPolicy : public RefPolicy
{
  public:
    explicit TreePlruPolicy(unsigned assoc)
        : assoc_(assoc), victimRight_(assoc - 1, false)
    {
        adcache_assert(assoc >= 1 && isPowerOfTwo(assoc));
    }

    void onFill(unsigned way) override { touch(way); }
    void onHit(unsigned way) override { touch(way); }
    void onInvalidate(unsigned) override {}

    unsigned
    victim() const override
    {
        unsigned node = 0;
        while (node < assoc_ - 1)
            node = victimRight_[node] ? 2 * node + 2 : 2 * node + 1;
        return node - (assoc_ - 1);
    }

    unsigned assoc() const override { return assoc_; }

  private:
    void
    touch(unsigned way)
    {
        unsigned node = assoc_ - 1 + way;
        while (node > 0) {
            const unsigned parent = (node - 1) / 2;
            const bool from_right = node == 2 * parent + 2;
            victimRight_[parent] = !from_right;
            node = parent;
        }
    }

    unsigned assoc_;
    std::vector<bool> victimRight_;
};

/**
 * Static RRIP with plain integer re-reference predictions: 2 on a
 * fill, 0 on a hit, 3 ("distant") for an empty way. The victim is the
 * lowest way with the largest prediction. Evicting ages every way by
 * the amount that brings that largest prediction up to 3.
 */
class SrripPolicy : public RefPolicy
{
  public:
    static constexpr unsigned distant = 3;

    explicit SrripPolicy(unsigned assoc)
        : assoc_(assoc), rrpv_(assoc, distant)
    {
        adcache_assert(assoc >= 1);
    }

    void onFill(unsigned way) override { rrpv_.at(way) = distant - 1; }
    void onHit(unsigned way) override { rrpv_.at(way) = 0; }
    void onInvalidate(unsigned way) override { rrpv_.at(way) = distant; }

    void
    onEvict(unsigned way) override
    {
        const unsigned age =
            distant - *std::max_element(rrpv_.begin(), rrpv_.end());
        for (unsigned &r : rrpv_)
            r += age;
        onInvalidate(way);
    }

    unsigned
    victim() const override
    {
        unsigned best = 0;
        for (unsigned w = 1; w < assoc_; ++w)
            if (rrpv_[w] > rrpv_[best])
                best = w;
        return best;
    }

    unsigned assoc() const override { return assoc_; }

  private:
    unsigned assoc_;
    std::vector<unsigned> rrpv_;
};

} // namespace

bool
refPolicySupported(PolicyType type)
{
    switch (type) {
      case PolicyType::LRU:
      case PolicyType::MRU:
      case PolicyType::FIFO:
      case PolicyType::LFU:
      case PolicyType::TreePLRU:
      case PolicyType::SRRIP:
      case PolicyType::CmsLfu:
        return true;
      default:
        return false;
    }
}

std::unique_ptr<RefPolicy>
makeRefPolicy(PolicyType type, unsigned assoc)
{
    switch (type) {
      case PolicyType::LRU:
        return std::make_unique<StackPolicy>(StackPolicy::Kind::Lru,
                                             assoc);
      case PolicyType::MRU:
        return std::make_unique<StackPolicy>(StackPolicy::Kind::Mru,
                                             assoc);
      case PolicyType::FIFO:
        return std::make_unique<StackPolicy>(StackPolicy::Kind::Fifo,
                                             assoc);
      case PolicyType::LFU:
        return std::make_unique<CounterLfuPolicy>(assoc);
      case PolicyType::TreePLRU:
        return std::make_unique<TreePlruPolicy>(assoc);
      case PolicyType::SRRIP:
        return std::make_unique<SrripPolicy>(assoc);
      case PolicyType::CmsLfu:
        // Supported, but its sets share one sketch: RefCache builds
        // it per set through makeRefCmsLfuPolicy (ref_sketch.hh).
        panic("CMS-LFU needs a shared sketch; use "
              "makeRefCmsLfuPolicy");
      default:
        panic("no reference model for policy %s", policyName(type));
    }
}

} // namespace adcache
