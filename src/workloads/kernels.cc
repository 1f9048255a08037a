#include "workloads/kernels.hh"

#include <algorithm>
#include <numeric>

#include "util/logging.hh"

namespace adcache
{

namespace
{

constexpr unsigned line = referenceLineSize;

/** Sequential wrap-around sweep. */
class LinearLoopKernel : public AccessKernel
{
  public:
    LinearLoopKernel(Addr base, std::uint64_t bytes,
                     std::uint64_t stride)
        : base_(base), bytes_(bytes), stride_(stride)
    {
        adcache_assert(bytes >= stride && stride >= 1);
    }

    Addr
    next(Rng &) override
    {
        const Addr a = base_ + pos_;
        pos_ += stride_;
        if (pos_ >= bytes_)
            pos_ = 0;
        return a;
    }

  private:
    Addr base_;
    std::uint64_t bytes_, stride_;
    std::uint64_t pos_ = 0;
};

/**
 * Cyclic loop that gives each set in [firstSet, firstSet+spanSets) a
 * private reuse cycle of `depth` blocks. With depth > associativity
 * the per-set reference stream 0,1,..,depth-1,0,1,.. makes LRU (and
 * FIFO) miss on every access while MRU retains assoc-1 blocks.
 */
class SetColoredLoopKernel : public AccessKernel
{
  public:
    SetColoredLoopKernel(Addr base, unsigned first_set,
                         unsigned span_sets, unsigned depth)
        : base_(base), firstSet_(first_set), spanSets_(span_sets),
          depth_(depth)
    {
        adcache_assert(span_sets >= 1 && depth >= 1);
    }

    Addr
    next(Rng &) override
    {
        const unsigned set = firstSet_ + setPos_;
        const Addr a = base_ + Addr(depthPos_) * referenceSetPeriod +
                       Addr(set % referenceNumSets) * line;
        if (++setPos_ == spanSets_) {
            setPos_ = 0;
            if (++depthPos_ == depth_)
                depthPos_ = 0;
        }
        return a;
    }

  private:
    Addr base_;
    unsigned firstSet_, spanSets_, depth_;
    unsigned setPos_ = 0;    //!< k % spanSets after k references
    unsigned depthPos_ = 0;  //!< (k / spanSets) % depth
};

/**
 * Zipf-reused hot region plus a one-touch cold stream. In Bernoulli
 * mode each reference is hot with probability hotProb; in burst mode
 * deterministic runs of hot and cold references alternate, so cold
 * bursts can flush an entire LRU set between hot reuses.
 */
class HotColdKernel : public AccessKernel
{
  public:
    HotColdKernel(Addr base, std::uint64_t hot_bytes,
                  std::uint64_t cold_bytes, double hot_prob,
                  double zipf_s, std::uint64_t hot_run,
                  std::uint64_t cold_run, std::uint64_t cold_stride,
                  bool hot_sequential, unsigned span_sets, Rng &rng)
        : hotBase_(base), coldBase_(base + hot_bytes),
          coldBytes_(cold_bytes), coldStride_(cold_stride),
          hotProb_(hot_prob), hotRun_(hot_run), coldRun_(cold_run),
          hotSequential_(hot_sequential),
          spanSets_(std::min<unsigned>(span_sets, referenceNumSets)),
          hotBlocks_(std::max<std::uint64_t>(1, hot_bytes / line)),
          zipf_(hotBlocks_, zipf_s), rankOffset_(hotBlocks_)
    {
        // Scatter zipf ranks over the region so the hottest blocks
        // spread across cache sets instead of clustering at the base.
        std::iota(rankOffset_.begin(), rankOffset_.end(),
                  std::uint64_t{0});
        for (std::uint64_t i = hotBlocks_ - 1; i > 0; --i)
            std::swap(rankOffset_[i], rankOffset_[rng.below(i + 1)]);
        for (auto &block : rankOffset_)
            block = hotLayout(block);
        // A set-restricted hot layout spreads over more address space
        // than hot_bytes; keep the cold stream clear of it.
        if (spanSets_ < referenceNumSets) {
            const std::uint64_t chunks =
                (hotBlocks_ + spanSets_ - 1) / spanSets_;
            coldBase_ = base + chunks * referenceSetPeriod;
        }
    }

    Addr
    next(Rng &rng) override
    {
        bool hot;
        if (hotRun_ > 0 && coldRun_ > 0) {
            hot = inHotRun_;
            if (++runPos_ >= (inHotRun_ ? hotRun_ : coldRun_)) {
                inHotRun_ = !inHotRun_;
                runPos_ = 0;
            }
        } else {
            hot = rng.chance(hotProb_);
        }
        if (hot) {
            if (!hotSequential_)
                return hotBase_ + rankOffset_[zipf_(rng)];
            const Addr a = hotBase_ + hotLayout(hotPos_);
            if (++hotPos_ == hotBlocks_)
                hotPos_ = 0;
            return a;
        }
        const Addr a = coldBase_ + coldLayout(coldPos_);
        coldPos_ += coldStride_;
        if (coldPos_ >= coldBytes_)
            coldPos_ = 0;
        return a;
    }

  private:
    /**
     * Offset of hot block @p idx. With a restricted set span the hot
     * region is laid out in set-coloured chunks so it touches only
     * the first spanSets sets of the reference geometry (used by the
     * mgrid-style spatially varying workloads, Fig. 7b).
     */
    Addr
    hotLayout(std::uint64_t idx) const
    {
        if (spanSets_ >= referenceNumSets)
            return idx * line;
        return Addr(idx % spanSets_) * line +
               Addr(idx / spanSets_) * referenceSetPeriod;
    }

    /** Cold-stream offset mapping under a restricted set span. */
    Addr
    coldLayout(std::uint64_t off) const
    {
        if (spanSets_ >= referenceNumSets)
            return off;
        const std::uint64_t chunk_bytes =
            std::uint64_t(spanSets_) * line;
        return Addr(off / chunk_bytes) * referenceSetPeriod +
               (off % chunk_bytes);
    }

    Addr hotBase_, coldBase_;
    std::uint64_t coldBytes_, coldStride_;
    double hotProb_;
    std::uint64_t hotRun_, coldRun_;
    bool hotSequential_;
    unsigned spanSets_;
    std::uint64_t hotBlocks_;
    ZipfSampler zipf_;
    /** Zipf rank -> offset of its (scattered) hot block. */
    std::vector<Addr> rankOffset_;
    std::uint64_t coldPos_ = 0;
    std::uint64_t hotPos_ = 0;
    std::uint64_t runPos_ = 0;
    bool inHotRun_ = true;
};

/** Zipf-distributed blocks, optionally drifting. */
class ZipfKernel : public AccessKernel
{
  public:
    ZipfKernel(Addr base, std::uint64_t bytes, double s,
               std::uint64_t drift_period, std::uint64_t drift_bytes,
               unsigned first_set, unsigned span_sets, Rng &rng)
        : base_(base),
          blocks_(std::max<std::uint64_t>(1, bytes / line)),
          zipf_(blocks_, s), rankOffset_(blocks_),
          driftPeriod_(drift_period),
          driftRanks_(std::max<std::uint64_t>(1, drift_bytes / line) %
                      blocks_)
    {
        std::iota(rankOffset_.begin(), rankOffset_.end(),
                  std::uint64_t{0});
        for (std::uint64_t i = blocks_ - 1; i > 0; --i)
            std::swap(rankOffset_[i], rankOffset_[rng.below(i + 1)]);
        const unsigned span =
            std::min<unsigned>(span_sets, referenceNumSets);
        for (auto &block : rankOffset_) {
            // Set-confined layout: spread the footprint over chunks
            // one set-period apart so only [firstSet,
            // firstSet+spanSets) of the reference geometry is touched.
            block = span >= referenceNumSets
                        ? block * line
                        : Addr(first_set + block % span) * line +
                              Addr(block / span) * referenceSetPeriod;
        }
    }

    Addr
    next(Rng &rng) override
    {
        // Drift rotates the rank->block mapping by a few ranks per
        // step, so the hot set *slides*: a handful of blocks drop out
        // of the head each step (keeping their inflated frequency
        // counts — poison for LFU) while LRU simply stops touching
        // them. Most addresses stay hot across a step, so LRU pays
        // only the small per-step turnover.
        if (driftPeriod_ != 0 && ++refs_ == driftPeriod_) {
            refs_ = 0;
            rotation_ += driftRanks_;
            if (rotation_ >= blocks_)
                rotation_ -= blocks_;
        }
        std::uint64_t rank = zipf_(rng) + rotation_;
        if (rank >= blocks_)
            rank -= blocks_;
        return base_ + rankOffset_[rank];
    }

  private:
    Addr base_;
    std::uint64_t blocks_;
    ZipfSampler zipf_;
    /** Unrotated rank -> offset of its (scattered) block. */
    std::vector<Addr> rankOffset_;
    std::uint64_t driftPeriod_;
    std::uint64_t driftRanks_;  //!< ranks per drift step, mod blocks_
    std::uint64_t refs_ = 0;    //!< references since the last step
    std::uint64_t rotation_ = 0;
};

/** Traversal of a random permutation cycle (dependent chasing). */
class PointerChaseKernel : public AccessKernel
{
  public:
    PointerChaseKernel(Addr base, std::uint64_t bytes, Rng &rng)
        : base_(base),
          nodes_(std::max<std::uint64_t>(2, bytes / line)),
          nextIdx_(nodes_)
    {
        // Sattolo's algorithm: a single cycle through all nodes.
        std::iota(nextIdx_.begin(), nextIdx_.end(), std::uint64_t{0});
        for (std::uint64_t i = nodes_ - 1; i > 0; --i)
            std::swap(nextIdx_[i], nextIdx_[rng.below(i)]);
        cur_ = 0;
    }

    Addr
    next(Rng &) override
    {
        const Addr a = base_ + cur_ * line;
        cur_ = nextIdx_[cur_];
        return a;
    }

  private:
    Addr base_;
    std::uint64_t nodes_;
    std::vector<std::uint64_t> nextIdx_;
    std::uint64_t cur_ = 0;
};

/** Uniform random blocks over a region. */
class UniformRandomKernel : public AccessKernel
{
  public:
    UniformRandomKernel(Addr base, std::uint64_t bytes)
        : base_(base),
          blocks_(std::max<std::uint64_t>(1, bytes / line))
    {
    }

    Addr
    next(Rng &rng) override
    {
        return base_ + rng.below(blocks_) * line;
    }

  private:
    Addr base_;
    Rng::Bound blocks_;
};

/** Strided pass with neighbour touches (mgrid RPRJ3-like). */
class StridedSweepKernel : public AccessKernel
{
  public:
    StridedSweepKernel(Addr base, std::uint64_t bytes,
                       std::uint64_t stride, unsigned neighbours)
        : base_(base), bytes_(bytes), stride_(stride)
    {
        adcache_assert(stride >= 1 && bytes >= stride);
        // Alternate +line, -line, +2*line, ... around the pivot, each
        // reduced into [0, bytes) so a touch wraps with one compare.
        for (unsigned k = 0; k < neighbours; ++k) {
            const std::int64_t delta =
                (k % 2 == 0 ? 1 : -1) * std::int64_t(line) *
                (std::int64_t(k) / 2 + 1);
            const std::int64_t b = std::int64_t(bytes);
            neighbourDelta_.push_back(
                std::uint64_t((delta % b + b) % b));
        }
    }

    Addr
    next(Rng &) override
    {
        if (pendingNeighbour_ < neighbourDelta_.size()) {
            std::uint64_t off =
                pos_ + neighbourDelta_[pendingNeighbour_++];
            if (off >= bytes_)
                off -= bytes_;
            return base_ + off;
        }
        pendingNeighbour_ = 0;
        const Addr a = base_ + pos_;
        pos_ += stride_;
        if (pos_ >= bytes_)
            pos_ -= bytes_;
        return a;
    }

  private:
    Addr base_;
    std::uint64_t bytes_, stride_;
    std::vector<std::uint64_t> neighbourDelta_;
    std::size_t pendingNeighbour_ = 0;
    std::uint64_t pos_ = 0;
};

} // namespace

KernelSpec
KernelSpec::linearLoop(Addr base, std::uint64_t bytes,
                       std::uint64_t stride)
{
    KernelSpec s;
    s.type = Type::LinearLoop;
    s.base = base;
    s.bytes = bytes;
    s.stride = stride;
    return s;
}

KernelSpec
KernelSpec::setColoredLoop(Addr base, unsigned first_set,
                           unsigned span_sets, unsigned depth)
{
    KernelSpec s;
    s.type = Type::SetColoredLoop;
    s.base = base;
    s.firstSet = first_set;
    s.spanSets = span_sets;
    s.depth = depth;
    return s;
}

KernelSpec
KernelSpec::hotCold(Addr base, std::uint64_t hot_bytes,
                    std::uint64_t cold_bytes, double hot_prob,
                    double zipf_s)
{
    KernelSpec s;
    s.type = Type::HotCold;
    s.base = base;
    s.hotBytes = hot_bytes;
    s.bytes = cold_bytes;
    s.hotProb = hot_prob;
    s.zipfS = zipf_s;
    return s;
}

KernelSpec
KernelSpec::burstyHotCold(Addr base, std::uint64_t hot_bytes,
                          std::uint64_t cold_bytes,
                          std::uint64_t hot_run, std::uint64_t cold_run,
                          std::uint64_t cold_stride, double zipf_s)
{
    KernelSpec s;
    s.type = Type::HotCold;
    s.base = base;
    s.hotBytes = hot_bytes;
    s.bytes = cold_bytes;
    s.hotRunLen = hot_run;
    s.coldRunLen = cold_run;
    s.coldStride = cold_stride;
    s.zipfS = zipf_s;
    return s;
}

KernelSpec
KernelSpec::zipf(Addr base, std::uint64_t bytes, double s_exp)
{
    KernelSpec s;
    s.type = Type::Zipf;
    s.base = base;
    s.bytes = bytes;
    s.zipfS = s_exp;
    s.driftPeriod = 0;
    return s;
}

KernelSpec
KernelSpec::driftingZipf(Addr base, std::uint64_t bytes, double s_exp,
                         std::uint64_t period, std::uint64_t step)
{
    KernelSpec s;
    s.type = Type::DriftingZipf;
    s.base = base;
    s.bytes = bytes;
    s.zipfS = s_exp;
    s.driftPeriod = period;
    s.driftStep = step;
    return s;
}

KernelSpec
KernelSpec::pointerChase(Addr base, std::uint64_t bytes)
{
    KernelSpec s;
    s.type = Type::PointerChase;
    s.base = base;
    s.bytes = bytes;
    return s;
}

KernelSpec
KernelSpec::uniformRandom(Addr base, std::uint64_t bytes)
{
    KernelSpec s;
    s.type = Type::UniformRandom;
    s.base = base;
    s.bytes = bytes;
    return s;
}

KernelSpec
KernelSpec::stridedSweep(Addr base, std::uint64_t bytes,
                         std::uint64_t stride, unsigned neighbours)
{
    KernelSpec s;
    s.type = Type::StridedSweep;
    s.base = base;
    s.bytes = bytes;
    s.stride = stride;
    s.neighbours = neighbours;
    return s;
}

std::unique_ptr<AccessKernel>
makeKernel(const KernelSpec &spec, Rng &rng)
{
    using Type = KernelSpec::Type;
    switch (spec.type) {
      case Type::LinearLoop:
        return std::make_unique<LinearLoopKernel>(spec.base, spec.bytes,
                                                  spec.stride);
      case Type::SetColoredLoop:
        return std::make_unique<SetColoredLoopKernel>(
            spec.base, spec.firstSet, spec.spanSets, spec.depth);
      case Type::HotCold:
        return std::make_unique<HotColdKernel>(
            spec.base, spec.hotBytes, spec.bytes, spec.hotProb,
            spec.zipfS, spec.hotRunLen, spec.coldRunLen,
            spec.coldStride, spec.hotSequential, spec.spanSets, rng);
      case Type::Zipf:
        return std::make_unique<ZipfKernel>(spec.base, spec.bytes,
                                            spec.zipfS, 0, 0,
                                            spec.firstSet,
                                            spec.spanSets, rng);
      case Type::DriftingZipf:
        return std::make_unique<ZipfKernel>(
            spec.base, spec.bytes, spec.zipfS, spec.driftPeriod,
            spec.driftStep, spec.firstSet, spec.spanSets, rng);
      case Type::PointerChase:
        return std::make_unique<PointerChaseKernel>(spec.base,
                                                    spec.bytes, rng);
      case Type::UniformRandom:
        return std::make_unique<UniformRandomKernel>(spec.base,
                                                     spec.bytes);
      case Type::StridedSweep:
        return std::make_unique<StridedSweepKernel>(
            spec.base, spec.bytes, spec.stride, spec.neighbours);
    }
    panic("unknown kernel type");
}

} // namespace adcache
