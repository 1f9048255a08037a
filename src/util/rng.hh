/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (Random replacement,
 * synthetic workload generation) flows through Rng so that every
 * experiment is exactly reproducible from its seed.
 */

#ifndef ADCACHE_UTIL_RNG_HH
#define ADCACHE_UTIL_RNG_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace adcache
{

/**
 * xoshiro256** generator seeded via splitmix64. Fast, high quality,
 * and fully deterministic across platforms (unlike std::mt19937
 * paired with std:: distributions, whose outputs are
 * implementation-defined).
 */
class Rng
{
  public:
    /**
     * A fixed bound for below() with its divisions done once: the
     * rejection threshold, and the remainder by an exact 128-bit
     * reciprocal (Lemire, Kaser & Kurz, "Faster Remainder by Direct
     * Computation", 2019), or by a mask when the bound is a power of
     * two. A draw through a Bound returns exactly what below() with
     * the same bound returns from the same state.
     */
    class Bound
    {
      public:
        /** @pre bound > 0. */
        explicit Bound(std::uint64_t bound);

        std::uint64_t value() const { return bound_; }

        /** @p r % value(), without a divide. */
        std::uint64_t
        mod(std::uint64_t r) const
        {
            using u128 = unsigned __int128;
            if (reciprocal_ == 0)
                return r & (bound_ - 1);
            // r % d = ((M * r mod 2^128) * d) >> 128, M = ceil(2^128/d).
            const u128 low = reciprocal_ * r;
            const u128 bottom = (u128(std::uint64_t(low)) * bound_) >> 64;
            const u128 top = u128(std::uint64_t(low >> 64)) * bound_;
            return std::uint64_t((top + bottom) >> 64);
        }

      private:
        friend class Rng;

        std::uint64_t bound_;
        std::uint64_t threshold_;  //!< smaller draws are rejected
        /** ceil(2^128 / bound); 0 for a power of two. */
        unsigned __int128 reciprocal_;
    };

    /** Construct from a 64-bit seed; any value (including 0) is fine. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next64()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /**
     * Uniform integer in [0, bound). @pre bound > 0. For a bound that
     * changes from draw to draw (a shuffle); a bound fixed across
     * many draws takes a Bound instead.
     */
    std::uint64_t
    below(std::uint64_t bound)
    {
        adcache_assert(bound > 0);
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t threshold = (0 - bound) % bound;
        for (;;) {
            const std::uint64_t r = next64();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** below(bound.value()), for a bound fixed ahead of the draws. */
    std::uint64_t
    below(const Bound &bound)
    {
        for (;;) {
            const std::uint64_t r = next64();
            if (r >= bound.threshold_)
                return bound.mod(r);
        }
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Zipf-distributed rank in [0, n) with exponent @p s, via inverted
     * CDF over a precomputed-free rejection-ish scheme (exact inverse
     * is computed lazily by the caller-visible ZipfSampler; this is a
     * cheap approximation suitable only for tests).
     */
    std::uint64_t zipfApprox(std::uint64_t n, double s);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/**
 * Exact Zipf sampler over ranks [0, n) with exponent s: the inverse
 * of a precomputed cumulative table. A guide table of at most 4096
 * cut points (Chen & Asau 1974) narrows each draw's search to the
 * ranks between two cut points, so a draw costs O(1 + n / 4096)
 * expected probes instead of a binary search over the whole table.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double s);

    /** Draw one rank using @p rng. */
    std::uint64_t operator()(Rng &rng) const { return rank(rng.uniform()); }

    /**
     * The rank a uniform @p u in [0, 1) maps to: the first whose
     * cumulative probability reaches u.
     */
    std::uint64_t
    rank(double u) const
    {
        // The cut-point count m is a power of two, so u * m is exact
        // and u lies in [j, j+1) / m: its rank is bracketed by the
        // ranks of those two cut points. Scan the bracket, then
        // confirm the result is the first rank reaching u.
        const std::size_t j = std::size_t(u * guideScale_);
        const double *first = cdf_.data();
        const double *it = first + guide_[j];
        const double *last = first + guide_[j + 1];
        while (it < last && *it < u)
            ++it;
        if (*it >= u && (it == first || it[-1] < u))
            return std::uint64_t(it - first);
        return std::uint64_t(
            std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    }

    std::uint64_t size() const { return n_; }

  private:
    std::uint64_t n_;
    // Cumulative probabilities, cdf_[i] = P(rank <= i).
    std::vector<double> cdf_;
    /** guide_[j] = rank(j / m) for j in [0, m], m cut points. */
    std::vector<std::uint32_t> guide_;
    double guideScale_;  //!< m
};

/**
 * O(1)-memory Zipf sampler over ranks [0, n) for the large key
 * spaces (~10M) the YCSB-style driver draws from, where
 * ZipfSampler's cumulative table would cost 8 bytes per rank per
 * client. The classic Gray et al. inverted-CDF construction (the one
 * YCSB's ZipfianGenerator uses): a closed-form inverse built from
 * zeta(n, theta), itself approximated by an exact partial sum plus
 * the Euler-Maclaurin integral tail, so construction is O(1024)
 * regardless of n. Requires theta < 1 (clamped); rank 0 is the most
 * popular.
 */
class ZipfApproxSampler
{
  public:
    ZipfApproxSampler(std::uint64_t n, double s);

    /** Draw one rank using @p rng. O(1). */
    std::uint64_t operator()(Rng &rng) const;

    std::uint64_t size() const { return n_; }

  private:
    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
};

} // namespace adcache

#endif // ADCACHE_UTIL_RNG_HH
