/**
 * @file
 * Lightweight statistics accumulators used by every simulated
 * component, plus the averaging helpers the paper's evaluation uses
 * (arithmetic means of linear cost metrics, percent deltas).
 */

#ifndef ADCACHE_UTIL_STATS_HH
#define ADCACHE_UTIL_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace adcache
{

/**
 * Mergeable log-spaced bucket counts over non-negative samples.
 *
 * Values 0..7 get exact buckets; above that each octave is split
 * into 8 sub-buckets, so any quantile estimate is within 12.5% of
 * the true sample. The bucket array is lazily grown, so an untouched
 * instance costs one empty vector. Used both for RunningStat
 * percentiles and for obs latency histograms.
 */
class LogBuckets
{
  public:
    /** Sub-buckets per octave (also the count of exact buckets). */
    static constexpr unsigned kSubBuckets = 8;

    /** Count one sample (negative values land in bucket 0). */
    void add(double x) { addValue(toValue(x)); }

    /** Count one integral sample. */
    void addValue(std::uint64_t v);

    /** Element-wise sum with @p other. */
    void merge(const LogBuckets &other);

    std::uint64_t total() const { return total_; }
    bool empty() const { return total_ == 0; }

    /**
     * Upper edge of the bucket holding the p-quantile sample, for
     * p in (0, 1]; asserts at least one sample was added.
     */
    double percentile(double p) const;

    /** Map a sample to its bucket index (exposed for tests). */
    static unsigned bucketIndex(std::uint64_t v);

    /** Largest value stored in bucket @p idx. */
    static std::uint64_t bucketUpperEdge(unsigned idx);

  private:
    static std::uint64_t
    toValue(double x)
    {
        return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x);
    }

    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/**
 * Running mean / min / max / count over double samples, with
 * log-bucket percentile estimates, mergeable across threads.
 */
class RunningStat
{
  public:
    void add(double x);

    /**
     * Fold @p other into this accumulator. min/max treat an empty
     * side as an identity (they never absorb the 0-valued fields of
     * a sample-free accumulator).
     */
    void merge(const RunningStat &other);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const;
    /** Smallest sample; asserts that at least one sample was added. */
    double min() const;
    /** Largest sample; asserts that at least one sample was added. */
    double max() const;

    /**
     * Log-bucket estimate of the p-quantile (p in (0, 1], e.g. 0.95)
     * — within 12.5% for non-negative samples; negative samples all
     * count toward the lowest bucket. Asserts count() > 0.
     */
    double percentile(double p) const;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    LogBuckets buckets_;
};

/**
 * Percentage change from @p base to @p value: positive means @p value
 * is larger. Returns 0 for a zero base.
 */
double percentDelta(double base, double value);

/**
 * Percentage improvement of @p value over @p base for a cost metric
 * (CPI, MPKI): positive means @p value is lower/better.
 */
double percentImprovement(double base, double value);

/** Arithmetic mean of a vector (0 if empty). */
double mean(const std::vector<double> &xs);

/** Misses-per-kilo-instruction. */
double mpki(std::uint64_t misses, std::uint64_t instructions);

} // namespace adcache

#endif // ADCACHE_UTIL_STATS_HH
