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
 * Running mean / min / max / count over double samples, mergeable
 * across threads. (Latency distributions with percentiles are
 * obs::LatencyHistogram.)
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

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
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
