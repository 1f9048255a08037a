#include "util/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.hh"

namespace adcache
{

unsigned
LogBuckets::bucketIndex(std::uint64_t v)
{
    if (v < kSubBuckets)
        return unsigned(v);
    // MSB position >= 3; each octave [2^t, 2^(t+1)) contributes 8
    // sub-buckets selected by the 3 bits below the MSB.
    const unsigned top = unsigned(std::bit_width(v)) - 1;
    const unsigned sub = unsigned(v >> (top - 3)) & 7u;
    return kSubBuckets + (top - 3) * kSubBuckets + sub;
}

std::uint64_t
LogBuckets::bucketUpperEdge(unsigned idx)
{
    if (idx < kSubBuckets)
        return idx;
    const unsigned oct = (idx - kSubBuckets) / kSubBuckets + 3;
    const unsigned sub = (idx - kSubBuckets) % kSubBuckets;
    return ((std::uint64_t(kSubBuckets + sub + 1)) << (oct - 3)) - 1;
}

void
LogBuckets::addValue(std::uint64_t v)
{
    const unsigned idx = bucketIndex(v);
    if (idx >= counts_.size())
        counts_.resize(idx + 1, 0);
    ++counts_[idx];
    ++total_;
}

void
LogBuckets::merge(const LogBuckets &other)
{
    if (other.counts_.size() > counts_.size())
        counts_.resize(other.counts_.size(), 0);
    for (std::size_t i = 0; i < other.counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
}

double
LogBuckets::percentile(double p) const
{
    adcache_assert(total_ > 0 && p > 0.0 && p <= 1.0);
    const auto rank = std::max<std::uint64_t>(
        1, std::uint64_t(std::ceil(p * double(total_))));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        cum += counts_[i];
        if (cum >= rank)
            return double(bucketUpperEdge(unsigned(i)));
    }
    return double(bucketUpperEdge(unsigned(counts_.size()) - 1));
}

void
RunningStat::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    buckets_.add(x);
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    buckets_.merge(other.buckets_);
}

double
RunningStat::percentile(double p) const
{
    adcache_assert(count_ > 0);
    return buckets_.percentile(p);
}

double
RunningStat::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double
RunningStat::min() const
{
    adcache_assert(count_ > 0);
    return min_;
}

double
RunningStat::max() const
{
    adcache_assert(count_ > 0);
    return max_;
}

double
percentDelta(double base, double value)
{
    if (base == 0.0)
        return 0.0;
    return 100.0 * (value - base) / base;
}

double
percentImprovement(double base, double value)
{
    return -percentDelta(base, value);
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
mpki(std::uint64_t misses, std::uint64_t instructions)
{
    if (instructions == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(misses) /
           static_cast<double>(instructions);
}

} // namespace adcache
