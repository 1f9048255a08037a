#include "util/stats.hh"

#include <algorithm>

#include "util/logging.hh"

namespace adcache
{

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
