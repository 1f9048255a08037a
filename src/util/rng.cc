#include "util/rng.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/bits.hh"
#include "util/logging.hh"

namespace adcache
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &word : s_)
        word = splitmix64(x);
}

Rng::Bound::Bound(std::uint64_t bound)
    : bound_(bound), threshold_(0), reciprocal_(0)
{
    adcache_assert(bound > 0);
    threshold_ = (0 - bound) % bound;
    if (!isPowerOfTwo(bound))
        reciprocal_ = ~static_cast<unsigned __int128>(0) / bound + 1;
}

std::uint64_t
Rng::zipfApprox(std::uint64_t n, double s)
{
    adcache_assert(n > 0);
    // Inverse-power approximation: crude but monotone; fine for tests.
    const double u = uniform();
    const double r = std::pow(u, 1.0 / (1.0 - std::min(s, 0.99)));
    auto rank = static_cast<std::uint64_t>(r * static_cast<double>(n));
    return std::min(rank, n - 1);
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n)
{
    adcache_assert(n > 0 && n - 1 <= UINT32_MAX);
    cdf_.resize(n);
    double total = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf_[i] = total;
    }
    for (auto &c : cdf_)
        c /= total;

    // About one cut point per rank, at most 4096; a power of two
    // keeps j / m and u * m exact.
    const std::uint64_t m =
        std::min<std::uint64_t>(4096, std::bit_ceil(n));
    guideScale_ = double(m);
    guide_.resize(m + 1);
    std::uint64_t i = 0;
    for (std::uint64_t j = 0; j <= m; ++j) {
        const double cut = double(j) / guideScale_;
        while (i + 1 < n && cdf_[i] < cut)
            ++i;
        guide_[j] = std::uint32_t(i);
    }
}

namespace
{

/**
 * zeta(n, theta) = sum_{i=1..n} i^-theta, via an exact head of up to
 * 1024 terms plus the Euler-Maclaurin tail
 *   integral_k^n x^-theta dx + (k^-theta + n^-theta) / 2,
 * whose relative error at k = 1024 is far below the sampler's own
 * bucket granularity.
 */
double
zetaApprox(std::uint64_t n, double theta)
{
    const std::uint64_t k =
        std::min<std::uint64_t>(n, 1024);
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= k; ++i)
        sum += std::pow(double(i), -theta);
    if (k == n)
        return sum;
    const double a = double(k), b = double(n);
    sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
           (1.0 - theta);
    sum += 0.5 * (std::pow(a, -theta) + std::pow(b, -theta));
    return sum;
}

} // namespace

ZipfApproxSampler::ZipfApproxSampler(std::uint64_t n, double s)
    : n_(n)
{
    adcache_assert(n > 0);
    // The closed-form inverse needs theta in (0, 1); clamp just
    // inside both ends (theta ~ 1 is the 1/x harmonic edge case).
    theta_ = std::min(std::max(s, 1e-6), 0.999);
    alpha_ = 1.0 / (1.0 - theta_);
    zetan_ = zetaApprox(n, theta_);
    const double zeta2 = zetaApprox(std::min<std::uint64_t>(n, 2),
                                    theta_);
    eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
}

std::uint64_t
ZipfApproxSampler::operator()(Rng &rng) const
{
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0 || n_ == 1)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    const double r =
        double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_);
    auto rank = static_cast<std::uint64_t>(r);
    return std::min(rank, n_ - 1);
}

} // namespace adcache
