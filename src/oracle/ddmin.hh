/**
 * @file
 * Delta debugging for the oracle's fuzzers: TraceFuzzer::shrink and
 * KvConcurrencyFuzzer::shrink both reduce a failing input with ddmin.
 */

#ifndef ADCACHE_ORACLE_DDMIN_HH
#define ADCACHE_ORACLE_DDMIN_HH

#include <algorithm>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace adcache
{

/**
 * Shrink @p failing while @p fails(candidate) holds: try removing
 * chunks at halving granularity until no single-element removal keeps
 * it failing. The predicate may shorten a candidate it accepts (the
 * trace shrinker drops what follows the divergence).
 */
template <class T, class Fails>
std::vector<T>
ddmin(std::vector<T> failing, Fails &&fails)
{
    adcache_assert(fails(failing));
    std::size_t chunks = 2;
    while (failing.size() >= 2) {
        const std::size_t n = failing.size();
        chunks = std::min(chunks, n);
        const std::size_t chunk_len = (n + chunks - 1) / chunks;

        bool removed = false;
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::size_t lo = c * chunk_len;
            if (lo >= n)
                break;
            const std::size_t hi = std::min(n, lo + chunk_len);
            std::vector<T> candidate;
            candidate.reserve(n - (hi - lo));
            candidate.insert(candidate.end(), failing.begin(),
                             failing.begin() + lo);
            candidate.insert(candidate.end(), failing.begin() + hi,
                             failing.end());
            if (!candidate.empty() && fails(candidate)) {
                failing = std::move(candidate);
                chunks = std::max<std::size_t>(2, chunks - 1);
                removed = true;
                break;
            }
        }
        if (!removed) {
            if (chunks >= n)
                break; // single-element granularity exhausted
            chunks = std::min(n, 2 * chunks);
        }
    }
    return failing;
}

} // namespace adcache

#endif // ADCACHE_ORACLE_DDMIN_HH
