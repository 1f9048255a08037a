/**
 * @file
 * Small bit-manipulation helpers used by tag arrays and predictors.
 */

#ifndef ADCACHE_UTIL_BITS_HH
#define ADCACHE_UTIL_BITS_HH

#include <bit>
#include <cstdint>

namespace adcache
{

/** True iff @p v is a power of two (0 is not). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** floor(log2(v)). @pre v > 0. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    return unsigned(std::bit_width(v)) - 1;
}

/** A mask with the low @p n bits set (n may be 0..64). */
constexpr std::uint64_t
lowMask(unsigned n)
{
    return n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
}

/** Extract bits [lo, lo+n) of @p v. */
constexpr std::uint64_t
bits(std::uint64_t v, unsigned lo, unsigned n)
{
    return (v >> lo) & lowMask(n);
}

/**
 * SWAR zero-lane test over the four 16-bit lanes of @p lanes: the
 * high bit of each lane that may equal @p fp16 (< 2^16) is set. For
 * x = lanes ^ splat(fp16), (x - ones) & ~x & high can flag a nonzero
 * lane only when a borrow propagates into it from a genuinely zero
 * lane below, so the *lowest* flagged lane is always a true match;
 * a caller that needs every match verifies each higher flag.
 */
constexpr std::uint64_t
matchLanes16(std::uint64_t lanes, std::uint64_t fp16)
{
    constexpr std::uint64_t ones = 0x0001000100010001ULL;
    constexpr std::uint64_t high = 0x8000800080008000ULL;
    const std::uint64_t x = lanes ^ (fp16 * ones);
    return (x - ones) & ~x & high;
}

/**
 * Fold @p v down to @p n bits by XOR-ing successive n-bit groups.
 * Used for the XOR variant of partial tags (Sec. 3.1 mentions "XOR of
 * bit groups" as an alternative to low-order bits).
 */
constexpr std::uint64_t
xorFold(std::uint64_t v, unsigned n)
{
    if (n == 0)
        return 0;
    std::uint64_t r = 0;
    while (v != 0) {
        r ^= v & lowMask(n);
        v >>= n;
    }
    return r;
}

} // namespace adcache

#endif // ADCACHE_UTIL_BITS_HH
