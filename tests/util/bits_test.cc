#include "util/bits.hh"

#include <gtest/gtest.h>

namespace adcache
{
namespace
{

TEST(Bits, IsPowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(1023));
    EXPECT_TRUE(isPowerOfTwo(std::uint64_t{1} << 63));
}

TEST(Bits, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4), 2u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(1025), 10u);
    EXPECT_EQ(floorLog2(std::uint64_t{1} << 40), 40u);
}

TEST(Bits, LowMask)
{
    EXPECT_EQ(lowMask(0), 0u);
    EXPECT_EQ(lowMask(1), 1u);
    EXPECT_EQ(lowMask(8), 0xFFu);
    EXPECT_EQ(lowMask(64), ~std::uint64_t{0});
}

TEST(Bits, ExtractBits)
{
    EXPECT_EQ(bits(0xABCD, 0, 4), 0xDu);
    EXPECT_EQ(bits(0xABCD, 4, 4), 0xCu);
    EXPECT_EQ(bits(0xABCD, 8, 8), 0xABu);
}

TEST(Bits, MatchLanes16FlagsEveryEqualLane)
{
    // Lanes, low to high: 0x1234, 0xBEEF, 0x1234, 0x0000.
    const std::uint64_t lanes = 0x0000'1234'BEEF'1234ULL;
    EXPECT_EQ(matchLanes16(lanes, 0x1234), 0x0000'8000'0000'8000ULL);
    EXPECT_EQ(matchLanes16(lanes, 0xBEEF), 0x0000'0000'8000'0000ULL);
    EXPECT_EQ(matchLanes16(lanes, 0x0000), 0x8000'0000'0000'0000ULL);
    EXPECT_EQ(matchLanes16(lanes, 0x1235), 0u);
    // The borrow out of a matching lane 0x0000 flags the 0x0001 lane
    // above it too; the lowest flag is always a true match.
    EXPECT_EQ(matchLanes16(0xFFFF'FFFF'0001'0000ULL, 0x0000),
              0x0000'0000'8000'8000ULL);
}

TEST(Bits, XorFoldKnownValues)
{
    // 0xABCD folded to 8 bits: 0xCD ^ 0xAB = 0x66.
    EXPECT_EQ(xorFold(0xABCD, 8), 0x66u);
    // Folding a value that already fits is the identity.
    EXPECT_EQ(xorFold(0x3F, 8), 0x3Fu);
    EXPECT_EQ(xorFold(0, 8), 0u);
    EXPECT_EQ(xorFold(0x1234, 0), 0u);
}

TEST(Bits, XorFoldStaysInWidth)
{
    const std::uint64_t values[] = {0x123456789ABCDEFull,
                                    ~std::uint64_t{0}};
    for (std::uint64_t v : values) {
        for (unsigned n : {4u, 6u, 8u, 10u, 12u})
            EXPECT_LE(xorFold(v, n), lowMask(n));
    }
}

TEST(Bits, XorFoldDiffersFromLowBits)
{
    // The two partial-tag hashes must actually differ for tags with
    // entropy above the fold width (the abl_tag_hash bench relies on
    // this).
    const std::uint64_t tag = 0x5A3C;
    EXPECT_NE(xorFold(tag, 8), tag & lowMask(8));
}

} // namespace
} // namespace adcache
