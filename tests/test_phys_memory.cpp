/**
 * @file
 * Tests for the compressed physical pages and sparse physical memory,
 * including the pattern-page/flip equivalence invariant.
 */

#include <gtest/gtest.h>

#include "mem/phys_page.hh"
#include "mem/physical_memory.hh"

namespace pth
{
namespace
{

TEST(PhysPage, StartsZero)
{
    PhysPage p;
    EXPECT_EQ(p.kind(), PhysPage::Kind::Zero);
    EXPECT_EQ(p.read64(0), 0u);
    EXPECT_EQ(p.read8(4095), 0u);
    EXPECT_TRUE(p.isZero());
}

TEST(PhysPage, PatternFillReadsEverywhere)
{
    PhysPage p;
    p.fillPattern(0x1122334455667788ull);
    EXPECT_EQ(p.kind(), PhysPage::Kind::Pattern);
    for (std::uint64_t off = 0; off < kPageBytes; off += 512)
        EXPECT_EQ(p.read64(off), 0x1122334455667788ull);
    EXPECT_EQ(p.read8(0), 0x88);
    EXPECT_EQ(p.read8(7), 0x11);
}

TEST(PhysPage, WritingPatternValueKeepsCompressed)
{
    PhysPage p;
    p.fillPattern(0xaaull);
    p.write64(64, 0xaaull);
    EXPECT_EQ(p.kind(), PhysPage::Kind::Pattern);
}

TEST(PhysPage, HeterogeneousWriteDensifies)
{
    PhysPage p;
    p.fillPattern(0xaaull);
    p.write64(64, 0xbbull);
    EXPECT_EQ(p.kind(), PhysPage::Kind::Dense);
    EXPECT_EQ(p.read64(64), 0xbbull);
    EXPECT_EQ(p.read64(128), 0xaaull);
}

TEST(PhysPage, FlipBitMatchesDenseSemantics)
{
    // Property: flipping bits on a pattern page must agree with the
    // same flips on an explicitly dense page.
    PhysPage pattern;
    pattern.fillPattern(0x00ff00ff00ff00ffull);
    PhysPage dense;
    for (std::uint64_t off = 0; off < kPageBytes; off += 8)
        dense.write64(off, 0x00ff00ff00ff00ffull);
    dense.write64(kPageBytes - 8, 0x1);  // force dense representation

    pattern.flipBit(100, 3);
    dense.flipBit(100, 3);
    EXPECT_EQ(pattern.read8(100), dense.read8(100));
    // Flip back restores.
    pattern.flipBit(100, 3);
    EXPECT_EQ(pattern.read8(100), 0x00ff00ff00ff00ffull >> (8 * (100 % 8))
                                      & 0xff);
}

TEST(PhysPage, FlipChangesExactlyOneBit)
{
    PhysPage p;
    p.fillPattern(0);
    std::uint8_t after = p.flipBit(10, 5);
    EXPECT_EQ(after, 1u << 5);
    EXPECT_EQ(p.read8(9), 0u);
    EXPECT_EQ(p.read8(11), 0u);
}

TEST(PhysicalMemory, UnmaterializedReadsZero)
{
    PhysicalMemory mem(1 << 20);
    EXPECT_EQ(mem.read64(0x1000), 0u);
    EXPECT_EQ(mem.materializedPages(), 0u);
}

TEST(PhysicalMemory, WriteMaterializesOnePage)
{
    PhysicalMemory mem(1 << 20);
    mem.write64(0x2000, 0xdead);
    EXPECT_EQ(mem.read64(0x2000), 0xdeadull);
    EXPECT_EQ(mem.materializedPages(), 1u);
    EXPECT_TRUE(mem.isMaterialized(2));
    EXPECT_FALSE(mem.isMaterialized(3));
}

TEST(PhysicalMemory, FramePatternFill)
{
    PhysicalMemory mem(1 << 20);
    mem.fillFramePattern(5, 0x42);
    EXPECT_EQ(mem.read64(5 * kPageBytes + 3000 / 8 * 8), 0x42ull);
}

TEST(PhysicalMemory, FlipBitOnUntouchedPage)
{
    PhysicalMemory mem(1 << 20);
    mem.flipBit(0x3000, 7);
    EXPECT_EQ(mem.read8(0x3000), 0x80);
}

TEST(PhysicalMemory, ByteAndWordViewsAgree)
{
    PhysicalMemory mem(1 << 20);
    mem.write64(0x100, 0x0807060504030201ull);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(mem.read8(0x100 + i), i + 1);
    mem.write8(0x100, 0xff);
    EXPECT_EQ(mem.read64(0x100) & 0xff, 0xffull);
}

TEST(PhysicalMemory, SizeAccounting)
{
    PhysicalMemory mem(8ull << 30);
    EXPECT_EQ(mem.size(), 8ull << 30);
    EXPECT_EQ(mem.frames(), (8ull << 30) / 4096);
}

TEST(PhysicalMemoryDeath, OutOfRangeAccessPanics)
{
    PhysicalMemory mem(1 << 20);
    EXPECT_DEATH(mem.read64(1 << 20), "beyond memory end");
}

TEST(PhysicalMemoryDeath, UnalignedReadPanicsWhetherOrNotPresent)
{
    // Frame 1 is absent and frame 2 present: an unaligned word read
    // is a caller bug in both cases, not a zero read in the first.
    PhysicalMemory mem(1 << 20);
    mem.write64(0x2000, 1);
    EXPECT_DEATH(mem.read64(0x1003), "unaligned");
    EXPECT_DEATH(mem.read64(0x2003), "unaligned");
}

TEST(PhysicalMemory, CopyIsDeepAcrossFrameChunks)
{
    // Frames far apart land in different chunks of the frame table;
    // a copy must hold the same pages, hash the same, and stay
    // independent of its original.
    PhysicalMemory mem(64ull << 20);
    const PhysFrame frames[] = {0, 511, 512, 4000, mem.frames() - 1};
    for (PhysFrame frame : frames)
        mem.write64(frame * kPageBytes + 8, frame + 1);
    mem.fillFramePattern(700, 0);  // materialized, but all zero
    EXPECT_EQ(mem.materializedPages(), 6u);
    EXPECT_FALSE(mem.isMaterialized(701));
    EXPECT_FALSE(mem.isMaterialized(mem.frames()));

    PhysicalMemory copy(mem);
    EXPECT_EQ(copy.materializedPages(), 6u);
    EXPECT_EQ(copy.contentHash(), mem.contentHash());
    for (PhysFrame frame : frames)
        EXPECT_EQ(copy.read64(frame * kPageBytes + 8), frame + 1);

    copy.write64(4000 * kPageBytes + 8, 0);
    EXPECT_NE(copy.contentHash(), mem.contentHash());
    EXPECT_EQ(mem.read64(4000 * kPageBytes + 8), 4001u);
}

} // namespace
} // namespace pth
