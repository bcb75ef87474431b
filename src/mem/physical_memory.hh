/**
 * @file
 * Sparse simulated physical memory.
 *
 * Pages are materialized on first write (or flip); unmaterialized pages
 * read as zero. This lets experiments run at the paper's full 8 GiB
 * scale while host memory stays proportional to the touched footprint.
 *
 * The frame table is a directory of 512-frame chunks, each allocated
 * on first touch: one allocation covers 2 MiB of simulated memory, so
 * the attack's gigabyte-scale page-table spray costs a few bytes of
 * bookkeeping per page rather than a hash-map node each.
 */

#ifndef PTH_MEM_PHYSICAL_MEMORY_HH
#define PTH_MEM_PHYSICAL_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "mem/phys_page.hh"

namespace pth
{

/** Byte-addressable sparse physical memory of a fixed size. */
class PhysicalMemory
{
  public:
    /** @param sizeBytes Total simulated physical memory size. */
    explicit PhysicalMemory(std::uint64_t sizeBytes);

    /** Deep copy of every materialized page (Machine snapshot/fork). */
    PhysicalMemory(const PhysicalMemory &other);

    /** Total size in bytes. */
    std::uint64_t size() const { return bytes; }

    /** Total size in 4 KiB frames. */
    std::uint64_t frames() const { return bytes >> kPageShift; }

    /** Read the aligned 64-bit word at a physical address (panics on
     * an unaligned address, whether or not the page exists). */
    std::uint64_t read64(PhysAddr pa) const;

    /** Write the aligned 64-bit word at a physical address. */
    void write64(PhysAddr pa, std::uint64_t value);

    /** Read one byte. */
    std::uint8_t read8(PhysAddr pa) const;

    /** Write one byte. */
    void write8(PhysAddr pa, std::uint8_t value);

    /** Fill an entire frame with a repeating 64-bit pattern. */
    void fillFramePattern(PhysFrame frame, std::uint64_t value);

    /**
     * Flip one bit in DRAM (the fault-injection entry point used by the
     * rowhammer disturbance model).
     *
     * @param pa Physical byte address.
     * @param bitPos Bit within the byte (0-7).
     */
    void flipBit(PhysAddr pa, unsigned bitPos);

    /** Number of host-materialized pages (memory-audit hook). */
    std::uint64_t materializedPages() const;

    /** True when the frame has been materialized. */
    bool isMaterialized(PhysFrame frame) const;

    /**
     * Order-independent hash over every materialized page's content
     * (snapshot audits; see Machine::stateFingerprint). Two memories
     * whose reads can never differ hash equally, regardless of page
     * representation.
     */
    std::uint64_t contentHash() const;

  private:
    static constexpr unsigned kChunkShift = 9;
    static constexpr std::uint64_t kChunkFrames = 1ull << kChunkShift;

    /** kChunkFrames consecutive frames: their pages and a presence
     * bitset saying which of them are materialized. */
    struct Chunk
    {
        std::array<PhysPage, kChunkFrames> pages;
        std::array<std::uint64_t, kChunkFrames / 64> present{};
    };

    PhysPage &pageFor(PhysFrame frame);
    const PhysPage *pageIfPresent(PhysFrame frame) const;
    void checkRange(PhysAddr pa) const;

    std::uint64_t bytes;
    /** One entry per chunk of frames; null until a frame is touched. */
    std::vector<std::unique_ptr<Chunk>> chunks;
};

} // namespace pth

#endif // PTH_MEM_PHYSICAL_MEMORY_HH
