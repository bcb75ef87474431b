/**
 * @file
 * Intel LLC complex-addressing slice hash.
 *
 * The slice index is the XOR-parity of the physical address with one
 * published mask per slice bit (Maurice et al., "Reverse Engineering
 * Intel Last-Level Cache Complex Addressing Using Performance
 * Counters", RAID 2015). Eviction-set construction must solve exactly
 * this hash, which is why the regular-page pool build is so much slower
 * than the superpage build.
 */

#ifndef PTH_CACHE_SLICE_HASH_HH
#define PTH_CACHE_SLICE_HASH_HH

#include <array>
#include <cstdint>

#include "common/bitops.hh"
#include "common/types.hh"

namespace pth
{

/** Parity-mask slice hash for a power-of-two slice count. */
class SliceHash
{
  public:
    /** @param slices Number of LLC slices (1, 2, 4 or 8). */
    explicit SliceHash(unsigned slices);

    /** Slice index of a physical address. */
    unsigned
    slice(PhysAddr pa) const
    {
        // Unused slice bits have an all-zero mask, whose parity is 0.
        return maskedParity(pa, bitMasks[0]) |
               maskedParity(pa, bitMasks[1]) << 1 |
               maskedParity(pa, bitMasks[2]) << 2;
    }

    /** Number of slices. */
    unsigned slices() const { return nSlices; }

  private:
    unsigned nSlices;
    /** Parity mask of each slice-index bit; zero past log2(slices). */
    std::array<std::uint64_t, 3> bitMasks{};
};

} // namespace pth

#endif // PTH_CACHE_SLICE_HASH_HH
