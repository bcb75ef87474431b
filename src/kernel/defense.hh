/**
 * @file
 * Software-only rowhammer defenses as frame-placement policies.
 *
 * Each defense decides which physical frame backs an allocation of a
 * given intent, implementing the isolation contract its paper
 * describes:
 *
 *  - CATT (Brasser et al.) partitions memory into a kernel zone and a
 *    user zone separated by guard rows: user-reachable rows are never
 *    adjacent to kernel rows.
 *  - RIP-RH (Bock et al.) segregates each user process into its own
 *    DRAM region; the kernel is not protected.
 *  - CTA (Wu et al.) additionally confines Level-1 page tables to the
 *    *top* of physical memory in rows screened to contain only true
 *    cells, so any flip lowers a PTE's pointer and can never redirect
 *    it into the L1PT region.
 *  - ZebRAM (Konoth et al.) uses only every second row for data and
 *    keeps odd rows as guards.
 *
 * PThammer's claim, which the benches reproduce, is that placement
 * defenses do not help when the *processor* performs the access.
 */

#ifndef PTH_KERNEL_DEFENSE_HH
#define PTH_KERNEL_DEFENSE_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "common/types.hh"
#include "kernel/buddy_allocator.hh"

namespace pth
{

class AddressMapping;
class VulnerabilityModel;

/** What an allocation will hold; drives defense placement. */
enum class AllocIntent
{
    UserData,        //!< user-space anonymous/shared pages
    PageTableL1,     //!< Level-1 page-table pages (the attack target)
    PageTableUpper,  //!< PML4/PDPT/PD pages
    KernelData,      //!< other kernel objects (e.g. struct cred slabs)
};

/** Selectable defense policies. */
enum class DefenseKind { None, Catt, RipRh, Cta, ZebRam };

/** Human-readable defense name. */
std::string defenseKindName(DefenseKind kind);

/**
 * Frame-placement policy: one value type that switches on its kind.
 * Every zone is held by value, so a plain copy carries the whole
 * allocator state over (pools, cursors, recycled frames, fallback
 * flag) and hands out the same frames in the same order; rebind()
 * then points the copy at the new machine's devices.
 */
class Defense
{
  public:
    /** Wire a policy of the given kind to the machine's DRAM layout. */
    Defense(DefenseKind kind, const AddressMapping &mapping,
            const VulnerabilityModel &vulnerability,
            std::uint64_t totalFrames);

    /**
     * Point a copy at another machine's mapping and vulnerability
     * model (same values, different objects) for Machine
     * snapshot/fork.
     */
    void
    rebind(const AddressMapping &mapping,
           const VulnerabilityModel &vulnerability)
    {
        map = &mapping;
        vuln = &vulnerability;
    }

    /** Policy name for reports. */
    std::string name() const { return defenseKindName(kind); }

    /**
     * Allocate one frame.
     * @param intent What the frame will hold.
     * @param owner Owning process id (used by RIP-RH).
     * @return Frame, or kInvalidFrame when the zone is exhausted.
     */
    PhysFrame alloc(AllocIntent intent, std::uint64_t owner);

    /** Free a frame previously allocated with the same intent/owner. */
    void free(PhysFrame frame, AllocIntent intent, std::uint64_t owner);

    /**
     * Placement predicate, used by property tests: would this policy
     * ever place an allocation of this intent in this frame?
     */
    bool frameAllowed(AllocIntent intent, PhysFrame frame) const;

    /**
     * Approximate zone capacity (frames) for an intent; lets the
     * CATT-exhaustion counter-technique size its allocations.
     */
    std::uint64_t zoneFrames(AllocIntent intent) const;

    /**
     * Digest of the allocator state (pool free lists, cursors,
     * recycled frames, fallback flags). Folded into Kernel::stateHash
     * so equal machine fingerprints imply identical future frame
     * placement.
     */
    std::uint64_t stateHash() const;

  private:
    /**
     * A zone whose frames are cheaply enumerable but not contiguous
     * (CTA's true-cell L1PT rows, ZebRAM's even rows): a cursor walks
     * [lo, hi) keeping frames whose row passes rowAllowed(). Freed
     * frames are recycled first.
     */
    struct CursorZone
    {
        PhysFrame lo = 0;
        PhysFrame hi = 0;
        PhysFrame cursor = 0;
        bool descending = false;
        std::set<PhysFrame> recycled;
    };

    /** The cursor zone's row rule: true-cell-only rows for CTA, even
     * rows for ZebRAM. */
    bool rowAllowed(PhysFrame frame) const;

    PhysFrame cursorAlloc();

    /** RIP-RH: the owner's user partition, created on first use. */
    BuddyAllocator &partitionFor(std::uint64_t owner);

    DefenseKind kind;
    const AddressMapping *map;
    const VulnerabilityModel *vuln;

    /** none: all memory; CATT, RIP-RH: the kernel zone; CTA:
     * everything below the L1PT zone. */
    BuddyAllocator mainPool;
    BuddyAllocator userPool;  //!< CATT: the user zone
    CursorZone zone;          //!< CTA: the L1PT zone; ZebRAM: all memory

    PhysFrame kernelEnd = 0;      //!< CATT, RIP-RH
    PhysFrame userStart = 0;      //!< CATT, RIP-RH
    bool warnedFallback = false;  //!< CATT

    unsigned partitionCount = 0;        //!< RIP-RH
    std::uint64_t partitionFrames = 0;  //!< RIP-RH
    std::uint64_t guardFrames = 0;      //!< RIP-RH
    std::map<unsigned, BuddyAllocator> partitions;  //!< RIP-RH
};

} // namespace pth

#endif // PTH_KERNEL_DEFENSE_HH
