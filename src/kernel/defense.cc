#include "kernel/defense.hh"

#include "common/logging.hh"
#include "common/random.hh"
#include "dram/address_mapping.hh"
#include "dram/vulnerability_model.hh"

namespace pth
{

std::string
defenseKindName(DefenseKind kind)
{
    switch (kind) {
      case DefenseKind::None:
        return "none";
      case DefenseKind::Catt:
        return "CATT";
      case DefenseKind::RipRh:
        return "RIP-RH";
      case DefenseKind::Cta:
        return "CTA";
      case DefenseKind::ZebRam:
        return "ZebRAM";
    }
    return "?";
}

namespace
{

/** First frames are reserved for the kernel image / boot structures. */
constexpr PhysFrame kReservedFrames = 256;

} // namespace

Defense::Defense(DefenseKind kind_, const AddressMapping &mapping,
                 const VulnerabilityModel &vulnerability,
                 std::uint64_t totalFrames)
    : kind(kind_), map(&mapping), vuln(&vulnerability), mainPool(0, 0),
      userPool(0, 0)
{
    pth_assert(totalFrames > 2 * kReservedFrames, "memory too small");
    // One full row-index stride: a guard row in every bank.
    std::uint64_t rowStride =
        mapping.rowBytes() * mapping.banks() / kPageBytes;
    switch (kind) {
      case DefenseKind::None:
        mainPool =
            BuddyAllocator(kReservedFrames, totalFrames - kReservedFrames);
        break;
      case DefenseKind::Catt:
        // The kernel zone takes the low quarter; a full row-index
        // stride of guard frames separates it from user memory, so no
        // user-reachable row is adjacent to a kernel row.
        kernelEnd = kReservedFrames + (totalFrames / 4);
        userStart = kernelEnd + rowStride;
        mainPool =
            BuddyAllocator(kReservedFrames, kernelEnd - kReservedFrames);
        userPool = BuddyAllocator(userStart, totalFrames - userStart);
        break;
      case DefenseKind::RipRh:
        kernelEnd = kReservedFrames + (totalFrames / 4);
        userStart = kernelEnd;
        mainPool =
            BuddyAllocator(kReservedFrames, kernelEnd - kReservedFrames);
        // One region per user; enough regions for realistic process
        // counts, but never so many that a region cannot hold a
        // process's working set (>= 32 MiB each).
        partitionCount = 64;
        while (partitionCount > 4 &&
               (totalFrames - userStart) / partitionCount < 8192)
            partitionCount /= 2;
        partitionFrames = (totalFrames - userStart) / partitionCount;
        // Keep one guard row between neighbouring user partitions.
        guardFrames = rowStride;
        break;
      case DefenseKind::Cta:
        // The top 3/8 of physical memory is reserved for L1PTs; rows
        // containing anti cells are screened out (CTA's memory test).
        zone.lo = totalFrames - (totalFrames * 3) / 8;
        zone.hi = totalFrames;
        zone.cursor = zone.hi;
        zone.descending = true;
        mainPool = BuddyAllocator(kReservedFrames, zone.lo - kReservedFrames);
        break;
      case DefenseKind::ZebRam:
        zone.lo = kReservedFrames;
        zone.hi = totalFrames;
        zone.cursor = zone.lo;
        break;
    }
}

bool
Defense::rowAllowed(PhysFrame frame) const
{
    DramLocation loc = map->decompose(frame << kPageShift);
    if (kind == DefenseKind::Cta)
        return vuln->rowHasOnlyTrueCells(loc.bank, loc.row);
    return (loc.row & 1) == 0;
}

PhysFrame
Defense::cursorAlloc()
{
    if (!zone.recycled.empty()) {
        PhysFrame f = *zone.recycled.begin();
        zone.recycled.erase(zone.recycled.begin());
        return f;
    }
    while (zone.cursor != (zone.descending ? zone.lo : zone.hi)) {
        PhysFrame f = zone.descending ? --zone.cursor : zone.cursor++;
        if (rowAllowed(f))
            return f;
    }
    return kInvalidFrame;
}

BuddyAllocator &
Defense::partitionFor(std::uint64_t owner)
{
    unsigned idx = static_cast<unsigned>(owner % partitionCount);
    auto it = partitions.find(idx);
    if (it == partitions.end()) {
        PhysFrame start = userStart + idx * partitionFrames;
        std::uint64_t usable = partitionFrames > guardFrames
                                   ? partitionFrames - guardFrames
                                   : partitionFrames;
        it = partitions.emplace(idx, BuddyAllocator(start, usable)).first;
    }
    return it->second;
}

PhysFrame
Defense::alloc(AllocIntent intent, std::uint64_t owner)
{
    bool user = intent == AllocIntent::UserData;
    switch (kind) {
      case DefenseKind::None:
        return mainPool.alloc();
      case DefenseKind::Catt: {
        if (user)
            return userPool.alloc();
        PhysFrame f = mainPool.alloc();
        if (f != kInvalidFrame)
            return f;
        // Kernel zone exhausted: like the deployed CATT prototype, the
        // allocator falls back to movable (user) memory rather than
        // failing — the weakness Cheng et al. (CATTmew) identified and
        // that the paper's Section IV-G1 attack provokes on purpose.
        if (!warnedFallback) {
            warn("CATT kernel zone exhausted; falling back to user zone");
            warnedFallback = true;
        }
        return userPool.alloc();
      }
      case DefenseKind::RipRh:
        if (!user) {
            PhysFrame f = mainPool.alloc();
            if (f != kInvalidFrame)
                return f;
        }
        // RIP-RH protects user-user isolation only; the kernel spills
        // into user memory under pressure.
        return partitionFor(owner).alloc();
      case DefenseKind::Cta:
        // An exhausted L1PT zone returns kInvalidFrame: CTA refuses,
        // and the caller fails hard.
        return intent == AllocIntent::PageTableL1 ? cursorAlloc()
                                                  : mainPool.alloc();
      case DefenseKind::ZebRam:
        return cursorAlloc();
    }
    return kInvalidFrame;
}

void
Defense::free(PhysFrame frame, AllocIntent intent, std::uint64_t owner)
{
    bool user = intent == AllocIntent::UserData;
    switch (kind) {
      case DefenseKind::None:
        mainPool.free(frame);
        break;
      case DefenseKind::Catt:
        if (user || frame >= userStart)
            userPool.free(frame);
        else
            mainPool.free(frame);
        break;
      case DefenseKind::RipRh:
        if (!user && frame < kernelEnd)
            mainPool.free(frame);
        else
            partitionFor(owner).free(frame);
        break;
      case DefenseKind::Cta:
        if (intent == AllocIntent::PageTableL1)
            zone.recycled.insert(frame);
        else
            mainPool.free(frame);
        break;
      case DefenseKind::ZebRam:
        zone.recycled.insert(frame);
        break;
    }
}

bool
Defense::frameAllowed(AllocIntent intent, PhysFrame frame) const
{
    switch (kind) {
      case DefenseKind::None:
        return mainPool.contains(frame);
      case DefenseKind::Catt:
      case DefenseKind::RipRh:
        if (intent == AllocIntent::UserData)
            return frame >= userStart;
        // Kernel intents: the dedicated zone, or the documented
        // exhaustion fallback into user memory.
        return frame >= kReservedFrames;
      case DefenseKind::Cta:
        if (intent == AllocIntent::PageTableL1)
            return frame >= zone.lo && rowAllowed(frame);
        return frame >= kReservedFrames && frame < zone.lo;
      case DefenseKind::ZebRam:
        return frame >= kReservedFrames && rowAllowed(frame);
    }
    return false;
}

std::uint64_t
Defense::zoneFrames(AllocIntent intent) const
{
    bool user = intent == AllocIntent::UserData;
    switch (kind) {
      case DefenseKind::None:
        return mainPool.totalFrames();
      case DefenseKind::Catt:
        return user ? userPool.totalFrames() : mainPool.totalFrames();
      case DefenseKind::RipRh:
        return user ? partitionFrames : mainPool.totalFrames();
      case DefenseKind::Cta:
        // The L1PT zone is cursor-based; its capacity is not
        // meaningfully bounded.
        return intent == AllocIntent::PageTableL1 ? 0
                                                  : mainPool.totalFrames();
      case DefenseKind::ZebRam:
        return zone.hi / 2;
    }
    return 0;
}

std::uint64_t
Defense::stateHash() const
{
    auto zoneHash = [this] {
        std::uint64_t h = hashCombine(0xc0a5, zone.lo, zone.hi, zone.cursor);
        h = hashCombine(h, zone.descending);
        for (PhysFrame frame : zone.recycled)  // std::set: ordered
            h = hashCombine(h, frame);
        return h;
    };
    switch (kind) {
      case DefenseKind::None:
        return hashCombine(0xd0, mainPool.stateHash());
      case DefenseKind::Catt: {
        std::uint64_t h = hashCombine(0xd1, kernelEnd, userStart);
        return hashCombine(h, warnedFallback, mainPool.stateHash(),
                           userPool.stateHash());
      }
      case DefenseKind::RipRh: {
        std::uint64_t h = hashCombine(0xd2, kernelEnd, userStart);
        h = hashCombine(h, partitionCount, partitionFrames, guardFrames);
        h = hashCombine(h, mainPool.stateHash());
        // A sum of per-partition digests, as the pinned machine
        // fingerprints expect.
        std::uint64_t fold = 0;
        for (const auto &[idx, pool] : partitions)
            fold += mix64(hashCombine(idx, pool.stateHash()));
        return hashCombine(h, fold);
      }
      case DefenseKind::Cta:
        return hashCombine(0xd3, zone.lo, zoneHash(),
                           mainPool.stateHash());
      case DefenseKind::ZebRam:
        return hashCombine(0xd4, zone.hi, zoneHash());
    }
    return 0;
}

} // namespace pth
