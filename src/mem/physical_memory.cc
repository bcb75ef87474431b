#include "mem/physical_memory.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace pth
{

PhysicalMemory::PhysicalMemory(std::uint64_t sizeBytes)
    : bytes(sizeBytes),
      chunks(((sizeBytes >> kPageShift) + kChunkFrames - 1) >> kChunkShift)
{
    pth_assert(sizeBytes >= kPageBytes && sizeBytes % kPageBytes == 0,
               "physical memory size must be page aligned");
}

PhysicalMemory::PhysicalMemory(const PhysicalMemory &other)
    : bytes(other.bytes), chunks(other.chunks.size())
{
    for (std::size_t i = 0; i < chunks.size(); ++i)
        if (other.chunks[i])
            chunks[i] = std::make_unique<Chunk>(*other.chunks[i]);
}

void
PhysicalMemory::checkRange(PhysAddr pa) const
{
    pth_assert(pa < bytes, "physical access 0x%llx beyond memory end 0x%llx",
               static_cast<unsigned long long>(pa),
               static_cast<unsigned long long>(bytes));
}

std::uint64_t
PhysicalMemory::read64(PhysAddr pa) const
{
    checkRange(pa);
    pth_assert(pa % 8 == 0, "unaligned physical read at 0x%llx",
               static_cast<unsigned long long>(pa));
    const PhysPage *page = pageIfPresent(pa >> kPageShift);
    return page ? page->read64(pa & (kPageBytes - 1)) : 0;
}

void
PhysicalMemory::write64(PhysAddr pa, std::uint64_t value)
{
    checkRange(pa);
    pageFor(pa >> kPageShift).write64(pa & (kPageBytes - 1), value);
}

std::uint8_t
PhysicalMemory::read8(PhysAddr pa) const
{
    checkRange(pa);
    const PhysPage *page = pageIfPresent(pa >> kPageShift);
    return page ? page->read8(pa & (kPageBytes - 1)) : 0;
}

void
PhysicalMemory::write8(PhysAddr pa, std::uint8_t value)
{
    checkRange(pa);
    pageFor(pa >> kPageShift).write8(pa & (kPageBytes - 1), value);
}

void
PhysicalMemory::fillFramePattern(PhysFrame frame, std::uint64_t value)
{
    checkRange(frame << kPageShift);
    pageFor(frame).fillPattern(value);
}

void
PhysicalMemory::flipBit(PhysAddr pa, unsigned bitPos)
{
    checkRange(pa);
    pageFor(pa >> kPageShift).flipBit(pa & (kPageBytes - 1), bitPos);
}

std::uint64_t
PhysicalMemory::materializedPages() const
{
    std::uint64_t count = 0;
    for (const std::unique_ptr<Chunk> &chunk : chunks)
        if (chunk)
            for (std::uint64_t word : chunk->present)
                count += static_cast<unsigned>(__builtin_popcountll(word));
    return count;
}

bool
PhysicalMemory::isMaterialized(PhysFrame frame) const
{
    return frame < frames() && pageIfPresent(frame) != nullptr;
}

std::uint64_t
PhysicalMemory::contentHash() const
{
    // Commutative combine (sum of per-page mixes), so the digest is a
    // function of the set of (frame, content) pairs alone. An all-zero
    // materialized page hashes like its own content, not like absence
    // — kind() changes are invisible, presence changes are not
    // behaviourally observable anyway (unmaterialized pages read as
    // zero).
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        if (!chunks[i])
            continue;
        const Chunk &chunk = *chunks[i];
        for (std::uint64_t slot = 0; slot < kChunkFrames; ++slot) {
            if (!(chunk.present[slot / 64] >> (slot % 64) & 1))
                continue;
            const PhysFrame frame = (i << kChunkShift) | slot;
            h += mix64(frame ^ chunk.pages[slot].contentHash());
        }
    }
    return h;
}

PhysPage &
PhysicalMemory::pageFor(PhysFrame frame)
{
    std::unique_ptr<Chunk> &chunk = chunks[frame >> kChunkShift];
    if (!chunk)
        chunk = std::make_unique<Chunk>();
    const std::uint64_t slot = frame & (kChunkFrames - 1);
    chunk->present[slot / 64] |= 1ull << (slot % 64);
    return chunk->pages[slot];
}

const PhysPage *
PhysicalMemory::pageIfPresent(PhysFrame frame) const
{
    const Chunk *chunk = chunks[frame >> kChunkShift].get();
    const std::uint64_t slot = frame & (kChunkFrames - 1);
    if (!chunk || !(chunk->present[slot / 64] >> (slot % 64) & 1))
        return nullptr;
    return &chunk->pages[slot];
}

} // namespace pth
