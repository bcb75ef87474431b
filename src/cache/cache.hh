/**
 * @file
 * One level of a physically-indexed, physically-tagged set-associative
 * cache. Tracks line presence only (the functional data lives in
 * PhysicalMemory); timing is composed by the hierarchy.
 */

#ifndef PTH_CACHE_CACHE_HH
#define PTH_CACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/cache_config.hh"
#include "cache/slice_hash.hh"
#include "common/types.hh"

namespace pth
{

/** A single cache level. */
class Cache
{
  public:
    /**
     * @param config Geometry / policy for this level.
     * @param name Short name for diagnostics ("l1d", "llc", ...).
     */
    Cache(const CacheConfig &config, std::string name = "cache");

    /** Deep copy: lines, replacement-policy state, and hit/miss
     * counters all carry over (Machine snapshot/fork support). */
    Cache(const Cache &other);

    /**
     * Digest of the observable state — every line (tag + valid) in
     * index order plus the hit/miss counters. Used by
     * Machine::stateFingerprint for snapshot audits.
     */
    std::uint64_t stateHash() const;

    /** True when the line holding pa is present. */
    bool contains(PhysAddr pa) const;

    /**
     * Look up the line; on a hit, update replacement state.
     * @return true on hit.
     */
    bool access(PhysAddr pa);

    /**
     * Insert the line holding pa, evicting if the set is full.
     * @return The physical line address evicted, if any.
     */
    std::optional<PhysAddr> fill(PhysAddr pa);

    /**
     * Remove the line holding pa if present.
     * @return true when the line was present.
     */
    bool invalidate(PhysAddr pa);

    /** Global set index (slice-major) of pa — exposed for tests. */
    std::uint64_t globalSet(PhysAddr pa) const;

    /** Set index within a slice. */
    std::uint64_t setIndex(PhysAddr pa) const;

    /** Slice index. */
    unsigned sliceIndex(PhysAddr pa) const;

    /** Number of lines currently valid. */
    std::uint64_t validLines() const;

    /** Geometry. */
    const CacheConfig &config() const { return cfg; }

    /** Hit count since construction. */
    std::uint64_t hits() const { return nHits; }

    /** Miss count since construction. */
    std::uint64_t misses() const { return nMisses; }

    /** Drop every line. */
    void flushAll();

  private:
    /** Line word of pa: its line address (which doubles as the tag:
     * inclusive back-invalidation needs exact evicted addresses) with
     * the valid bit set. A stored word of 0 is an invalid line. */
    static std::uint64_t
    lineWord(PhysAddr pa)
    {
        return (pa >> kLineShift) | kValidBit;
    }

    static constexpr std::uint64_t kValidBit = 1ull << 63;

    CacheConfig cfg;
    std::string label;
    SliceHash hash;
    std::vector<std::uint64_t> lines;   //!< sets x ways line words
    ReplacementPolicy policy;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
};

} // namespace pth

#endif // PTH_CACHE_CACHE_HH
