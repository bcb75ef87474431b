/**
 * @file
 * One level of a set-associative TLB.
 *
 * Indexed linearly by virtual page number (the mapping Gras et al.
 * reverse-engineered for the paper's SandyBridge/IvyBridge parts).
 * The paper's machines use Aging replacement — deliberately not true
 * LRU, which is why minimal eviction sets exceed the associativity
 * (Figure 3).
 */

#ifndef PTH_TLB_TLB_HH
#define PTH_TLB_TLB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "tlb/tlb_config.hh"

namespace pth
{

/** A cached address translation. */
struct TlbEntry
{
    VirtPage vpn = 0;      //!< virtual page number (va >> pageShift)
    PhysFrame pfn = 0;     //!< physical frame number
    bool huge = false;     //!< 2 MiB translation
};

/** One TLB level. */
class Tlb
{
  public:
    explicit Tlb(const TlbLevelConfig &config);

    /** Deep copy including replacement-policy state (Machine
     * snapshot/fork support; makes TwoLevelTlb copyable). */
    Tlb(const Tlb &other);

    /** Digest of every slot in index order (snapshot audits). */
    std::uint64_t stateHash() const;

    /**
     * Look up a translation.
     * @param vpn Virtual page number.
     * @param huge Whether the lookup is for a 2 MiB page.
     */
    std::optional<TlbEntry> lookup(VirtPage vpn, bool huge);

    /** Presence check without touching replacement state. */
    bool contains(VirtPage vpn, bool huge) const;

    /** Insert (possibly evicting) a translation. */
    void insert(const TlbEntry &entry);

    /** Invalidate one translation (invlpg). */
    void invalidate(VirtPage vpn, bool huge);

    /** Invalidate everything (CR3 write without PCID). */
    void flushAll();

    /** Linear set index of a vpn — exposed so the attack can build
     * congruent eviction sets exactly as Gras et al. do. */
    std::uint64_t setOf(VirtPage vpn) const;

    /** Geometry. */
    const TlbLevelConfig &config() const { return cfg; }

    /** Number of valid entries. */
    std::uint64_t validEntries() const;

  private:
    /** Slot key of a translation: vpn << 2 | huge << 1 | valid. An
     * invalidated slot keeps its vpn and huge bits (they are hashed). */
    static std::uint64_t
    keyOf(VirtPage vpn, bool huge)
    {
        return vpn << 2 | static_cast<std::uint64_t>(huge) << 1 | 1;
    }

    TlbLevelConfig cfg;
    std::vector<std::uint64_t> keys;   //!< sets x ways slot keys
    std::vector<PhysFrame> pfns;       //!< sets x ways frame numbers
    ReplacementPolicy policy;
};

} // namespace pth

#endif // PTH_TLB_TLB_HH
