/**
 * @file
 * Set-associative replacement policies.
 *
 * True LRU, tree pseudo-LRU, random, not-recently-used and aging
 * replacement are provided by one concrete class that switches on its
 * kind, so the per-access touch/insert calls of every cache and TLB
 * level inline instead of dispatching through a vtable. The paper's
 * machines use Aging for their TLBs: the paper observes that a TLB
 * eviction set equal to the associativity does not reliably evict
 * ("the eviction policy on TLB is not true LRU"), and Aging reproduces
 * the Figure 3 minimal-set-size knee.
 */

#ifndef PTH_CACHE_REPLACEMENT_POLICY_HH
#define PTH_CACHE_REPLACEMENT_POLICY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"

namespace pth
{

/**
 * Replacement policy kinds selectable from configuration.
 *
 *  - Lru: true least-recently-used via per-way age stamps.
 *  - TreePlru: tree pseudo-LRU. Associativities that are not a power
 *    of two (e.g. 12-way LLC slices) use the next larger tree and
 *    re-draw when the tree points at a nonexistent way.
 *  - Random: uniform random victim (deterministic, seeded).
 *  - Nru: one reference bit per way. A hit sets the bit; a fill
 *    victimizes a random way whose bit is clear, clearing all bits
 *    when every way is referenced, so a recently-touched entry
 *    survives bursts of fills probabilistically.
 *  - Aging: clock-style aging with a small re-reference counter per
 *    way. Hits recharge an entry to the maximum age; fills start low;
 *    victim selection picks (randomly) among ways at age 0, ageing the
 *    whole set when none qualifies. A freshly-touched entry survives
 *    roughly touchAge ageing rounds of fills, pushing the reliable
 *    eviction-set size to ~3x the associativity — the TLB behaviour
 *    behind the paper's Figure 3 knee at 12 pages for 4-way TLBs.
 */
enum class ReplacementKind { Lru, TreePlru, Random, Nru, Aging };

/** Human-readable policy name. */
std::string replacementKindName(ReplacementKind kind);

/**
 * Per-structure replacement state covering all sets of one
 * set-associative structure. Copying deep-copies the per-set state and
 * the RNG, so a copied structure replays victim choices bit-identically
 * (Machine snapshot/fork support).
 */
class ReplacementPolicy
{
  public:
    ReplacementPolicy(ReplacementKind kind, std::uint64_t sets,
                      unsigned ways, std::uint64_t seed = 1);

    /** Note a hit on (set, way). */
    void
    touch(std::uint64_t set, unsigned way)
    {
        switch (kind) {
          case ReplacementKind::Lru:
            words[set * ways + way] = ++tick;
            return;
          case ReplacementKind::TreePlru:
            pointAwayFrom(set, way);
            return;
          case ReplacementKind::Nru:
            bytes[set * ways + way] = 1;
            return;
          case ReplacementKind::Aging:
            bytes[set * ways + way] = touchAge;
            return;
          case ReplacementKind::Random:
            return;
        }
    }

    /** Note a fill into (set, way). */
    void
    insert(std::uint64_t set, unsigned way)
    {
        if (kind == ReplacementKind::Aging)
            bytes[set * ways + way] = insertAge;
        else
            touch(set, way);
    }

    /** Choose the way to evict from the given (full) set. */
    unsigned victim(std::uint64_t set);

    /**
     * Digest of the replacement metadata (age stamps, tree bits,
     * reference bits, RNG position). Folded into Cache/Tlb stateHash
     * so two structures with equal fingerprints also agree on every
     * future victim choice — without this, snapshot audits could pass
     * on states that replay differently.
     */
    std::uint64_t stateHash() const;

    /** Factory. */
    static std::unique_ptr<ReplacementPolicy> create(
        ReplacementKind kind, std::uint64_t sets, unsigned ways,
        std::uint64_t seed = 1);

  private:
    static constexpr std::uint8_t touchAge = 4;
    static constexpr std::uint8_t insertAge = 1;
    static constexpr double skipAgeProbability = 0.60;

    /** The tree nodes on one way's root path, and the values that
     * point each of them away from that way. */
    struct TreePath
    {
        std::uint64_t nodes = 0;
        std::uint64_t away = 0;
    };

    /** Tree-PLRU update: point every node on way's path away from it. */
    void
    pointAwayFrom(std::uint64_t set, unsigned way)
    {
        const TreePath &path = paths[way];
        words[set] = (words[set] & ~path.nodes) | path.away;
    }

    unsigned treePlruVictim(std::uint64_t set);
    unsigned nruVictim(std::uint64_t set);
    unsigned agingVictim(std::uint64_t set);

    ReplacementKind kind;
    unsigned ways;
    unsigned treeWays = 1;        //!< tree-PLRU: ways rounded up to 2^n
    unsigned levels = 0;          //!< tree-PLRU: log2(treeWays)
    std::vector<TreePath> paths;  //!< tree-PLRU: per-way path masks
    std::uint64_t tick = 0;       //!< LRU: last stamp handed out
    /** LRU: sets x ways age stamps. Tree-PLRU: one word per set whose
     * bit n is tree node n (treeWays - 1 nodes, at most 63). */
    std::vector<std::uint64_t> words;
    /** NRU: sets x ways reference bits. Aging: sets x ways ages. */
    std::vector<std::uint8_t> bytes;
    Rng rng;                      //!< Random, NRU and Aging draws
};

} // namespace pth

#endif // PTH_CACHE_REPLACEMENT_POLICY_HH
