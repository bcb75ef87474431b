#include "cache/replacement_policy.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace pth
{

std::string
replacementKindName(ReplacementKind kind)
{
    switch (kind) {
      case ReplacementKind::Lru:
        return "lru";
      case ReplacementKind::TreePlru:
        return "tree-plru";
      case ReplacementKind::Random:
        return "random";
      case ReplacementKind::Nru:
        return "nru";
      case ReplacementKind::Aging:
        return "aging";
    }
    return "?";
}

std::unique_ptr<ReplacementPolicy>
ReplacementPolicy::create(ReplacementKind kind, std::uint64_t sets,
                          unsigned ways, std::uint64_t seed)
{
    return std::make_unique<ReplacementPolicy>(kind, sets, ways, seed);
}

ReplacementPolicy::ReplacementPolicy(ReplacementKind kind_,
                                     std::uint64_t sets, unsigned ways_,
                                     std::uint64_t seed)
    : kind(kind_), ways(ways_), rng(seed)
{
    pth_assert(ways >= 1, "replacement needs at least one way");
    switch (kind) {
      case ReplacementKind::Lru:
        words.assign(sets * ways, 0);
        break;
      case ReplacementKind::TreePlru:
        while (treeWays < ways)
            treeWays <<= 1;
        levels = log2i(treeWays);
        pth_assert(treeWays <= 64, "tree-PLRU supports at most 64 ways");
        words.assign(sets, 0);
        // Node n of the tree is bit n of the set's word; the children
        // of node n are 2n + 1 (left) and 2n + 2 (right).
        paths.resize(ways);
        for (unsigned way = 0; way < ways; ++way) {
            unsigned node = 0;
            for (unsigned level = 0; level < levels; ++level) {
                unsigned dir = (way >> (levels - 1 - level)) & 1;
                paths[way].nodes |= 1ull << node;
                if (!dir)
                    paths[way].away |= 1ull << node;
                node = 2 * node + 1 + dir;
            }
        }
        break;
      case ReplacementKind::Nru:
      case ReplacementKind::Aging:
        bytes.assign(sets * ways, 0);
        break;
      case ReplacementKind::Random:
        break;
    }
}

unsigned
ReplacementPolicy::victim(std::uint64_t set)
{
    switch (kind) {
      case ReplacementKind::Lru: {
        const std::uint64_t *stamps = &words[set * ways];
        unsigned best = 0;
        std::uint64_t bestStamp = ~0ull;
        for (unsigned w = 0; w < ways; ++w) {
            if (stamps[w] < bestStamp) {
                bestStamp = stamps[w];
                best = w;
            }
        }
        return best;
      }
      case ReplacementKind::TreePlru:
        return treePlruVictim(set);
      case ReplacementKind::Nru:
        return nruVictim(set);
      case ReplacementKind::Aging:
        return agingVictim(set);
      case ReplacementKind::Random:
        return static_cast<unsigned>(rng.below(ways));
    }
    panic("unknown replacement kind");
}

unsigned
ReplacementPolicy::treePlruVictim(std::uint64_t set)
{
    for (unsigned attempt = 0; attempt < 2 * treeWays; ++attempt) {
        const std::uint64_t tree = words[set];
        unsigned node = 0;
        unsigned way = 0;
        for (unsigned level = 0; level < levels; ++level) {
            unsigned dir = (tree >> node) & 1;
            way = (way << 1) | dir;
            node = 2 * node + 1 + dir;
        }
        if (way < ways)
            return way;
        // The tree pointed into the padded range (non-power-of-two
        // associativity); steer away and retry.
        pointAwayFrom(set, ways - 1);
    }
    return ways - 1;
}

unsigned
ReplacementPolicy::nruVictim(std::uint64_t set)
{
    std::uint8_t *refs = &bytes[set * ways];
    unsigned clearCount = 0;
    for (unsigned w = 0; w < ways; ++w)
        if (!refs[w])
            ++clearCount;
    if (clearCount == 0) {
        // Everything was recently used: clear the epoch and pick any.
        for (unsigned w = 0; w < ways; ++w)
            refs[w] = 0;
        return static_cast<unsigned>(rng.below(ways));
    }
    unsigned pick = static_cast<unsigned>(rng.below(clearCount));
    for (unsigned w = 0; w < ways; ++w) {
        if (!refs[w]) {
            if (pick == 0)
                return w;
            --pick;
        }
    }
    return ways - 1;
}

unsigned
ReplacementPolicy::agingVictim(std::uint64_t set)
{
    // The policy is defined as up to maxRounds rounds: pick among the
    // ways at age 0 if any; else, with skipAgeProbability, pick among
    // the youngest ways; else age every way by one. Ageing a set with
    // no way at 0 lowers every age by one, so the youngest ways stay
    // the youngest and only the number of ageing rounds is unknown. It
    // is found by the same chance() draws the rounds would make.
    constexpr unsigned maxRounds = 2u * touchAge + 2;
    std::uint8_t *age = &bytes[set * ways];
    std::uint8_t minAge = 255;
    unsigned count = 0;
    for (unsigned w = 0; w < ways; ++w) {
        if (age[w] < minAge) {
            minAge = age[w];
            count = 1;
        } else if (age[w] == minAge) {
            ++count;
        }
    }

    unsigned aged = 0;
    while (aged < maxRounds && aged < minAge &&
           !rng.chance(skipAgeProbability))
        ++aged;
    for (unsigned w = 0; w < ways; ++w)
        age[w] = static_cast<std::uint8_t>(age[w] - aged);
    if (aged == maxRounds)
        return static_cast<unsigned>(rng.below(ways));

    const std::uint8_t youngest = static_cast<std::uint8_t>(minAge - aged);
    unsigned pick = static_cast<unsigned>(rng.below(count));
    for (unsigned w = 0; w < ways; ++w) {
        if (age[w] == youngest) {
            if (pick == 0)
                return w;
            --pick;
        }
    }
    return ways - 1;
}

std::uint64_t
ReplacementPolicy::stateHash() const
{
    std::uint64_t h = 0;
    switch (kind) {
      case ReplacementKind::Lru:
        h = hashCombine(0x12c0, ways, tick);
        for (std::uint64_t stamp : words)
            h = hashCombine(h, stamp);
        return h;
      case ReplacementKind::TreePlru:
        h = hashCombine(0x92e9, ways, treeWays);
        for (std::uint64_t tree : words)
            for (unsigned node = 0; node + 1 < treeWays; ++node)
                h = hashCombine(h, (tree >> node) & 1);
        return h;
      case ReplacementKind::Nru:
        h = hashCombine(0x9eb, ways, rng.stateHash());
        break;
      case ReplacementKind::Aging:
        h = hashCombine(0xa917, ways, rng.stateHash());
        break;
      case ReplacementKind::Random:
        return hashCombine(0x9a2d, ways, rng.stateHash());
    }
    for (std::uint8_t b : bytes)
        h = hashCombine(h, b);
    return h;
}

} // namespace pth
