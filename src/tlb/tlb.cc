#include "tlb/tlb.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace pth
{

Tlb::Tlb(const TlbLevelConfig &config)
    : cfg(config), keys(config.sets * config.ways, 0),
      pfns(config.sets * config.ways, 0),
      policy(config.replacement, config.sets, config.ways,
             mix64(config.seed ^ (config.sets * 7 + config.ways)))
{
    pth_assert(isPow2(cfg.sets), "TLB sets must be a power of two");
}

Tlb::Tlb(const Tlb &other)
    : cfg(other.cfg), keys(other.keys), pfns(other.pfns),
      policy(other.policy)
{
}

std::uint64_t
Tlb::stateHash() const
{
    std::uint64_t h = hashCombine(0x71b, policy.stateHash());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        h = hashCombine(h, keys[i] & 1, keys[i] >> 2);
        h = hashCombine(h, pfns[i], (keys[i] >> 1) & 1);
    }
    return h;
}

std::uint64_t
Tlb::setOf(VirtPage vpn) const
{
    // Linear mapping: low vpn bits select the set (Gras et al.).
    return vpn & (cfg.sets - 1);
}

std::optional<TlbEntry>
Tlb::lookup(VirtPage vpn, bool huge)
{
    const std::uint64_t set = setOf(vpn);
    const std::uint64_t base = set * cfg.ways;
    const std::uint64_t want = keyOf(vpn, huge);
    const unsigned ways = cfg.ways;
    for (unsigned w = 0; w < ways; ++w) {
        if (keys[base + w] == want) {
            policy.touch(set, w);
            return TlbEntry{vpn, pfns[base + w], huge};
        }
    }
    return std::nullopt;
}

bool
Tlb::contains(VirtPage vpn, bool huge) const
{
    const std::uint64_t base = setOf(vpn) * cfg.ways;
    const std::uint64_t want = keyOf(vpn, huge);
    for (unsigned w = 0; w < cfg.ways; ++w)
        if (keys[base + w] == want)
            return true;
    return false;
}

void
Tlb::insert(const TlbEntry &entry)
{
    const std::uint64_t set = setOf(entry.vpn);
    const std::uint64_t base = set * cfg.ways;
    const std::uint64_t want = keyOf(entry.vpn, entry.huge);
    const unsigned ways = cfg.ways;

    // One scan finds both an already-cached entry (refresh in place)
    // and the first free way.
    unsigned freeWay = ways;
    for (unsigned w = 0; w < ways; ++w) {
        const std::uint64_t key = keys[base + w];
        if (key == want) {
            pfns[base + w] = entry.pfn;
            policy.touch(set, w);
            return;
        }
        if (!(key & 1) && freeWay == ways)
            freeWay = w;
    }

    if (freeWay != ways) {
        keys[base + freeWay] = want;
        pfns[base + freeWay] = entry.pfn;
        policy.insert(set, freeWay);
        return;
    }

    unsigned w = policy.victim(set);
    keys[base + w] = want;
    pfns[base + w] = entry.pfn;
    policy.insert(set, w);
}

void
Tlb::invalidate(VirtPage vpn, bool huge)
{
    const std::uint64_t base = setOf(vpn) * cfg.ways;
    const std::uint64_t want = keyOf(vpn, huge);
    for (unsigned w = 0; w < cfg.ways; ++w)
        if (keys[base + w] == want)
            keys[base + w] &= ~1ull;
}

void
Tlb::flushAll()
{
    for (std::uint64_t &key : keys)
        key &= ~1ull;
}

std::uint64_t
Tlb::validEntries() const
{
    std::uint64_t count = 0;
    for (std::uint64_t key : keys)
        count += key & 1;
    return count;
}

} // namespace pth
