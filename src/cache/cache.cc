#include "cache/cache.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace pth
{

Cache::Cache(const CacheConfig &config, std::string name)
    : cfg(config), label(std::move(name)), hash(config.slices),
      lines(config.sets * config.slices * config.ways, 0),
      policy(config.replacement, config.sets * config.slices, config.ways,
             mix64(config.sets + config.ways))
{
    pth_assert(isPow2(cfg.sets), "cache sets must be a power of two");
    pth_assert(cfg.ways >= 1, "cache needs at least one way");
}

Cache::Cache(const Cache &other)
    : cfg(other.cfg), label(other.label), hash(other.hash),
      lines(other.lines), policy(other.policy), nHits(other.nHits),
      nMisses(other.nMisses)
{
}

std::uint64_t
Cache::stateHash() const
{
    std::uint64_t h = hashCombine(0x5ca1e, nHits);
    h = hashCombine(h, nMisses, policy.stateHash());
    for (std::uint64_t line : lines)
        h = hashCombine(h, line);
    return h;
}

std::uint64_t
Cache::setIndex(PhysAddr pa) const
{
    return (pa >> kLineShift) & (cfg.sets - 1);
}

unsigned
Cache::sliceIndex(PhysAddr pa) const
{
    return hash.slice(pa);
}

std::uint64_t
Cache::globalSet(PhysAddr pa) const
{
    return static_cast<std::uint64_t>(sliceIndex(pa)) * cfg.sets +
           setIndex(pa);
}

bool
Cache::contains(PhysAddr pa) const
{
    const std::uint64_t *row = &lines[globalSet(pa) * cfg.ways];
    const std::uint64_t want = lineWord(pa);
    for (unsigned w = 0; w < cfg.ways; ++w)
        if (row[w] == want)
            return true;
    return false;
}

bool
Cache::access(PhysAddr pa)
{
    const std::uint64_t set = globalSet(pa);
    const std::uint64_t want = lineWord(pa);
    const std::uint64_t *row = &lines[set * cfg.ways];
    const unsigned ways = cfg.ways;
    for (unsigned w = 0; w < ways; ++w) {
        if (row[w] == want) {
            policy.touch(set, w);
            ++nHits;
            return true;
        }
    }
    ++nMisses;
    return false;
}

std::optional<PhysAddr>
Cache::fill(PhysAddr pa)
{
    const std::uint64_t set = globalSet(pa);
    const std::uint64_t want = lineWord(pa);
    std::uint64_t *row = &lines[set * cfg.ways];
    const unsigned ways = cfg.ways;

    // One scan finds both an already-present line and the first free
    // way.
    unsigned freeWay = ways;
    for (unsigned w = 0; w < ways; ++w) {
        if (row[w] == want) {
            // Already present: refresh replacement state only.
            policy.touch(set, w);
            return std::nullopt;
        }
        if (row[w] == 0 && freeWay == ways)
            freeWay = w;
    }

    if (freeWay != ways) {
        row[freeWay] = want;
        policy.insert(set, freeWay);
        return std::nullopt;
    }

    unsigned w = policy.victim(set);
    PhysAddr evicted = (row[w] & ~kValidBit) << kLineShift;
    row[w] = want;
    policy.insert(set, w);
    return evicted;
}

bool
Cache::invalidate(PhysAddr pa)
{
    std::uint64_t *row = &lines[globalSet(pa) * cfg.ways];
    const std::uint64_t want = lineWord(pa);
    for (unsigned w = 0; w < cfg.ways; ++w) {
        if (row[w] == want) {
            row[w] = 0;
            return true;
        }
    }
    return false;
}

std::uint64_t
Cache::validLines() const
{
    std::uint64_t count = 0;
    for (std::uint64_t line : lines)
        if (line)
            ++count;
    return count;
}

void
Cache::flushAll()
{
    std::fill(lines.begin(), lines.end(), 0);
}

} // namespace pth
