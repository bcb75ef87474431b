/**
 * @file
 * Differential oracle for the replacement policies, caches and TLBs.
 *
 * The reference models below are the plain algorithms, written for
 * clarity rather than speed: one class per replacement policy (Aging
 * with its full round loop, tree-PLRU with one byte per tree node), a
 * cache holding a vector of {tag, valid} ways per set, and a TLB
 * holding a vector of {entry, valid} slots. Seeded random operation
 * streams drive a reference and a production object side by side, and
 * every step must agree on hit/miss, the evicted address, the victim
 * way and the state digest.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/replacement_policy.hh"
#include "common/bitops.hh"
#include "common/random.hh"
#include "tlb/tlb.hh"

namespace pth
{
namespace
{

// --- reference replacement policies ----------------------------------

class RefPolicy
{
  public:
    virtual ~RefPolicy() = default;
    virtual void touch(std::uint64_t set, unsigned way) = 0;
    virtual void insert(std::uint64_t set, unsigned way) = 0;
    virtual unsigned victim(std::uint64_t set) = 0;
    virtual std::uint64_t stateHash() const = 0;
};

class RefLru : public RefPolicy
{
  public:
    RefLru(std::uint64_t sets, unsigned ways_)
        : ways(ways_), stamps(sets * ways, 0)
    {
    }

    void touch(std::uint64_t set, unsigned way) override
    {
        stamps[set * ways + way] = ++tick;
    }

    void insert(std::uint64_t set, unsigned way) override
    {
        touch(set, way);
    }

    unsigned victim(std::uint64_t set) override
    {
        unsigned best = 0;
        for (unsigned w = 1; w < ways; ++w)
            if (stamps[set * ways + w] < stamps[set * ways + best])
                best = w;
        return best;
    }

    std::uint64_t stateHash() const override
    {
        std::uint64_t h = hashCombine(0x12c0, ways, tick);
        for (std::uint64_t stamp : stamps)
            h = hashCombine(h, stamp);
        return h;
    }

  private:
    unsigned ways;
    std::uint64_t tick = 0;
    std::vector<std::uint64_t> stamps;
};

class RefTreePlru : public RefPolicy
{
  public:
    RefTreePlru(std::uint64_t sets, unsigned ways_) : ways(ways_)
    {
        while (treeWays < ways)
            treeWays <<= 1;
        levels = log2i(treeWays);
        bits.assign(sets * (treeWays - 1), 0);
    }

    void touch(std::uint64_t set, unsigned way) override
    {
        pointAway(set, way);
    }

    void insert(std::uint64_t set, unsigned way) override
    {
        pointAway(set, way);
    }

    unsigned victim(std::uint64_t set) override
    {
        for (unsigned attempt = 0; attempt < 2 * treeWays; ++attempt) {
            unsigned node = 0;
            unsigned way = 0;
            for (unsigned level = 0; level < levels; ++level) {
                unsigned dir = bits[set * (treeWays - 1) + node];
                way = (way << 1) | dir;
                node = 2 * node + 1 + dir;
            }
            if (way < ways)
                return way;
            pointAway(set, ways - 1);
        }
        return ways - 1;
    }

    std::uint64_t stateHash() const override
    {
        std::uint64_t h = hashCombine(0x92e9, ways, treeWays);
        for (std::uint8_t bit : bits)
            h = hashCombine(h, bit);
        return h;
    }

  private:
    void pointAway(std::uint64_t set, unsigned way)
    {
        unsigned node = 0;
        for (unsigned level = 0; level < levels; ++level) {
            unsigned dir = (way >> (levels - 1 - level)) & 1;
            bits[set * (treeWays - 1) + node] =
                static_cast<std::uint8_t>(dir ^ 1);
            node = 2 * node + 1 + dir;
        }
    }

    unsigned ways;
    unsigned treeWays = 1;
    unsigned levels = 0;
    std::vector<std::uint8_t> bits;
};

/** Pick the n-th (uniformly drawn) way whose mark equals wanted. */
int
pickAmong(const std::vector<std::uint8_t> &marks, std::uint64_t base,
          unsigned ways, std::uint8_t wanted, Rng &rng)
{
    std::vector<unsigned> matching;
    for (unsigned w = 0; w < ways; ++w)
        if (marks[base + w] == wanted)
            matching.push_back(w);
    if (matching.empty())
        return -1;
    return static_cast<int>(matching[rng.below(matching.size())]);
}

class RefNru : public RefPolicy
{
  public:
    RefNru(std::uint64_t sets, unsigned ways_, std::uint64_t seed)
        : ways(ways_), refs(sets * ways, 0), rng(seed)
    {
    }

    void touch(std::uint64_t set, unsigned way) override
    {
        refs[set * ways + way] = 1;
    }

    void insert(std::uint64_t set, unsigned way) override
    {
        refs[set * ways + way] = 1;
    }

    unsigned victim(std::uint64_t set) override
    {
        int clear = pickAmong(refs, set * ways, ways, 0, rng);
        if (clear >= 0)
            return static_cast<unsigned>(clear);
        for (unsigned w = 0; w < ways; ++w)
            refs[set * ways + w] = 0;
        return static_cast<unsigned>(rng.below(ways));
    }

    std::uint64_t stateHash() const override
    {
        std::uint64_t h = hashCombine(0x9eb, ways, rng.stateHash());
        for (std::uint8_t ref : refs)
            h = hashCombine(h, ref);
        return h;
    }

  private:
    unsigned ways;
    std::vector<std::uint8_t> refs;
    Rng rng;
};

class RefAging : public RefPolicy
{
  public:
    RefAging(std::uint64_t sets, unsigned ways_, std::uint64_t seed)
        : ways(ways_), ages(sets * ways, 0), rng(seed)
    {
    }

    void touch(std::uint64_t set, unsigned way) override
    {
        ages[set * ways + way] = 4;
    }

    void insert(std::uint64_t set, unsigned way) override
    {
        ages[set * ways + way] = 1;
    }

    unsigned victim(std::uint64_t set) override
    {
        const std::uint64_t base = set * ways;
        for (unsigned round = 0; round < 10; ++round) {
            int zero = pickAmong(ages, base, ways, 0, rng);
            if (zero >= 0)
                return static_cast<unsigned>(zero);
            if (rng.chance(0.60)) {
                std::uint8_t minAge = 255;
                for (unsigned w = 0; w < ways; ++w)
                    minAge = std::min(minAge, ages[base + w]);
                int young = pickAmong(ages, base, ways, minAge, rng);
                if (young >= 0)
                    return static_cast<unsigned>(young);
            }
            for (unsigned w = 0; w < ways; ++w)
                if (ages[base + w] > 0)
                    --ages[base + w];
        }
        return static_cast<unsigned>(rng.below(ways));
    }

    std::uint64_t stateHash() const override
    {
        std::uint64_t h = hashCombine(0xa917, ways, rng.stateHash());
        for (std::uint8_t age : ages)
            h = hashCombine(h, age);
        return h;
    }

  private:
    unsigned ways;
    std::vector<std::uint8_t> ages;
    Rng rng;
};

class RefRandom : public RefPolicy
{
  public:
    RefRandom(unsigned ways_, std::uint64_t seed)
        : ways(ways_), rng(seed)
    {
    }

    void touch(std::uint64_t, unsigned) override {}
    void insert(std::uint64_t, unsigned) override {}

    unsigned victim(std::uint64_t) override
    {
        return static_cast<unsigned>(rng.below(ways));
    }

    std::uint64_t stateHash() const override
    {
        return hashCombine(0x9a2d, ways, rng.stateHash());
    }

  private:
    unsigned ways;
    Rng rng;
};

std::unique_ptr<RefPolicy>
makeRef(ReplacementKind kind, std::uint64_t sets, unsigned ways,
        std::uint64_t seed)
{
    switch (kind) {
      case ReplacementKind::Lru:
        return std::make_unique<RefLru>(sets, ways);
      case ReplacementKind::TreePlru:
        return std::make_unique<RefTreePlru>(sets, ways);
      case ReplacementKind::Nru:
        return std::make_unique<RefNru>(sets, ways, seed);
      case ReplacementKind::Aging:
        return std::make_unique<RefAging>(sets, ways, seed);
      case ReplacementKind::Random:
        return std::make_unique<RefRandom>(ways, seed);
    }
    return nullptr;
}

// --- reference cache and TLB -----------------------------------------

class RefCache
{
  public:
    explicit RefCache(const CacheConfig &config)
        : cfg(config),
          sets(config.sets * config.slices,
               std::vector<Line>(config.ways)),
          policy(makeRef(config.replacement, config.sets * config.slices,
                         config.ways, mix64(config.sets + config.ways)))
    {
        const std::uint64_t published[] = {0x1b5f575440ull,
                                           0x2eb5faa880ull,
                                           0x3cccc93100ull};
        for (unsigned b = 0; (1u << b) < config.slices; ++b)
            sliceMasks.push_back(published[b]);
    }

    bool access(PhysAddr pa)
    {
        std::uint64_t set = setOf(pa);
        for (unsigned w = 0; w < cfg.ways; ++w) {
            if (holds(sets[set][w], pa)) {
                policy->touch(set, w);
                ++hits;
                return true;
            }
        }
        ++misses;
        return false;
    }

    std::optional<PhysAddr> fill(PhysAddr pa)
    {
        std::uint64_t set = setOf(pa);
        for (unsigned w = 0; w < cfg.ways; ++w) {
            if (holds(sets[set][w], pa)) {
                policy->touch(set, w);
                return std::nullopt;
            }
        }
        for (unsigned w = 0; w < cfg.ways; ++w) {
            if (!sets[set][w].valid) {
                sets[set][w] = {pa >> kLineShift, true};
                policy->insert(set, w);
                return std::nullopt;
            }
        }
        unsigned w = policy->victim(set);
        PhysAddr evicted = sets[set][w].tag << kLineShift;
        sets[set][w] = {pa >> kLineShift, true};
        policy->insert(set, w);
        return evicted;
    }

    bool invalidate(PhysAddr pa)
    {
        for (Line &line : sets[setOf(pa)]) {
            if (holds(line, pa)) {
                line.valid = false;
                return true;
            }
        }
        return false;
    }

    bool contains(PhysAddr pa) const
    {
        for (const Line &line : sets[setOf(pa)])
            if (holds(line, pa))
                return true;
        return false;
    }

    void flushAll()
    {
        for (auto &set : sets)
            for (Line &line : set)
                line.valid = false;
    }

    std::uint64_t validLines() const
    {
        std::uint64_t count = 0;
        for (const auto &set : sets)
            for (const Line &line : set)
                count += line.valid;
        return count;
    }

    std::uint64_t stateHash() const
    {
        std::uint64_t h = hashCombine(0x5ca1e, hits);
        h = hashCombine(h, misses, policy->stateHash());
        for (const auto &set : sets)
            for (const Line &line : set)
                h = hashCombine(h, line.valid ? line.tag | (1ull << 63)
                                              : 0);
        return h;
    }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        bool valid = false;
    };

    static bool holds(const Line &line, PhysAddr pa)
    {
        return line.valid && line.tag == pa >> kLineShift;
    }

    std::uint64_t setOf(PhysAddr pa) const
    {
        unsigned slice = 0;
        for (std::size_t b = 0; b < sliceMasks.size(); ++b)
            slice |= maskedParity(pa, sliceMasks[b]) << b;
        return slice * cfg.sets + ((pa >> kLineShift) & (cfg.sets - 1));
    }

    CacheConfig cfg;
    std::vector<std::uint64_t> sliceMasks;
    std::vector<std::vector<Line>> sets;
    std::unique_ptr<RefPolicy> policy;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

class RefTlb
{
  public:
    explicit RefTlb(const TlbLevelConfig &config)
        : cfg(config), sets(config.sets, std::vector<Slot>(config.ways)),
          policy(makeRef(config.replacement, config.sets, config.ways,
                         mix64(config.seed ^
                               (config.sets * 7 + config.ways))))
    {
    }

    std::optional<TlbEntry> lookup(VirtPage vpn, bool huge)
    {
        std::uint64_t set = vpn & (cfg.sets - 1);
        for (unsigned w = 0; w < cfg.ways; ++w) {
            const Slot &slot = sets[set][w];
            if (slot.valid && slot.entry.vpn == vpn &&
                slot.entry.huge == huge) {
                policy->touch(set, w);
                return slot.entry;
            }
        }
        return std::nullopt;
    }

    void insert(const TlbEntry &entry)
    {
        std::uint64_t set = entry.vpn & (cfg.sets - 1);
        for (unsigned w = 0; w < cfg.ways; ++w) {
            Slot &slot = sets[set][w];
            if (slot.valid && slot.entry.vpn == entry.vpn &&
                slot.entry.huge == entry.huge) {
                slot.entry = entry;
                policy->touch(set, w);
                return;
            }
        }
        for (unsigned w = 0; w < cfg.ways; ++w) {
            if (!sets[set][w].valid) {
                sets[set][w] = {entry, true};
                policy->insert(set, w);
                return;
            }
        }
        unsigned w = policy->victim(set);
        sets[set][w].entry = entry;
        policy->insert(set, w);
    }

    void invalidate(VirtPage vpn, bool huge)
    {
        for (Slot &slot : sets[vpn & (cfg.sets - 1)])
            if (slot.valid && slot.entry.vpn == vpn &&
                slot.entry.huge == huge)
                slot.valid = false;
    }

    void flushAll()
    {
        for (auto &set : sets)
            for (Slot &slot : set)
                slot.valid = false;
    }

    std::uint64_t validEntries() const
    {
        std::uint64_t count = 0;
        for (const auto &set : sets)
            for (const Slot &slot : set)
                count += slot.valid;
        return count;
    }

    std::uint64_t stateHash() const
    {
        std::uint64_t h = hashCombine(0x71b, policy->stateHash());
        for (const auto &set : sets) {
            for (const Slot &slot : set) {
                h = hashCombine(h, slot.valid, slot.entry.vpn);
                h = hashCombine(h, slot.entry.pfn, slot.entry.huge);
            }
        }
        return h;
    }

  private:
    struct Slot
    {
        TlbEntry entry;
        bool valid = false;
    };

    TlbLevelConfig cfg;
    std::vector<std::vector<Slot>> sets;
    std::unique_ptr<RefPolicy> policy;
};

// --- the sweep --------------------------------------------------------

const ReplacementKind kKinds[] = {ReplacementKind::Lru,
                                  ReplacementKind::TreePlru,
                                  ReplacementKind::Random,
                                  ReplacementKind::Nru,
                                  ReplacementKind::Aging};
const unsigned kWays[] = {1, 4, 8, 12, 16};

std::string
label(ReplacementKind kind, unsigned ways, std::uint64_t sets,
      unsigned slices)
{
    return replacementKindName(kind) + " ways=" + std::to_string(ways) +
           " sets=" + std::to_string(sets) +
           " slices=" + std::to_string(slices);
}

TEST(ReplacementOracle, PolicyStreamsMatchReference)
{
    for (ReplacementKind kind : kKinds) {
        for (unsigned ways : kWays) {
            for (std::uint64_t sets : {1ull, 4ull, 32ull}) {
                SCOPED_TRACE(label(kind, ways, sets, 1));
                const std::uint64_t seed = sets * 31 + ways;
                auto policy = ReplacementPolicy::create(kind, sets, ways,
                                                        seed);
                auto ref = makeRef(kind, sets, ways, seed);
                ASSERT_EQ(policy->stateHash(), ref->stateHash());
                Rng ops(seed ^ 0x0dd5);
                for (int step = 0; step < 3000; ++step) {
                    std::uint64_t set = ops.below(sets);
                    unsigned way = static_cast<unsigned>(ops.below(ways));
                    switch (ops.below(4)) {
                      case 0:
                        policy->touch(set, way);
                        ref->touch(set, way);
                        break;
                      case 1:
                        policy->insert(set, way);
                        ref->insert(set, way);
                        break;
                      default: {
                        // A fill: choose the victim, then insert there.
                        unsigned victim = policy->victim(set);
                        ASSERT_EQ(victim, ref->victim(set))
                            << "step " << step;
                        policy->insert(set, victim);
                        ref->insert(set, victim);
                        break;
                      }
                    }
                    ASSERT_EQ(policy->stateHash(), ref->stateHash())
                        << "step " << step;
                }
            }
        }
    }
}

TEST(ReplacementOracle, CacheStreamsMatchReference)
{
    const std::pair<std::uint64_t, unsigned> shapes[] = {
        {1, 1}, {4, 2}, {16, 1}, {8, 8}};
    for (ReplacementKind kind : kKinds) {
        for (unsigned ways : kWays) {
            for (const auto &[sets, slices] : shapes) {
                SCOPED_TRACE(label(kind, ways, sets, slices));
                CacheConfig config;
                config.sets = sets;
                config.ways = ways;
                config.slices = slices;
                config.replacement = kind;
                Cache cache(config, "oracle");
                RefCache ref(config);

                // A pool of about twice the capacity, spread over a
                // 40-bit physical space so every slice bit toggles.
                Rng ops(sets * 131 + slices * 17 + ways);
                std::vector<PhysAddr> pool(2 * sets * slices * ways + 3);
                for (PhysAddr &pa : pool)
                    pa = ops.next() & ((1ull << 40) - 1) &
                         ~(kLineBytes - 1);

                for (int step = 0; step < 2000; ++step) {
                    PhysAddr pa = pool[ops.below(pool.size())] |
                                  ops.below(kLineBytes);
                    // 6/16 access, 6/16 fill, 2/16 invalidate,
                    // 1/16 contains, 1/16 a rare flushAll.
                    const std::uint64_t op = ops.below(16);
                    if (op < 6) {
                        ASSERT_EQ(cache.access(pa), ref.access(pa))
                            << "step " << step;
                    } else if (op < 12) {
                        ASSERT_EQ(cache.fill(pa), ref.fill(pa))
                            << "step " << step;
                    } else if (op < 14) {
                        ASSERT_EQ(cache.invalidate(pa), ref.invalidate(pa))
                            << "step " << step;
                    } else if (op < 15) {
                        ASSERT_EQ(cache.contains(pa), ref.contains(pa))
                            << "step " << step;
                    } else if (ops.below(8) == 0) {
                        cache.flushAll();
                        ref.flushAll();
                    }
                    ASSERT_EQ(cache.validLines(), ref.validLines())
                        << "step " << step;
                    ASSERT_EQ(cache.stateHash(), ref.stateHash())
                        << "step " << step;
                }
                // A copy replays the same future as its original.
                Cache copy(cache);
                EXPECT_EQ(copy.stateHash(), cache.stateHash());
            }
        }
    }
}

TEST(ReplacementOracle, TlbStreamsMatchReference)
{
    for (ReplacementKind kind : kKinds) {
        for (unsigned ways : kWays) {
            for (std::uint64_t sets : {1ull, 4ull, 16ull}) {
                SCOPED_TRACE(label(kind, ways, sets, 1));
                TlbLevelConfig config{sets, ways, kind, sets + ways};
                Tlb tlb(config);
                RefTlb ref(config);

                Rng ops(sets * 977 + ways);
                std::vector<VirtPage> pool(3 * sets * ways + 2);
                for (VirtPage &vpn : pool)
                    vpn = ops.below(1ull << 36);

                for (int step = 0; step < 2000; ++step) {
                    VirtPage vpn = pool[ops.below(pool.size())];
                    bool huge = ops.below(4) == 0;
                    // 6/16 lookup, 6/16 insert, 3/16 invalidate,
                    // 1/16 a rare flushAll.
                    const std::uint64_t op = ops.below(16);
                    if (op < 6) {
                        auto got = tlb.lookup(vpn, huge);
                        auto want = ref.lookup(vpn, huge);
                        ASSERT_EQ(got.has_value(), want.has_value())
                            << "step " << step;
                        if (got) {
                            ASSERT_EQ(got->vpn, want->vpn);
                            ASSERT_EQ(got->pfn, want->pfn);
                            ASSERT_EQ(got->huge, want->huge);
                        }
                    } else if (op < 12) {
                        TlbEntry entry{vpn, ops.below(1ull << 30), huge};
                        tlb.insert(entry);
                        ref.insert(entry);
                    } else if (op < 15) {
                        tlb.invalidate(vpn, huge);
                        ref.invalidate(vpn, huge);
                    } else if (ops.below(8) == 0) {
                        tlb.flushAll();
                        ref.flushAll();
                    }
                    ASSERT_EQ(tlb.validEntries(), ref.validEntries())
                        << "step " << step;
                    ASSERT_EQ(tlb.stateHash(), ref.stateHash())
                        << "step " << step;
                }
                Tlb copy(tlb);
                EXPECT_EQ(copy.stateHash(), tlb.stateHash());
            }
        }
    }
}

} // namespace
} // namespace pth
