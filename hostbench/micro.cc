#include "micro.hh"

#include <chrono>
#include <cstdint>
#include <memory>

#include "attack/pthammer.hh"
#include "cache/cache.hh"
#include "cache/replacement_policy.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "cpu/machine.hh"
#include "tlb/tlb.hh"

namespace hostbench
{

namespace
{

using namespace pth;
using Clock = std::chrono::steady_clock;

/** Keeps results observable so no timed call can be elided. */
volatile std::uint64_t gSink = 0;

constexpr unsigned kRepeats = 7;

double
elapsedNs(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

/**
 * One warm-up pass, then kRepeats timed passes of `calls` calls each;
 * the median of the per-call means.
 */
template <typename Body>
double
nsPerCall(unsigned calls, Body &&body)
{
    body(calls);
    std::vector<double> samples;
    for (unsigned r = 0; r < kRepeats; ++r) {
        const auto start = Clock::now();
        body(calls);
        samples.push_back(elapsedNs(start) / calls);
    }
    return median(samples);
}

/** A stand-alone DRAM device the size of the test machine's. */
struct DramRig
{
    DramGeometry geometry;
    std::unique_ptr<PhysicalMemory> memory;
    std::unique_ptr<Dram> dram;

    DramRig()
    {
        geometry.sizeBytes = 256ull << 20;
        memory = std::make_unique<PhysicalMemory>(geometry.sizeBytes);
        DisturbanceConfig disturbance;
        disturbance.refreshWindowCycles = 1'000'000;
        dram = std::make_unique<Dram>(geometry, DramTiming{}, disturbance,
                                      *memory);
    }
};

/** A test machine with an attacker process and `pages` mapped pages. */
struct MachineRig
{
    static constexpr VirtAddr kBase = 0x10000000;
    std::unique_ptr<Machine> machine;
    Process *proc = nullptr;

    explicit MachineRig(std::uint64_t pages)
        : machine(std::make_unique<Machine>(MachineConfig::testSmall()))
    {
        proc = &machine->kernel().createProcess(/*uid=*/1000);
        machine->cpu().setProcess(*proc);
        if (pages)
            machine->kernel().mmapAnon(*proc, kBase, pages * kPageBytes);
    }
};

void
dramCases(unsigned scale, std::vector<MicroResult> &out)
{
    DramRig rig;
    Rng rng(1);
    Cycles now = 0;
    const double access = nsPerCall(20000 * scale, [&](unsigned n) {
        for (unsigned i = 0; i < n; ++i) {
            const PhysAddr pa =
                rng.below(rig.geometry.sizeBytes) & ~(kLineBytes - 1);
            gSink = gSink + rig.dram->access(pa, now += 100).latency;
        }
    });
    out.push_back({"dram.access_ns", access, "ns"});

    const std::uint64_t rows = rig.geometry.rows();
    const double bulk = nsPerCall(2000 * scale, [&](unsigned n) {
        for (unsigned i = 0; i < n; ++i) {
            const auto bank =
                static_cast<unsigned>(rng.below(rig.geometry.banks));
            const std::uint64_t row = rng.below(rows - 2);
            gSink = gSink +
                    rig.dram->hammerBulk(bank, {row, row + 2}, 50'000, 1)
                        .size();
        }
    });
    out.push_back({"dram.hammer_bulk_ns", bulk, "ns"});
}

void
cacheCases(unsigned scale, std::vector<MicroResult> &out)
{
    const MachineConfig t420 = MachineConfig::lenovoT420();
    DramRig rig;
    CacheHierarchy caches(t420.caches, *rig.dram);
    Rng rng(2);
    Cycles now = 0;
    auto randomLine = [&] {
        return rng.below(rig.geometry.sizeBytes) & ~(kLineBytes - 1);
    };

    // Hits: 32 lines, well inside the L1.
    for (PhysAddr line = 0; line < 32; ++line)
        caches.access(line * kLineBytes, ++now);
    const double hit = nsPerCall(50000 * scale, [&](unsigned n) {
        for (unsigned i = 0; i < n; ++i)
            gSink = gSink +
                    caches.access(rng.below(32) * kLineBytes, ++now).latency;
    });
    out.push_back({"cache.hit_ns", hit, "ns"});

    // Miss + fill on the LLC alone: a 256 MiB stream against 3 MiB.
    Cache llc(t420.caches.llc, "llc");
    const double missFill = nsPerCall(20000 * scale, [&](unsigned n) {
        for (unsigned i = 0; i < n; ++i) {
            const PhysAddr pa = randomLine();
            if (!llc.access(pa))
                gSink = gSink + llc.fill(pa).value_or(0);
        }
    });
    out.push_back({"cache.miss_fill_ns", missFill, "ns"});

    // clflush of present lines; the refill between passes is untimed.
    constexpr unsigned kFlushBatch = 256;
    std::vector<PhysAddr> lines(kFlushBatch);
    std::vector<double> samples;
    for (unsigned r = 0; r <= kRepeats * 4 * scale; ++r) {
        for (PhysAddr &pa : lines) {
            pa = randomLine();
            caches.access(pa, ++now);
        }
        const auto start = Clock::now();
        for (PhysAddr pa : lines)
            gSink = gSink + caches.clflush(pa);
        if (r > 0)
            samples.push_back(elapsedNs(start) / kFlushBatch);
    }
    out.push_back({"cache.clflush_ns", median(samples), "ns"});

    // Victim choice of every policy on a full LLC-sized structure.
    const std::pair<ReplacementKind, const char *> kinds[] = {
        {ReplacementKind::Lru, "cache.victim_ns.lru"},
        {ReplacementKind::TreePlru, "cache.victim_ns.tree_plru"},
        {ReplacementKind::Random, "cache.victim_ns.random"},
        {ReplacementKind::Nru, "cache.victim_ns.nru"},
        {ReplacementKind::Aging, "cache.victim_ns.aging"}};
    constexpr std::uint64_t kSets = 4096;
    constexpr unsigned kWays = 12;
    for (const auto &[kind, name] : kinds) {
        auto policy = ReplacementPolicy::create(kind, kSets, kWays, 3);
        for (std::uint64_t set = 0; set < kSets; ++set)
            for (unsigned way = 0; way < kWays; ++way)
                policy->insert(set, way);
        const double victim = nsPerCall(50000 * scale, [&](unsigned n) {
            for (unsigned i = 0; i < n; ++i)
                gSink = gSink + policy->victim(rng.below(kSets));
        });
        out.push_back({name, victim, "ns"});
    }
}

void
translationCases(unsigned scale, std::vector<MicroResult> &out)
{
    Rng rng(4);
    // A full T420 second-level TLB, looked up at resident entries.
    const TlbLevelConfig l2s = MachineConfig::lenovoT420().tlb.l2s;
    Tlb tlb(l2s);
    const std::uint64_t entries = l2s.sets * l2s.ways;
    for (VirtPage vpn = 0; vpn < entries; ++vpn)
        tlb.insert(TlbEntry{vpn, vpn + 100, false});
    const double lookup = nsPerCall(50000 * scale, [&](unsigned n) {
        for (unsigned i = 0; i < n; ++i)
            gSink = gSink + tlb.lookup(rng.below(entries), false).has_value();
    });
    out.push_back({"tlb.lookup_ns", lookup, "ns"});

    constexpr std::uint64_t kPages = 512;
    MachineRig rig(kPages);
    Machine &m = *rig.machine;
    Cycles now = 0;
    m.mmu().translate(MachineRig::kBase, now);
    const double translate = nsPerCall(50000 * scale, [&](unsigned n) {
        for (unsigned i = 0; i < n; ++i)
            gSink = gSink + m.mmu().translate(MachineRig::kBase, ++now).pa;
    });
    out.push_back({"mmu.translate_hit_ns", translate, "ns"});

    const double walk = nsPerCall(20000 * scale, [&](unsigned n) {
        for (unsigned i = 0; i < n; ++i) {
            const VirtAddr va =
                MachineRig::kBase + rng.below(kPages) * kPageBytes;
            gSink = gSink +
                    m.mmu().walker().walk(m.mmu().root(), va, ++now).latency;
        }
    });
    out.push_back({"paging.walk_ns", walk, "ns"});

    const double access = nsPerCall(50000 * scale, [&](unsigned n) {
        for (unsigned i = 0; i < n; ++i) {
            const VirtAddr va = MachineRig::kBase +
                                rng.below(8) * kPageBytes +
                                rng.below(64) * kLineBytes;
            gSink = gSink + m.cpu().access(va).latency;
        }
    });
    out.push_back({"cpu.access_ns", access, "ns"});

    // One page per mmap call into a fresh range each pass.
    MachineRig fresh(0);
    VirtAddr next = MachineRig::kBase;
    const double mmap = nsPerCall(1000 * scale, [&](unsigned n) {
        for (unsigned i = 0; i < n; ++i, next += kPageBytes)
            fresh.machine->kernel().mmapAnon(*fresh.proc, next, kPageBytes);
    });
    out.push_back({"kernel.mmap_page_ns", mmap, "ns"});
}

void
attackCases(Scale scale, std::vector<MicroResult> &out)
{
    // The T420 superpage attack at paper scale (the table2_attack
    // config whose selection dominates); the test machine when tiny.
    MachineConfig config = scale == Scale::Paper
                               ? MachineConfig::lenovoT420()
                               : MachineConfig::testSmall();
    AttackConfig attack;
    attack.superpages = true;
    if (scale == Scale::Tiny) {
        attack.sprayBytes = 16ull << 20;
        attack.superpageSampleClasses = 1;
    }
    Machine machine(config);
    PThammerAttack pthammer(machine, attack);
    pthammer.prepare();

    // select() profiles every candidate set of the target's L1PTE
    // line offset; per-set cost is its time over the candidate count.
    std::vector<double> perSetUs;
    for (unsigned r = 0; r <= kRepeats; ++r) {
        const VirtAddr target = pthammer.sprayer().randomTarget(0x5e1 + r);
        const std::size_t candidates =
            pthammer.pool()
                .candidatesForLineOffset(
                    EvictionSetSelector::l1pteLineOffset(target))
                .size();
        const auto start = Clock::now();
        gSink = gSink + pthammer.selector().select(target).elapsed;
        if (r > 0)
            perSetUs.push_back(elapsedNs(start) * 1e-3 /
                               static_cast<double>(candidates));
    }
    out.push_back({"attack.profile_set_us", median(perSetUs), "us"});

    auto pair = pthammer.pairs().next();
    double iteration = 0;
    if (pair) {
        unsigned dramFetches = 0;
        iteration = nsPerCall(2000, [&](unsigned n) {
            for (unsigned i = 0; i < n; ++i)
                gSink = gSink +
                        pthammer.hammer().iteration(*pair, dramFetches);
        });
    }
    out.push_back({"attack.hammer_iter_ns", iteration, "ns"});
}

} // namespace

std::vector<MicroResult>
runMicroCases(Scale scale)
{
    const unsigned factor = scale == Scale::Paper ? 5 : 1;
    std::vector<MicroResult> out;
    dramCases(factor, out);
    cacheCases(factor, out);
    translationCases(factor, out);
    attackCases(scale, out);
    return out;
}

} // namespace hostbench
