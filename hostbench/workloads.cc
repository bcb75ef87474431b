#include "workloads.hh"

#include "common/random.hh"
#include "common/table.hh"
#include "dram/flip_model.hh"

namespace hostbench
{

namespace
{

using namespace pth;

/**
 * Attempt cap of a table2_attack run. Pair selection dominates each
 * attempt, so the cap sets run length; it stays below the attempt at
 * which the default seed's first flip lands on any preset, so runs do
 * equal work across seeds instead of stopping at a lucky early flip.
 */
constexpr unsigned kTable2Attempts = 12;

/** Attacker seeds per preset in prep_sweep. */
constexpr unsigned kPrepSeedsPerPreset = 4;

void
table2Attack(std::uint64_t seed, Scale scale, Campaign &campaign)
{
    // The paper's three laptops at 2 GiB of sprayed L1PTs; the tiny
    // scale keeps the shape on the test machine.
    std::vector<MachinePreset> presets(paperPresets().begin(),
                                       paperPresets().end());
    if (scale == Scale::Tiny)
        presets = {MachinePreset::TestSmall};
    for (MachinePreset preset : presets) {
        for (bool superpages : {true, false}) {
            RunSpec spec;
            spec.label = machinePresetName(preset) +
                         (superpages ? "/superpage" : "/regular");
            spec.preset = preset;
            spec.strategy = HammerStrategy::PThammer;
            spec.seed = seed;
            spec.attack.superpages = superpages;
            spec.attack.maxAttempts = kTable2Attempts;
            if (scale == Scale::Tiny) {
                spec.attack.sprayBytes = 24ull << 20;
                spec.attack.superpageSampleClasses = 2;
                spec.attack.maxAttempts = 3;
            } else {
                spec.attack.sprayBytes = 2ull << 30;
            }
            campaign.add(spec);
        }
    }
}

void
multihartTrr(std::uint64_t seed, Scale scale, Campaign &campaign)
{
    // bench_multicore_hammer --tiny: per-hart L1s over a shared L2/LLC
    // on the small test machine, against the DDR3 and TRR models. A
    // multi-hart run stops at its first flip, so re-keying the machine
    // or attacker per seed moved the work by up to 3x; the seed drives
    // the interleaving instead, which keeps every run's attempts.
    RunSpec base;
    base.preset = MachinePreset::TestSmall;
    base.strategy = HammerStrategy::MultiHart;
    base.interleave = InterleaveMode::Seeded;
    base.interleaveSeed = seed;
    base.attack.superpages = true;
    base.attack.sprayBytes = 24ull << 20;
    base.attack.superpageSampleClasses = 2;
    base.attack.maxAttempts = scale == Scale::Tiny ? 8 : 60;
    base.attack.hammerBudgetSeconds = 36000;
    for (FlipModelKind model : {FlipModelKind::Ddr3Seeded,
                                FlipModelKind::Trr}) {
        for (unsigned harts : {1u, 2u, 4u}) {
            RunSpec spec = base;
            spec.dramModel = model;
            spec.harts = harts;
            spec.label = strfmt("%s/harts%u", flipModelKindName(model),
                                harts);
            campaign.add(spec);
        }
    }
    RunSpec noisy = base;
    noisy.harts = 4;
    noisy.attack.victimHarts = 1;
    noisy.label = "ddr3/harts4+victim";
    campaign.add(noisy);
}

void
prepSweep(std::uint64_t seed, Scale scale, Campaign &campaign)
{
    // Many short set-up-bound runs: each preset's warm machine is
    // forked per attacker seed, then spray + pool build dominate.
    std::vector<MachinePreset> presets(paperPresets().begin(),
                                       paperPresets().end());
    if (scale == Scale::Tiny)
        presets = {MachinePreset::TestSmall};
    const unsigned perPreset =
        scale == Scale::Tiny ? 2 : kPrepSeedsPerPreset;
    for (MachinePreset preset : presets) {
        RunSpec base;
        base.label = machinePresetName(preset) + "/regular";
        base.preset = preset;
        base.strategy = HammerStrategy::Implicit;
        base.attack.superpages = false;
        base.attack.sprayBytes =
            scale == Scale::Tiny ? 24ull << 20 : 2ull << 30;
        campaign.addAttackSeedSweep(base, seed * perPreset, perPreset);
    }
}

} // namespace

bool
buildWorkload(const std::string &name, std::uint64_t seed, Scale scale,
              Campaign &out)
{
    if (name == "table2_attack")
        table2Attack(seed, scale, out);
    else if (name == "multihart_trr")
        multihartTrr(seed, scale, out);
    else if (name == "prep_sweep")
        prepSweep(seed, scale, out);
    else
        return false;
    return true;
}

DerivedRun
deriveRun(const RunSpec &spec)
{
    // Stream ids of the runner's per-run seed derivation.
    constexpr std::uint64_t kStreamDisturbance = 1;
    constexpr std::uint64_t kStreamKernel = 2;
    constexpr std::uint64_t kStreamTlbL1 = 3;
    constexpr std::uint64_t kStreamTlbL2 = 4;
    constexpr std::uint64_t kStreamAttack = 5;

    DerivedRun derived;
    derived.config = makeMachineConfig(spec.preset);
    derived.config.defense = spec.defense;
    if (spec.dramModel != FlipModelKind::Ddr3Seeded)
        derived.config.withDramModel(spec.dramModel);
    derived.config.harts = spec.harts;
    derived.attack = spec.attack;
    if (spec.seed != 0) {
        MachineConfig &config = derived.config;
        if (spec.seedScope == SeedScope::AllStreams) {
            config.disturbance.seed = hashCombine(
                config.disturbance.seed, spec.seed, kStreamDisturbance);
            config.kernel.seed =
                hashCombine(config.kernel.seed, spec.seed, kStreamKernel);
            config.tlb.l1d.seed =
                hashCombine(config.tlb.l1d.seed, spec.seed, kStreamTlbL1);
            config.tlb.l2s.seed =
                hashCombine(config.tlb.l2s.seed, spec.seed, kStreamTlbL2);
        }
        derived.attack.seed =
            hashCombine(derived.attack.seed, spec.seed, kStreamAttack);
    }
    if (spec.tweakMachine)
        spec.tweakMachine(derived.config);
    return derived;
}

std::vector<std::size_t>
distinctSetups(const Campaign &campaign)
{
    std::vector<std::size_t> firsts;
    std::vector<DerivedRun> seen;
    const std::vector<RunSpec> &specs = campaign.specs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        DerivedRun derived = deriveRun(specs[i]);
        bool known = false;
        for (const DerivedRun &other : seen)
            known = known ||
                    (other.config == derived.config &&
                     other.attack.superpages == derived.attack.superpages);
        if (!known) {
            firsts.push_back(i);
            seen.push_back(std::move(derived));
        }
    }
    return firsts;
}

std::vector<int>
shareGroups(const Campaign &campaign)
{
    const std::vector<RunSpec> &specs = campaign.specs();
    std::vector<MachineConfig> configs;
    for (const RunSpec &spec : specs)
        configs.push_back(deriveRun(spec).config);
    std::vector<std::size_t> owner(specs.size());
    std::vector<unsigned> members(specs.size(), 0);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        owner[i] = i;
        for (std::size_t j = 0; j < i; ++j) {
            if (owner[j] == j && configs[j] == configs[i]) {
                owner[i] = j;
                break;
            }
        }
        ++members[owner[i]];
    }
    std::vector<int> ids(specs.size(), -1);
    int next = 0;
    for (std::size_t i = 0; i < specs.size(); ++i)
        if (owner[i] == i && members[i] >= 2)
            ids[i] = next++;
    std::vector<int> groups(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        groups[i] = ids[owner[i]];
    return groups;
}

} // namespace hostbench
