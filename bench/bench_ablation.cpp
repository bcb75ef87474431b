/**
 * @file
 * Ablation of PThammer's design choices (DESIGN.md §5): what happens
 * to the implicit-access rate and iteration cost when each ingredient
 * of the shortest-walk path is removed.
 *
 *  - no TLB eviction  : the translation stays cached; no walks at all.
 *  - no LLC eviction  : walks happen but the L1PTE is cache-served.
 *  - undersized LLC set: partial eviction, degraded DRAM rate.
 *  - full path        : TLB miss + PDE-cache hit + L1PTE from DRAM.
 *
 * This is the paper's Section III-B argument, quantified. Each
 * variant is an independent campaign run with a custom measurement
 * body (its own machine, prepared from the same seed), so the five
 * variants fan out across cores and the table is reproducible
 * bit-for-bit. Standard bench flags: --threads,
 * --json, --journal/--fresh (checkpoint/resume).
 */

#include <cstdio>

#include "attack/pthammer.hh"
#include "common/table.hh"
#include "cpu/machine.hh"
#include "harness/bench_cli.hh"

namespace
{

using namespace pth;

/** One hammer iteration with configurable eviction stages. */
Cycles
iterationVariant(Machine &m, const HammerPair &pair, bool evictTlb,
                 bool evictLlc, unsigned llcLines, unsigned &dramFetches)
{
    Cycles start = m.clock().now();
    std::vector<VirtAddr> stream;
    if (evictTlb) {
        stream.insert(stream.end(), pair.tlbSet1.begin(),
                      pair.tlbSet1.end());
        stream.insert(stream.end(), pair.tlbSet2.begin(),
                      pair.tlbSet2.end());
    }
    if (evictLlc) {
        for (unsigned i = 0; i < llcLines && i < pair.llcSet1.size(); ++i)
            stream.push_back(pair.llcSet1[i]);
        for (unsigned i = 0; i < llcLines && i < pair.llcSet2.size(); ++i)
            stream.push_back(pair.llcSet2[i]);
    }
    if (!stream.empty())
        m.cpu().accessBatch(stream);
    AccessOutcome a1 = m.cpu().access(pair.va1);
    AccessOutcome a2 = m.cpu().access(pair.va2);
    dramFetches += a1.l1pteFromDram + a2.l1pteFromDram;
    return m.clock().now() - start;
}

/** Variant descriptor; llcFraction scales the discovered set size. */
struct Variant
{
    const char *name;
    bool tlb;
    bool llc;
    double llcFraction;
};

/** Measure one variant on a freshly prepared machine. */
void
measureVariant(const Variant &variant, Machine &machine,
               const AttackConfig &attack, RunResult &res)
{
    PThammerAttack pthammer(machine, attack);
    pthammer.prepare();
    auto pair = pthammer.pairs().next();
    if (!pair)
        throw std::runtime_error("no hammer pair found");
    unsigned fullSet = static_cast<unsigned>(pair->llcSet1.size());
    unsigned lines = variant.llc
                         ? static_cast<unsigned>(fullSet *
                                                 variant.llcFraction)
                         : 0;

    // Settle, then measure.
    unsigned dramFetches = 0;
    for (int i = 0; i < 16; ++i)
        iterationVariant(machine, *pair, variant.tlb, variant.llc,
                         lines, dramFetches);
    dramFetches = 0;
    Cycles total = 0;
    const unsigned rounds = 64;
    for (unsigned i = 0; i < rounds; ++i)
        total += iterationVariant(machine, *pair, variant.tlb,
                                  variant.llc, lines, dramFetches);
    double cyclesPerIter = static_cast<double>(total) / rounds;
    double rate = dramFetches / (2.0 * rounds);
    double actsPerWindow =
        rate *
        static_cast<double>(
            machine.config().disturbance.refreshWindowCycles) /
        cyclesPerIter;

    res.attempts = rounds;
    res.metrics.emplace_back("cycles_per_iteration", cyclesPerIter);
    res.metrics.emplace_back("l1pte_dram_rate", rate);
    res.metrics.emplace_back("activations_per_window", actsPerWindow);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchCli cli = BenchCli::parse(
        argc, argv,
        "Section III-B ablation: eviction stages vs DRAM access");

    std::printf("== Ablation: which eviction stage buys the implicit"
                " DRAM access (Lenovo T420) ==\n");

    const Variant variants[] = {
        {"full PThammer path", true, true, 1.0},
        {"no TLB eviction", false, true, 1.0},
        {"no LLC eviction", true, false, 0.0},
        {"LLC set undersized (1/2)", true, true, 0.5},
        {"no eviction at all", false, false, 0.0},
    };

    Campaign campaign;
    for (const Variant &variant : variants) {
        RunSpec spec;
        spec.label = variant.name;
        spec.preset = MachinePreset::LenovoT420;
        spec.dramModel = cli.dramModel;
        spec.attack.superpages = true;
        spec.attack.poolBuild = cli.pool;
        spec.attack.sprayBytes = 256ull << 20;
        spec.attack.superpageSampleClasses = 4;
        spec.body = [variant](Machine &machine,
                              const AttackConfig &attack,
                              RunResult &res) {
            measureVariant(variant, machine, attack, res);
        };
        campaign.add(spec);
    }

    std::vector<RunResult> results = cli.runCampaign(campaign);
    unsigned failures = cli.failureCount(results);

    Table table({"Variant", "Cycles/iter", "L1PTE-from-DRAM rate",
                 "Aggressor activations / 64 ms"});
    for (const RunResult &run : results) {
        if (!run.ok || BenchCli::staleMetrics(run, 3))
            continue;
        table.addRow({run.label,
                      strfmt("%.0f", run.metrics[0].second),
                      strfmt("%.2f", run.metrics[1].second),
                      strfmt("%.0f k", run.metrics[2].second / 1000.0)});
    }
    table.print();

    MachineConfig reference = MachineConfig::lenovoT420();
    std::printf("\nthreshold for flips: >= %llu k activations per"
                " window on the weakest cells (double-sided sums both"
                " aggressors)\n",
                static_cast<unsigned long long>(
                    reference.disturbance.thresholdMin / 2000));
    std::printf("only the full path sustains DRAM-rate hammering;"
                " removing either eviction stage starves it —"
                " Section III-B's requirement, quantified\n");

    if (!cli.emitJson(results))
        return 1;
    return failures ? 1 : 0;
}
