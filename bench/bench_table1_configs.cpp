/**
 * @file
 * Table I: system configurations of the three evaluated machines.
 *
 * Even this config table runs through the campaign runner: one run
 * per preset boots the Machine and records its key parameters as
 * metrics, so a preset that stops constructing fails the bench (and
 * the run is journaled like any other). Standard bench flags:
 * --threads, --json, --journal/--fresh.
 */

#include <cstdio>

#include "common/table.hh"
#include "cpu/machine.hh"
#include "harness/bench_cli.hh"

int
main(int argc, char **argv)
{
    using namespace pth;

    BenchCli cli = BenchCli::parse(
        argc, argv, "Table I: system configurations");

    Campaign campaign;
    for (MachinePreset preset : paperPresets()) {
        RunSpec spec;
        spec.label = machinePresetName(preset);
        spec.preset = preset;
        spec.dramModel = cli.dramModel;
        spec.body = [](Machine &machine, const AttackConfig &,
                       RunResult &res) {
            const MachineConfig &m = machine.config();
            res.metrics.emplace_back("tlb_l1d_ways", m.tlb.l1d.ways);
            res.metrics.emplace_back("tlb_l2s_ways", m.tlb.l2s.ways);
            res.metrics.emplace_back("llc_ways", m.caches.llc.ways);
            res.metrics.emplace_back(
                "llc_mib", static_cast<double>(
                               m.caches.llc.capacity() >> 20));
        };
        campaign.add(spec);
    }

    std::vector<RunResult> results = cli.runCampaign(campaign);
    unsigned failures = cli.failureCount(results);

    std::printf("== Table I: System Configurations ==\n");
    Table table({"Machine", "Architecture", "CPU", "TLB Assoc.",
                 "LLC Assoc. & Size", "DRAM"});
    for (const RunResult &run : results) {
        if (!run.ok || BenchCli::staleMetrics(run, 4))
            continue;
        // The string-valued columns come straight from the preset's
        // MachineConfig; the campaign metrics carry the numbers.
        const MachineConfig m =
            makeMachineConfig(campaign.specs()[run.index].preset);
        table.addRow(
            {m.name, m.architecture, m.cpuModel,
             strfmt("%u-way L1d, %u-way L2s",
                    static_cast<unsigned>(run.metrics[0].second),
                    static_cast<unsigned>(run.metrics[1].second)),
             strfmt("%u-way, %u MiB",
                    static_cast<unsigned>(run.metrics[2].second),
                    static_cast<unsigned>(run.metrics[3].second)),
             m.dramModel});
    }
    table.print();
    std::printf("\npaper: T420/X230 4-way TLBs + 12-way 3 MiB LLC;"
                " E6420 16-way 4 MiB LLC; all 8 GiB Samsung DDR3\n");

    if (!cli.emitJson(results))
        return 1;
    return failures ? 1 : 0;
}
