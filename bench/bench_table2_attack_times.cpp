/**
 * @file
 * Table II: average PThammer phase times per machine, with and
 * without superpages, at the paper's scale (2 GiB L1PT spray out of
 * 8 GiB). Pool construction is algorithmically sampled and its cost
 * extrapolated (see DESIGN.md); everything else runs in full.
 *
 * The six machine x page-size configurations are dispatched through
 * the campaign runner, so they fan out across host cores and the
 * reported rows are identical no matter how many workers ran them.
 * Standard bench flags: --threads, --json,
 * --journal/--fresh (checkpoint/resume).
 */

#include <cstdio>

#include "common/table.hh"
#include "harness/bench_cli.hh"

int
main(int argc, char **argv)
{
    using namespace pth;

    BenchCli cli = BenchCli::parse(
        argc, argv, "Table II: average PThammer phase times");

    Campaign campaign;
    for (MachinePreset preset : paperPresets()) {
        for (bool superpages : {true, false}) {
            RunSpec spec;
            spec.label = machinePresetName(preset) +
                         (superpages ? "/superpage" : "/regular");
            spec.preset = preset;
            spec.dramModel = cli.dramModel;
            spec.strategy = HammerStrategy::PThammer;
            spec.attack.superpages = superpages;
            spec.attack.poolBuild = cli.pool;
            spec.attack.sprayBytes = 2ull << 30;
            spec.attack.maxAttempts = 450;
            campaign.add(spec);
        }
    }

    std::vector<RunResult> results = cli.runCampaign(campaign);
    unsigned failures = cli.failureCount(results);

    std::printf("== Table II: average PThammer times ==\n");
    Table table({"Machine", "Page Size", "Prep TLB", "Prep LLC",
                 "Sel TLB", "Sel LLC", "Hammer", "Check",
                 "Time to Bit Flip"});
    for (const RunResult &run : results) {
        if (!run.ok)
            continue;
        const AttackReport &r = run.report;
        table.addRow(
            {r.machine, r.superpages ? "superpage" : "regular",
             strfmt("%.0f ms", r.tlbPrepMs),
             strfmt("%.2f m", r.llcPrepMinutes),
             strfmt("%.0f us", r.tlbSelectMicros),
             strfmt("%.0f ms", r.llcSelectMs),
             strfmt("%.0f ms", r.hammerMs),
             strfmt("%.1f s", r.checkSeconds),
             r.flipped ? strfmt("%.1f m", r.timeToFirstFlipMinutes)
                       : strfmt("none in %.0f m",
                                r.timeToFirstFlipMinutes)});
    }
    table.print();
    std::printf(
        "\npaper (T420 superpage): 11 ms / 0.3 m / 1 us / 285 ms /"
        " 285 ms / 4.4 s / 10 m\n"
        "paper (T420 regular)  : 11 ms / 18.0 m / 1 us / 283 ms /"
        " 287 ms / 4.4 s / 10 m\n"
        "paper (X230)          : 7 ms / 0.3-19 m / 1 us / ~285 ms /"
        " ~282 ms / 4.2-4.4 s / 15 m\n"
        "paper (E6420)         : 7 ms / 0.3-38 m / 1 us / ~264 ms /"
        " ~390 ms / 4.0-4.1 s / 12-14 m\n");

    double serialEquivalent = 0;
    for (const RunResult &run : results)
        serialEquivalent += run.wallSeconds;
    std::printf("\ncampaign: %zu runs, serial-equivalent %.1f s of"
                " host work\n",
                results.size(), serialEquivalent);

    if (!cli.emitJson(results))
        return 1;
    return failures ? 1 : 0;
}
