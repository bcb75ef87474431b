/**
 * @file
 * Section IV-G: PThammer versus the software-only defenses.
 *
 *  - none   : baseline privilege escalation (Section IV-F).
 *  - CATT   : kernel/user DRAM partitioning — PThammer hammers the
 *             protected kernel zone via the page-table walker; the
 *             paper escalates within three bit flips (after buddy
 *             exhaustion concentrates L1PTs).
 *  - RIP-RH : per-user partitioning, kernel unprotected — trivially
 *             bypassed.
 *  - CTA    : true-cell L1PT region at the top of memory — the PT
 *             takeover is blocked, but spraying struct cred and
 *             flipping into a cred page gives root (paper: 7 flips).
 *  - ZebRAM : guard rows between all data rows — the one defense the
 *             paper concedes PThammer does not overcome.
 *
 * The five defense scenarios run as one campaign across host cores.
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
        argc, argv,
        "Section IV-G: PThammer vs software-only defenses");

    struct Scenario
    {
        DefenseKind kind;
        const char *paper;
    };
    const Scenario scenarios[] = {
        {DefenseKind::None, "escalation (IV-F)"},
        {DefenseKind::Catt, "escalation within 3 flips"},
        {DefenseKind::RipRh, "trivially bypassed"},
        {DefenseKind::Cta, "root after 7 flips (cred spray)"},
        {DefenseKind::ZebRam, "not overcome (paper limitation)"},
    };

    Campaign campaign;
    for (const Scenario &scenario : scenarios) {
        RunSpec spec;
        spec.label = defenseKindName(scenario.kind);
        spec.preset = MachinePreset::LenovoT420;
        spec.dramModel = cli.dramModel;
        spec.defense = scenario.kind;
        spec.strategy = HammerStrategy::PThammer;
        spec.attack.poolBuild = cli.pool;
        const DefenseKind kind = scenario.kind;
        spec.tweakMachine = [kind](MachineConfig &config) {
            // Denser weak cells keep the host-side bench fast while
            // preserving who-beats-whom; see EXPERIMENTS.md.
            config.disturbance.weakRowProbability = 0.3;
            if (kind == DefenseKind::Cta) {
                // Evaluate CTA on a true-cell-dominant module (the
                // case it is designed for): screening then keeps the
                // PT zone contiguous, and its monotonic-pointer
                // defense is fully in force — yet the cred spray
                // still wins.
                config.disturbance.trueCellFraction = 1.0;
            }
        };

        AttackConfig &attack = spec.attack;
        attack.sprayBytes = 1ull << 30;
        // Under RIP-RH the kernel fallback lands inside the attacker's
        // own 96 MiB partition; size the spray to fit (density in the
        // partition is what drives the exploit).
        if (kind == DefenseKind::RipRh)
            attack.sprayBytes = 48ull << 20;
        attack.maxAttempts = 150;
        attack.hammerBudgetSeconds = 36000;
        if (kind == DefenseKind::ZebRam) {
            attack.superpages = false;  // no contiguous superpages
            attack.regularSampleClasses = 1;
            attack.regularSampleGroups = 1;
            attack.maxAttempts = 40;
        } else {
            attack.superpages = true;
        }
        // Exhaust the kernel zone completely so page tables spill
        // into user memory (the CATTmew fallback; Section IV-G1).
        if (kind == DefenseKind::Catt || kind == DefenseKind::RipRh)
            attack.exhaustKernelFraction = 1.0;
        if (kind == DefenseKind::Cta)
            attack.credSprayProcesses = 32000;

        campaign.add(spec);
    }

    std::vector<RunResult> results = cli.runCampaign(campaign);
    unsigned failures = cli.failureCount(results);

    std::printf("== Section IV-G: PThammer vs software-only"
                " defenses (Lenovo T420) ==\n");
    Table table({"Defense", "Flips observed", "Escalated", "Via",
                 "Flips used", "Paper"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &run = results[i];
        if (!run.ok)
            continue;
        table.addRow(
            {run.defense,
             strfmt("%llu", static_cast<unsigned long long>(run.flips)),
             run.escalated ? "YES" : "no", run.exploitPath,
             run.escalated ? strfmt("%u", run.flipsUntilEscalation)
                           : "-",
             scenarios[i].paper});
    }
    table.print();

    if (!cli.emitJson(results))
        return 1;
    return failures ? 1 : 0;
}
