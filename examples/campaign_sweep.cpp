/**
 * @file
 * Campaign-runner demo: a 64-run seed sweep of the end-to-end attack
 * on the scaled-down machine, fanned out across every host core, then
 * folded into the flip-probability statistics a single run cannot
 * give you. The aggregate (and the JSON report, with --json) is
 * bit-identical to a serial run of the same campaign — rerun with
 * --threads 1 to check. Pass --journal sweep.jsonl, kill it
 * mid-sweep, and rerun with the same flag to watch the campaign
 * resume from its checkpoint and still print the same fingerprint.
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
        "campaign demo: 64-run seed sweep with checkpoint/resume");

    RunSpec base;
    base.label = "t420-small";
    base.preset = MachinePreset::TestSmall;
    base.dramModel = cli.dramModel;
    base.strategy = HammerStrategy::PThammer;
    base.attack.superpages = true;
    base.attack.sprayBytes = 24ull << 20;
    base.attack.superpageSampleClasses = 2;
    base.attack.maxAttempts = 60;
    base.attack.hammerBudgetSeconds = 36000;

    Campaign campaign;
    campaign.addSeedSweep(base, /*seedBase=*/1, /*count=*/64);

    std::vector<RunResult> results = cli.runCampaign(campaign);

    CampaignAggregate agg = Campaign::aggregate(results);
    std::printf("runs          : %llu (%llu failed)\n",
                static_cast<unsigned long long>(agg.runs),
                static_cast<unsigned long long>(agg.failedRuns));
    std::printf("flip rate     : %.0f%% of runs\n",
                100.0 * static_cast<double>(agg.flippedRuns) /
                    static_cast<double>(agg.runs));
    std::printf("escalation    : %.0f%% of runs\n",
                100.0 * static_cast<double>(agg.escalatedRuns) /
                    static_cast<double>(agg.runs));
    std::printf("flips/run     : mean %.1f (min %.0f, max %.0f)\n",
                agg.flipsPerRun.mean(), agg.flipsPerRun.min(),
                agg.flipsPerRun.max());
    if (agg.timeToFlipMinutes.count())
        std::printf("time to flip  : mean %.1f simulated minutes\n",
                    agg.timeToFlipMinutes.mean());
    std::printf("fingerprint   : %016llx\n",
                static_cast<unsigned long long>(agg.fingerprint()));

    double serialEquivalent = 0;
    for (const RunResult &r : results)
        serialEquivalent += r.wallSeconds;
    std::printf("host work     : %.1f s serial-equivalent\n",
                serialEquivalent);

    if (!cli.emitJson(results))
        return 1;
    return agg.failedRuns == 0 && cli.workerDeaths == 0 ? 0 : 1;
}
