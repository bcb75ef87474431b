/**
 * @file
 * Figure 4: LLC miss rate vs eviction-set size (memory lines), on the
 * three machines. Paper: above the associativity the miss rate is
 * consistently >94-95 %; it drops when the set size reaches the
 * associativity and falls sharply below it.
 *
 * One campaign run per machine (each builds its own eviction pool,
 * then profiles all 22 set sizes), fanned across host cores.
 * Standard bench flags: --threads, --json,
 * --journal/--fresh (checkpoint/resume).
 */

#include <cstdio>

#include "attack/eviction_pool.hh"
#include "common/table.hh"
#include "cpu/machine.hh"
#include "harness/bench_cli.hh"

namespace
{

constexpr unsigned kMinSize = 11;
constexpr unsigned kMaxSize = 32;

} // namespace

int
main(int argc, char **argv)
{
    using namespace pth;

    BenchCli cli = BenchCli::parse(
        argc, argv,
        "Figure 4: LLC miss rate vs eviction-set size");

    Campaign campaign;
    for (MachinePreset preset : paperPresets()) {
        RunSpec spec;
        spec.label = machinePresetName(preset);
        spec.preset = preset;
        spec.dramModel = cli.dramModel;
        spec.attack.superpages = true;
        spec.attack.poolBuild = cli.pool;
        spec.body = [](Machine &machine, const AttackConfig &attack,
                       RunResult &res) {
            Process &proc = machine.kernel().createProcess(1000);
            machine.cpu().setProcess(proc);
            LlcEvictionPool pool(machine, attack);
            pool.allocateBuffer();
            pool.buildSuperpage(/*sampleClasses=*/4);

            for (unsigned size = kMinSize; size <= kMaxSize; ++size) {
                double total = 0;
                const unsigned targets = 4;
                for (unsigned t = 0; t < targets; ++t) {
                    const EvictionSet &set = pool.sets()[t];
                    VirtAddr target = set.lines.back();
                    total += pool.profileEvictionRate(target, size, 60);
                }
                res.metrics.emplace_back(
                    strfmt("miss_rate_pct_size%u", size),
                    100.0 * total / targets);
            }
        };
        campaign.add(spec);
    }

    std::vector<RunResult> results = cli.runCampaign(campaign);
    unsigned failures = cli.failureCount(results);

    std::printf(
        "== Figure 4: LLC miss rate (%%) vs eviction-set size ==\n");
    Table table({"Size", "Lenovo T420 (12-way)", "Lenovo X230 (12-way)",
                 "Dell E6420 (16-way)"});
    // A journal from an older body shape can carry a different
    // metric count; render "-" rather than indexing past the end.
    constexpr std::size_t kMetrics = kMaxSize - kMinSize + 1;
    std::vector<char> usable(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        usable[i] = results[i].ok &&
                    !BenchCli::staleMetrics(results[i], kMetrics);
    for (unsigned size = kMinSize; size <= kMaxSize; ++size) {
        std::vector<std::string> row{strfmt("%u", size)};
        for (std::size_t i = 0; i < results.size(); ++i)
            row.push_back(
                usable[i]
                    ? strfmt("%.1f",
                             results[i]
                                 .metrics[size - kMinSize]
                                 .second)
                    : std::string("-"));
        table.addRow(std::move(row));
    }
    table.print();
    std::printf("\npaper: rate >94%% once the set exceeds the"
                " associativity (12/12/16); drops at/below it."
                " chosen working sizes: 13 / 13 / 17\n");

    if (!cli.emitJson(results))
        return 1;
    return failures ? 1 : 0;
}
