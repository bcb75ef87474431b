/**
 * @file
 * campaign_query: ask questions of stored campaign results, diff two
 * of them, or merge shard journals.
 *
 * Loads any mix of result-store journals and campaign JSON reports
 * into one index (later artifacts supersede earlier ones per run
 * index, exactly like ResultStore::merge), then answers:
 *
 *   campaign_query runs.jsonl                        per-run listing
 *   campaign_query runs.jsonl --filter defense=none  AND-filtering
 *   campaign_query runs.jsonl --group-by strategy    aggregation
 *   campaign_query --trend base.json cur.jsonl       regression diff
 *   campaign_query s0.jsonl s1.jsonl -o all.jsonl    journal merge
 *
 * Filter/group axes: label, machine (alias preset), defense,
 * strategy, seed, dram-model.
 *
 * --trend matches runs by label (falling back to index when labels
 * repeat) and prints a per-run delta table plus a summary. A run
 * counts as a REGRESSION when, versus the baseline, it stops
 * completing, stops flipping, stops escalating, loses flips, or its
 * simulated seconds grow by more than --tolerance percent (default
 * 10). The exit status is the number of regressed runs (capped at
 * 255), so the mode drops straight into CI as a gate.
 *
 * -o is the multi-host half of sharded dispatch (docs/CAMPAIGN.md):
 * ResultStore::merge folds the listed journals in argument order
 * (last wins per run index, so list older journals first), skips and
 * counts corrupt lines, and writes the merged journal in ascending
 * run-index order — the bytes a single process would have written.
 * It exits 0 on success (missing inputs and corrupt lines are
 * warnings), 1 when no input was readable or the output cannot be
 * written.
 *
 * Every mode warns on stderr, per artifact, about skipped corrupt
 * journal lines and report runs (a missing or mistyped field). Usage
 * errors exit 2.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "common/table.hh"
#include "harness/journal_index.hh"
#include "harness/result_store.hh"

using namespace pth;

namespace
{

/**
 * Add one artifact to index, reporting on stderr: a load failure says
 * why, and a torn journal or mangled report says how many of its
 * lines or runs were skipped.
 */
bool
loadArtifact(const std::string &path, JournalIndex &index)
{
    const std::size_t corruptBefore = index.stats().corruptLines;
    const unsigned reportsBefore = index.stats().reports;
    std::string error;
    const bool ok = index.addArtifact(path, &error);
    if (!ok)
        std::fprintf(stderr, "campaign_query: %s\n", error.c_str());
    const std::size_t corrupt =
        index.stats().corruptLines - corruptBefore;
    if (corrupt)
        std::fprintf(stderr, "%s: warning: skipped %zu corrupt %s\n",
                     path.c_str(), corrupt,
                     index.stats().reports > reportsBefore
                         ? "report run(s)"
                         : "journal line(s)");
    return ok;
}

/** The -o mode: merge journals into outPath. */
int
mergeJournals(const std::vector<std::string> &inputs,
              const std::string &outPath)
{
    for (const std::string &path : inputs)
        if (isCampaignReport(path)) {
            std::fprintf(stderr,
                         "campaign_query: -o merges journals only;"
                         " %s is a campaign report\n",
                         path.c_str());
            return 2;
        }

    // Staged and renamed into place by the merge only once it proves
    // it read something, so a typo'd invocation can never truncate an
    // existing merged journal to nothing.
    ResultStore::FoldStats stats;
    std::string error;
    const bool merged =
        ResultStore::merge(inputs, outPath, &stats, &error);

    if (stats.missingInputs)
        std::fprintf(stderr,
                     "warning: %u input journal(s) missing (worker"
                     " died before its first checkpoint?)\n",
                     stats.missingInputs);
    if (stats.corruptLines)
        std::fprintf(stderr,
                     "warning: skipped %zu corrupt line(s) (torn"
                     " writes of killed workers)\n",
                     stats.corruptLines);
    std::fprintf(stderr,
                 "merged %zu run(s) from %u journal(s) (%zu"
                 " superseded duplicate(s))\n",
                 stats.entries, stats.inputs, stats.superseded);
    if (!merged) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *usage =
        "usage: campaign_query ARTIFACT... [--filter AXIS=VALUE]...\n"
        "                      [--group-by AXIS]\n"
        "       campaign_query --trend BASELINE CURRENT\n"
        "                      [--filter AXIS=VALUE]... [--all]\n"
        "                      [--tolerance PCT]\n"
        "       campaign_query JOURNAL... -o MERGED.jsonl\n"
        "  ARTIFACT        campaign JSON report (--json=...) or\n"
        "                  result-store journal; several artifacts\n"
        "                  fold together last-wins by run index\n"
        "  --filter AXIS=VALUE  keep only matching runs (repeatable,"
        " ANDed);\n"
        "                  axes: label, machine (preset), defense,\n"
        "                  strategy, seed, dram-model\n"
        "  --group-by AXIS aggregate the selection per axis value\n"
        "  --trend         diff two artifacts; exit status ="
        " regressed runs\n"
        "  --all           with --trend: also list unchanged runs\n"
        "  --tolerance PCT with --trend: sim-seconds growth tolerated"
        " (default 10)\n"
        "  -o PATH         merge the journals (oldest first; on index\n"
        "                  collisions the last listed wins) into PATH\n";

    std::vector<std::string> paths;
    std::vector<JournalIndex::Filter> filters;
    bool trend = false;
    bool showAll = false;
    bool haveGroupBy = false;
    RunAxis groupAxis = RunAxis::Label;
    RunDiffOptions diffOptions;
    std::string outPath;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            const std::size_t n = std::strlen(flag);
            if (!std::strncmp(arg, flag, n) && arg[n] == '=')
                return arg + n + 1;
            if (!std::strcmp(arg, flag) && i + 1 < argc)
                return argv[++i];
            return nullptr;
        };
        if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
            std::fputs(usage, stdout);
            return 0;
        } else if (!std::strcmp(arg, "--trend")) {
            trend = true;
        } else if (!std::strcmp(arg, "--all")) {
            showAll = true;
        } else if (const char *v = value("--filter")) {
            JournalIndex::Filter filter;
            std::string error;
            if (!JournalIndex::parseFilter(v, filter, &error)) {
                std::fprintf(stderr, "campaign_query: %s\n",
                             error.c_str());
                return 2;
            }
            filters.push_back(std::move(filter));
        } else if (const char *axisArg = value("--group-by")) {
            if (!parseRunAxis(axisArg, groupAxis)) {
                std::fprintf(stderr,
                             "campaign_query: unknown axis '%s' (use"
                             " label, machine, defense, strategy,"
                             " seed or dram-model)\n",
                             axisArg);
                return 2;
            }
            haveGroupBy = true;
        } else if (const char *tolArg = value("--tolerance")) {
            if (!parseNonNegativeReal(tolArg,
                                      diffOptions.tolerancePct)) {
                std::fprintf(stderr,
                             "campaign_query: bad --tolerance '%s'"
                             " (want a finite percentage >= 0)\n",
                             tolArg);
                return 2;
            }
        } else if (const char *o = value("-o")) {
            outPath = o;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "unknown argument '%s'\n%s", arg,
                         usage);
            return 2;
        } else {
            paths.push_back(arg);
        }
    }

    if (!outPath.empty()) {
        if (paths.empty() || trend || haveGroupBy || !filters.empty()) {
            std::fputs(usage, stderr);
            return 2;
        }
        return mergeJournals(paths, outPath);
    }

    if (trend) {
        if (paths.size() != 2 || haveGroupBy) {
            std::fputs(usage, stderr);
            return 2;
        }
        // One index per artifact: each side deduplicates internally
        // (last-wins by run index) but baseline and current never
        // supersede each other.
        JournalIndex baseline;
        JournalIndex current;
        if (!loadArtifact(paths[0], baseline) ||
            !loadArtifact(paths[1], current))
            return 2;
        const std::vector<const RunResult *> base =
            baseline.select(filters);
        const std::vector<const RunResult *> cur =
            current.select(filters);
        const RunDiff diff = diffRuns(base, cur, diffOptions);
        std::printf("== campaign_query trend: %s -> %s ==\n",
                    paths[0].c_str(), paths[1].c_str());
        diffTable(diff, showAll).print();
        std::printf("\n%zu baseline runs, %zu current: %u unchanged,"
                    " %u changed, %u regressed, %u added, %u removed"
                    " (tolerance %.1f%% sim-time)\n",
                    base.size(), cur.size(), diff.unchanged,
                    diff.changed, diff.regressions, diff.added,
                    diff.removed, diffOptions.tolerancePct);
        return diff.regressions > 255
                   ? 255
                   : static_cast<int>(diff.regressions);
    }

    if (paths.empty()) {
        std::fputs(usage, stderr);
        return 2;
    }
    JournalIndex index;
    for (const std::string &path : paths)
        if (!loadArtifact(path, index))
            return 2;

    const std::vector<const RunResult *> selection =
        index.select(filters);
    if (haveGroupBy) {
        JournalIndex::groupTable(
            JournalIndex::groupBy(selection, groupAxis), groupAxis)
            .print();
    } else {
        JournalIndex::runTable(selection).print();
    }
    const ResultStore::FoldStats &stats = index.stats();
    std::printf("\n%zu run(s) selected of %zu indexed (%u journal(s),"
                " %u report(s), %zu superseded)\n",
                selection.size(), index.size(), stats.inputs,
                stats.reports, stats.superseded);
    return 0;
}
