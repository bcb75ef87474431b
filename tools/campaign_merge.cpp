/**
 * @file
 * campaign_merge: fold shard journals into one canonical journal.
 *
 * The multi-host half of sharded dispatch (docs/CAMPAIGN.md): each
 * host runs `bench --shard I/N --journal part.jsonl`, the parts are
 * collected, and this tool merges them so the bench — rerun with the
 * merged journal — emits the full report without executing anything:
 *
 *   campaign_merge s0.jsonl s1.jsonl s2.jsonl -o merged.jsonl
 *   bench_x --journal merged.jsonl --json=report.json
 *
 * Semantics (ResultStore::merge): inputs are read in argument order;
 * when several entries claim the same run index the last one read
 * wins, so list older journals first and fresher shards after.
 * Corrupt lines — the torn writes of killed workers — are skipped
 * and counted, never fatal. The output is re-serialized in ascending
 * run-index order: the same bytes a single process journaling the
 * same results would have written. Without -o the merged journal
 * goes to stdout.
 *
 * Exit status: 0 on success (corrupt lines and missing inputs are
 * warnings), 1 when the output cannot be written or no input
 * contributed anything, 2 on usage errors.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "harness/result_store.hh"

int
main(int argc, char **argv)
{
    using namespace pth;

    const char *usage =
        "usage: campaign_merge SHARD.jsonl... [-o MERGED.jsonl]\n"
        "  SHARD.jsonl...    shard journals, oldest first (on index\n"
        "                    collisions the last listed wins)\n"
        "  -o, --output PATH write the merged journal to PATH\n"
        "                    (default: stdout)\n";

    std::vector<std::string> inputs;
    std::string outPath;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--help") ||
            !std::strcmp(argv[i], "-h")) {
            std::fputs(usage, stdout);
            return 0;
        }
        if ((!std::strcmp(argv[i], "-o") ||
             !std::strcmp(argv[i], "--output")) &&
            i + 1 < argc) {
            outPath = argv[++i];
            continue;
        }
        if (!std::strncmp(argv[i], "--output=", 9)) {
            outPath = argv[i] + 9;
            continue;
        }
        if (argv[i][0] == '-' && argv[i][1] != '\0') {
            std::fprintf(stderr, "unknown argument '%s'\n%s",
                         argv[i], usage);
            return 2;
        }
        inputs.push_back(argv[i]);
    }
    if (inputs.empty()) {
        std::fputs(usage, stderr);
        return 2;
    }

    // File output is staged and renamed into place by the merge only
    // once it proves it read something, so a typo'd invocation can
    // never truncate an existing merged journal to nothing.
    ResultStore::MergeStats stats;
    std::string error = "short write to stdout";
    const bool merged =
        outPath.empty()
            ? ResultStore::merge(inputs, std::cout, &stats)
            : ResultStore::merge(inputs, outPath, &stats, &error);

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
                 stats.entries, stats.inputs, stats.overwritten);

    if (!merged || stats.inputs == 0) {
        std::fprintf(stderr, "%s\n",
                     merged ? "no readable input journal"
                            : error.c_str());
        return 1;
    }
    return 0;
}
