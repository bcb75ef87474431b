#include "harness/bench_cli.hh"

#include "common/parse.hh"
#include "common/table.hh"
#include "dram/flip_model.hh"
#include "harness/result_store.hh"
#include "harness/scratch_dir.hh"
#include "harness/self_exe.hh"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace pth
{

namespace
{

void
usage(const char *prog, const char *summary)
{
    std::printf("%s — %s\n\n", prog, summary);
    std::printf(
        "usage: %s [--json[=PATH]] [--journal PATH] [--fresh]\n"
        "       %*s [--threads N] [--shard I/N] [--workers N]\n"
        "       %*s [--pool-algo A] [--pool-threads N]\n"
        "       %*s [--dram-model M] [--cold-machines]\n"
        "       %*s [--harts N] [--interleave M[:SEED]]\n\n"
        "  --json[=PATH]   dump the raw campaign JSON report after\n"
        "                  the table (stdout, or clean to PATH)\n"
        "  --journal PATH  checkpoint completed runs to the JSONL\n"
        "                  journal at PATH; an existing journal is\n"
        "                  resumed (finished runs are skipped)\n"
        "  --fresh         with --journal: discard the journal and\n"
        "                  rerun everything\n"
        "  --threads N     worker threads (overrides PTH_THREADS;\n"
        "                  0 = all cores, 1 = serial)\n"
        "  --shard I/N     execute only runs with index %% N == I\n"
        "                  into this process's journal (requires\n"
        "                  --journal); merge the N shard journals\n"
        "                  with campaign_query -o, then rerun with\n"
        "                  the merged journal for the full report\n"
        "  --workers N     local multi-process dispatch: fork N\n"
        "                  shard workers of this binary, merge\n"
        "                  their journals, report from the merge\n"
        "                  (0 = one worker per core)\n"
        "  --pool-algo A   LLC pool-build algorithm where pools are\n"
        "                  built: single[-elimination] or\n"
        "                  group[-testing] (default)\n"
        "  --pool-threads N  extraction workers inside one pool\n"
        "                  build (1 = serial, 0 = all cores)\n"
        "  --dram-model M  DRAM flip model for every run: ddr3\n"
        "                  (default), trr (ddr4-trr), distance2\n"
        "                  (half-double) or ecc\n"
        "  --cold-machines construct every run's machine from scratch\n"
        "                  instead of forking runs that share a\n"
        "                  machine configuration from one warm\n"
        "                  snapshot (results are identical either\n"
        "                  way; this trades setup time for isolation)\n"
        "  --harts N       harts per machine for multi-hart benches\n"
        "                  (default 1: exact single-hart replay)\n"
        "  --interleave M[:SEED]  multi-hart stream merge order:\n"
        "                  round-robin (rr, default) or seeded\n"
        "                  (random), with an optional seed\n"
        "  --help          this text\n",
        prog, static_cast<int>(std::strlen(prog)), "",
        static_cast<int>(std::strlen(prog)), "",
        static_cast<int>(std::strlen(prog)), "",
        static_cast<int>(std::strlen(prog)), "");
}

/**
 * Value of "--flag VALUE" or "--flag=VALUE"; advances i. A following
 * token that is itself a flag does not count as a value, so
 * "--journal --fresh" reports a missing value instead of creating a
 * journal file named "--fresh".
 */
const char *
flagValue(int argc, char **argv, int &i, const char *flag)
{
    const std::size_t n = std::strlen(flag);
    if (!std::strncmp(argv[i], flag, n) && argv[i][n] == '=')
        return argv[i] + n + 1;
    if (!std::strcmp(argv[i], flag) && i + 1 < argc &&
        std::strncmp(argv[i + 1], "--", 2) != 0)
        return argv[++i];
    return nullptr;
}

/** Reject a flag's value: the usage error every bad number exits
 * with. */
[[noreturn]] void
badValue(const char *prog, const char *flag, const char *value,
         const char *need)
{
    std::fprintf(stderr, "%s: bad %s '%s' (need %s)\n", prog, flag,
                 value, need);
    std::exit(2);
}

/** A --threads-style worker count: 0 or a negative integer means all
 * cores. */
unsigned
threadCount(const char *prog, const char *flag, const char *value)
{
    long long n = 0;
    if (!parseDecimal(value, n) || n > UINT_MAX)
        badValue(prog, flag, value,
                 "an integer; 0 or negative = all cores");
    return n > 0 ? static_cast<unsigned>(n) : 0;
}

} // namespace

BenchCli
BenchCli::parse(int argc, char **argv, const char *summary,
                const std::vector<std::string> &passthrough)
{
    BenchCli cli;
    cli.options.threads = CampaignOptions::threadsFromEnv();
    cli.program = argc > 0 ? argv[0] : "";
    // Bench-specific flags first, then the sweep-shaping standard
    // flags as they parse — together they let a spawned shard worker
    // rebuild the identical campaign.
    cli.forwardArgs = passthrough;

    bool fresh = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
            usage(argv[0], summary);
            std::exit(0);
        }
        if (!std::strcmp(arg, "--json")) {
            cli.json = true;
            continue;
        }
        if (!std::strncmp(arg, "--json=", 7)) {
            cli.json = true;
            cli.jsonPath = arg + 7;
            continue;
        }
        if (!std::strcmp(arg, "--fresh")) {
            fresh = true;
            continue;
        }
        if (!std::strcmp(arg, "--cold-machines")) {
            cli.options.reuseMachines = false;
            // Forwarded so shard workers compute the same journal
            // spec keys (snapshot eligibility is folded into them).
            cli.forwardArgs.push_back("--cold-machines");
            continue;
        }
        if (const char *value =
                flagValue(argc, argv, i, "--journal")) {
            cli.options.journalPath = value;
            continue;
        }
        if (const char *value =
                flagValue(argc, argv, i, "--threads")) {
            cli.options.threads =
                threadCount(argv[0], "--threads", value);
            cli.threadsExplicit = true;
            continue;
        }
        if (const char *value =
                flagValue(argc, argv, i, "--shard")) {
            unsigned index = 0;
            unsigned count = 0;
            char excess = 0;
            if (std::sscanf(value, "%u/%u%c", &index, &count,
                            &excess) != 2 ||
                count == 0 || index >= count) {
                std::fprintf(stderr,
                             "%s: bad --shard '%s' (use I/N with"
                             " 0 <= I < N)\n",
                             argv[0], value);
                std::exit(2);
            }
            cli.options.shardIndex = index;
            cli.options.shardCount = count;
            continue;
        }
        if (const char *value =
                flagValue(argc, argv, i, "--workers")) {
            if (!parseCount(value, cli.workers))
                badValue(argv[0], "--workers", value,
                         "a count; 0 = one per core");
            continue;
        }
        if (const char *value =
                flagValue(argc, argv, i, "--pool-algo")) {
            if (!parsePoolBuildAlgorithm(value, cli.pool.algorithm)) {
                std::fprintf(stderr,
                             "%s: unknown pool algorithm '%s' (use"
                             " single[-elimination] or"
                             " group[-testing])\n",
                             argv[0], value);
                std::exit(2);
            }
            cli.forwardArgs.push_back(std::string("--pool-algo=") +
                                      value);
            continue;
        }
        if (const char *value =
                flagValue(argc, argv, i, "--pool-threads")) {
            cli.pool.threads =
                threadCount(argv[0], "--pool-threads", value);
            cli.forwardArgs.push_back(
                std::string("--pool-threads=") + value);
            continue;
        }
        if (const char *value =
                flagValue(argc, argv, i, "--dram-model")) {
            if (!parseFlipModelKind(value, cli.dramModel)) {
                std::fprintf(stderr,
                             "%s: unknown DRAM model '%s' (use ddr3,"
                             " trr, distance2 or ecc)\n",
                             argv[0], value);
                std::exit(2);
            }
            cli.forwardArgs.push_back(
                std::string("--dram-model=") + value);
            continue;
        }
        if (const char *value = flagValue(argc, argv, i, "--harts")) {
            if (!parseCount(value, cli.harts) || cli.harts == 0)
                badValue(argv[0], "--harts", value, "a positive count");
            cli.forwardArgs.push_back(std::string("--harts=") + value);
            continue;
        }
        if (const char *value =
                flagValue(argc, argv, i, "--interleave")) {
            std::string mode = value;
            const std::size_t colon = mode.find(':');
            if (colon != std::string::npos) {
                long long seed = 0;
                if (!parseDecimal(mode.c_str() + colon + 1, seed) ||
                    seed < 0)
                    badValue(argv[0], "--interleave", value,
                             "M[:SEED] with a non-negative SEED");
                cli.interleaveSeed = static_cast<std::uint64_t>(seed);
                mode.resize(colon);
            }
            if (!parseInterleaveMode(mode.c_str(), cli.interleave)) {
                std::fprintf(stderr,
                             "%s: unknown interleave mode '%s' (use"
                             " round-robin/rr or seeded/random,"
                             " optionally :SEED)\n",
                             argv[0], mode.c_str());
                std::exit(2);
            }
            cli.forwardArgs.push_back(std::string("--interleave=") +
                                      value);
            continue;
        }
        if (!std::strcmp(arg, "--journal") ||
            !std::strcmp(arg, "--threads") ||
            !std::strcmp(arg, "--shard") ||
            !std::strcmp(arg, "--workers") ||
            !std::strcmp(arg, "--pool-algo") ||
            !std::strcmp(arg, "--pool-threads") ||
            !std::strcmp(arg, "--dram-model") ||
            !std::strcmp(arg, "--harts") ||
            !std::strcmp(arg, "--interleave")) {
            // flagValue only fails for these when the value is gone.
            std::fprintf(stderr, "%s: missing value for '%s'\n",
                         argv[0], arg);
            std::exit(2);
        }
        std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                     arg);
        usage(argv[0], summary);
        std::exit(2);
    }
    cli.options.resume = !fresh;

    if (cli.options.shardCount > 1 &&
        cli.options.journalPath.empty()) {
        std::fprintf(stderr,
                     "%s: --shard requires --journal (the slice's"
                     " results live in the journal)\n",
                     argv[0]);
        std::exit(2);
    }
    if (cli.options.shardCount > 1 && cli.workers != 1) {
        std::fprintf(stderr,
                     "%s: --shard (manual dispatch) and --workers"
                     " (automatic dispatch) are mutually"
                     " exclusive\n",
                     argv[0]);
        std::exit(2);
    }
    return cli;
}

std::vector<RunResult>
BenchCli::runCampaign(const Campaign &campaign)
{
    // Worker mode (--shard I/N): execute the slice into this
    // process's journal and stop — the full report is the merged
    // journal's job. Exit status 0 means the slice completed; runs
    // that failed inside the simulation are recorded in the journal
    // (and re-surface from the merge), not in the exit code.
    if (options.shardCount > 1) {
        if (json)
            std::fprintf(stderr,
                         "warning: --json is ignored in --shard"
                         " worker mode; render the report from the"
                         " merged journal (--journal MERGED"
                         " --json=...)\n");
        const std::vector<RunResult> results = campaign.run(options);
        std::size_t owned = 0;
        std::size_t failed = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (i % options.shardCount != options.shardIndex)
                continue;
            ++owned;
            failed += !results[i].ok;
        }
        std::fprintf(stderr,
                     "shard %u/%u: %zu of %zu run(s), %zu failed,"
                     " journal %s\n",
                     options.shardIndex, options.shardCount, owned,
                     results.size(), failed,
                     options.journalPath.c_str());
        std::exit(0);
    }

    unsigned workerCount = workers;
    if (workerCount == 0) {
        workerCount = std::thread::hardware_concurrency();
        if (workerCount == 0)
            workerCount = 1;
    }
    if (workerCount <= 1)
        return campaign.run(options);

    // Parent mode (--workers N): run the campaign as a one-campaign
    // manifest through CampaignCtl and serve the report from the
    // merged journal. Without --journal the artifacts live in a
    // scratch directory the guard removes on every exit path —
    // success, merge failure or exception — unless kept for
    // inspection.
    std::string journal = options.journalPath;
    ScratchDirGuard scratch;
    if (journal.empty()) {
        scratch = ScratchDirGuard::create("/tmp/pth_workersXXXXXX");
        journal = scratch.path() + "/campaign.jsonl";
    }

    ManifestCampaign job;
    job.name = "workers";
    // execv does no PATH search; prefer the kernel's record of this
    // very binary over argv[0], which may be a bare name.
    job.program = resolveSelfExe(program);
    job.args = forwardArgs;
    // Comes after CampaignCtl's own --threads=1, so it wins.
    if (threadsExplicit)
        job.args.push_back(strfmt("--threads=%u", options.threads));
    job.shards = workerCount;
    // No report: the render pass is skipped and the results are
    // served from the merged journal in-process below.
    job.journal = journal;
    Manifest manifest;
    manifest.campaigns.push_back(std::move(job));

    CampaignCtlOptions ctlOptions;
    ctlOptions.workers = workerCount;
    ctlOptions.fresh = !options.resume;
    CampaignCtl ctl(std::move(manifest), std::move(ctlOptions));
    ctl.run();
    const CampaignOutcome &outcome = ctl.outcomes().front();
    workerReports = outcome.shards;

    workerDeaths = 0;
    for (unsigned w = 0; w < workerCount; ++w) {
        const ShardOutcome &report = workerReports[w];
        if (report.ok)
            continue;
        ++workerDeaths;
        std::fprintf(stderr,
                     "shard worker %u/%u died: %s (log: %s)\n", w,
                     workerCount, report.error.c_str(),
                     report.log.c_str());
        if (!report.logTail.empty())
            std::fprintf(stderr, "--- worker %u output tail ---\n%s%s",
                         w, report.logTail.c_str(),
                         report.logTail.back() == '\n' ? "" : "\n");
    }
    // Every shard completed, so the only way left to fail is the
    // merge itself.
    if (!outcome.ok && workerDeaths == 0)
        throw std::runtime_error(outcome.error);
    if (outcome.mergeStats.corruptLines)
        std::fprintf(stderr,
                     "warning: skipped %zu corrupt line(s) while"
                     " merging %u shard journal(s) into %s\n",
                     outcome.mergeStats.corruptLines, workerCount,
                     journal.c_str());

    // Serve the report from the merged journal. A run the merge
    // cannot account for belongs to a dead worker; surface that as
    // the run's failure instead of quietly re-executing (masking the
    // death) or shrinking the report.
    const std::vector<RunSpec> &specs = campaign.specs();
    // Validate against the keys the workers actually journal under —
    // they fold in the snapshot-sharing bit (Campaign::specKeys), so
    // raw specKey(spec) would reject every shared-machine entry.
    const std::vector<std::uint64_t> expectedKeys =
        campaign.specKeys(options);
    auto entries = ResultStore::load(journal);
    std::vector<RunResult> results(specs.size());
    bool missing = false;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto it = entries.find(i);
        if (it != entries.end() &&
            it->second.key == expectedKeys[i]) {
            results[i] = std::move(it->second.result);
            continue;
        }
        missing = true;
        const unsigned shard =
            static_cast<unsigned>(i % workerCount);
        const ShardOutcome &report = workerReports[shard];
        RunResult &res = results[i];
        res = specResultShell(specs[i], i);
        res.ok = false;
        res.error = strfmt("shard worker %u/%u ", shard, workerCount);
        res.error += report.ok
                         ? "did not journal this run"
                         : "died: " + report.error;
        if (!report.logTail.empty())
            res.error += "; stderr: " + report.logTail;
    }

    if (scratch.active() && (workerDeaths || missing)) {
        std::fprintf(stderr,
                     "worker artifacts kept for inspection in %s\n",
                     scratch.path().c_str());
        scratch.keep();
    }
    // Otherwise the guard removes the scratch directory — worker
    // journals, logs and the merged journal — as it goes out of scope.
    return results;
}

unsigned
BenchCli::reportFailures(const std::vector<RunResult> &results)
{
    unsigned failures = 0;
    for (const RunResult &run : results) {
        if (run.ok)
            continue;
        ++failures;
        std::printf("run %s failed: %s\n", run.label.c_str(),
                    run.error.c_str());
    }
    return failures;
}

bool
BenchCli::staleMetrics(const RunResult &run, std::size_t expected)
{
    if (!run.ok || run.metrics.size() >= expected)
        return false;
    std::fprintf(stderr,
                 "run %s: journal entry has %zu metrics, this bench"
                 " expects %zu — stale journal (body changed?);"
                 " rerun with --fresh\n",
                 run.label.c_str(), run.metrics.size(), expected);
    return true;
}

bool
BenchCli::emitJson(const std::vector<RunResult> &results) const
{
    if (!json)
        return true;
    const std::string report = Campaign::toJson(results);
    if (jsonPath.empty()) {
        std::fputs(report.c_str(), stdout);
        return true;
    }
    std::ofstream out(jsonPath, std::ios::out | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "cannot write JSON report to %s\n",
                     jsonPath.c_str());
        return false;
    }
    out << report;
    return true;
}

} // namespace pth
