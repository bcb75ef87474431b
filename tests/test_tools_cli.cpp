/**
 * @file
 * CLI-level tests for the operator tools: campaign_query (listing,
 * --trend, -o merge) and campaign_ctl are exercised as subprocesses —
 * the way CI and operators run them — pinning exit codes (regression
 * counts, usage errors), corrupt-input tolerance and the merge byte
 * contract. Tool paths come from the build via PTH_TOOL_* compile
 * definitions.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "harness/campaign.hh"
#include "harness/result_store.hh"

namespace pth
{
namespace
{

/** One tool invocation: exit code plus captured stdout/stderr. */
struct CliResult
{
    int exit = -1;
    std::string out;
    std::string err;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Run `tool args...` through the shell, capturing everything. Paths
 * in args must not need quoting beyond the double quotes added. */
CliResult
runCli(const std::string &tool,
       const std::vector<std::string> &args)
{
    const std::string outPath = testing::TempDir() + "pth_cli_out";
    const std::string errPath = testing::TempDir() + "pth_cli_err";
    std::string cmd = "\"" + tool + "\"";
    for (const std::string &arg : args)
        cmd += " \"" + arg + "\"";
    cmd += " > \"" + outPath + "\" 2> \"" + errPath + "\"";

    CliResult result;
    const int status = std::system(cmd.c_str());
    result.exit = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    result.out = readFile(outPath);
    result.err = readFile(errPath);
    std::remove(outPath.c_str());
    std::remove(errPath.c_str());
    return result;
}

std::string
tempPath(const char *name)
{
    const std::string path = testing::TempDir() + "pth_cli_" + name;
    std::remove(path.c_str());
    return path;
}

RunResult
makeRun(std::size_t index, std::uint64_t flips)
{
    RunResult r;
    r.index = index;
    r.label = "cli" + std::to_string(index);
    r.machine = "Test Small";
    r.defense = "none";
    r.strategy = "pthammer";
    r.dramModel = "ddr3";
    r.seed = 10 + index;
    r.flips = flips;
    r.flipped = flips > 0;
    r.attempts = 1;
    r.simSeconds = static_cast<double>(index + 1);
    r.report.flipped = r.flipped;
    r.report.timeToFirstFlipMinutes = r.flipped ? 1.0 : 0.0;
    return r;
}

void
writeJournal(const std::string &path,
             const std::vector<RunResult> &runs)
{
    std::ofstream out(path, std::ios::trunc);
    for (const RunResult &r : runs)
        out << ResultStore::serialize(r, 100 + r.index) << '\n';
}

// ---------------------------------------------------------------- //
// campaign_query -o (journal merge)                                //
// ---------------------------------------------------------------- //

TEST(CampaignQueryMergeCli, MergesShardsAndCountsSupersededDuplicates)
{
    const std::string a = tempPath("merge_a.jsonl");
    const std::string b = tempPath("merge_b.jsonl");
    const std::string out = tempPath("merge_out.jsonl");
    writeJournal(a, {makeRun(0, 1), makeRun(1, 1)});
    writeJournal(b, {makeRun(1, 9), makeRun(2, 2)});

    const CliResult result =
        runCli(PTH_TOOL_CAMPAIGN_QUERY, {a, b, "-o", out});
    EXPECT_EQ(result.exit, 0) << result.err;
    EXPECT_TRUE(result.out.empty()) << result.out;
    EXPECT_NE(result.err.find("merged 3 run(s) from 2 journal(s)"),
              std::string::npos)
        << result.err;
    EXPECT_NE(result.err.find("1 superseded"), std::string::npos);

    // Byte contract: the file equals the library merge of the same
    // inputs in the same order.
    const std::string expected = tempPath("merge_lib.jsonl");
    ASSERT_TRUE(ResultStore::merge({a, b}, expected));
    EXPECT_EQ(readFile(out), readFile(expected));

    std::remove(a.c_str());
    std::remove(b.c_str());
    std::remove(out.c_str());
    std::remove(expected.c_str());
}

TEST(CampaignQueryMergeCli, ToleratesCorruptAndMissingInputs)
{
    const std::string a = tempPath("merge_torn.jsonl");
    const std::string out = tempPath("merge_torn_out.jsonl");
    {
        std::ofstream os(a, std::ios::trunc);
        os << ResultStore::serialize(makeRun(0, 1), 100) << '\n';
        os << "{\"torn\":  \n";
    }
    const CliResult result = runCli(
        PTH_TOOL_CAMPAIGN_QUERY, {a, "/nonexistent/s1.jsonl", "-o",
                                  out});
    EXPECT_EQ(result.exit, 0) << result.err;
    EXPECT_NE(result.err.find("skipped 1 corrupt line(s)"),
              std::string::npos)
        << result.err;
    EXPECT_NE(result.err.find("1 input journal(s) missing"),
              std::string::npos);

    // All inputs missing: hard failure, no output left behind.
    const CliResult nothing = runCli(
        PTH_TOOL_CAMPAIGN_QUERY,
        {"/nonexistent/s0.jsonl", "-o", out + ".none"});
    EXPECT_EQ(nothing.exit, 1);
    EXPECT_NE(nothing.err.find("no readable input journal"),
              std::string::npos);
    EXPECT_TRUE(readFile(out + ".none").empty());

    std::remove(a.c_str());
    std::remove(out.c_str());
}

TEST(CampaignQueryMergeCli, UsageErrorsExitTwo)
{
    const std::string journal = tempPath("merge_usage.jsonl");
    const std::string out = tempPath("merge_usage_out.jsonl");
    writeJournal(journal, {makeRun(0, 1)});

    EXPECT_EQ(runCli(PTH_TOOL_CAMPAIGN_QUERY, {"-o", out}).exit, 2);
    EXPECT_EQ(runCli(PTH_TOOL_CAMPAIGN_QUERY,
                     {"--bogus", journal, "-o", out})
                  .exit,
              2);
    EXPECT_EQ(runCli(PTH_TOOL_CAMPAIGN_QUERY, {journal, "-o"}).exit,
              2);
    // -o merges journals: query-only options are refused.
    EXPECT_EQ(runCli(PTH_TOOL_CAMPAIGN_QUERY,
                     {"--trend", journal, journal, "-o", out})
                  .exit,
              2);
    EXPECT_EQ(runCli(PTH_TOOL_CAMPAIGN_QUERY,
                     {journal, "--filter", "defense=none", "-o", out})
                  .exit,
              2);
    EXPECT_EQ(runCli(PTH_TOOL_CAMPAIGN_QUERY,
                     {journal, "--group-by", "seed", "-o", out})
                  .exit,
              2);
    EXPECT_TRUE(readFile(out).empty()); // nothing was written

    // A campaign report is not a journal: merging it would silently
    // drop every run as a corrupt line, so -o refuses it outright.
    const std::string report = tempPath("merge_usage.json");
    {
        std::ofstream os(report, std::ios::trunc);
        os << Campaign::toJson({makeRun(0, 1)});
    }
    const CliResult refused =
        runCli(PTH_TOOL_CAMPAIGN_QUERY, {journal, report, "-o", out});
    EXPECT_EQ(refused.exit, 2);
    EXPECT_NE(refused.err.find("is a campaign report"),
              std::string::npos)
        << refused.err;
    EXPECT_TRUE(readFile(out).empty());

    EXPECT_EQ(runCli(PTH_TOOL_CAMPAIGN_QUERY, {"--help"}).exit, 0);

    std::remove(journal.c_str());
    std::remove(report.c_str());
}

// ---------------------------------------------------------------- //
// campaign_query --trend                                           //
// ---------------------------------------------------------------- //

TEST(CampaignQueryTrendCli, ExitStatusIsTheRegressionCount)
{
    const std::string base = tempPath("cmp_base.jsonl");
    const std::string same = tempPath("cmp_same.jsonl");
    const std::string worse = tempPath("cmp_worse.jsonl");
    const std::vector<RunResult> runs = {makeRun(0, 3), makeRun(1, 2),
                                         makeRun(2, 0)};
    writeJournal(base, runs);
    writeJournal(same, runs);
    std::vector<RunResult> regressed = runs;
    regressed[0].flips = 1;         // fewer flips
    regressed[1].ok = false;        // now fails
    regressed[1].error = "boom";
    writeJournal(worse, regressed);

    EXPECT_EQ(
        runCli(PTH_TOOL_CAMPAIGN_QUERY, {"--trend", base, same}).exit,
        0);
    const CliResult result =
        runCli(PTH_TOOL_CAMPAIGN_QUERY, {"--trend", base, worse});
    EXPECT_EQ(result.exit, 2) << result.out;
    EXPECT_NE(result.out.find("2 regressed"), std::string::npos)
        << result.out;
    EXPECT_NE(result.out.find("REGRESSION"), std::string::npos);
    EXPECT_NE(result.out.find("3 baseline runs, 3 current:"),
              std::string::npos)
        << result.out;

    std::remove(base.c_str());
    std::remove(same.c_str());
    std::remove(worse.c_str());
}

TEST(CampaignQueryTrendCli, BadArtifactsAndCorruptLinesAreSurfaced)
{
    const std::string good = tempPath("cmp_good.jsonl");
    writeJournal(good, {makeRun(0, 1)});

    EXPECT_EQ(runCli(PTH_TOOL_CAMPAIGN_QUERY,
                     {"--trend", "/nonexistent/a.jsonl", good})
                  .exit,
              2);
    EXPECT_EQ(runCli(PTH_TOOL_CAMPAIGN_QUERY, {"--trend", good}).exit,
              2);

    // A torn line warns, naming the artifact, but does not fail the
    // comparison.
    const std::string torn = tempPath("cmp_torn.jsonl");
    {
        std::ofstream os(torn, std::ios::trunc);
        os << ResultStore::serialize(makeRun(0, 1), 100) << '\n';
        os << "{{{\n";
    }
    const CliResult result =
        runCli(PTH_TOOL_CAMPAIGN_QUERY, {"--trend", good, torn});
    EXPECT_EQ(result.exit, 0) << result.err;
    EXPECT_NE(result.err.find(torn +
                              ": warning: skipped 1 corrupt journal"
                              " line(s)"),
              std::string::npos)
        << result.err;

    // The listing mode warns the same way, per artifact.
    const CliResult listing =
        runCli(PTH_TOOL_CAMPAIGN_QUERY, {good, torn});
    EXPECT_EQ(listing.exit, 0) << listing.err;
    EXPECT_NE(listing.err.find(torn +
                               ": warning: skipped 1 corrupt journal"
                               " line(s)"),
              std::string::npos)
        << listing.err;
    EXPECT_EQ(listing.err.find(good), std::string::npos)
        << listing.err;

    std::remove(good.c_str());
    std::remove(torn.c_str());
}

TEST(CampaignQueryTrendCli, ToleranceIsStrict)
{
    const std::string base = tempPath("tol_base.jsonl");
    const std::string slower = tempPath("tol_slower.jsonl");
    std::vector<RunResult> runs = {makeRun(0, 1)};
    writeJournal(base, runs);
    runs[0].simSeconds *= 1.15; // +15%
    writeJournal(slower, runs);

    EXPECT_EQ(runCli(PTH_TOOL_CAMPAIGN_QUERY,
                     {"--trend", base, slower, "--tolerance", "10"})
                  .exit,
              1);
    EXPECT_EQ(runCli(PTH_TOOL_CAMPAIGN_QUERY,
                     {"--trend", base, slower, "--tolerance=20"})
                  .exit,
              0);
    // Garbage no longer reads as 0% (flagging everything) or NaN
    // (disarming the slower criterion): it is a usage error.
    for (const char *bad : {"abc", "nan", "-1", "5x", ""}) {
        const CliResult result =
            runCli(PTH_TOOL_CAMPAIGN_QUERY,
                   {"--trend", base, slower, "--tolerance", bad});
        EXPECT_EQ(result.exit, 2) << bad;
        EXPECT_NE(result.err.find("bad --tolerance"),
                  std::string::npos)
            << bad << ": " << result.err;
    }

    std::remove(base.c_str());
    std::remove(slower.c_str());
}

// ---------------------------------------------------------------- //
// campaign_query                                                   //
// ---------------------------------------------------------------- //

TEST(CampaignQueryCli, FiltersGroupsAndFoldsArtifacts)
{
    const std::string a = tempPath("query_a.jsonl");
    const std::string b = tempPath("query_b.jsonl");
    std::vector<RunResult> runs = {makeRun(0, 1), makeRun(1, 0)};
    runs[1].defense = "trr";
    writeJournal(a, runs);
    writeJournal(b, {makeRun(1, 5)}); // supersedes run 1

    CliResult result = runCli(PTH_TOOL_CAMPAIGN_QUERY, {a, b});
    EXPECT_EQ(result.exit, 0) << result.err;
    EXPECT_NE(result.out.find("2 run(s) selected of 2 indexed"),
              std::string::npos)
        << result.out;
    EXPECT_NE(result.out.find("1 superseded"), std::string::npos);

    result = runCli(PTH_TOOL_CAMPAIGN_QUERY,
                    {a, "--filter", "defense=trr"});
    EXPECT_EQ(result.exit, 0);
    EXPECT_NE(result.out.find("cli1"), std::string::npos);
    EXPECT_EQ(result.out.find("cli0"), std::string::npos)
        << result.out;
    EXPECT_NE(result.out.find("1 run(s) selected of 2"),
              std::string::npos);

    result = runCli(PTH_TOOL_CAMPAIGN_QUERY,
                    {a, "--group-by", "defense"});
    EXPECT_EQ(result.exit, 0);
    EXPECT_NE(result.out.find("none"), std::string::npos);
    EXPECT_NE(result.out.find("trr"), std::string::npos);

    EXPECT_EQ(runCli(PTH_TOOL_CAMPAIGN_QUERY,
                     {a, "--filter", "bogus=1"})
                  .exit,
              2);
    EXPECT_EQ(runCli(PTH_TOOL_CAMPAIGN_QUERY,
                     {a, "--group-by", "bogus"})
                  .exit,
              2);
    EXPECT_EQ(runCli(PTH_TOOL_CAMPAIGN_QUERY, {}).exit, 2);

    std::remove(a.c_str());
    std::remove(b.c_str());
}

// ---------------------------------------------------------------- //
// campaign_ctl                                                     //
// ---------------------------------------------------------------- //

TEST(CampaignCtlCli, UsageAndManifestErrorsExitTwo)
{
    EXPECT_EQ(runCli(PTH_TOOL_CAMPAIGN_CTL, {"--help"}).exit, 0);
    EXPECT_EQ(runCli(PTH_TOOL_CAMPAIGN_CTL, {}).exit, 2);
    EXPECT_EQ(runCli(PTH_TOOL_CAMPAIGN_CTL,
                     {"/nonexistent/manifest.json"})
                  .exit,
              2);

    const std::string manifest = tempPath("ctl_bad.json");
    {
        std::ofstream os(manifest, std::ios::trunc);
        os << R"({"campaigns": [{"name": "a", "program": "x",
                  "shardz": 2}]})";
    }
    const CliResult result =
        runCli(PTH_TOOL_CAMPAIGN_CTL, {manifest});
    EXPECT_EQ(result.exit, 2);
    EXPECT_NE(result.err.find("unknown key"), std::string::npos)
        << result.err;

    // --inject-kill must name a shard the manifest actually has.
    const std::string ok = tempPath("ctl_ok.json");
    {
        std::ofstream os(ok, std::ios::trunc);
        os << R"({"campaigns": [{"name": "a", "program": "/bin/true",
                  "shards": 2}]})";
    }
    const CliResult inject = runCli(
        PTH_TOOL_CAMPAIGN_CTL, {ok, "--inject-kill", "a/7"});
    EXPECT_EQ(inject.exit, 2);
    EXPECT_NE(inject.err.find("names no shard"), std::string::npos)
        << inject.err;

    std::remove(manifest.c_str());
    std::remove(ok.c_str());
}

TEST(CampaignCtlCli, NumericFlagsAreStrict)
{
    const std::string ok = tempPath("ctl_numeric.json");
    {
        std::ofstream os(ok, std::ios::trunc);
        os << R"({"campaigns": [{"name": "a", "program": "/bin/true",
                  "shards": 2}]})";
    }
    // Each must be rejected before anything is spawned: negative
    // counts used to wrap to ~4 billion respawns or pool slots, and
    // trailing junk used to be ignored.
    const std::vector<std::vector<std::string>> bad = {
        {"--max-respawns=-1"}, {"--workers=-1"},
        {"--workers", "abc"},  {"--max-reissues=1x"},
        {"--workers="},        {"--inject-kill", "a/-1"},
        {"--inject-kill=a/1x"},
    };
    for (const std::vector<std::string> &flags : bad) {
        std::vector<std::string> args = {ok};
        args.insert(args.end(), flags.begin(), flags.end());
        const CliResult result = runCli(PTH_TOOL_CAMPAIGN_CTL, args);
        EXPECT_EQ(result.exit, 2) << flags[0];
        EXPECT_NE(result.err.find("bad "), std::string::npos)
            << result.err;
    }

    // A following flag is not a value: "--out --fresh" is a missing
    // value, not an output directory named "--fresh".
    const CliResult missing =
        runCli(PTH_TOOL_CAMPAIGN_CTL, {ok, "--out", "--fresh"});
    EXPECT_EQ(missing.exit, 2);
    EXPECT_NE(missing.err.find("missing value for '--out'"),
              std::string::npos)
        << missing.err;
    EXPECT_FALSE(std::ifstream("--fresh").good());

    std::remove(ok.c_str());
}

TEST(CampaignCtlCli, PermanentWorkerDeathYieldsNonzeroExit)
{
    const std::string outDir = testing::TempDir() + "pth_cli_ctl";
    ::system(("mkdir -p \"" + outDir + "\"").c_str());
    const std::string manifest = tempPath("ctl_dead.json");
    {
        std::ofstream os(manifest, std::ios::trunc);
        os << R"({"campaigns": [{"name": "dead",
                  "program": "/nonexistent/bench"}]})";
    }
    const CliResult result = runCli(
        PTH_TOOL_CAMPAIGN_CTL,
        {manifest, "--out", outDir, "--fresh", "--quiet"});
    EXPECT_EQ(result.exit, 1) << result.err;
    EXPECT_NE(result.err.find("campaign dead failed"),
              std::string::npos)
        << result.err;
    EXPECT_NE(result.err.find("1 of 1 campaign(s) failed"),
              std::string::npos);
    EXPECT_NE(result.out.find("FAILED"), std::string::npos)
        << result.out;
    std::remove(manifest.c_str());
}

} // namespace
} // namespace pth
