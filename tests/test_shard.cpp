/**
 * @file
 * Sharded-dispatch tests: the headline contract is that an N-way
 * sharded-and-merged campaign report is byte-identical to the
 * single-process serial report — including when a worker is killed
 * (SIGKILL, nothing flushed) mid-shard and respawned to resume from
 * its own journal.
 *
 * The test binary is its own shard worker: invoked with
 * `--pth-worker [--die-at=K] [--die-marker=PATH]
 * [--record-threads=PATH] [--fault-campaign] <bench flags>` (in any
 * order) it behaves like a bench binary (BenchCli + runCampaign) over
 * a fixed 9-run campaign (with --fault-campaign, the 4-run campaign
 * of makeFaultCampaign), so CampaignCtl and the BenchCli --workers
 * parent path are exercised against real subprocesses. --die-at=K
 * makes the worker SIGKILL itself when it reaches run K; with
 * --die-marker the suicide happens only while the marker file does
 * not exist (created just before dying), so the respawned worker
 * survives — without it the worker dies on every attempt, which is
 * how a permanently lost shard is simulated. --record-threads
 * appends "<shard> <threads>" — the worker's parsed --shard index and
 * thread count — to PATH.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/table.hh"
#include "cpu/machine.hh"
#include "harness/bench_cli.hh"
#include "harness/campaign.hh"
#include "harness/campaign_ctl.hh"
#include "harness/result_store.hh"

namespace pth
{
namespace shardtest
{

/** Path of this binary (from /proc/self/exe), for spawning workers. */
std::string gProgram;

/** Runs executed in this process (not served from a journal). */
std::atomic<unsigned> gExecutions{0};

constexpr unsigned kRuns = 9;
constexpr unsigned kNoDie = ~0u;

/**
 * The fixed campaign both the tests and the subprocess workers
 * build: custom bodies deriving every result field from the seed, so
 * any execution anywhere yields identical journal bytes.
 */
Campaign
makeCampaign(unsigned dieAtIndex = kNoDie,
             const std::string &dieMarker = std::string())
{
    Campaign campaign;
    for (unsigned i = 0; i < kRuns; ++i) {
        RunSpec spec;
        spec.label = strfmt("point%u", i);
        spec.preset = MachinePreset::TestSmall;
        spec.seed = 50 + i;
        spec.body = [dieAtIndex, dieMarker](Machine &,
                                            const AttackConfig &,
                                            RunResult &res) {
            if (res.index == dieAtIndex) {
                bool die = true;
                if (!dieMarker.empty()) {
                    if (std::ifstream(dieMarker).good()) {
                        die = false; // already died once; survive
                    } else {
                        std::ofstream mark(dieMarker);
                    }
                }
                if (die)
                    std::raise(SIGKILL); // nothing flushed, like kill -9
            }
            ++gExecutions;
            res.flips = (res.seed * 7) % 5;
            res.flipped = res.flips > 0;
            res.attempts = static_cast<unsigned>(res.index) + 1;
            res.metrics.emplace_back(
                "seed_sq", static_cast<double>(res.seed * res.seed));
            res.metrics.emplace_back(
                "inv", 1.0 / static_cast<double>(res.seed));
            res.report.flipped = res.flipped;
            res.report.timeToFirstFlipMinutes =
                res.flipped ? 0.25 * static_cast<double>(res.seed)
                            : 0.0;
        };
        campaign.add(spec);
    }
    return campaign;
}

/**
 * Runs 0-2 of makeCampaign with a run inserted at index 1. With
 * withFault its body maps anonymous memory until the simulated kernel
 * runs out of physical frames (test-small has 256 MiB); without, it
 * maps nothing.
 */
Campaign
makeFaultCampaign(bool withFault)
{
    RunSpec oom;
    oom.label = "oom";
    oom.preset = MachinePreset::TestSmall;
    oom.seed = 90;
    oom.body = [withFault](Machine &machine, const AttackConfig &,
                           RunResult &) {
        if (!withFault)
            return;
        Kernel &kernel = machine.kernel();
        Process &proc = kernel.createProcess(/*uid=*/1000);
        constexpr std::uint64_t kChunk = 64ull << 20;
        for (unsigned i = 0; i < 8; ++i)
            kernel.mmapAnon(proc, 0x100000000ull + i * kChunk, kChunk);
    };

    const Campaign full = makeCampaign();
    Campaign campaign;
    campaign.add(full.specs()[0]);
    campaign.add(oom);
    campaign.add(full.specs()[1]);
    campaign.add(full.specs()[2]);
    return campaign;
}

/** Subprocess entry: some argv[i] == "--pth-worker". */
int
workerMain(int argc, char **argv)
{
    unsigned dieAt = kNoDie;
    std::string marker;
    std::string recordThreads;
    bool faultCampaign = false;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--pth-worker"))
            continue;
        if (!std::strncmp(argv[i], "--die-at=", 9))
            dieAt = static_cast<unsigned>(
                std::strtoul(argv[i] + 9, nullptr, 10));
        else if (!std::strncmp(argv[i], "--die-marker=", 13))
            marker = argv[i] + 13;
        else if (!std::strncmp(argv[i], "--record-threads=", 17))
            recordThreads = argv[i] + 17;
        else if (!std::strcmp(argv[i], "--fault-campaign"))
            faultCampaign = true;
        else
            args.push_back(argv[i]);
    }
    BenchCli cli =
        BenchCli::parse(static_cast<int>(args.size()), args.data(),
                        "test_shard worker");
    if (!recordThreads.empty())
        std::ofstream(recordThreads, std::ios::app)
            << cli.options.shardIndex << ' ' << cli.options.threads
            << '\n';
    Campaign campaign = faultCampaign ? makeFaultCampaign(true)
                                      : makeCampaign(dieAt, marker);
    cli.runCampaign(campaign); // worker mode: exits inside
    return 0;
}

namespace
{

std::string
tempPath(const char *name)
{
    return testing::TempDir() + "pth_shard_" + name;
}

void
removeFile(const std::string &path)
{
    std::remove(path.c_str());
}

/** Remove a --workers journal and every shard artifact beside it:
 * shard journals, backup-instance copies and their logs. */
void
removeWorkerArtifacts(const std::string &journal, unsigned shards)
{
    for (unsigned s = 0; s < shards; ++s) {
        const std::string shard = journal + strfmt(".shard%u", s);
        for (const std::string &path :
             {shard, shard + ".log", shard + ".r1", shard + ".r1.log"})
            removeFile(path);
    }
    removeFile(journal);
}

std::string
serialReport()
{
    Campaign campaign = makeCampaign();
    CampaignOptions serial;
    serial.threads = 1;
    return Campaign::toJson(campaign.run(serial));
}

/** BenchCli::parse over a string argv (it may exit the process). */
BenchCli
parseArgs(std::vector<std::string> args,
          const std::vector<std::string> &passthrough = {})
{
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return BenchCli::parse(static_cast<int>(argv.size()),
                           argv.data(), "test_shard parent",
                           passthrough);
}

TEST(Shard, SlicingExecutesOnlyTheResidueClass)
{
    const std::string journal = tempPath("slice.jsonl");
    removeFile(journal);

    Campaign campaign = makeCampaign();
    CampaignOptions options;
    options.threads = 1;
    options.journalPath = journal;
    options.shardIndex = 1;
    options.shardCount = 3;

    gExecutions = 0;
    std::vector<RunResult> results = campaign.run(options);
    EXPECT_EQ(gExecutions.load(), 3u); // indices 1, 4, 7

    auto entries = ResultStore::load(journal);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_TRUE(entries.count(1) && entries.count(4) &&
                entries.count(7));

    // The full index-ordered result vector comes back: the slice is
    // real, everything else visibly not-executed.
    ASSERT_EQ(results.size(), kRuns);
    EXPECT_TRUE(results[4].ok);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("not executed"),
              std::string::npos);
    EXPECT_EQ(results[0].label, "point0"); // identity still filled

    removeFile(journal);
}

TEST(Shard, ShardedAndMergedReportByteIdenticalToSerial)
{
    const std::string expected = serialReport();

    for (unsigned shards : {1u, 2u, 4u, 8u}) {
        Campaign campaign = makeCampaign();
        std::vector<std::string> shardJournals;
        for (unsigned s = 0; s < shards; ++s) {
            const std::string journal =
                tempPath(strfmt("nway%u_%u.jsonl", shards, s).c_str());
            removeFile(journal);
            shardJournals.push_back(journal);

            CampaignOptions options;
            options.threads = s % 2 ? 2 : 1; // mixed pool/serial
            options.journalPath = journal;
            options.shardIndex = s;
            options.shardCount = shards;
            campaign.run(options);
        }

        const std::string merged =
            tempPath(strfmt("nway%u_merged.jsonl", shards).c_str());
        removeFile(merged);
        ResultStore::FoldStats stats;
        ASSERT_TRUE(
            ResultStore::merge(shardJournals, merged, &stats));
        EXPECT_EQ(stats.entries, kRuns);
        EXPECT_EQ(stats.superseded, 0u); // disjoint slices

        // Serving the merged journal executes nothing and renders
        // the same bytes as the serial uninterrupted run.
        CampaignOptions serve;
        serve.threads = 1;
        serve.journalPath = merged;
        gExecutions = 0;
        EXPECT_EQ(Campaign::toJson(campaign.run(serve)), expected)
            << shards << "-way sharded report diverged";
        EXPECT_EQ(gExecutions.load(), 0u);

        for (const std::string &journal : shardJournals)
            removeFile(journal);
        removeFile(merged);
    }
}

TEST(Shard, MergeIsLastWinsWithStableOrderingAndCorruptTolerance)
{
    const std::string a = tempPath("overlap_a.jsonl");
    const std::string b = tempPath("overlap_b.jsonl");
    const std::string merged = tempPath("overlap_merged.jsonl");
    removeFile(a);
    removeFile(b);
    removeFile(merged);

    auto entry = [](std::size_t index, std::uint64_t flips) {
        RunResult r;
        r.index = index;
        r.label = strfmt("point%zu", index);
        r.flips = flips;
        return r;
    };
    {
        ResultStore store(a, /*truncate=*/true);
        store.record(entry(3, 111), /*key=*/0xaaa);
        store.record(entry(1, 10), 0xbbb);
    }
    {
        ResultStore store(b, /*truncate=*/true);
        store.record(entry(2, 20), 0xccc);
        store.record(entry(3, 999), 0xddd); // overlaps a's run 3
    }
    std::ofstream(b, std::ios::app) << "{\"torn line\n";

    ResultStore::FoldStats stats;
    ASSERT_TRUE(ResultStore::merge({a, b}, merged, &stats));
    EXPECT_EQ(stats.inputs, 2u);
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_EQ(stats.superseded, 1u);
    EXPECT_EQ(stats.corruptLines, 1u);

    // Last listed input wins the overlapped index.
    auto entries = ResultStore::load(merged);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[3].result.flips, 999u);
    EXPECT_EQ(entries[3].key, 0xdddu);

    // Stable ordering: ascending run index, canonical bytes.
    std::ifstream in(merged);
    std::string line;
    std::vector<std::size_t> order;
    while (std::getline(in, line)) {
        ResultStore::Entry parsed;
        ASSERT_TRUE(ResultStore::deserialize(line, parsed));
        order.push_back(parsed.result.index);
        EXPECT_EQ(ResultStore::serialize(parsed.result, parsed.key),
                  line);
    }
    EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 3}));

    // Reversing the input order flips the winner.
    ASSERT_TRUE(ResultStore::merge({b, a}, merged, &stats));
    entries = ResultStore::load(merged);
    EXPECT_EQ(entries[3].result.flips, 111u);

    removeFile(a);
    removeFile(b);
    removeFile(merged);
}

TEST(Shard, LoadReportsCorruptLineCount)
{
    const std::string journal = tempPath("corrupt_count.jsonl");
    removeFile(journal);
    {
        ResultStore store(journal, /*truncate=*/true);
        RunResult r;
        r.index = 0;
        r.label = "ok";
        store.record(r, 1);
    }
    {
        std::ofstream out(journal, std::ios::app);
        out << "garbage\n";
        out << "{\"v\": 1, \"key\": \"00\", \"index\"\n";
    }
    std::size_t corrupt = 0;
    auto entries = ResultStore::load(journal, &corrupt);
    EXPECT_EQ(entries.size(), 1u);
    EXPECT_EQ(corrupt, 2u);
    removeFile(journal);
}

TEST(Shard, AppendAfterTornLineDoesNotGlueRecords)
{
    const std::string journal = tempPath("torn_append.jsonl");
    removeFile(journal);
    {
        // A journal whose last line was cut mid-write, no newline.
        std::ofstream out(journal);
        out << "{\"v\": 1, \"key\": \"00";
    }
    {
        ResultStore store(journal, /*truncate=*/false);
        RunResult r;
        r.index = 5;
        r.label = "after-torn";
        store.record(r, 42);
    }
    std::size_t corrupt = 0;
    auto entries = ResultStore::load(journal, &corrupt);
    EXPECT_EQ(corrupt, 1u);       // the torn prefix, alone
    ASSERT_EQ(entries.size(), 1u); // the new record, intact
    EXPECT_EQ(entries[5].result.label, "after-torn");
    removeFile(journal);
}

TEST(Shard, KilledWorkerRespawnsResumesAndReportMatchesSerial)
{
    const std::string base = tempPath("kill.jsonl");
    const std::string marker = tempPath("kill.marker");
    const std::string merged = tempPath("kill_merged.jsonl");
    removeWorkerArtifacts(base, 3);
    removeFile(marker);
    removeFile(merged);

    ManifestCampaign job;
    job.name = "kill";
    job.program = gProgram;
    // Worker 1 owns run 4 (4 % 3 == 1): it SIGKILLs itself there on
    // the first attempt, after checkpointing run 1.
    job.args = {"--pth-worker", "--die-at=4", "--die-marker=" + marker};
    job.shards = 3;
    job.journal = base;
    Manifest manifest;
    manifest.campaigns = {job};
    CampaignCtlOptions options;
    options.workers = 3;
    options.fresh = true;
    // Straggler re-issue is timing-dependent; off, so the spawn count
    // below is exact.
    options.maxReissues = 0;
    std::ostringstream log;
    options.log = &log;
    CampaignCtl ctl(manifest, options);
    ASSERT_EQ(ctl.run(), 0u);

    const CampaignOutcome &outcome = ctl.outcomes()[0];
    ASSERT_EQ(outcome.shards.size(), 3u);
    for (unsigned s = 0; s < 3; ++s)
        EXPECT_TRUE(outcome.shards[s].ok)
            << "worker " << s << ": " << outcome.shards[s].error;
    // Exactly one respawn: three first attempts plus worker 1's.
    EXPECT_EQ(outcome.spawns, 4u);
    const std::string dispatch = log.str();
    std::size_t respawns = 0;
    for (std::size_t at = dispatch.find("respawn ");
         at != std::string::npos;
         at = dispatch.find("respawn ", at + 1))
        ++respawns;
    EXPECT_EQ(respawns, 1u);
    EXPECT_NE(dispatch.find("respawn kill/1"), std::string::npos);

    // The killed worker's journal holds its pre-death checkpoint AND
    // the resumed remainder — merged, the report is byte-identical
    // to serial, and the supervisor's own merge wrote the same bytes.
    std::vector<std::string> shardJournals;
    for (unsigned s = 0; s < 3; ++s)
        shardJournals.push_back(base + strfmt(".shard%u", s));
    ASSERT_TRUE(ResultStore::merge(shardJournals, merged, nullptr));
    std::ifstream mergedIn(merged);
    std::ifstream baseIn(base);
    std::stringstream mergedBytes;
    std::stringstream baseBytes;
    mergedBytes << mergedIn.rdbuf();
    baseBytes << baseIn.rdbuf();
    EXPECT_EQ(baseBytes.str(), mergedBytes.str());

    const std::string expected = serialReport();
    Campaign campaign = makeCampaign();
    CampaignOptions serve;
    serve.threads = 1;
    serve.journalPath = merged;
    gExecutions = 0;
    EXPECT_EQ(Campaign::toJson(campaign.run(serve)), expected);
    EXPECT_EQ(gExecutions.load(), 0u);

    removeWorkerArtifacts(base, 3);
    removeFile(marker);
    removeFile(merged);
}

TEST(Shard, WorkersParentPathIsByteIdenticalAndResumable)
{
    const std::string journal = tempPath("parent.jsonl");
    removeWorkerArtifacts(journal, 4);

    Campaign campaign = makeCampaign();

    BenchCli first = parseArgs(
        {gProgram, "--workers=4", "--journal=" + journal, "--fresh"},
        {"--pth-worker"});
    std::vector<RunResult> results = first.runCampaign(campaign);
    EXPECT_EQ(first.workerDeaths, 0u);
    ASSERT_EQ(first.workerReports.size(), 4u);
    EXPECT_EQ(Campaign::toJson(results), serialReport());

    // Again without --fresh: workers resume their complete shard
    // journals, execute nothing, and the merge still serves the
    // identical report.
    BenchCli second = parseArgs(
        {gProgram, "--workers=4", "--journal=" + journal},
        {"--pth-worker"});
    EXPECT_EQ(Campaign::toJson(second.runCampaign(campaign)),
              serialReport());
    EXPECT_EQ(second.workerDeaths, 0u);

    removeWorkerArtifacts(journal, 4);
}

TEST(Shard, WorkersForwardExplicitThreadsToEveryWorker)
{
    const std::string journal = tempPath("threads.jsonl");
    const std::string record = tempPath("threads.record");
    Campaign campaign = makeCampaign();

    // Without --threads every worker runs serial; with --threads 2
    // every worker (backups included) gets --threads=2.
    for (unsigned threads : {1u, 2u}) {
        removeWorkerArtifacts(journal, 2);
        removeFile(record);
        std::vector<std::string> args = {gProgram, "--workers", "2",
                                         "--journal=" + journal,
                                         "--fresh"};
        if (threads != 1) {
            args.push_back("--threads");
            args.push_back(strfmt("%u", threads));
        }
        BenchCli cli = parseArgs(
            args, {"--pth-worker", "--record-threads=" + record});
        EXPECT_EQ(Campaign::toJson(cli.runCampaign(campaign)),
                  serialReport());
        EXPECT_EQ(cli.workerDeaths, 0u);

        std::ifstream in(record);
        unsigned shard = 0;
        unsigned seen = 0;
        std::vector<unsigned> shards;
        while (in >> shard >> seen) {
            EXPECT_EQ(seen, threads) << "shard " << shard;
            shards.push_back(shard);
        }
        std::sort(shards.begin(), shards.end());
        shards.erase(std::unique(shards.begin(), shards.end()),
                     shards.end());
        EXPECT_EQ(shards, (std::vector<unsigned>{0, 1}));
    }

    removeWorkerArtifacts(journal, 2);
    removeFile(record);
}

TEST(Shard, WorkersResumeFromTheParentJournal)
{
    const std::string journal = tempPath("seeded.jsonl");
    removeWorkerArtifacts(journal, 3);

    // Complete the campaign single-process into the parent journal.
    Campaign campaign = makeCampaign();
    CampaignOptions serial;
    serial.threads = 1;
    serial.journalPath = journal;
    const std::string expected =
        Campaign::toJson(campaign.run(serial));

    // Now run it with --workers, with workers rigged to die if they
    // ever EXECUTE run 4: the shard journals are seeded from the
    // parent journal, so nothing executes and nobody dies.
    BenchCli cli = parseArgs(
        {gProgram, "--workers=3", "--journal=" + journal},
        {"--pth-worker", "--die-at=4"});
    std::vector<RunResult> results = cli.runCampaign(campaign);
    EXPECT_EQ(cli.workerDeaths, 0u);
    EXPECT_EQ(Campaign::toJson(results), expected);

    removeWorkerArtifacts(journal, 3);
}

TEST(Shard, DeadWorkerSurfacesInReportAndFailureCount)
{
    const std::string journal = tempPath("dead.jsonl");
    removeWorkerArtifacts(journal, 3);

    Campaign campaign = makeCampaign();

    // No --die-marker: worker 1 dies at run 4 on every attempt.
    BenchCli cli = parseArgs(
        {gProgram, "--workers=3", "--journal=" + journal, "--fresh"},
        {"--pth-worker", "--die-at=4"});
    std::vector<RunResult> results = cli.runCampaign(campaign);

    EXPECT_EQ(cli.workerDeaths, 1u);
    ASSERT_EQ(cli.workerReports.size(), 3u);
    EXPECT_FALSE(cli.workerReports[1].ok);
    EXPECT_NE(cli.workerReports[1].error.find("signal"),
              std::string::npos);

    // Run 1 was checkpointed before the death; 4 and 7 were lost and
    // carry the death reason, so reportFailures (plus workerDeaths,
    // as every bench now sums) drives a nonzero exit.
    ASSERT_EQ(results.size(), kRuns);
    EXPECT_TRUE(results[1].ok);
    EXPECT_FALSE(results[4].ok);
    EXPECT_FALSE(results[7].ok);
    EXPECT_NE(results[4].error.find("died"), std::string::npos);
    EXPECT_GT(cli.failureCount(results), 0u);

    removeWorkerArtifacts(journal, 3);
}

TEST(Shard, SimulatedFaultFailsOnlyItsRunInEveryMode)
{
    const Campaign campaign = makeFaultCampaign(true);
    const std::vector<RunResult> clean =
        makeFaultCampaign(false).run(CampaignOptions{});

    // The other three runs match the fault-free campaign's.
    auto expectContained = [&clean](const std::vector<RunResult> &got) {
        ASSERT_EQ(got.size(), 4u);
        for (std::size_t i : {0u, 2u, 3u}) {
            EXPECT_TRUE(got[i].ok) << got[i].error;
            EXPECT_EQ(Campaign::toJson({got[i]}),
                      Campaign::toJson({clean[i]}));
        }
    };

    CampaignOptions serial;
    serial.threads = 1;
    const std::vector<RunResult> expected = campaign.run(serial);
    expectContained(expected);
    const RunResult &fault = expected[1];
    EXPECT_FALSE(fault.ok);
    EXPECT_EQ(fault.error.rfind("out of physical memory (defense=", 0),
              0u)
        << fault.error;
    EXPECT_NE(fault.error.find(strfmt(
                  "[spec key %016llx, machine state ",
                  static_cast<unsigned long long>(
                      campaign.specKeys(serial)[1]))),
              std::string::npos)
        << fault.error;
    EXPECT_EQ(fault.error.find("not built"), std::string::npos);

    CampaignOptions pooled;
    pooled.threads = 2;
    const std::vector<RunResult> threaded = campaign.run(pooled);
    expectContained(threaded);
    EXPECT_EQ(Campaign::toJson(threaded), Campaign::toJson(expected));

    const std::string journal = tempPath("fault.jsonl");
    removeWorkerArtifacts(journal, 2);
    BenchCli cli = parseArgs(
        {gProgram, "--workers=2", "--journal=" + journal, "--fresh"},
        {"--pth-worker", "--fault-campaign"});
    const std::vector<RunResult> workers = cli.runCampaign(campaign);
    EXPECT_EQ(cli.workerDeaths, 0u);
    expectContained(workers);
    EXPECT_EQ(Campaign::toJson(workers), Campaign::toJson(expected));
    removeWorkerArtifacts(journal, 2);
}

TEST(ShardCliDeath, ShardRequiresJournalAndValidFormat)
{
    EXPECT_EXIT(parseArgs({gProgram, "--shard=0/3"}),
                testing::ExitedWithCode(2), "requires --journal");
    EXPECT_EXIT(parseArgs({gProgram, "--shard=3/3",
                           "--journal=x.jsonl"}),
                testing::ExitedWithCode(2), "bad --shard");
    EXPECT_EXIT(parseArgs({gProgram, "--shard=0/3",
                           "--journal=x.jsonl", "--workers=2"}),
                testing::ExitedWithCode(2), "mutually exclusive");
}

TEST(ShardCliDeath, NumericFlagsAreStrict)
{
    // A value must be one whole decimal integer in range: no silent
    // "one per core" for garbage, no wrapped-around counts, no
    // trailing junk.
    EXPECT_EXIT(parseArgs({gProgram, "--workers=abc"}),
                testing::ExitedWithCode(2), "bad --workers 'abc'");
    EXPECT_EXIT(parseArgs({gProgram, "--workers", "-1"}),
                testing::ExitedWithCode(2), "bad --workers '-1'");
    EXPECT_EXIT(parseArgs({gProgram, "--workers=+2"}),
                testing::ExitedWithCode(2), "bad --workers");
    EXPECT_EXIT(parseArgs({gProgram, "--workers=99999999999"}),
                testing::ExitedWithCode(2), "bad --workers");
    EXPECT_EXIT(parseArgs({gProgram, "--harts", "2x"}),
                testing::ExitedWithCode(2), "bad --harts '2x'");
    EXPECT_EXIT(parseArgs({gProgram, "--harts=0"}),
                testing::ExitedWithCode(2), "bad --harts");
    EXPECT_EXIT(parseArgs({gProgram, "--threads=4 "}),
                testing::ExitedWithCode(2), "bad --threads");
    EXPECT_EXIT(parseArgs({gProgram, "--pool-threads="}),
                testing::ExitedWithCode(2), "bad --pool-threads");
    EXPECT_EXIT(parseArgs({gProgram, "--interleave=seeded:7x"}),
                testing::ExitedWithCode(2), "bad --interleave");
}

TEST(ShardCli, NumericFlagsKeepTheirDocumentedMeaning)
{
    // 0 and negative thread counts mean "all cores"; 0 workers means
    // one per core.
    BenchCli cli = parseArgs({gProgram, "--threads=-3",
                              "--pool-threads", "0", "--workers=0",
                              "--harts=4", "--interleave=seeded:9"});
    EXPECT_EQ(cli.options.threads, 0u);
    EXPECT_TRUE(cli.threadsExplicit);
    EXPECT_EQ(cli.pool.threads, 0u);
    EXPECT_EQ(cli.workers, 0u);
    EXPECT_EQ(cli.harts, 4u);
    EXPECT_EQ(cli.interleaveSeed, 9u);
    EXPECT_EQ(parseArgs({gProgram, "--threads", "3"}).options.threads,
              3u);
}

} // namespace
} // namespace shardtest
} // namespace pth

int
main(int argc, char **argv)
{
    // Resolve the binary's own path for fork/exec of shard workers;
    // argv[0] may be bare ("test_shard") under some launchers.
    char self[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    pth::shardtest::gProgram =
        n > 0 ? std::string(self, static_cast<std::size_t>(n))
              : std::string(argv[0]);

    // Supervisors put their own flags ahead of the campaign's, so the
    // worker marker may sit anywhere.
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--pth-worker"))
            return pth::shardtest::workerMain(argc, argv);

    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
