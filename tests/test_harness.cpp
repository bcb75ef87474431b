/**
 * @file
 * Campaign runner and thread-pool tests: parallel campaigns must be
 * bit-identical to serial ones (same seeds, same aggregate flip
 * counts, same JSON), and the pool must drain on shutdown and deliver
 * worker exceptions through its futures.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include <sys/stat.h>
#include <unistd.h>

#include "common/stats.hh"
#include "common/table.hh"
#include "cpu/machine.hh"
#include "harness/campaign.hh"
#include "harness/scratch_dir.hh"
#include "harness/self_exe.hh"
#include "common/thread_pool.hh"

namespace pth
{
namespace
{

/** A fast campaign: small machine, tiny spray, few attempts. */
Campaign
smallCampaign(unsigned seeds)
{
    RunSpec base;
    base.label = "smoke";
    base.preset = MachinePreset::TestSmall;
    base.strategy = HammerStrategy::PThammer;
    base.attack.superpages = true;
    base.attack.sprayBytes = 24ull << 20;
    base.attack.superpageSampleClasses = 2;
    base.attack.maxAttempts = 10;
    base.attack.hammerBudgetSeconds = 36000;

    Campaign campaign;
    campaign.addSeedSweep(base, /*seedBase=*/100, seeds);
    return campaign;
}

/**
 * Test-small runs that differ only in LLC ways — 8, 12, 16, so LLC
 * capacity, and with it Campaign::dispatchOrder, runs opposite to
 * index order — with two attacker seeds each (pairs share a warm
 * machine). A non-null body replaces the attack.
 */
Campaign
llcWaysCampaign(
    std::function<void(Machine &, const AttackConfig &, RunResult &)>
        body = nullptr)
{
    Campaign base = smallCampaign(1);
    Campaign campaign;
    for (unsigned ways : {8u, 12u, 16u}) {
        RunSpec spec = base.specs()[0];
        spec.label = strfmt("ways%u", ways);
        spec.tweakMachine = [ways](MachineConfig &config) {
            config.caches.llc.ways = ways;
        };
        spec.body = body;
        campaign.addAttackSeedSweep(spec, /*seedBase=*/100, 2);
    }
    return campaign;
}

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&ran] { ++ran; });
        pool.shutdown();
        EXPECT_EQ(ran.load(), 64);
        pool.shutdown();  // idempotent
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, SubmitAfterShutdownThrows)
{
    ThreadPool pool(1);
    pool.shutdown();
    EXPECT_THROW(pool.submit([] { return 1; }), std::runtime_error);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures)
{
    ThreadPool pool(2);
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("worker boom"); });
    auto good = pool.submit([] { return 7; });
    EXPECT_EQ(good.get(), 7);
    try {
        bad.get();
        FAIL() << "expected the worker exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "worker boom");
    }
    // The pool survives a throwing task.
    EXPECT_EQ(pool.submit([] { return 3; }).get(), 3);
}

TEST(RunningStat, MergeMatchesCombinedSampling)
{
    RunningStat a;
    RunningStat b;
    RunningStat whole;
    for (double v : {3.0, 1.0, 4.0}) {
        a.sample(v);
        whole.sample(v);
    }
    for (double v : {1.0, 5.0, 9.0, 2.0}) {
        b.sample(v);
        whole.sample(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_DOUBLE_EQ(a.total(), whole.total());
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());

    RunningStat empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), whole.count());
    empty.merge(a);
    EXPECT_DOUBLE_EQ(empty.mean(), whole.mean());
}

TEST(Campaign, SeedSweepLabelsAndSeeds)
{
    Campaign campaign = smallCampaign(4);
    ASSERT_EQ(campaign.size(), 4u);
    EXPECT_EQ(campaign.specs()[0].seed, 100u);
    EXPECT_EQ(campaign.specs()[3].seed, 103u);
    EXPECT_EQ(campaign.specs()[2].label, "smoke/seed2");
}

TEST(Campaign, ParallelIsBitIdenticalToSerial)
{
    Campaign campaign = smallCampaign(8);

    CampaignOptions serial;
    serial.threads = 1;
    std::vector<RunResult> serialResults = campaign.run(serial);

    CampaignOptions parallel;
    parallel.threads = 8;
    std::vector<RunResult> parallelResults = campaign.run(parallel);

    ASSERT_EQ(serialResults.size(), parallelResults.size());
    for (std::size_t i = 0; i < serialResults.size(); ++i) {
        const RunResult &s = serialResults[i];
        const RunResult &p = parallelResults[i];
        EXPECT_TRUE(s.ok) << s.error;
        EXPECT_EQ(s.index, p.index);
        EXPECT_EQ(s.seed, p.seed);
        EXPECT_EQ(s.flips, p.flips);
        EXPECT_EQ(s.attempts, p.attempts);
        EXPECT_EQ(s.flipped, p.flipped);
        EXPECT_EQ(s.escalated, p.escalated);
        EXPECT_DOUBLE_EQ(s.simSeconds, p.simSeconds);
        EXPECT_DOUBLE_EQ(s.report.hammerMs, p.report.hammerMs);
    }

    CampaignAggregate sa = Campaign::aggregate(serialResults);
    CampaignAggregate pa = Campaign::aggregate(parallelResults);
    EXPECT_EQ(sa.totalFlips, pa.totalFlips);
    EXPECT_EQ(sa.fingerprint(), pa.fingerprint());

    // The rendered artifacts are byte-identical too (wall-clock is
    // deliberately excluded from them).
    EXPECT_EQ(Campaign::toJson(serialResults),
              Campaign::toJson(parallelResults));
}

TEST(Campaign, DifferentSeedsDecorrelateRuns)
{
    Campaign campaign = smallCampaign(4);
    CampaignOptions options;
    options.threads = 2;
    std::vector<RunResult> results = campaign.run(options);
    // Distinct seeds re-key the weak-cell map; simulated time lines up
    // only if the seed wiring is broken.
    bool anyDifferent = false;
    for (std::size_t i = 1; i < results.size(); ++i)
        anyDifferent |= results[i].simSeconds != results[0].simSeconds;
    EXPECT_TRUE(anyDifferent);
}

TEST(Campaign, RunFailuresAreRecordedNotFatal)
{
    Campaign campaign;
    RunSpec bad;
    bad.label = "bad";
    bad.preset = MachinePreset::TestSmall;
    bad.strategy = HammerStrategy::PThammer;
    bad.tweakMachine = [](MachineConfig &) {
        throw std::runtime_error("tweak boom");
    };
    campaign.add(bad);

    std::vector<RunResult> results = campaign.run({});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].error, "tweak boom");

    CampaignAggregate agg = Campaign::aggregate(results);
    EXPECT_EQ(agg.failedRuns, 1u);

    CampaignOptions strict;
    strict.rethrow = true;
    EXPECT_THROW(campaign.run(strict), std::runtime_error);
}

TEST(Campaign, DispatchOrderIsLargestLlcFirst)
{
    Campaign campaign;
    for (MachinePreset preset :
         {MachinePreset::TestSmall, MachinePreset::DellE6420,
          MachinePreset::LenovoT420, MachinePreset::LenovoX230}) {
        RunSpec spec;
        spec.preset = preset;
        campaign.add(spec);
    }
    RunSpec bad;
    bad.preset = MachinePreset::DellE6420;
    bad.tweakMachine = [](MachineConfig &) {
        throw std::runtime_error("tweak boom");
    };
    campaign.add(bad);
    // E6420 (4 MiB LLC) first; T420 and X230 (3 MiB) tie in index
    // order; test-small; the underivable spec costs 0 and goes last.
    EXPECT_EQ(campaign.dispatchOrder(),
              (std::vector<std::size_t>{1, 2, 3, 0, 4}));
}

TEST(Campaign, ReorderedPoolIsByteIdenticalToSerial)
{
    Campaign campaign = llcWaysCampaign();
    ASSERT_EQ(campaign.dispatchOrder(),
              (std::vector<std::size_t>{4, 5, 2, 3, 0, 1}));

    CampaignOptions serial;
    serial.threads = 1;
    const std::vector<RunResult> expected = campaign.run(serial);
    for (const RunResult &r : expected)
        EXPECT_TRUE(r.ok) << r.label << ": " << r.error;

    CampaignOptions pooled;
    pooled.threads = 3;
    EXPECT_EQ(Campaign::toJson(campaign.run(pooled)),
              Campaign::toJson(expected));
}

TEST(Campaign, ReorderedPoolJournalResumesSerially)
{
    std::atomic<unsigned> executions{0};
    Campaign campaign = llcWaysCampaign(
        [&executions](Machine &machine, const AttackConfig &,
                      RunResult &res) {
            ++executions;
            res.flips = machine.config().caches.llc.ways;
            res.attempts = static_cast<unsigned>(res.seed);
        });
    const std::string journal =
        testing::TempDir() + "pth_harness_dispatch.jsonl";
    std::remove(journal.c_str());

    CampaignOptions pooled;
    pooled.threads = 3;
    pooled.journalPath = journal;
    const std::string expected = Campaign::toJson(campaign.run(pooled));
    EXPECT_EQ(executions.load(), campaign.size());

    executions = 0;
    CampaignOptions serial;
    serial.threads = 1;
    serial.journalPath = journal;
    EXPECT_EQ(Campaign::toJson(campaign.run(serial)), expected);
    EXPECT_EQ(executions.load(), 0u);
    std::remove(journal.c_str());
}

TEST(Campaign, JsonReportsRunsAndAggregate)
{
    Campaign campaign = smallCampaign(2);
    CampaignOptions options;
    options.threads = 2;
    std::vector<RunResult> results = campaign.run(options);
    std::string json = Campaign::toJson(results);
    EXPECT_NE(json.find("\"runs\": ["), std::string::npos);
    EXPECT_NE(json.find("\"label\": \"smoke/seed0\""), std::string::npos);
    EXPECT_NE(json.find("\"aggregate\": {"), std::string::npos);
    EXPECT_NE(json.find("\"fingerprint\": \""), std::string::npos);
    EXPECT_EQ(json.find("wall"), std::string::npos);
}

bool
pathExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

TEST(ScratchDirGuard, RemovesNonEmptyDirectoryOnDestruction)
{
    // Regression: the --workers scratch dir was only removed on the
    // all-success path, and a bare rmdir would have failed anyway
    // because the per-worker journals/logs were still inside.
    std::string dir;
    {
        ScratchDirGuard guard =
            ScratchDirGuard::create("/tmp/pth_testguardXXXXXX");
        dir = guard.path();
        ASSERT_TRUE(pathExists(dir));
        std::ofstream(dir + "/shard0.jsonl") << "{}\n";
        std::ofstream(dir + "/shard0.jsonl.log") << "tail\n";
    }
    EXPECT_FALSE(pathExists(dir));
}

TEST(ScratchDirGuard, KeepLeavesArtifactsOnDisk)
{
    std::string dir;
    {
        ScratchDirGuard guard =
            ScratchDirGuard::create("/tmp/pth_testguardXXXXXX");
        dir = guard.path();
        std::ofstream(dir + "/evidence.log") << "kept\n";
        guard.keep();
        EXPECT_FALSE(guard.active());
    }
    ASSERT_TRUE(pathExists(dir));
    ASSERT_TRUE(pathExists(dir + "/evidence.log"));
    std::remove((dir + "/evidence.log").c_str());
    ::rmdir(dir.c_str());
}

TEST(ScratchDirGuard, MoveTransfersOwnershipOnce)
{
    std::string dir;
    {
        ScratchDirGuard outer;
        EXPECT_FALSE(outer.active());
        {
            ScratchDirGuard inner =
                ScratchDirGuard::create("/tmp/pth_testguardXXXXXX");
            dir = inner.path();
            outer = std::move(inner);
            EXPECT_FALSE(inner.active());
        }
        // inner's death must not have removed the moved-from dir.
        EXPECT_TRUE(pathExists(dir));
    }
    EXPECT_FALSE(pathExists(dir));
}

TEST(SelfExe, ResolvesToAnExistingBinary)
{
    const std::string path = resolveSelfExe("fallback-argv0");
    ASSERT_NE(path, "fallback-argv0");
    EXPECT_EQ(path.front(), '/');
    EXPECT_TRUE(pathExists(path));

    // Regression pin for the truncation fix: /proc/self/exe of this
    // process fits the 4096-byte buffer with room to spare, so the
    // result must be the real link target, not a truncated prefix —
    // readlink against the same buffer size must agree exactly.
    char self[4096];
    const ssize_t len =
        ::readlink("/proc/self/exe", self, sizeof(self));
    ASSERT_GT(len, 0);
    ASSERT_LT(static_cast<std::size_t>(len), sizeof(self));
    EXPECT_EQ(path, std::string(self, static_cast<std::size_t>(len)));
}

} // namespace
} // namespace pth
