/**
 * @file
 * Result-store and checkpoint/resume tests: journal lines round-trip
 * every report-feeding field exactly, a resumed campaign skips runs
 * its journal already holds and still renders a byte-identical JSON
 * report, and corrupt journal lines (the artifact of a kill mid-
 * write) are skipped instead of poisoning the resume.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "common/table.hh"
#include "harness/campaign.hh"
#include "harness/result_store.hh"

namespace pth
{
namespace
{

std::string
tempPath(const char *name)
{
    return testing::TempDir() + "pth_result_store_" + name;
}

/** Delete a file if present (test setup/teardown). */
void
removeFile(const std::string &path)
{
    std::remove(path.c_str());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/**
 * A campaign of count custom-body runs on the tiny machine. Each
 * body bumps executions (when given) so tests can count how many
 * runs actually executed vs. were served from the journal.
 */
Campaign
countingCampaign(unsigned count, std::atomic<unsigned> *executions)
{
    Campaign campaign;
    for (unsigned i = 0; i < count; ++i) {
        RunSpec spec;
        spec.label = strfmt("run%u", i);
        spec.preset = MachinePreset::TestSmall;
        spec.seed = 40 + i;
        spec.body = [executions](Machine &, const AttackConfig &,
                                 RunResult &res) {
            if (executions)
                ++*executions;
            res.flips = res.seed * 3;
            res.flipped = true;
            res.metrics.emplace_back(
                "third", static_cast<double>(res.seed) / 3.0);
        };
        campaign.add(spec);
    }
    return campaign;
}

/** A small real-strategy campaign (same shape as test_harness's). */
Campaign
pthammerCampaign(unsigned seeds)
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

TEST(SpecKey, StableAndSensitive)
{
    RunSpec a;
    a.label = "x";
    a.seed = 7;
    RunSpec copy = a;
    EXPECT_EQ(specKey(a), specKey(copy));

    RunSpec differentSeed = a;
    differentSeed.seed = 8;
    EXPECT_NE(specKey(a), specKey(differentSeed));

    RunSpec differentLabel = a;
    differentLabel.label = "y";
    EXPECT_NE(specKey(a), specKey(differentLabel));

    RunSpec differentAttack = a;
    differentAttack.attack.sprayBytes += 1;
    EXPECT_NE(specKey(a), specKey(differentAttack));

    RunSpec differentStrategy = a;
    differentStrategy.strategy = HammerStrategy::Explicit;
    EXPECT_NE(specKey(a), specKey(differentStrategy));

    // Journals from different DRAM flip models must never satisfy
    // each other's resume, and the non-default kinds must not
    // collide among themselves either.
    RunSpec trr = a;
    trr.dramModel = FlipModelKind::Trr;
    RunSpec distance2 = a;
    distance2.dramModel = FlipModelKind::Distance2;
    EXPECT_NE(specKey(a), specKey(trr));
    EXPECT_NE(specKey(a), specKey(distance2));
    EXPECT_NE(specKey(trr), specKey(distance2));
}

TEST(Json, ParsesWriterDialect)
{
    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(
        "{\"a\": 1, \"b\": [true, \"x\\n\\u0041\"], \"c\": {\"d\":"
        " -2.5e3}}",
        doc));
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("a")->asU64(), 1u);
    ASSERT_TRUE(doc.find("b")->isArray());
    EXPECT_TRUE(doc.find("b")->items()[0].asBool());
    EXPECT_EQ(doc.find("b")->items()[1].asString(), "x\nA");
    EXPECT_DOUBLE_EQ(doc.find("c")->find("d")->asDouble(), -2500.0);

    // 64-bit integers survive without a double detour.
    ASSERT_TRUE(JsonValue::parse("18446744073709551615", doc));
    EXPECT_EQ(doc.asU64(), 18446744073709551615ull);

    // Corrupt documents are rejected, not half-parsed.
    EXPECT_FALSE(JsonValue::parse("{\"a\": 1", doc));
    EXPECT_FALSE(JsonValue::parse("{\"a\": 1} trailing", doc));
    EXPECT_FALSE(JsonValue::parse("", doc));
}

TEST(ResultStore, JournalLineRoundTripsExactly)
{
    RunResult r;
    r.index = 11;
    r.label = "odd \"label\"\nwith\tescapes";
    r.machine = "Lenovo T420";
    r.defense = "CATT";
    r.strategy = "pthammer";
    r.seed = 0xdeadbeefcafef00dull; // > 2^53: must not pass through a double
    r.ok = false;
    r.error = "boom";
    r.flipped = true;
    r.escalated = true;
    r.flips = (1ull << 60) + 3;
    r.attempts = 450;
    r.flipsUntilEscalation = 3;
    r.exploitPath = "page-table takeover";
    r.simSeconds = 0.1; // not exactly representable
    r.wallSeconds = 2.25;
    r.metrics.emplace_back("cycles", 1234.5678e-9);
    r.metrics.emplace_back("rate", 1.0 / 3.0);
    r.report.machine = "Lenovo T420";
    r.report.superpages = true;
    r.report.defense = "CATT";
    r.report.sprayMs = 1e-20;
    r.report.tlbPrepMs = 11.0;
    r.report.llcPrepMinutes = 0.3;
    r.report.tlbSelectMicros = 1.0000000000000002;
    r.report.llcSelectMs = 285.5;
    r.report.hammerMs = 285.1;
    r.report.checkSeconds = 4.4;
    r.report.timeToFirstFlipMinutes = 10.7;
    r.report.flipped = true;
    r.report.escalated = true;
    r.report.attempts = 450;
    r.report.flipsObserved = 9;
    r.report.flipsUntilEscalation = 3;
    r.report.exploitPath = "page-table takeover";

    const std::uint64_t key = 0x0123456789abcdefull;
    ResultStore::Entry entry;
    ASSERT_TRUE(
        ResultStore::deserialize(ResultStore::serialize(r, key),
                                 entry));
    EXPECT_EQ(entry.key, key);

    const RunResult &b = entry.result;
    EXPECT_EQ(b.index, r.index);
    EXPECT_EQ(b.label, r.label);
    EXPECT_EQ(b.machine, r.machine);
    EXPECT_EQ(b.defense, r.defense);
    EXPECT_EQ(b.strategy, r.strategy);
    EXPECT_EQ(b.seed, r.seed);
    EXPECT_EQ(b.ok, r.ok);
    EXPECT_EQ(b.error, r.error);
    EXPECT_EQ(b.flipped, r.flipped);
    EXPECT_EQ(b.escalated, r.escalated);
    EXPECT_EQ(b.flips, r.flips);
    EXPECT_EQ(b.attempts, r.attempts);
    EXPECT_EQ(b.flipsUntilEscalation, r.flipsUntilEscalation);
    EXPECT_EQ(b.exploitPath, r.exploitPath);
    // Doubles must be bit-exact (==, not near) for report identity.
    EXPECT_EQ(b.simSeconds, r.simSeconds);
    EXPECT_EQ(b.wallSeconds, r.wallSeconds);
    ASSERT_EQ(b.metrics.size(), r.metrics.size());
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        EXPECT_EQ(b.metrics[i].first, r.metrics[i].first);
        EXPECT_EQ(b.metrics[i].second, r.metrics[i].second);
    }
    EXPECT_EQ(b.report.machine, r.report.machine);
    EXPECT_EQ(b.report.superpages, r.report.superpages);
    EXPECT_EQ(b.report.defense, r.report.defense);
    EXPECT_EQ(b.report.sprayMs, r.report.sprayMs);
    EXPECT_EQ(b.report.tlbPrepMs, r.report.tlbPrepMs);
    EXPECT_EQ(b.report.llcPrepMinutes, r.report.llcPrepMinutes);
    EXPECT_EQ(b.report.tlbSelectMicros, r.report.tlbSelectMicros);
    EXPECT_EQ(b.report.llcSelectMs, r.report.llcSelectMs);
    EXPECT_EQ(b.report.hammerMs, r.report.hammerMs);
    EXPECT_EQ(b.report.checkSeconds, r.report.checkSeconds);
    EXPECT_EQ(b.report.timeToFirstFlipMinutes,
              r.report.timeToFirstFlipMinutes);
    EXPECT_EQ(b.report.flipped, r.report.flipped);
    EXPECT_EQ(b.report.escalated, r.report.escalated);
    EXPECT_EQ(b.report.attempts, r.report.attempts);
    EXPECT_EQ(b.report.flipsObserved, r.report.flipsObserved);
    EXPECT_EQ(b.report.flipsUntilEscalation,
              r.report.flipsUntilEscalation);
    EXPECT_EQ(b.report.exploitPath, r.report.exploitPath);
}

TEST(ResultStore, NonFiniteDoublesSurviveTheJournal)
{
    RunResult r;
    r.index = 0;
    r.label = "nonfinite";
    r.metrics.emplace_back("a_nan", std::nan(""));
    r.metrics.emplace_back("an_inf", INFINITY);
    r.metrics.emplace_back("neg_inf", -INFINITY);
    r.simSeconds = INFINITY;

    ResultStore::Entry entry;
    ASSERT_TRUE(ResultStore::deserialize(
        ResultStore::serialize(r, 1), entry));
    ASSERT_EQ(entry.result.metrics.size(), 3u);
    EXPECT_TRUE(std::isnan(entry.result.metrics[0].second));
    EXPECT_EQ(entry.result.metrics[1].second, INFINITY);
    EXPECT_EQ(entry.result.metrics[2].second, -INFINITY);
    EXPECT_EQ(entry.result.simSeconds, INFINITY);
}

TEST(ResultStore, MistypedFieldRejectsTheLine)
{
    RunResult r;
    r.index = 0;
    r.label = "typed";
    const std::string line = ResultStore::serialize(r, 42);

    ResultStore::Entry entry;
    EXPECT_TRUE(ResultStore::deserialize(line, entry));

    // A numeric field decayed to a string must mark the line corrupt
    // rather than quietly parsing as zero.
    std::string bad = line;
    const auto pos = bad.find("\"flips\": 0");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 10, "\"flips\": \"0\"");
    EXPECT_FALSE(ResultStore::deserialize(bad, entry));
}

TEST(ResultStore, ResumeSkipsCompletedRuns)
{
    const std::string journal = tempPath("resume_skips.jsonl");
    removeFile(journal);

    std::atomic<unsigned> executions{0};
    Campaign campaign = countingCampaign(4, &executions);

    CampaignOptions options;
    options.threads = 2;
    options.journalPath = journal;
    std::vector<RunResult> first = campaign.run(options);
    EXPECT_EQ(executions.load(), 4u);

    // Same campaign again: everything is served from the journal.
    std::vector<RunResult> second = campaign.run(options);
    EXPECT_EQ(executions.load(), 4u);
    EXPECT_EQ(Campaign::toJson(first), Campaign::toJson(second));

    // resume = false truncates and reruns.
    options.resume = false;
    campaign.run(options);
    EXPECT_EQ(executions.load(), 8u);

    removeFile(journal);
}

TEST(ResultStore, ResumedReportIsByteIdenticalToUninterrupted)
{
    const std::string full = tempPath("uninterrupted.jsonl");
    const std::string partial = tempPath("interrupted.jsonl");
    removeFile(full);
    removeFile(partial);

    Campaign campaign = pthammerCampaign(6);

    // The uninterrupted reference, serial.
    CampaignOptions reference;
    reference.threads = 1;
    reference.journalPath = full;
    std::string uninterrupted =
        Campaign::toJson(campaign.run(reference));

    // Simulate a campaign killed after three runs: keep the first
    // three journal lines only.
    std::istringstream journal(readFile(full));
    std::ofstream truncated(partial);
    std::string line;
    for (int i = 0; i < 3 && std::getline(journal, line); ++i)
        truncated << line << '\n';
    truncated.close();

    // Resume from the partial journal, parallel this time.
    CampaignOptions resumed;
    resumed.threads = 4;
    resumed.journalPath = partial;
    std::string resumedReport =
        Campaign::toJson(campaign.run(resumed));

    EXPECT_EQ(uninterrupted, resumedReport);

    // The journal now holds all six runs: one more resume executes
    // nothing and still matches (journal load path end-to-end).
    std::string again = Campaign::toJson(campaign.run(resumed));
    EXPECT_EQ(uninterrupted, again);

    removeFile(full);
    removeFile(partial);
}

TEST(ResultStore, CorruptJournalLinesAreSkippedAndRecovered)
{
    const std::string journal = tempPath("corrupt.jsonl");
    removeFile(journal);

    std::atomic<unsigned> executions{0};
    Campaign campaign = countingCampaign(3, &executions);

    CampaignOptions options;
    options.threads = 1;
    options.journalPath = journal;
    std::string clean = Campaign::toJson(campaign.run(options));
    EXPECT_EQ(executions.load(), 3u);

    // Vandalize the journal: truncate the last line mid-write (the
    // kill-mid-write artifact) and add plain garbage.
    std::istringstream lines(readFile(journal));
    std::vector<std::string> kept;
    std::string line;
    while (std::getline(lines, line))
        kept.push_back(line);
    ASSERT_EQ(kept.size(), 3u);
    {
        std::ofstream out(journal, std::ios::trunc);
        out << kept[0] << '\n';
        out << "not json at all\n";
        out << kept[1] << '\n';
        out << kept[2].substr(0, kept[2].size() / 2); // torn write
    }

    // Resume: runs 0 and 1 come from the journal, run 2 re-executes.
    std::string recovered = Campaign::toJson(campaign.run(options));
    EXPECT_EQ(executions.load(), 4u);
    EXPECT_EQ(clean, recovered);

    // The resume compacted the journal: the torn and garbage lines
    // are gone, so later reads no longer warn about them.
    std::size_t corrupt = 99;
    EXPECT_EQ(ResultStore::load(journal, &corrupt).size(), 3u);
    EXPECT_EQ(corrupt, 0u);

    removeFile(journal);
}

TEST(ResultStore, ChangedSpecInvalidatesJournalEntry)
{
    const std::string journal = tempPath("spec_change.jsonl");
    removeFile(journal);

    std::atomic<unsigned> executions{0};
    Campaign campaign = countingCampaign(2, &executions);

    CampaignOptions options;
    options.journalPath = journal;
    campaign.run(options);
    EXPECT_EQ(executions.load(), 2u);

    // Same labels/indices, different seeds: the stored key no longer
    // matches, so both runs execute again.
    Campaign changed;
    for (unsigned i = 0; i < 2; ++i) {
        RunSpec spec;
        spec.label = strfmt("run%u", i);
        spec.preset = MachinePreset::TestSmall;
        spec.seed = 90 + i;
        spec.body = [&executions](Machine &, const AttackConfig &,
                                  RunResult &res) {
            ++executions;
            res.flips = res.seed;
        };
        changed.add(spec);
    }
    std::vector<RunResult> results = changed.run(options);
    EXPECT_EQ(executions.load(), 4u);
    EXPECT_EQ(results[0].flips, 90u);

    removeFile(journal);
}

TEST(ResultStore, FailedRunsAreJournaledButReExecuted)
{
    const std::string journal = tempPath("failed_rerun.jsonl");
    removeFile(journal);

    std::atomic<unsigned> executions{0};
    Campaign campaign;
    RunSpec bad;
    bad.label = "bad";
    bad.preset = MachinePreset::TestSmall;
    bad.body = [&executions](Machine &, const AttackConfig &,
                             RunResult &) {
        ++executions;
        throw std::runtime_error("deterministic boom");
    };
    campaign.add(bad);

    CampaignOptions options;
    options.journalPath = journal;
    std::vector<RunResult> first = campaign.run(options);
    EXPECT_FALSE(first[0].ok);
    EXPECT_EQ(executions.load(), 1u);

    // The failure is journaled (for the record)...
    auto loaded = ResultStore::load(journal);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_FALSE(loaded.begin()->second.result.ok);
    EXPECT_EQ(loaded.begin()->second.result.error,
              "deterministic boom");

    // ...but a resume retries it rather than pinning the failure.
    campaign.run(options);
    EXPECT_EQ(executions.load(), 2u);

    removeFile(journal);
}

} // namespace
} // namespace pth
