/**
 * @file
 * Host-time benchmark of the PThammer simulator.
 *
 *   hostbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--scale paper|tiny] [--pins FILE] [--trace-out FILE]
 *
 * --trace 0 runs the workload's campaign on a fixed worker pool for
 * about S seconds (after timing each distinct set-up alone) and prints
 * the end-to-end metrics. --trace 1 runs the campaign once untraced,
 * replays it traced (replay.hh), runs the per-call cases (micro.hh),
 * writes a Chrome trace and prints the per-layer metrics. Both check
 * the simulated output: every run must complete; repeated rounds must
 * give the same report; the traced replay must reproduce the untraced
 * run field for field and the machine fingerprint after preparation;
 * and for a workload's pinned seed the report digest and aggregate
 * fingerprint must equal the pins. The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. The exit code
 * is 0 only when the output is correct.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "micro.hh"
#include "replay.hh"
#include "trace.hh"
#include "workloads.hh"

namespace
{

using namespace hostbench;
using pth::Campaign;
using pth::RunResult;

/** Worker threads of every campaign and replay. */
constexpr unsigned kMaxWorkers = 4;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    Scale scale = Scale::Paper;
    std::string pinsPath;
    std::string traceOut;
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** The expected digests of one workload at its pinned seed. */
struct Pin
{
    bool present = false;
    std::uint64_t seed = 0;
    std::uint64_t reportDigest = 0;
    std::uint64_t aggregateFingerprint = 0;
};

[[noreturn]] void
usage(const char *argv0, const char *problem)
{
    std::fprintf(stderr,
                 "%s: %s\nusage: %s --workload NAME --seed N --seconds S"
                 " --trace 0|1 [--scale paper|tiny] [--pins FILE]"
                 " [--trace-out FILE]\n",
                 argv0, problem, argv0);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(argv[0], ("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end || value.empty() || value[0] == '-')
                usage(argv[0], "--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (*end || !(o.seconds > 0))
                usage(argv[0], "--seconds takes a positive number");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage(argv[0], "--trace takes 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--scale") {
            if (value != "paper" && value != "tiny")
                usage(argv[0], "--scale takes paper or tiny");
            o.scale = value == "tiny" ? Scale::Tiny : Scale::Paper;
        } else if (flag == "--pins") {
            o.pinsPath = value;
        } else if (flag == "--trace-out") {
            o.traceOut = value;
        } else {
            usage(argv[0], ("unknown flag " + flag).c_str());
        }
    }
    return o;
}

/** FNV-1a, 64 bit. */
std::uint64_t
digest(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Read the pin of (scale, workload); a missing file is an error. */
bool
loadPin(const Options &o, Pin &pin)
{
    if (o.pinsPath.empty())
        return true;
    std::ifstream in(o.pinsPath);
    std::stringstream text;
    text << in.rdbuf();
    pth::JsonValue root;
    if (!in || !pth::JsonValue::parse(text.str(), root) ||
        !root.isObject())
        return false;
    const pth::JsonValue *byScale =
        root.find(o.scale == Scale::Paper ? "paper" : "tiny");
    const pth::JsonValue *entry =
        byScale ? byScale->find(o.workload) : nullptr;
    if (!entry)
        return true;
    const pth::JsonValue *seed = entry->find("seed");
    const pth::JsonValue *report = entry->find("report_digest");
    const pth::JsonValue *aggregate =
        entry->find("aggregate_fingerprint");
    if (!seed || !report || !aggregate || !report->isString() ||
        !aggregate->isString())
        return false;
    pin.present = true;
    pin.seed = seed->asU64();
    pin.reportDigest =
        std::strtoull(report->asString().c_str(), nullptr, 16);
    pin.aggregateFingerprint =
        std::strtoull(aggregate->asString().c_str(), nullptr, 16);
    return true;
}

double
seconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
ratio(std::uint64_t part, std::uint64_t whole)
{
    return whole ? static_cast<double>(part) / static_cast<double>(whole)
                 : 0.0;
}

/** The workload's outcome checks shared by both modes. */
struct Verdict
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Count runs that did not complete. */
void
countFailedRuns(const std::vector<RunResult> &results, Verdict &v)
{
    v.attempted += results.size();
    for (const RunResult &r : results) {
        if (!r.ok) {
            ++v.failed;
            std::printf("run %zu (%s) failed: %s\n", r.index,
                        r.label.c_str(), r.error.c_str());
        }
    }
}

/** Compare the first round against the pin; true when it holds. */
bool
checkPin(const Options &o, const Pin &pin,
         const std::vector<RunResult> &results)
{
    const std::uint64_t report = digest(Campaign::toJson(results));
    const std::uint64_t aggregate =
        Campaign::aggregate(results).fingerprint();
    std::printf("report_digest %016" PRIx64
                " aggregate_fingerprint %016" PRIx64 "\n",
                report, aggregate);
    if (!pin.present || pin.seed != o.seed) {
        std::printf("pin: none for this seed\n");
        return true;
    }
    const bool holds = report == pin.reportDigest &&
                       aggregate == pin.aggregateFingerprint;
    std::printf("pin: %s (expected %016" PRIx64 " %016" PRIx64 ")\n",
                holds ? "matches" : "MISMATCH", pin.reportDigest,
                pin.aggregateFingerprint);
    return holds;
}

/** The simulated Table II cells of one run (reported, not gated). */
void
printTable2Cells(const pth::AttackReport &r)
{
    std::printf("  table II: prep TLB %.0f ms, prep LLC %.2f m, sel TLB"
                " %.0f us, sel LLC %.0f ms, hammer %.0f ms, check %.1f s\n",
                r.tlbPrepMs, r.llcPrepMinutes, r.tlbSelectMicros,
                r.llcSelectMs, r.hammerMs, r.checkSeconds);
}

void
printResult(const Verdict &v, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    std::string json = v.failed == 0 ? "{\"correct\": true"
                                     : "{\"correct\": false";
    json += ", \"attempted\": " + std::to_string(v.attempted) +
            ", \"failed\": " + std::to_string(v.failed) +
            ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            json += ", ";
        json += "\"" + metrics[i].name +
                "\": {\"value\": " + pth::jsonDouble(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

pth::CampaignOptions
campaignOptions(unsigned workers)
{
    pth::CampaignOptions options;
    options.threads = workers;
    return options;
}

/** --trace 0: campaign rounds for the budget, set-up samples between. */
int
runEndToEnd(const Options &o, const Campaign &campaign, const Pin &pin,
            unsigned workers)
{
    const auto start = std::chrono::steady_clock::now();
    const std::vector<pth::RunSpec> &specs = campaign.specs();

    // Set-up samples, taken with no other run in flight and cycling
    // through the distinct configs between rounds, so that they span
    // the same stretch of time as the rounds: at least one before every
    // round, more while set-up has had under a fifth of the time.
    const std::vector<std::size_t> setups = distinctSetups(campaign);
    std::vector<std::vector<double>> setupSamples(setups.size());
    std::size_t setupCount = 0;
    double setupSpent = 0;
    auto sampleSetup = [&] {
        const std::size_t k = setupCount++ % setups.size();
        const auto sampleStart = std::chrono::steady_clock::now();
        setupSamples[k].push_back(
            runSetup(specs[setups[k]], false).seconds);
        setupSpent += seconds(sampleStart);
    };

    Verdict v;
    std::vector<double> walls, works, runTimes;
    std::vector<std::vector<double>> perRun(specs.size());
    std::uint64_t firstReport = 0;
    bool pinHolds = true;
    for (unsigned round = 0;
         round < 2 || seconds(start) < o.seconds; ++round) {
        do
            sampleSetup();
        while (setupSpent < 0.2 * seconds(start));
        const auto roundStart = std::chrono::steady_clock::now();
        std::vector<RunResult> results =
            campaign.run(campaignOptions(workers));
        walls.push_back(seconds(roundStart));
        double work = 0, slowest = 0;
        for (const RunResult &r : results) {
            work += r.wallSeconds;
            slowest = std::max(slowest, r.wallSeconds);
            runTimes.push_back(r.wallSeconds);
            perRun[r.index].push_back(r.wallSeconds);
        }
        works.push_back(work);
        countFailedRuns(results, v);

        const std::uint64_t report = digest(Campaign::toJson(results));
        if (round == 0) {
            for (const RunResult &r : results) {
                std::printf("run %zu %-24s attempts %u flips %" PRIu64
                            " sim %.1f s host %.3f s\n",
                            r.index, r.label.c_str(), r.attempts, r.flips,
                            r.simSeconds, r.wallSeconds);
                if (r.strategy == "pthammer")
                    printTable2Cells(r.report);
            }
            firstReport = report;
            pinHolds = checkPin(o, pin, results);
        } else if (report != firstReport) {
            std::printf("round %u report differs from round 0\n", round);
            v.failed += results.size();
        }
        std::printf("round %u wall %.3f s work %.3f s slowest %.3f s\n",
                    round, walls.back(), work, slowest);
    }
    if (!pinHolds)
        v.failed = v.attempted;
    while (setupCount < setups.size())
        sampleSetup();
    std::vector<double> setupMedians;
    for (const auto &samples : setupSamples)
        setupMedians.push_back(pth::median(samples));

    const double wall = pth::median(walls);
    const double work = pth::median(works);
    // The straggler: the run whose median over rounds is the largest.
    double straggler = 0;
    for (const auto &times : perRun)
        straggler = std::max(straggler, pth::median(times));
    std::printf("workload %s seed %" PRIu64 ": %zu runs x %zu rounds,"
                " %u workers, %zu set-up samples of %zu configs\n",
                o.workload.c_str(), o.seed, specs.size(), walls.size(),
                workers, setupCount, setups.size());
    std::printf("%-28s %.6g ratio\n", "failed_run_ratio",
                ratio(v.failed, v.attempted));
    std::printf("%-28s %.6g ratio\n", "harness.pool_util",
                work / (wall * workers));
    printResult(v, {{"wall_s", wall, "s"},
                    {"host_work_s", work, "s"},
                    {"run_s_p50", pth::median(runTimes), "s"},
                    {"run_s_max", straggler, "s"},
                    {"setup_s", pth::median(setupMedians), "s"},
                    {"peak_rss_mib", peakRssMib(), "MiB"}});
    return v.failed ? 1 : 0;
}

/** --trace 1: untraced round, traced replay, per-call cases. */
int
runTraced(const Options &o, const Campaign &campaign, const Pin &pin,
          unsigned workers)
{
    const std::vector<pth::RunSpec> &specs = campaign.specs();
    Verdict v;

    const auto roundStart = std::chrono::steady_clock::now();
    std::vector<RunResult> untraced = campaign.run(campaignOptions(workers));
    const double wall = seconds(roundStart);
    double work = 0;
    for (const RunResult &r : untraced)
        work += r.wallSeconds;
    countFailedRuns(untraced, v);
    const bool pinHolds = checkPin(o, pin, untraced);

    // Reference fingerprints: PThammerAttack::prepare() on a cold
    // machine, for the first run of every distinct set-up.
    const std::vector<std::size_t> setups = distinctSetups(campaign);
    std::vector<std::uint64_t> reference(setups.size());
    {
        pth::ThreadPool pool(workers);
        std::vector<std::future<std::uint64_t>> futures;
        for (std::size_t k : setups)
            futures.push_back(pool.submit([&specs, k] {
                return runSetup(specs[k], true).fingerprint;
            }));
        for (std::size_t k = 0; k < setups.size(); ++k)
            reference[k] = futures[k].get();
    }

    ReplayResult replay = replayTraced(campaign, workers, setups);
    countFailedRuns(replay.results, v);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (Campaign::toJson({untraced[i]}) !=
            Campaign::toJson({replay.results[i]})) {
            std::printf("run %zu (%s): traced result differs from the"
                        " untraced run\n",
                        i, specs[i].label.c_str());
            ++v.failed;
        }
    }
    for (std::size_t k = 0; k < setups.size(); ++k) {
        if (replay.prepareFingerprints[setups[k]] != reference[k]) {
            std::printf("run %zu (%s): fingerprint after the traced"
                        " preparation differs from prepare()'s\n",
                        setups[k], specs[setups[k]].label.c_str());
            ++v.failed;
        }
    }
    if (!pinHolds)
        v.failed = v.attempted;

    const TraceSummary s = summarize(replay.traces);
    if (!s.nested) {
        std::printf("trace: spans do not nest\n");
        ++v.failed;
    }
    // Fingerprinting is verification, not tracing: leave it out of the
    // traced work that the overhead compares.
    double tracedWork = 0;
    if (s.seconds.count("harness.run"))
        tracedWork = s.seconds.at("harness.run");
    if (s.seconds.count("verify.fingerprint"))
        tracedWork -= s.seconds.at("verify.fingerprint");

    std::vector<Metric> metrics;
    auto spanSeconds = [&s](const char *span) {
        auto it = s.seconds.find(span);
        return it == s.seconds.end() ? 0.0 : it->second;
    };
    auto selfSeconds = [&s](const char *layer) {
        auto it = s.selfSeconds.find(layer);
        return it == s.selfSeconds.end() ? 0.0 : it->second;
    };
    const char *spans[][2] = {
        {"attack.spray_s", "attack.spray"},
        {"attack.tlb_prep_s", "attack.tlb_prep"},
        {"attack.pool_build_s", "attack.pool_build"},
        {"attack.select_s", "attack.select"},
        {"attack.hammer_s", "attack.hammer"},
        {"attack.check_s", "attack.check"},
        {"cpu.boot_s", "cpu.boot"},
        {"cpu.fork_s", "cpu.fork"}};
    for (const auto &span : spans)
        metrics.push_back({span[0], spanSeconds(span[1]), "s"});
    const auto calls = s.calls.find("attack.select");
    metrics.push_back(
        {"attack.select_calls",
         calls == s.calls.end() ? 0.0 : static_cast<double>(calls->second),
         "count"});
    for (const char *layer : {"harness", "cpu", "kernel", "attack"})
        metrics.push_back(
            {std::string(layer) + ".self_s", selfSeconds(layer), "s"});
    metrics.push_back({"harness.pool_util", work / (wall * workers),
                       "ratio"});
    metrics.push_back({"harness.trace_overhead",
                       work > 0 ? tracedWork / work - 1 : 0.0, "ratio"});
    metrics.push_back({"harness.span_coverage", s.minCoverage, "ratio"});

    const Counters &c = s.totals;
    metrics.push_back({"dram.acts", static_cast<double>(c.dramActs),
                       "count"});
    metrics.push_back({"dram.row_hit_ratio",
                       ratio(c.dramRowHits, c.dramRowHits + c.dramActs),
                       "ratio"});
    metrics.push_back({"dram.flips", static_cast<double>(c.dramFlips),
                       "count"});
    metrics.push_back({"cache.l1.miss_ratio",
                       ratio(c.l1Misses, c.l1Hits + c.l1Misses), "ratio"});
    metrics.push_back({"cache.l2.miss_ratio",
                       ratio(c.l2Misses, c.l2Hits + c.l2Misses), "ratio"});
    metrics.push_back({"cache.llc.misses",
                       static_cast<double>(c.llcMisses), "count"});
    metrics.push_back({"cache.llc.miss_ratio",
                       ratio(c.llcMisses, c.llcHits + c.llcMisses),
                       "ratio"});
    metrics.push_back({"tlb.lookups", static_cast<double>(c.tlbLookups),
                       "count"});
    metrics.push_back({"tlb.walk_ratio", ratio(c.tlbWalks, c.tlbLookups),
                       "ratio"});
    metrics.push_back({"paging.walks", static_cast<double>(c.pagingWalks),
                       "count"});
    metrics.push_back({"paging.psc_start_ratio",
                       ratio(c.pscStarts, c.pagingWalks), "ratio"});

    for (const MicroResult &m : runMicroCases(o.scale))
        metrics.push_back({m.name, m.value, m.unit});

    if (!o.traceOut.empty()) {
        if (writeChromeTrace(replay.traces, o.traceOut))
            std::printf("trace: %s\n", o.traceOut.c_str());
        else
            std::printf("trace: could not write %s\n", o.traceOut.c_str());
    }
    std::printf("workload %s seed %" PRIu64 ": %zu runs untraced + %zu"
                " traced, %u workers; untraced work %.3f s, traced %.3f s"
                "\n",
                o.workload.c_str(), o.seed, specs.size(), specs.size(),
                workers, work, tracedWork);
    printResult(v, metrics);
    return v.failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    Pin pin;
    if (!loadPin(o, pin)) {
        std::fprintf(stderr, "%s: cannot read pins from %s\n", argv[0],
                     o.pinsPath.c_str());
        return 2;
    }
    Campaign campaign;
    if (!buildWorkload(o.workload, o.seed, o.scale, campaign))
        usage(argv[0], ("unknown workload '" + o.workload + "'").c_str());
    const unsigned workers = std::clamp(
        std::thread::hardware_concurrency(), 1u, kMaxWorkers);
    return o.trace ? runTraced(o, campaign, pin, workers)
                   : runEndToEnd(o, campaign, pin, workers);
}
