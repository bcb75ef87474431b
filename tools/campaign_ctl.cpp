/**
 * @file
 * campaign_ctl: orchestrate a manifest of sharded campaigns.
 *
 * Reads a JSON manifest naming campaigns (bench binary + args +
 * shard count each), dispatches every shard as a subprocess over a
 * bounded worker pool, respawns dead workers from their journal
 * checkpoints, merges each campaign's shard journals and renders its
 * final JSON report — which is byte-identical to what a serial
 * `program args --json=...` run would have written.
 *
 *   campaign_ctl MANIFEST [--workers N] [--out DIR] [--fresh]
 *                [--max-respawns N] [--inject-kill NAME/SHARD]
 *                [--quiet]
 *
 * A campaign without explicit journal/report paths gets
 * "<out>/<name>.jsonl" and "<out>/<name>.json". Numeric values must be
 * whole decimal integers (common/parse.hh).
 *
 * Exit status: the number of failed campaigns (0 = all good, 2 on
 * usage or manifest errors), so the tool drops straight into CI.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include <sys/stat.h>

#include "common/parse.hh"
#include "common/table.hh"
#include "harness/campaign_ctl.hh"

using namespace pth;

int
main(int argc, char **argv)
{
    const char *usage =
        "usage: campaign_ctl MANIFEST [--workers N] [--out DIR]\n"
        "                    [--fresh] [--max-respawns N]\n"
        "                    [--inject-kill NAME/SHARD] [--quiet]\n"
        "  MANIFEST        JSON manifest: {\"campaigns\": [{\"name\","
        " \"program\", \"args\", \"shards\", ...}]}\n"
        "  --workers N     worker pool width (default 2; 0 = one per"
        " core)\n"
        "  --out DIR       directory for derived journals/reports"
        " (default .)\n"
        "  --fresh         discard existing journals; rerun"
        " everything\n"
        "  --max-respawns N  extra attempts for a dead worker"
        " (default 2)\n"
        "  --inject-kill NAME/SHARD  SIGKILL that shard's first"
        " attempt right after spawn (fault-injection hook;"
        " repeatable)\n"
        "  --quiet         suppress the dispatch log\n";

    std::string manifestPath;
    std::string outDir = ".";
    CampaignCtlOptions options;
    options.log = &std::cout;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        // "--flag=VALUE" or "--flag VALUE"; a following token that is
        // itself a flag is not a value, so "--out --fresh" is a
        // missing value rather than a directory named "--fresh".
        auto value = [&](const char *flag) -> const char * {
            const std::size_t n = std::strlen(flag);
            if (!std::strncmp(arg, flag, n) && arg[n] == '=')
                return arg + n + 1;
            if (std::strcmp(arg, flag) != 0)
                return nullptr;
            if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2))
                return argv[++i];
            std::fprintf(stderr, "missing value for '%s'\n%s", flag,
                         usage);
            std::exit(2);
        };
        auto count = [&](const char *flag, const char *text,
                         unsigned &out) {
            if (parseCount(text, out))
                return;
            std::fprintf(stderr, "bad %s '%s' (need a count)\n", flag,
                         text);
            std::exit(2);
        };
        if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
            std::fputs(usage, stdout);
            return 0;
        } else if (!std::strcmp(arg, "--fresh")) {
            options.fresh = true;
        } else if (!std::strcmp(arg, "--quiet")) {
            options.log = nullptr;
        } else if (const char *workersArg = value("--workers")) {
            count("--workers", workersArg, options.workers);
        } else if (const char *outArg = value("--out")) {
            outDir = outArg;
        } else if (const char *respawnsArg = value("--max-respawns")) {
            count("--max-respawns", respawnsArg, options.maxRespawns);
        } else if (const char *v = value("--inject-kill")) {
            const char *slash = std::strrchr(v, '/');
            unsigned shard = 0;
            if (!slash || slash == v || !parseCount(slash + 1, shard)) {
                std::fprintf(stderr,
                             "bad --inject-kill '%s' (use"
                             " NAME/SHARD)\n",
                             v);
                return 2;
            }
            options.injectKills.emplace_back(
                std::string(v, slash - v), shard);
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "unknown argument '%s'\n%s", arg,
                         usage);
            return 2;
        } else if (manifestPath.empty()) {
            manifestPath = arg;
        } else {
            std::fprintf(stderr, "extra argument '%s'\n%s", arg,
                         usage);
            return 2;
        }
    }
    if (manifestPath.empty()) {
        std::fputs(usage, stderr);
        return 2;
    }

    Manifest manifest;
    std::string error;
    if (!Manifest::load(manifestPath, manifest, error)) {
        std::fprintf(stderr, "campaign_ctl: %s\n", error.c_str());
        return 2;
    }
    for (const auto &inject : options.injectKills) {
        bool known = false;
        for (const ManifestCampaign &campaign : manifest.campaigns)
            known |= campaign.name == inject.first &&
                     inject.second < campaign.shards;
        if (!known) {
            std::fprintf(stderr,
                         "campaign_ctl: --inject-kill %s/%u names no"
                         " shard of the manifest\n",
                         inject.first.c_str(), inject.second);
            return 2;
        }
    }

    // Derived artifact paths live under --out (created best-effort).
    for (ManifestCampaign &campaign : manifest.campaigns) {
        if (campaign.journal.empty())
            campaign.journal = outDir + "/" + campaign.name + ".jsonl";
        if (campaign.report.empty())
            campaign.report = outDir + "/" + campaign.name + ".json";
    }
    ::mkdir(outDir.c_str(), 0755);

    CampaignCtl ctl(std::move(manifest), std::move(options));
    const unsigned failures = ctl.run();

    Table table({"Campaign", "Status", "Spawns", "Runs", "Report"});
    for (const CampaignOutcome &outcome : ctl.outcomes()) {
        // Keep the table rectangular: full multi-line errors (log
        // tails) go to stderr below, the cell gets the first line.
        std::string cell =
            outcome.ok ? outcome.report : outcome.error;
        const std::size_t eol = cell.find('\n');
        if (eol != std::string::npos)
            cell.resize(eol);
        table.addRow({outcome.name, outcome.ok ? "ok" : "FAILED",
                      strfmt("%u", outcome.spawns),
                      strfmt("%zu", outcome.mergeStats.entries),
                      cell});
    }
    table.print();

    if (failures) {
        for (const CampaignOutcome &outcome : ctl.outcomes())
            if (!outcome.ok)
                std::fprintf(stderr, "campaign %s failed: %s\n",
                             outcome.name.c_str(),
                             outcome.error.c_str());
        std::fprintf(stderr, "campaign_ctl: %u of %zu campaign(s)"
                             " failed\n",
                     failures, ctl.outcomes().size());
    }
    return failures > 255 ? 255 : static_cast<int>(failures);
}
