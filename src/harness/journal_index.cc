#include "harness/journal_index.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/json.hh"
#include "common/table.hh"
#include "harness/result_store.hh"

namespace pth
{

const char *
runAxisName(RunAxis axis)
{
    switch (axis) {
    case RunAxis::Label: return "label";
    case RunAxis::Machine: return "machine";
    case RunAxis::Defense: return "defense";
    case RunAxis::Strategy: return "strategy";
    case RunAxis::Seed: return "seed";
    case RunAxis::DramModel: return "dram-model";
    }
    return "?";
}

bool
parseRunAxis(const std::string &text, RunAxis &out)
{
    if (text == "label") {
        out = RunAxis::Label;
    } else if (text == "machine" || text == "preset") {
        out = RunAxis::Machine;
    } else if (text == "defense") {
        out = RunAxis::Defense;
    } else if (text == "strategy") {
        out = RunAxis::Strategy;
    } else if (text == "seed") {
        out = RunAxis::Seed;
    } else if (text == "dram-model" || text == "dram_model" ||
               text == "model") {
        out = RunAxis::DramModel;
    } else {
        return false;
    }
    return true;
}

std::string
axisValue(const RunResult &run, RunAxis axis)
{
    switch (axis) {
    case RunAxis::Label: return run.label;
    case RunAxis::Machine: return run.machine;
    case RunAxis::Defense: return run.defense;
    case RunAxis::Strategy: return run.strategy;
    case RunAxis::Seed:
        return strfmt("%llu", static_cast<unsigned long long>(run.seed));
    case RunAxis::DramModel:
        return run.dramModel.empty() ? "unrecorded" : run.dramModel;
    }
    return std::string();
}

namespace
{

/** The "runs" array of a campaign JSON report held in text, or null
 * when text is not one (a journal, or not JSON at all). */
const JsonValue *
reportRuns(const std::string &text, JsonValue &doc)
{
    if (!JsonValue::parse(text, doc) || !doc.isObject())
        return nullptr;
    return doc.find("runs");
}

/** Whole file as text; false when it cannot be opened. */
bool
readText(const std::string &path, std::string &text)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
    return true;
}

} // namespace

bool
isCampaignReport(const std::string &path)
{
    std::string text;
    JsonValue doc;
    return readText(path, text) && reportRuns(text, doc);
}

bool
JournalIndex::addArtifact(const std::string &path, std::string *error)
{
    std::string text;
    if (!readText(path, text)) {
        if (error)
            *error = "cannot read " + path;
        return false;
    }

    JsonValue doc;
    if (const JsonValue *runs = reportRuns(text, doc)) {
        ++stats_.reports;
        std::size_t loaded = 0;
        for (const JsonValue &obj : runs->items()) {
            ResultStore::Entry entry;
            if (!ResultStore::deserializeReportRun(obj, entry.result)) {
                ++stats_.corruptLines;
                continue;
            }
            ResultStore::fold(std::move(entry), entries_, stats_);
            ++loaded;
        }
        if (loaded == 0) {
            if (error)
                *error = path + ": campaign report contains no runs";
            return false;
        }
        return true;
    }

    // Not a report: journal lines, folded from the text already read.
    ++stats_.inputs;
    std::istringstream lines(text);
    if (ResultStore::fold(lines, entries_, stats_) == 0) {
        if (error)
            *error =
                path + ": neither a campaign report nor a journal";
        return false;
    }
    return true;
}

bool
JournalIndex::parseFilter(const std::string &text, Filter &out,
                          std::string *error)
{
    const std::size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0) {
        if (error)
            *error = "bad filter '" + text + "' (use AXIS=VALUE)";
        return false;
    }
    const std::string axis = text.substr(0, eq);
    if (!parseRunAxis(axis, out.axis)) {
        if (error)
            *error = "unknown axis '" + axis +
                     "' (use label, machine, defense, strategy,"
                     " seed or dram-model)";
        return false;
    }
    out.value = text.substr(eq + 1);
    return true;
}

std::vector<const RunResult *>
JournalIndex::select(const std::vector<Filter> &filters) const
{
    std::vector<const RunResult *> out;
    for (const auto &item : entries_) {
        const RunResult &run = item.second.result;
        bool match = true;
        for (const Filter &f : filters)
            if (axisValue(run, f.axis) != f.value) {
                match = false;
                break;
            }
        if (match)
            out.push_back(&run);
    }
    return out;
}

std::vector<JournalIndex::Group>
JournalIndex::groupBy(const std::vector<const RunResult *> &runs,
                      RunAxis axis)
{
    std::map<std::string, CampaignAggregate> groups;
    for (const RunResult *run : runs)
        groups[axisValue(*run, axis)].add(*run);

    std::vector<Group> out;
    out.reserve(groups.size());
    for (auto &item : groups)
        out.push_back(Group{item.first, item.second});
    if (axis == RunAxis::Seed)
        std::sort(out.begin(), out.end(),
                  [](const Group &a, const Group &b) {
                      return std::strtoull(a.value.c_str(), nullptr,
                                           10) <
                             std::strtoull(b.value.c_str(), nullptr,
                                           10);
                  });
    return out;
}

Table
JournalIndex::groupTable(const std::vector<Group> &groups,
                         RunAxis axis)
{
    Table table({runAxisName(axis), "Runs", "Failed", "Flipped",
                 "Escalated", "Flips", "Mean sim s",
                 "Mean time-to-flip"});
    for (const Group &group : groups) {
        const CampaignAggregate &agg = group.agg;
        table.addRow(
            {group.value,
             strfmt("%llu", static_cast<unsigned long long>(agg.runs)),
             strfmt("%llu",
                    static_cast<unsigned long long>(agg.failedRuns)),
             strfmt("%llu",
                    static_cast<unsigned long long>(agg.flippedRuns)),
             strfmt("%llu", static_cast<unsigned long long>(
                                agg.escalatedRuns)),
             strfmt("%llu",
                    static_cast<unsigned long long>(agg.totalFlips)),
             strfmt("%.4g", agg.simSeconds.mean()),
             agg.timeToFlipMinutes.count()
                 ? strfmt("%.2f m", agg.timeToFlipMinutes.mean())
                 : "-"});
    }
    return table;
}

Table
JournalIndex::runTable(const std::vector<const RunResult *> &runs)
{
    Table table({"Run", "Machine", "Defense", "Strategy", "Dram",
                 "Seed", "Ok", "Flips", "Escalated", "Sim s"});
    for (const RunResult *run : runs)
        table.addRow(
            {run->label, run->machine, run->defense, run->strategy,
             axisValue(*run, RunAxis::DramModel),
             strfmt("%llu", static_cast<unsigned long long>(run->seed)),
             run->ok ? "yes" : "FAILED",
             strfmt("%llu",
                    static_cast<unsigned long long>(run->flips)),
             run->escalated ? "YES" : "no",
             strfmt("%.4g", run->simSeconds)});
    return table;
}

bool
sameReportValue(double a, double b)
{
    if (a == b)
        return true;
    const double scale = std::max(std::fabs(a), std::fabs(b));
    return std::fabs(a - b) <= 1e-8 * scale;
}

namespace
{

bool
sameMetrics(const std::vector<std::pair<std::string, double>> &a,
            const std::vector<std::pair<std::string, double>> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].first != b[i].first ||
            !sameReportValue(a[i].second, b[i].second))
            return false;
    return true;
}

/** Labels appearing more than once across both run sets. */
std::set<std::string>
duplicatedLabels(const std::vector<const RunResult *> &a,
                 const std::vector<const RunResult *> &b)
{
    std::map<std::string, unsigned> uses;
    for (const RunResult *run : a)
        ++uses[run->label];
    for (const RunResult *run : b)
        ++uses[run->label];
    std::set<std::string> duplicated;
    for (const auto &item : uses)
        if (item.second > 1)
            duplicated.insert(item.first);
    return duplicated;
}

/**
 * Key runs by label, appending the index for labels duplicated in
 * either artifact — both sides must disambiguate the same way or a
 * label that repeats on one side only would never match the other.
 */
std::map<std::string, const RunResult *>
keyByLabel(const std::vector<const RunResult *> &runs,
           const std::set<std::string> &duplicated)
{
    std::map<std::string, const RunResult *> keyed;
    for (const RunResult *run : runs) {
        std::string key =
            duplicated.count(run->label)
                ? run->label + strfmt("#%zu", run->index)
                : run->label;
        keyed[key] = run;
    }
    return keyed;
}

std::string
deltaCell(double base, double current)
{
    if (sameReportValue(base, current))
        return "=";
    const double delta = current - base;
    if (base != 0)
        return strfmt("%+.3g (%+.1f%%)", delta,
                      100.0 * delta / base);
    return strfmt("%+.3g", delta);
}

} // namespace

RunDiff
diffRuns(const std::vector<const RunResult *> &baseline,
         const std::vector<const RunResult *> &current,
         const RunDiffOptions &options)
{
    RunDiff diff;
    const std::set<std::string> duplicated =
        duplicatedLabels(baseline, current);
    auto baseByLabel = keyByLabel(baseline, duplicated);
    auto curByLabel = keyByLabel(current, duplicated);

    for (const auto &item : baseByLabel) {
        const RunResult &b = *item.second;
        RunDelta delta;
        delta.name = item.first;
        delta.base = &b;

        auto match = curByLabel.find(item.first);
        if (match == curByLabel.end()) {
            ++diff.removed;
            delta.status = RunDeltaStatus::Removed;
            diff.deltas.push_back(std::move(delta));
            continue;
        }
        const RunResult &c = *match->second;
        delta.current = &c;

        const bool worseOk = b.ok && !c.ok;
        const bool worseFlip = b.flipped && !c.flipped;
        const bool worseEsc = b.escalated && !c.escalated;
        const bool fewerFlips = c.flips < b.flips;
        const bool slower =
            b.simSeconds > 0 &&
            c.simSeconds >
                b.simSeconds * (1.0 + options.tolerancePct / 100.0);

        const bool identical =
            b.ok == c.ok && b.flipped == c.flipped &&
            b.escalated == c.escalated && b.flips == c.flips &&
            b.attempts == c.attempts &&
            sameReportValue(b.simSeconds, c.simSeconds) &&
            sameReportValue(b.report.timeToFirstFlipMinutes,
                            c.report.timeToFirstFlipMinutes) &&
            sameMetrics(b.metrics, c.metrics);

        if (worseOk || worseFlip || worseEsc || fewerFlips || slower) {
            ++diff.regressions;
            delta.status = RunDeltaStatus::Regressed;
            delta.detail = worseOk       ? "now fails"
                           : worseFlip   ? "no flip"
                           : worseEsc    ? "no escalation"
                           : fewerFlips  ? "fewer flips"
                                         : "slower";
        } else if (identical) {
            ++diff.unchanged;
            delta.status = RunDeltaStatus::Unchanged;
        } else {
            ++diff.changed;
            delta.status = RunDeltaStatus::Changed;
        }
        diff.deltas.push_back(std::move(delta));
    }

    for (const auto &item : curByLabel) {
        if (baseByLabel.count(item.first))
            continue;
        ++diff.added;
        RunDelta delta;
        delta.name = item.first;
        delta.current = item.second;
        delta.status = RunDeltaStatus::Added;
        diff.deltas.push_back(std::move(delta));
    }
    return diff;
}

Table
diffTable(const RunDiff &diff, bool showAll)
{
    Table table({"Run", "Flips (base -> cur)", "Sim seconds delta",
                 "Time-to-flip delta", "Status"});
    for (const RunDelta &delta : diff.deltas) {
        switch (delta.status) {
        case RunDeltaStatus::Removed:
            table.addRow({delta.name, "-", "-", "-", "REMOVED"});
            continue;
        case RunDeltaStatus::Added:
            table.addRow({delta.name, "-", "-", "-", "ADDED"});
            continue;
        case RunDeltaStatus::Unchanged:
            if (!showAll)
                continue;
            break;
        default:
            break;
        }
        const RunResult &b = *delta.base;
        const RunResult &c = *delta.current;
        std::string status;
        switch (delta.status) {
        case RunDeltaStatus::Regressed:
            status = "REGRESSION (" + delta.detail + ")";
            break;
        case RunDeltaStatus::Changed:
            status = "changed";
            break;
        default:
            status = "unchanged";
            break;
        }
        table.addRow(
            {delta.name,
             strfmt("%llu -> %llu",
                    static_cast<unsigned long long>(b.flips),
                    static_cast<unsigned long long>(c.flips)),
             deltaCell(b.simSeconds, c.simSeconds),
             deltaCell(b.report.timeToFirstFlipMinutes,
                       c.report.timeToFirstFlipMinutes),
             status});
    }
    return table;
}

} // namespace pth
