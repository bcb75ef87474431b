#include "trace.hh"

#include <cstdio>
#include <utility>

#include "common/json.hh"
#include "cpu/machine.hh"

namespace hostbench
{

Counters
Counters::read(pth::Machine &machine)
{
    Counters c;
    pth::Dram &dram = machine.dram();
    c.dramActs = dram.totalActivations();
    c.dramRowHits = dram.totalRowHits();
    c.dramFlips = dram.totalFlips();
    pth::CacheHierarchy &caches = machine.caches();
    for (unsigned h = 0; h < machine.hartCount(); ++h) {
        c.l1Hits += caches.l1d(h).hits();
        c.l1Misses += caches.l1d(h).misses();
        const pth::PerfCounters &pmc = machine.mmu(h).counters();
        c.tlbLookups += pmc.tlbLookups;
        c.tlbWalks += pmc.dtlbLoadMissesWalk;
        c.pagingWalks += machine.mmu(h).walker().walks();
        c.pscStarts += machine.mmu(h).walker().pdeCacheStarts();
    }
    c.l2Hits = caches.l2().hits();
    c.l2Misses = caches.l2().misses();
    c.llcHits = caches.llc().hits();
    c.llcMisses = caches.llc().misses();
    return c;
}

std::vector<std::pair<const char *, std::uint64_t>>
Counters::fields() const
{
    return {{"dram.acts", dramActs},
            {"dram.row_hits", dramRowHits},
            {"dram.flips", dramFlips},
            {"cache.l1.hits", l1Hits},
            {"cache.l1.misses", l1Misses},
            {"cache.l2.hits", l2Hits},
            {"cache.l2.misses", l2Misses},
            {"cache.llc.hits", llcHits},
            {"cache.llc.misses", llcMisses},
            {"tlb.lookups", tlbLookups},
            {"tlb.walks", tlbWalks},
            {"paging.walks", pagingWalks},
            {"paging.psc_starts", pscStarts}};
}

Counters
Counters::operator-(const Counters &o) const
{
    Counters d;
    d.dramActs = dramActs - o.dramActs;
    d.dramRowHits = dramRowHits - o.dramRowHits;
    d.dramFlips = dramFlips - o.dramFlips;
    d.l1Hits = l1Hits - o.l1Hits;
    d.l1Misses = l1Misses - o.l1Misses;
    d.l2Hits = l2Hits - o.l2Hits;
    d.l2Misses = l2Misses - o.l2Misses;
    d.llcHits = llcHits - o.llcHits;
    d.llcMisses = llcMisses - o.llcMisses;
    d.tlbLookups = tlbLookups - o.tlbLookups;
    d.tlbWalks = tlbWalks - o.tlbWalks;
    d.pagingWalks = pagingWalks - o.pagingWalks;
    d.pscStarts = pscStarts - o.pscStarts;
    return d;
}

Counters &
Counters::operator+=(const Counters &o)
{
    dramActs += o.dramActs;
    dramRowHits += o.dramRowHits;
    dramFlips += o.dramFlips;
    l1Hits += o.l1Hits;
    l1Misses += o.l1Misses;
    l2Hits += o.l2Hits;
    l2Misses += o.l2Misses;
    llcHits += o.llcHits;
    llcMisses += o.llcMisses;
    tlbLookups += o.tlbLookups;
    tlbWalks += o.tlbWalks;
    pagingWalks += o.pagingWalks;
    pscStarts += o.pscStarts;
    return *this;
}

std::string
SpanRecord::layer() const
{
    return name.substr(0, name.find('.'));
}

RunTrace::RunTrace(std::size_t run, std::string label,
                   SteadyClock::time_point start)
    : runIndex(run), runLabel(std::move(label)), epoch(start)
{
}

void
RunTrace::attach(pth::Machine &m)
{
    machine = &m;
    inherited = Counters::read(m);
}

void
RunTrace::detach()
{
    frozen = counters();
    machine = nullptr;
}

Counters
RunTrace::counters() const
{
    return machine ? Counters::read(*machine) - inherited : frozen;
}

std::int64_t
RunTrace::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now() - epoch)
        .count();
}

int
RunTrace::open(const char *name)
{
    SpanRecord record;
    record.name = name;
    record.parent = stack.empty() ? -1 : stack.back();
    openCounters.push_back(counters());
    record.startNs = nowNs();
    records.push_back(std::move(record));
    const int index = static_cast<int>(records.size() - 1);
    stack.push_back(index);
    return index;
}

void
RunTrace::close(int index)
{
    SpanRecord &record = records[static_cast<std::size_t>(index)];
    record.endNs = nowNs();
    record.delta =
        counters() - openCounters[static_cast<std::size_t>(index)];
    stack.pop_back();
}

TraceSummary
summarize(const std::vector<RunTrace> &traces)
{
    TraceSummary summary;
    for (const RunTrace &trace : traces) {
        const std::vector<SpanRecord> &spans = trace.spans();
        std::vector<std::int64_t> childNs(spans.size(), 0);
        for (const SpanRecord &span : spans) {
            if (span.parent < 0) {
                summary.totals += span.delta;
                continue;
            }
            const SpanRecord &parent =
                spans[static_cast<std::size_t>(span.parent)];
            if (span.startNs < parent.startNs ||
                span.endNs > parent.endNs || span.endNs < span.startNs)
                summary.nested = false;
            childNs[static_cast<std::size_t>(span.parent)] +=
                span.durationNs();
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const SpanRecord &span = spans[i];
            const std::int64_t self = span.durationNs() - childNs[i];
            if (self < 0)
                summary.nested = false;
            summary.seconds[span.name] +=
                static_cast<double>(span.durationNs()) * 1e-9;
            ++summary.calls[span.name];
            summary.selfSeconds[span.layer()] +=
                static_cast<double>(self) * 1e-9;
            if (span.name == "harness.run" && span.durationNs() > 0) {
                const double coverage =
                    static_cast<double>(childNs[i]) /
                    static_cast<double>(span.durationNs());
                if (coverage < summary.minCoverage)
                    summary.minCoverage = coverage;
            }
        }
    }
    return summary;
}

bool
writeChromeTrace(const std::vector<RunTrace> &traces,
                 const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    auto sep = [&] {
        if (!first)
            std::fputs(",\n", f);
        first = false;
    };
    for (const RunTrace &trace : traces) {
        const std::size_t tid = trace.run() + 1;
        sep();
        std::fprintf(f,
                     "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                     "\"tid\":%zu,\"args\":{\"name\":\"run %zu %s\"}}",
                     tid, trace.run(),
                     pth::jsonEscape(trace.label()).c_str());
        const std::vector<SpanRecord> &spans = trace.spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const SpanRecord &span = spans[i];
            sep();
            std::fprintf(
                f,
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                "\"run\":%zu,\"span\":%zu,\"parent\":%d",
                span.name.c_str(), span.layer().c_str(), tid,
                static_cast<double>(span.startNs) * 1e-3,
                static_cast<double>(span.durationNs()) * 1e-3,
                trace.run(), i, span.parent);
            for (const auto &[name, value] : span.delta.fields())
                if (value)
                    std::fprintf(f, ",\"%s\":%llu", name,
                                 static_cast<unsigned long long>(value));
            std::fputs("}}", f);
        }
    }
    std::fputs("\n]}\n", f);
    const bool written = std::ferror(f) == 0;
    return std::fclose(f) == 0 && written;
}

} // namespace hostbench
