/**
 * @file
 * In-memory span recorder for the traced replay.
 *
 * A span is (name, start, end, parent, run id) plus the deltas of the
 * simulator's own counters over its interval. Spans are recorded from
 * the benchmark's code around calls into each library module, so the
 * library itself carries no tracing. Each run owns one RunTrace and is
 * replayed by exactly one thread, so recording takes no lock. The
 * spans are written out as Chrome trace-event JSON (one track per run)
 * after the replay ends.
 */

#ifndef HOSTBENCH_TRACE_HH
#define HOSTBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pth
{
class Machine;
}

namespace hostbench
{

using SteadyClock = std::chrono::steady_clock;

/** The simulator counters read at every span boundary. */
struct Counters
{
    std::uint64_t dramActs = 0;
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramFlips = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t tlbLookups = 0;
    std::uint64_t tlbWalks = 0;       //!< lookups that caused a walk
    std::uint64_t pagingWalks = 0;
    std::uint64_t pscStarts = 0;      //!< walks started from a PDE hit

    /** Current values, summed over every hart's private structures. */
    static Counters read(pth::Machine &machine);

    Counters operator-(const Counters &other) const;
    Counters &operator+=(const Counters &other);
    bool operator==(const Counters &other) const = default;

    /** (name, value) pairs in a fixed order, for reports and traces. */
    std::vector<std::pair<const char *, std::uint64_t>> fields() const;
};

/** One closed span. */
struct SpanRecord
{
    std::string name;      //!< "<layer>.<phase>", e.g. "attack.select"
    int parent = -1;       //!< index of the enclosing span in the run
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    Counters delta;

    std::int64_t durationNs() const { return endNs - startNs; }
    /** The module prefix of the name ("attack" for "attack.select"). */
    std::string layer() const;
};

/** The spans of one replayed run. */
class RunTrace
{
  public:
    RunTrace(std::size_t run, std::string label,
             SteadyClock::time_point start);

    /**
     * Read counters from this machine from now on, relative to their
     * values now: a forked machine inherits its warm parent's counters
     * and a booted one its boot's, and the run counts neither.
     */
    void attach(pth::Machine &machine);

    /** Stop reading the machine (before it is destroyed); later
     * spans see the counters frozen at their last values. */
    void detach();

    /** Open a span under the innermost open one; returns its index. */
    int open(const char *name);
    void close(int index);

    std::size_t run() const { return runIndex; }
    const std::string &label() const { return runLabel; }
    const std::vector<SpanRecord> &spans() const { return records; }

  private:
    Counters counters() const;
    std::int64_t nowNs() const;

    std::size_t runIndex;
    std::string runLabel;
    SteadyClock::time_point epoch;
    pth::Machine *machine = nullptr;
    Counters inherited;
    Counters frozen;
    std::vector<SpanRecord> records;
    std::vector<Counters> openCounters;   //!< per record, while open
    std::vector<int> stack;
};

/** RAII span. */
class Span
{
  public:
    Span(RunTrace &run, const char *name)
        : trace(run), index(run.open(name))
    {
    }
    ~Span() { trace.close(index); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    RunTrace &trace;
    int index;
};

/** Per-name and per-layer totals over a set of run traces. */
struct TraceSummary
{
    std::map<std::string, double> seconds;        //!< by span name
    std::map<std::string, std::uint64_t> calls;   //!< by span name
    std::map<std::string, double> selfSeconds;    //!< by layer
    Counters totals;          //!< summed over the top-level spans
    double minCoverage = 1;   //!< least share of a run under children
    bool nested = true;       //!< every child inside its parent
};

/** Fold spans into totals and self times; see TraceSummary. */
TraceSummary summarize(const std::vector<RunTrace> &traces);

/** Write the spans as Chrome trace-event JSON; false on I/O error. */
bool writeChromeTrace(const std::vector<RunTrace> &traces,
                      const std::string &path);

} // namespace hostbench

#endif // HOSTBENCH_TRACE_HH
