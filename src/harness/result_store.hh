/**
 * @file
 * Persistent result store for the campaign runner: an append-only
 * JSONL journal that records every completed RunResult, keyed by a
 * content hash of its RunSpec, so an interrupted campaign can resume
 * without repeating finished work.
 *
 * Contract:
 *  - One journal line per completed run, written and flushed as the
 *    run finishes (checkpoint granularity = one run). record() is
 *    thread-safe; workers journal their own results.
 *  - Reading tolerates corruption: a line that does not parse — the
 *    typical artifact of a process killed mid-write — is skipped, and
 *    the run it would have described is simply executed again on
 *    resume. When an index appears on several lines, the last valid
 *    one wins. One fold implements this for resume (load), merge and
 *    the query index (journal_index.hh).
 *  - A journaled result is only reused when its stored spec key
 *    matches the current spec at the same index (see specKey), so
 *    editing the sweep grid invalidates exactly the runs it changed.
 *  - serialize()/deserialize() round-trip every RunResult field that
 *    feeds Campaign::toJson, the aggregate and the bench tables —
 *    doubles via %.17g, 64-bit integers without a double detour — so
 *    a resumed campaign's report is byte-identical to an
 *    uninterrupted one.
 */

#ifndef PTH_HARNESS_RESULT_STORE_HH
#define PTH_HARNESS_RESULT_STORE_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/sync.hh"
#include "harness/campaign_result.hh"

namespace pth
{

class JsonValue;
struct RunSpec;

/**
 * Content hash of a RunSpec's declarative fields: label, preset,
 * defense, strategy, seed, the explicit-hammer knobs and every
 * AttackConfig field. The tweakMachine/body hooks cannot be hashed;
 * only their presence is folded in, so a journaled result is presumed
 * valid as long as the declarative spec (and the code) is unchanged —
 * pass CampaignOptions::resume = false after changing a hook's
 * behavior.
 */
std::uint64_t specKey(const RunSpec &spec);

/**
 * specKey with the campaign's snapshot-sharing decision folded in:
 * sharedMachine is true when the run forks a shared warm machine
 * instead of cold-constructing (Campaign::specKeys). Folded only
 * when set, so existing journals (all cold runs) stay valid, while a
 * result produced under one execution mode never satisfies a resume
 * under the other — the byte-identity contract makes the results
 * equal, but the key keeps the provenance honest and lets the
 * contract's own tests compare the two modes through journals.
 */
std::uint64_t specKey(const RunSpec &spec, bool sharedMachine);

/** Append-only JSONL journal of completed campaign runs. */
class ResultStore
{
  public:
    /** One journal record: the spec key it was produced under and the
     * reconstructed result. */
    struct Entry
    {
        std::uint64_t key = 0;
        RunResult result;
    };

    /**
     * Open the journal at path for appending; truncate discards any
     * existing content (a fresh, non-resuming campaign).
     *
     * @throws std::runtime_error when the file cannot be opened.
     */
    ResultStore(const std::string &path, bool truncate);

    /** Journal one completed run (thread-safe; flushes the line). */
    void record(const RunResult &result, std::uint64_t key);

    /** Journal file path. */
    const std::string &path() const { return path_; }

    /** Render one journal line (no trailing newline). */
    static std::string serialize(const RunResult &result,
                                 std::uint64_t key);

    /**
     * Parse one journal line. Returns false on any syntax error or
     * missing required field (corrupt line → caller skips it).
     */
    static bool deserialize(const std::string &line, Entry &out);

    /**
     * Parse one object of a campaign report's "runs" array
     * (Campaign::toJson) with the same strict field readers: a
     * missing or mistyped field fails the run, exactly as it fails a
     * journal line. Reports carry no spec key and no DRAM model, so
     * those stay 0 and empty ("unrecorded").
     */
    static bool deserializeReportRun(const JsonValue &obj,
                                     RunResult &out);

    /** Journal records by run index: what a fold produces. */
    using Entries = std::map<std::size_t, Entry>;

    /**
     * What a fold of stored results saw. load, merge and JournalIndex
     * all count through this one struct; corrupt lines are the
     * visible trace of a truncated or mangled journal, and callers
     * that resume, merge or query surface them instead of letting a
     * torn shard journal quietly shrink an answer.
     */
    struct FoldStats
    {
        unsigned inputs = 0;         //!< journals read
        unsigned reports = 0;        //!< campaign JSON reports read
        unsigned missingInputs = 0;  //!< listed but absent on disk
        std::size_t entries = 0;     //!< distinct run indices held
        std::size_t superseded = 0;  //!< entries a later one replaced
        std::size_t corruptLines = 0;//!< unparsable lines/report runs
    };

    /** Fold one record in: the last record per run index wins. */
    static void fold(Entry entry, Entries &into, FoldStats &stats);

    /**
     * Fold every journal line of a stream in, in order — the one
     * loop that parses journal lines. Empty lines are ignored;
     * lines that do not parse are skipped and counted in
     * stats.corruptLines. Returns the number of records folded.
     */
    static std::size_t fold(std::istream &journal, Entries &into,
                            FoldStats &stats);

    /**
     * Fold one journal file: the last valid entry per run index
     * wins. A missing file yields an empty map. When corruptLines is
     * non-null it receives the number of lines skipped.
     */
    static Entries load(const std::string &path,
                        std::size_t *corruptLines = nullptr);

    /**
     * Merge shard journals into one canonical journal at outPath:
     * inputs are folded in argument order, so when several entries
     * claim the same run index the last one read wins — listing an
     * old journal first and fresher shard journals after yields
     * shard-wins semantics. The output is re-serialized in ascending
     * index order, i.e. the same bytes a single process journaling
     * the same results would have produced. A missing input is
     * tolerated (a worker may die before its first checkpoint) and
     * counted in stats.
     *
     * The merge is staged in outPath + ".merging" and renamed over
     * outPath. Returns false — with a message in *error when given,
     * and outPath left as it was — when no input was readable or the
     * output cannot be written or moved into place.
     */
    static bool merge(const std::vector<std::string> &inputs,
                      const std::string &outPath,
                      FoldStats *stats = nullptr,
                      std::string *error = nullptr);

  private:
    const std::string path_; // immutable after construction
    Mutex mtx_;
    std::ofstream out_ PTH_GUARDED_BY(mtx_);
};

} // namespace pth

#endif // PTH_HARNESS_RESULT_STORE_HH
