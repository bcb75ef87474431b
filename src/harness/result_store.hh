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
 *  - load() tolerates corruption: a line that does not parse — the
 *    typical artifact of a process killed mid-write — is skipped, and
 *    the run it would have described is simply executed again on
 *    resume. When an index appears on several lines, the last valid
 *    one wins.
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
 * instead of cold-constructing (Campaign::sharePlan). Folded only
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
     * Load every valid journal line, keyed by run index; invalid
     * lines are skipped and duplicate indices keep the last valid
     * entry. A missing file yields an empty map.
     *
     * When corruptLines is non-null it receives the number of
     * non-empty lines that failed to parse — the visible trace of a
     * truncated or mangled journal. Callers that resume or merge
     * should surface the count instead of letting a torn shard
     * journal quietly shrink a campaign.
     */
    static std::map<std::size_t, Entry>
    load(const std::string &path, std::size_t *corruptLines = nullptr);

    /** What ResultStore::merge saw and produced. */
    struct MergeStats
    {
        unsigned inputs = 0;         //!< journals read
        unsigned missingInputs = 0;  //!< listed but absent on disk
        std::size_t entries = 0;     //!< runs in the merged journal
        std::size_t overwritten = 0; //!< duplicate indices superseded
        std::size_t corruptLines = 0;//!< unparsable lines skipped
    };

    /**
     * Merge shard journals into one canonical journal: inputs are
     * read in argument order, corrupt lines are skipped (counted in
     * stats), and when several entries claim the same run index the
     * last one read wins — so listing an old journal first and
     * fresher shard journals after yields shard-wins semantics. The
     * output is re-serialized in ascending index order, i.e. the
     * same bytes a single process journaling the same results would
     * have produced. A missing input is tolerated (a worker may die
     * before its first checkpoint) and counted in stats.
     *
     * The stream overload writes the merged lines to out. The path
     * overload stages the merge in outPath + ".merging" and renames it
     * over outPath; it returns false — with a message in *error when
     * given, and outPath left as it was — when the output cannot be
     * written or moved into place, or when no input was readable.
     */
    static bool merge(const std::vector<std::string> &inputs,
                      std::ostream &out,
                      MergeStats *stats = nullptr);
    static bool merge(const std::vector<std::string> &inputs,
                      const std::string &outPath,
                      MergeStats *stats = nullptr,
                      std::string *error = nullptr);

  private:
    const std::string path_; // immutable after construction
    Mutex mtx_;
    std::ofstream out_ PTH_GUARDED_BY(mtx_);
};

} // namespace pth

#endif // PTH_HARNESS_RESULT_STORE_HH
