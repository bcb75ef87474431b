/**
 * @file
 * The campaign supervisor: run a manifest of sharded campaigns across
 * a bounded pool of worker subprocesses. It is the one process
 * supervisor of the harness — tools/campaign_ctl runs whole manifests
 * through it, and a bench's `--workers N` runs its own campaign
 * through it as a one-campaign manifest. The pool keeps a suite's
 * shards flowing, so a manifest of heterogeneous campaigns (different
 * bench binaries, args, shard counts) saturates the machine without
 * oversubscribing it.
 *
 * The dispatch contract: every shard worker is `program --threads=1
 * args... --journal J --shard I/N` (the campaign's own args come after
 * --threads=1, so an explicit --threads among them wins), every
 * campaign's shard journals merge (ResultStore::merge) into the
 * campaign journal, and when the campaign names a report it is
 * rendered by re-invoking the bench with the merged journal — so the
 * orchestrated report is byte-identical to a serial `program args
 * --json=...` run.
 *
 * Fault handling, per shard task — one recovery rule:
 *  - a dead worker (nonzero exit, signal, failed exec) is respawned
 *    with the same journal up to maxRespawns times; the replacement
 *    resumes from the dead attempt's checkpoint;
 *  - a task that dies on every attempt fails its campaign: the runs
 *    it checkpointed still merge, but the campaign is marked failed,
 *    no report is rendered, and the death reason and log tail are
 *    kept per shard (CampaignOutcome::shards) instead of quietly
 *    shrinking the suite.
 * Runs are deterministic simulations, so a slow shard is never
 * duplicated: a second copy would repeat the same work on the same
 * cores.
 *
 * The scheduler is deterministic where determinism is visible: tasks
 * are dispatched in manifest order, so the sequence of first-attempt
 * spawn log lines is the same for any pool width, and spawn counts
 * are one per task plus one per respawn; only respawn and render
 * lines interleave on timing.
 */

#ifndef PTH_HARNESS_CAMPAIGN_CTL_HH
#define PTH_HARNESS_CAMPAIGN_CTL_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/result_store.hh"

namespace pth
{

/** One campaign of a manifest: a bench invocation plus its shard
 * count and artifact paths. */
struct ManifestCampaign
{
    std::string name;               //!< unique; labels logs
    std::string program;            //!< bench binary to exec
    std::vector<std::string> args;  //!< bench-specific knobs
    unsigned shards = 1;            //!< worker slice count

    /** Campaign journal (shard journals and logs live beside it) and
     * rendered report. The render pass runs only when report is set.
     * campaign_ctl derives "<out>/<name>.jsonl" / ".json" for the
     * paths a manifest leaves out. */
    std::string journal;
    std::string report;
};

/** A parsed campaign manifest. */
struct Manifest
{
    std::vector<ManifestCampaign> campaigns;

    /**
     * Parse manifest JSON:
     *
     *   { "campaigns": [ { "name": "t1",
     *                      "program": "./bench/bench_table1_configs",
     *                      "args": ["--dram-model=trr"],
     *                      "shards": 3,
     *                      "journal": "out/t1.jsonl",   // optional
     *                      "report": "out/t1.json" },   // optional
     *                    ... ] }
     *
     * Validation is strict — unknown keys, missing/empty name or
     * program, zero shards and duplicate names are errors. Returns
     * false with a message in error.
     */
    static bool parse(const std::string &text, Manifest &out,
                      std::string &error);

    /** Read and parse a manifest file. */
    static bool load(const std::string &path, Manifest &out,
                     std::string &error);
};

/** Orchestrator knobs. */
struct CampaignCtlOptions
{
    /** Pool width: live worker subprocesses (0 = one per core). */
    unsigned workers = 2;

    /** Extra attempts after a worker dies before giving it up. */
    unsigned maxRespawns = 2;

    /** Discard existing journals; rerun everything. */
    bool fresh = false;

    /** Fault injection: "name/shard" first attempts to SIGKILL right
     * after spawn — the deterministic worker-crash hook the CI smoke
     * and the tests drive respawn-with-resume through. */
    std::vector<std::pair<std::string, unsigned>> injectKills;

    /** Dispatch log sink (spawn/exit/respawn/merge lines); null
     * silences it. */
    std::ostream *log = nullptr;
};

/** How one shard slice of a campaign ended. */
struct ShardOutcome
{
    bool ok = false;            //!< some attempt completed the slice
    std::string error;          //!< decoded death reason when !ok
    std::string log;            //!< the dead worker's log
    std::string logTail;        //!< end of that log when !ok
};

/** What happened to one campaign of the manifest. */
struct CampaignOutcome
{
    std::string name;
    std::string journal;        //!< merged campaign journal
    std::string report;         //!< rendered JSON report, if any
    bool ok = false;            //!< shards + merge + render all good
    std::string error;          //!< first failure reason when !ok
    unsigned spawns = 0;        //!< worker attempts across shards
    std::vector<ShardOutcome> shards; //!< indexed by shard
    ResultStore::FoldStats mergeStats;
};

/** Runs a manifest through the bounded worker pool. */
class CampaignCtl
{
  public:
    CampaignCtl(Manifest manifest, CampaignCtlOptions options);
    ~CampaignCtl(); // out of line: Task is incomplete here

    /**
     * Dispatch every campaign's shards over the pool, merge and
     * render each campaign as its shards complete, and return the
     * number of failed campaigns (0 = whole manifest succeeded).
     * POSIX-only (fork/exec).
     */
    unsigned run();

    /** Per-campaign outcomes, in manifest order (valid after run). */
    const std::vector<CampaignOutcome> &outcomes() const
    {
        return outcomes_;
    }

  private:
    struct Task;

    void logLine(const std::string &line) const;
    std::vector<std::string> workerArgs(const Task &task,
                                        bool fresh) const;
    bool startTask(std::size_t taskId);
    void failTask(std::size_t taskId);
    void finishCampaign(std::size_t campaignIdx);

    Manifest manifest_;
    CampaignCtlOptions options_;
    std::vector<CampaignOutcome> outcomes_;

    std::vector<Task> tasks_;
    std::vector<std::size_t> pending_;  //!< task ids awaiting a slot
    std::size_t nextPending_ = 0;
    std::vector<std::pair<long, std::size_t>> live_; //!< pid -> task
    std::vector<unsigned> shardsLeft_;  //!< per campaign, unfinished
};

} // namespace pth

#endif // PTH_HARNESS_CAMPAIGN_CTL_HH
