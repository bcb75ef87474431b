/**
 * @file
 * The traced replay: every run of a campaign executed again from the
 * benchmark's own code, phase by phase through the attack modules'
 * public functions, with a span around each call. The replay fills
 * the same RunResult fields as the campaign runner, so the two can be
 * compared field for field.
 */

#ifndef HOSTBENCH_REPLAY_HH
#define HOSTBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "harness/campaign.hh"
#include "trace.hh"

namespace hostbench
{

struct ReplayResult
{
    std::vector<pth::RunResult> results;   //!< index order
    std::vector<RunTrace> traces;          //!< one per run
    /** Machine fingerprint after the replayed preparation, for the
     * runs named in `checkFingerprints`; 0 elsewhere. */
    std::vector<std::uint64_t> prepareFingerprints;
};

/**
 * Replay every run on `workers` threads, in index order like the
 * campaign runner, forking shared warm machines the same way.
 */
ReplayResult replayTraced(const pth::Campaign &campaign, unsigned workers,
                          const std::vector<std::size_t> &checkFingerprints);

/** Outcome of one cold set-up: Machine construction through
 * PThammerAttack::prepare(). */
struct SetupSample
{
    double seconds = 0;
    std::uint64_t fingerprint = 0;   //!< only when asked for
};

/** Time one cold set-up of a spec; optionally fingerprint the result
 * (outside the timed interval). */
SetupSample runSetup(const pth::RunSpec &spec, bool fingerprint);

} // namespace hostbench

#endif // HOSTBENCH_REPLAY_HH
