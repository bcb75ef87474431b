/**
 * @file
 * The error a simulated machine raises when it reaches a state the
 * current run cannot continue from — the simulated kernel running out
 * of physical memory, or failing to assemble a 2 MiB superpage.
 *
 * It is an exception rather than a process exit so the fault stays in
 * the run that hit it: Campaign::runOne records it as that run's
 * failure (ok = false, with the spec key and the machine's state
 * fingerprint for replay) and the rest of the campaign carries on.
 * Simulator bugs still panic().
 */

#ifndef PTH_COMMON_SIM_ERROR_HH
#define PTH_COMMON_SIM_ERROR_HH

#include <stdexcept>

namespace pth
{

/** A simulated resource ran out; the run cannot continue. */
class SimError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

} // namespace pth

#endif // PTH_COMMON_SIM_ERROR_HH
