/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic() terminates on internal simulator bugs; inform()/warn()
 * report status without stopping the simulation. A simulated machine
 * that cannot continue a run throws SimError (common/sim_error.hh)
 * instead, so the fault stays in that run.
 */

#ifndef PTH_COMMON_LOGGING_HH
#define PTH_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace pth
{

/** Print an informational message to stderr ("info: ..."). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a warning message to stderr ("warn: ..."). */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Terminate because of an internal simulator bug. Calls abort() so a
 * core dump or debugger can inspect the failure.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** panic() unless the condition holds. */
#define pth_assert(cond, fmt, ...)                                       \
    do {                                                                 \
        if (!(cond))                                                     \
            ::pth::panic("assertion '%s' failed at %s:%d: " fmt, #cond,  \
                         __FILE__, __LINE__, ##__VA_ARGS__);             \
    } while (0)

} // namespace pth

#endif // PTH_COMMON_LOGGING_HH
