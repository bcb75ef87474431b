/**
 * @file
 * Host nanoseconds per call of the simulator's hot public functions,
 * each timed with steady_clock over a seeded input stream after a
 * warm-up, reported as the median of several repeats.
 */

#ifndef HOSTBENCH_MICRO_HH
#define HOSTBENCH_MICRO_HH

#include <string>
#include <vector>

#include "workloads.hh"

namespace hostbench
{

/** One per-call case: host time per call, in `unit` (ns or us). */
struct MicroResult
{
    std::string name;
    double value;
    const char *unit;
};

/** Every case, in a fixed order. */
std::vector<MicroResult> runMicroCases(Scale scale);

} // namespace hostbench

#endif // HOSTBENCH_MICRO_HH
