/**
 * @file
 * The benchmark's workloads: each is one pth::Campaign generated from
 * the workload seed alone. The simulator sees only the RunSpecs.
 */

#ifndef HOSTBENCH_WORKLOADS_HH
#define HOSTBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/campaign.hh"

namespace hostbench
{

/** Paper is the measured scale; Tiny is the self-test scale. */
enum class Scale { Paper, Tiny };

/**
 * Build a workload's campaign from its seed (README.md says how each
 * workload uses it). Returns false for an unknown name.
 */
bool buildWorkload(const std::string &name, std::uint64_t seed,
                   Scale scale, pth::Campaign &out);

/** What a RunSpec resolves to before its machine boots. */
struct DerivedRun
{
    pth::MachineConfig config;
    pth::AttackConfig attack;
};

/**
 * The campaign runner's spec derivation (preset, defense, DRAM model,
 * harts, seed re-keying per SeedScope), repeated here because the
 * runner keeps it private. The traced replay compares every simulated
 * field against the runner's own results, so any drift from the
 * runner's derivation shows as a correctness failure.
 */
DerivedRun deriveRun(const pth::RunSpec &spec);

/**
 * Indices of the runs whose preparation is distinct: the first run of
 * each (machine config, page size) pair. Runs that differ only in
 * their attacker seed or hammer-phase knobs share an entry.
 */
std::vector<std::size_t> distinctSetups(const pth::Campaign &campaign);

/**
 * Snapshot-sharing groups as the runner plans them with machine reuse
 * on: group[i] >= 0 when run i forks a warm machine shared with at
 * least one other run of the same derived config, else -1.
 */
std::vector<int> shareGroups(const pth::Campaign &campaign);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_HH
