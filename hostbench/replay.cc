#include "replay.hh"

#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "attack/multi_hammer.hh"
#include "attack/pthammer.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "cpu/machine.hh"
#include "kernel/kernel_module.hh"
#include "workloads.hh"

namespace hostbench
{

namespace
{

using namespace pth;

/** The attack components PThammerAttack::prepare() builds, in the
 * same order, so the replay can span each phase separately. */
struct Prepared
{
    AttackReport report;
    std::unique_ptr<SprayManager> spray;
    std::unique_ptr<TlbEvictionTool> tlb;
    std::unique_ptr<LlcEvictionPool> pool;
    std::unique_ptr<EvictionSetSelector> selector;
    std::unique_ptr<PairFinder> pairs;
    std::unique_ptr<ImplicitHammer> hammer;
    std::unique_ptr<FlipChecker> checker;
    std::unique_ptr<Exploit> exploit;
};

/** PThammerAttack's constructor and prepare(), one span per phase. */
void
prepareTraced(Machine &m, const AttackConfig &cfg, RunTrace &trace,
              Prepared &p)
{
    Span prepare(trace, "attack.prepare");
    p.report.machine = m.config().name;
    p.report.superpages = cfg.superpages;
    p.report.defense = m.kernel().defense().name();
    {
        Span span(trace, "kernel.create_process");
        Process &attacker = m.kernel().createProcess(/*uid=*/1000);
        m.cpu().setProcess(attacker);
        if (cfg.exhaustKernelFraction > 0)
            m.kernel().exhaustKernelZone(cfg.exhaustKernelFraction);
        for (unsigned i = 0; i < cfg.credSprayProcesses; ++i)
            m.kernel().createProcess(/*uid=*/1000, /*lightweight=*/true);
    }
    {
        Span span(trace, "attack.spray");
        p.spray = std::make_unique<SprayManager>(m, cfg);
        p.report.sprayMs = m.seconds(p.spray->spray()) * 1e3;
    }
    {
        Span span(trace, "attack.tlb_prep");
        p.tlb = std::make_unique<TlbEvictionTool>(m, cfg);
        p.report.tlbPrepMs = m.seconds(p.tlb->prepare()) * 1e3;
        KernelModule module(m);
        unsigned minimal = p.tlb->findMinimalSetSize(
            p.spray->randomTarget(0x7001), module);
        p.tlb->setWorkingSetSize(minimal + cfg.tlbSetSizeMargin);
    }
    {
        Span span(trace, "attack.pool_build");
        p.pool = std::make_unique<LlcEvictionPool>(m, cfg);
        Cycles bufferCycles = p.pool->allocateBuffer();
        PoolBuildReport build =
            cfg.superpages
                ? p.pool->buildSuperpage(cfg.superpageSampleClasses)
                : p.pool->buildRegularSampled(cfg.regularSampleClasses,
                                              cfg.regularSampleGroups);
        p.report.llcPrepMinutes =
            m.seconds(bufferCycles + build.extrapolatedCycles) / 60.0;
    }
    p.selector =
        std::make_unique<EvictionSetSelector>(m, cfg, *p.pool, *p.tlb);
    p.pairs = std::make_unique<PairFinder>(m, cfg, *p.spray, *p.tlb,
                                           *p.selector);
    p.hammer = std::make_unique<ImplicitHammer>(m, cfg);
    p.checker = std::make_unique<FlipChecker>(m, cfg, *p.spray);
    p.exploit = std::make_unique<Exploit>(m, cfg, *p.spray);
}

/** PThammerAttack::run() with spans, then the runner's result fill. */
void
runPthammer(Machine &m, const AttackConfig &cfg, RunTrace &trace,
            Prepared &p, RunResult &res)
{
    AttackReport &report = p.report;
    RunningStat tlbSelect;
    RunningStat llcSelect;
    RunningStat hammerTime;
    RunningStat checkTime;
    Cycles loopStart = m.clock().now();
    Cycles budget = m.config().cycles(cfg.hammerBudgetSeconds);

    while (report.attempts < cfg.maxAttempts &&
           m.clock().now() - loopStart < budget) {
        std::optional<HammerPair> pair;
        {
            Span span(trace, "attack.select");
            pair = p.pairs->next();
        }
        if (!pair)
            break;
        ++report.attempts;
        tlbSelect.sample(m.seconds(pair->tlbSelectCycles) * 1e6);
        llcSelect.sample(m.seconds(pair->llcSelectCycles / 2) * 1e3);

        HammerRunResult hr;
        {
            Span span(trace, "attack.hammer");
            hr = p.hammer->run(*pair, cfg.hammerIterations);
        }
        hammerTime.sample(m.seconds(hr.totalCycles) * 1e3);

        Cycles checkStart = m.clock().now();
        std::vector<FlipFinding> findings;
        {
            Span span(trace, "attack.check");
            findings = p.checker->check();
        }
        checkTime.sample(m.seconds(m.clock().now() - checkStart));

        for (const FlipFinding &finding : findings) {
            ++report.flipsObserved;
            if (!report.flipped) {
                report.flipped = true;
                report.timeToFirstFlipMinutes =
                    m.seconds(m.clock().now() - loopStart) / 60.0;
            }
            ExploitOutcome outcome;
            {
                Span span(trace, "attack.exploit");
                outcome = p.exploit->attempt(finding);
            }
            if (outcome.escalated) {
                report.escalated = true;
                report.flipsUntilEscalation = report.flipsObserved;
                report.exploitPath = exploitPathName(outcome.path);
                break;
            }
        }
        if (report.escalated)
            break;
    }

    report.tlbSelectMicros = tlbSelect.mean();
    report.llcSelectMs = llcSelect.mean();
    report.hammerMs = hammerTime.mean();
    report.checkSeconds = checkTime.mean();
    if (!report.flipped)
        report.timeToFirstFlipMinutes =
            m.seconds(m.clock().now() - loopStart) / 60.0;

    res.report = report;
    res.flipped = report.flipped;
    res.escalated = report.escalated;
    res.flips = report.flipsObserved;
    res.attempts = report.attempts;
    res.flipsUntilEscalation = report.flipsUntilEscalation;
    res.exploitPath = report.exploitPath;
}

/** The runner's Implicit strategy: one pair, one hammer run. */
void
runImplicit(Machine &m, const AttackConfig &cfg, RunTrace &trace,
            Prepared &p, RunResult &res)
{
    res.report = p.report;
    std::optional<HammerPair> pair;
    {
        Span span(trace, "attack.select");
        pair = p.pairs->next();
    }
    if (!pair)
        return;
    res.attempts = 1;
    HammerRunResult hr;
    {
        Span span(trace, "attack.hammer");
        hr = p.hammer->run(*pair, cfg.hammerIterations);
    }
    res.flips = hr.flips;
    res.flipped = hr.flips > 0;
    res.report.flipped = res.flipped;
    res.report.hammerMs = m.seconds(hr.totalCycles) * 1e3;
}

/** The runner's MultiHart strategy: batched bank-synchronized pairs. */
void
runMultiHart(const RunSpec &spec, Machine &m, const AttackConfig &cfg,
             RunTrace &trace, Prepared &p, RunResult &res)
{
    res.report = p.report;
    MultiHartHammer hammer(m, cfg, spec.interleave, spec.interleaveSeed);
    const unsigned reserved =
        std::min(cfg.victimHarts, m.hartCount() - 1);
    const unsigned batchPairs = m.hartCount() - reserved;

    const double startSeconds = m.seconds();
    MultiHartHammerResult r;
    Cycles hammered = 0;
    while (res.attempts < cfg.maxAttempts &&
           m.seconds() - startSeconds < cfg.hammerBudgetSeconds) {
        std::vector<HammerPair> pairs;
        {
            Span span(trace, "attack.select");
            pairs = hammer.selectPairs(*p.pairs, batchPairs);
        }
        if (pairs.empty())
            break;
        {
            Span span(trace, "attack.hammer");
            r = hammer.run(pairs, cfg.hammerIterations);
        }
        hammered += r.totalCycles;
        res.attempts += r.aggressors;
        res.flips += r.flips;
        if (r.flips > 0)
            break;
    }
    res.flipped = res.flips > 0;
    res.report.flipped = res.flipped;
    res.report.hammerMs = m.seconds(hammered) * 1e3;
    res.metrics.emplace_back("aggressorHarts", r.aggressors);
    res.metrics.emplace_back("victimHarts", r.victims);
    res.metrics.emplace_back("meanRoundCycles", r.meanRoundCycles);
    res.metrics.emplace_back("stackedActsPerWindow",
                             r.stackedActsPerWindow);
    res.metrics.emplace_back("victimMeanLatency", r.victimMeanLatency);
}

/** A warm machine shared by one snapshot group, built on first use. */
struct SnapshotSlot
{
    std::mutex mtx;
    std::unique_ptr<MachineSnapshot> snap;
};

} // namespace

ReplayResult
replayTraced(const Campaign &campaign, unsigned workers,
             const std::vector<std::size_t> &checkFingerprints)
{
    const std::vector<RunSpec> &specs = campaign.specs();
    const std::size_t n = specs.size();
    const auto epoch = SteadyClock::now();

    ReplayResult out;
    out.results.resize(n);
    out.prepareFingerprints.assign(n, 0);
    std::vector<char> wantFingerprint(n, 0);
    for (std::size_t i : checkFingerprints)
        wantFingerprint[i] = 1;
    out.traces.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.traces.emplace_back(i, specs[i].label, epoch);

    const std::vector<int> groups = shareGroups(campaign);
    int nGroups = 0;
    for (int g : groups)
        nGroups = std::max(nGroups, g + 1);
    std::vector<SnapshotSlot> slots(static_cast<std::size_t>(nGroups));

    auto replayOne = [&](std::size_t i) {
        const RunSpec &spec = specs[i];
        RunTrace &trace = out.traces[i];
        RunResult &res = out.results[i];
        res = specResultShell(spec, i);

        // Like the runner, the warm machine is built outside any run's
        // timed interval, by the first member of the group to start.
        const MachineSnapshot *snap = nullptr;
        if (groups[i] >= 0) {
            SnapshotSlot &slot = slots[static_cast<std::size_t>(groups[i])];
            std::lock_guard<std::mutex> lock(slot.mtx);
            if (!slot.snap) {
                Span boot(trace, "cpu.boot");
                slot.snap = std::make_unique<MachineSnapshot>(
                    std::make_unique<Machine>(deriveRun(spec).config));
            }
            snap = slot.snap.get();
        }

        // Declared before the run span so that an exception closes the
        // span while the machine its counters read is still alive.
        const DerivedRun derived = deriveRun(spec);
        const AttackConfig &cfg = derived.attack;
        std::unique_ptr<Machine> machine;
        Prepared p;
        Span run(trace, "harness.run");
        try {
            if (snap) {
                Span fork(trace, "cpu.fork");
                machine = snap->instantiate();
            } else {
                Span boot(trace, "cpu.boot");
                machine = std::make_unique<Machine>(derived.config);
            }
            trace.attach(*machine);
            res.machine = derived.config.name;

            prepareTraced(*machine, cfg, trace, p);
            if (wantFingerprint[i]) {
                Span verify(trace, "verify.fingerprint");
                out.prepareFingerprints[i] = machine->stateFingerprint();
            }
            switch (spec.strategy) {
            case HammerStrategy::PThammer:
                runPthammer(*machine, cfg, trace, p, res);
                break;
            case HammerStrategy::Implicit:
                runImplicit(*machine, cfg, trace, p, res);
                break;
            case HammerStrategy::MultiHart:
                runMultiHart(spec, *machine, cfg, trace, p, res);
                break;
            case HammerStrategy::Explicit:
                throw std::runtime_error(
                    "the replay has no explicit-strategy workload");
            }
            res.simSeconds = machine->seconds();
            Span teardown(trace, "cpu.teardown");
            p = Prepared{};
            trace.detach();
            machine.reset();
        } catch (const std::exception &e) {
            res.ok = false;
            res.error = e.what();
        }
    };

    ThreadPool pool(std::max(1u, workers));
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        futures.push_back(pool.submit([&replayOne, i] { replayOne(i); }));
    for (std::future<void> &f : futures)
        f.get();
    return out;
}

SetupSample
runSetup(const RunSpec &spec, bool fingerprint)
{
    SetupSample sample;
    const auto start = SteadyClock::now();
    DerivedRun derived = deriveRun(spec);
    Machine machine(derived.config);
    PThammerAttack attack(machine, derived.attack);
    attack.prepare();
    sample.seconds =
        std::chrono::duration<double>(SteadyClock::now() - start).count();
    if (fingerprint)
        sample.fingerprint = machine.stateFingerprint();
    return sample;
}

} // namespace hostbench
