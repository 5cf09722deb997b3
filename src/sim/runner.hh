/**
 * @file
 * The epoch-based experiment runner (Section 3, "Overall operation"):
 * per epoch, profile for 300 us (scaled), let the policy pick
 * frequencies, transition, run the epoch out, then update the
 * policy's slack from whole-epoch counters.
 *
 * EpochDriver takes that step: run() until the workload completes,
 * and every cluster node (cluster/node.hh) once per cluster epoch.
 *
 * Also provides the result records and baseline-relative comparison
 * helpers every benchmark harness uses.
 */

#ifndef COSCALE_SIM_RUNNER_HH
#define COSCALE_SIM_RUNNER_HH

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "obs/metrics.hh"
#include "obs/trace_sink.hh"
#include "policy/policy.hh"
#include "sim/system.hh"
#include "workloads/spec_catalogue.hh"

namespace coscale {

struct AuditSet;

/**
 * Creates a fresh Policy instance for one run. Batch execution (the
 * experiment engine in exp/) requires a factory rather than a shared
 * Policy object: policies carry mutable per-run state (slack ledgers,
 * search history), so two parallel runs through one instance would
 * race and, worse, silently couple their decisions.
 */
using PolicyFactory = std::function<std::unique_ptr<Policy>()>;

/** Per-epoch log entry (frequencies and power), for Fig. 7. */
struct EpochLog
{
    Tick startTick = 0;
    FreqConfig applied;
    PowerBreakdown avgPower;
};

/** Outcome of one workload run under one policy. */
struct RunResult
{
    std::string mixName;
    std::string policyName;

    Tick finishTick = 0;              //!< slowest app's completion
    std::vector<Tick> appCompletion;  //!< per core

    double cpuEnergyJ = 0.0;   //!< cores + L2, until finishTick
    double memEnergyJ = 0.0;
    double otherEnergyJ = 0.0;

    std::vector<EpochLog> epochs;

    std::uint64_t totalInstrs = 0;
    double measuredMpki = 0.0;  //!< demand LLC misses per kilo-instr
    double measuredWpki = 0.0;
    double prefetchAccuracy = 0.0;

    // DRAM traffic (for the prefetching study, Fig. 16).
    std::uint64_t dramReads = 0;      //!< demand reads serviced
    std::uint64_t dramPrefetches = 0; //!< prefetch fills serviced
    std::uint64_t dramWrites = 0;     //!< writebacks serviced

    /**
     * Per-run metrics registry, populated when the request asked for
     * one (RunRequest::withMetrics). Null otherwise. Shared so results
     * stay cheap to copy through the engine's outcome plumbing.
     */
    std::shared_ptr<MetricsRegistry> metrics;

    /**
     * Injected-fault accounting: true when the request carried an
     * enabled FaultPlan, with the per-kind event counts. All-zero for
     * clean runs. Deterministic (pure function of the request), so it
     * may appear in JSON reports.
     */
    bool faultsEnabled = false;
    fault::FaultSummary faults;

    std::uint64_t
    dramTraffic() const
    {
        return dramReads + dramPrefetches + dramWrites;
    }

    double
    totalEnergyJ() const
    {
        return cpuEnergyJ + memEnergyJ + otherEnergyJ;
    }

    /** Energy per instruction in nanojoules. */
    double
    energyPerInstrNj() const
    {
        return totalInstrs
                   ? totalEnergyJ() * 1e9
                         / static_cast<double>(totalInstrs)
                   : 0.0;
    }
};

/** Baseline-relative savings and degradations. */
struct Comparison
{
    double fullSystemSavings = 0.0; //!< 1 - E/E_base
    double cpuSavings = 0.0;
    double memSavings = 0.0;
    double avgDegradation = 0.0;    //!< mean per-app slowdown
    double worstDegradation = 0.0;  //!< slowest per-app slowdown
};

/**
 * A self-contained description of one simulation run: configuration,
 * workload, policy, seeding, and audit wiring. Requests are plain
 * values — copyable, comparable by digest, safe to ship to a worker
 * thread — and are the unit of work of the experiment engine
 * (exp/engine.hh) as well as the argument of the unified run() entry
 * point below.
 *
 * Determinism contract: a run is a pure function of the request. Two
 * requests with equal configuration, apps, and seed produce
 * bit-identical RunResults regardless of which thread executes them
 * or what else runs concurrently.
 */
struct RunRequest
{
    std::string label;          //!< result mixName (mix or custom tag)
    SystemConfig cfg;
    std::vector<AppSpec> apps;  //!< one entry per core (or per thread)

    /** Preferred policy source: a fresh instance per execution. */
    PolicyFactory makePolicy;

    /**
     * Alternative for single-shot call sites that need to inspect the
     * policy object afterwards: a caller-owned instance. Mutually
     * exclusive with batch execution — the engine rejects borrowed
     * policies because the instance would be shared across threads.
     */
    Policy *borrowedPolicy = nullptr;

    /** Non-zero overrides cfg.seed (deterministic per-request seeding). */
    std::uint64_t seed = 0;

    /** External auditors to observe the run (tests). */
    AuditSet *auditSet = nullptr;

    /**
     * Engine only: memoize a BaselinePolicy run of the same
     * configuration + workload and report the Comparison against it.
     */
    bool wantBaseline = false;

    /**
     * Epoch-level trace output (obs/trace_sink.hh). When the spec has
     * a path, run() opens a private sink for the run and closes it on
     * completion. Timestamps are simulated ticks, so a trace is as
     * deterministic as the run itself.
     */
    TraceSpec trace;

    /**
     * Alternative to @ref trace for tests and embedders: a borrowed,
     * caller-owned sink. The caller keeps responsibility for calling
     * finish() on it. A run uses at most one sink; a borrowed sink
     * wins over a TraceSpec path.
     */
    TraceSink *traceSink = nullptr;

    /** Collect a per-run MetricsRegistry into RunResult::metrics. */
    bool wantMetrics = false;

    /**
     * Deterministic fault injection (fault/fault_plan.hh). A
     * default-constructed (disabled) plan costs nothing: the
     * EpochDriver never instantiates an injector and the epoch step
     * is untouched byte-for-byte. Faulted runs keep the determinism
     * contract — every fault decision is a pure function of (plan,
     * effective seed, epoch), never of execution order.
     */
    fault::FaultPlan faults;

    /**
     * Cooperative cancellation (the engine's watchdog): when non-null
     * and set, the epoch loop aborts at the next epoch boundary by
     * throwing std::runtime_error. Never part of the determinism
     * contract — a cancelled run produces no result at all.
     */
    const std::atomic<bool> *cancelFlag = nullptr;

    /** Request for a Table 1 mix expanded over cfg's cores. */
    static RunRequest forMix(const SystemConfig &cfg,
                             const WorkloadMix &mix);

    /** Request with explicit per-core application specs. */
    static RunRequest forApps(const SystemConfig &cfg, std::string label,
                              std::vector<AppSpec> apps);

    /** Attach a policy factory (chainable). */
    RunRequest &
    with(PolicyFactory factory)
    {
        makePolicy = std::move(factory);
        return *this;
    }

    /** Borrow a caller-owned policy instance (chainable). */
    RunRequest &
    with(Policy &policy)
    {
        borrowedPolicy = &policy;
        return *this;
    }

    RunRequest &
    withSeed(std::uint64_t s)
    {
        seed = s;
        return *this;
    }

    RunRequest &
    withAudit(AuditSet *audit)
    {
        auditSet = audit;
        return *this;
    }

    RunRequest &
    withBaseline(bool on = true)
    {
        wantBaseline = on;
        return *this;
    }

    /** Write an epoch-level trace to @p spec's path (chainable). */
    RunRequest &
    withTrace(TraceSpec spec)
    {
        trace = std::move(spec);
        return *this;
    }

    /** Emit trace events into a caller-owned sink (chainable). */
    RunRequest &
    withTrace(TraceSink &sink)
    {
        traceSink = &sink;
        return *this;
    }

    RunRequest &
    withMetrics(bool on = true)
    {
        wantMetrics = on;
        return *this;
    }

    /** Attach a fault-injection plan (chainable). */
    RunRequest &
    withFaults(fault::FaultPlan plan)
    {
        faults = plan;
        return *this;
    }

    /** cfg with the per-request seed override applied. */
    SystemConfig
    effectiveConfig() const
    {
        SystemConfig c = cfg;
        if (seed != 0)
            c.seed = seed;
        return c;
    }
};

/** An epoch window's average power and its length, clipped at the
 *  workload's last completion. An empty window reads zero. */
struct EpochWindow
{
    PowerBreakdown power;
    double secs = 0.0;
};

/** What one EpochDriver::step did. */
struct EpochStep
{
    /**
     * Every application finished while profiling. Nothing after the
     * profiling window ran: only start, snap and profiling are set.
     */
    bool finished = false;

    Tick start = 0;
    CounterSnapshot snap;  //!< counters at the epoch's start
    EpochWindow profiling; //!< under the previous configuration
    EpochWindow running;   //!< under the granted configuration

    SystemProfile profile; //!< what the policy read, after faults
    FreqConfig prev;       //!< installed when the policy decided
    FreqConfig granted;    //!< what the fault layer let through
    EpochObservation obs;  //!< what the policy observed
};

/**
 * The controller's epoch step on one System: rotate threads at a
 * quantum boundary, land a fault-delayed transition, profile, decide,
 * filter requested into granted, apply, run the epoch out, observe,
 * audit. The driver owns the run's fault injector, built from
 * @p faults and the System's seed, and — when @p audit is null and
 * auditingEnabled() holds — a private AuditSet. The policy's trace
 * sink and metrics and the DRAM auditor stay attached while the
 * driver lives, so the System and the policy must outlive it.
 */
class EpochDriver
{
  public:
    EpochDriver(System &sys, Policy &policy,
                const fault::FaultPlan &faults,
                AuditSet *audit = nullptr, TraceSink *sink = nullptr,
                MetricsRegistry *metrics = nullptr);
    ~EpochDriver();

    EpochDriver(const EpochDriver &) = delete;
    EpochDriver &operator=(const EpochDriver &) = delete;

    EpochStep step();

    /**
     * Drop a transition the fault layer delayed and has not landed
     * yet (a crashed node reboots into a configuration of its own).
     */
    void discardPendingTransition();

    /** The auditors observing this run, or null. */
    AuditSet *audits() const { return auditSet; }

    /** The fault injector, or null for a clean run. */
    const fault::FaultInjector *faults() const { return inj.get(); }

    const EnergyModel &energyModel() const { return em; }

  private:
    EpochWindow window(const CounterSnapshot &since);

    System &sys;
    Policy &policy;
    EnergyModel em;
    std::unique_ptr<fault::FaultInjector> inj;
    std::unique_ptr<AuditSet> ownedAudit;
    AuditSet *auditSet;
    TraceSink *sink;
    MetricsRegistry *metrics;
    int epochNo = 0;
};

/**
 * Run the experiment described by @p req on a fresh System and return
 * its results. run(RunRequest) is the single entry point every
 * harness, example, and test goes through: build a request with
 * RunRequest::forMix or RunRequest::forApps, layer options on with
 * the with*() chain, and pass it here.
 *
 * Audit wiring: when req.auditSet is given, its three auditors
 * (check/audit.hh) observe the whole run — the DRAM timing auditor is
 * attached to every memory channel and the energy/perf auditors see
 * each epoch. When it is null and auditing is enabled (COSCALE_AUDIT
 * build or environment), the EpochDriver creates and wires a private
 * AuditSet.
 *
 * Observability wiring: when the request names a trace sink (path or
 * borrowed) the epoch loop emits one "epoch" event per epoch (applied
 * frequencies, exact per-component energy, predicted-vs-actual TPI,
 * the policy's slack ledger), one "dram"/chN event per memory channel
 * per epoch, the policies' own "search" events, and a final "run"
 * summary. With wantMetrics, a registry of run-wide counters,
 * accumulators, and histograms lands in RunResult::metrics.
 */
RunResult run(const RunRequest &req);

/** Compare a policy run against the matching baseline run. */
Comparison compare(const RunResult &baseline, const RunResult &run);

/**
 * Emit a machine-readable JSON report of a run (and, when given, its
 * baseline comparison), including the per-epoch frequency/power log,
 * the injected-fault summary for faulted runs, and — when
 * @p attempts > 0 — the engine's attempt count (omitted otherwise so
 * single-attempt reports stay byte-stable).
 */
void writeJsonReport(const RunResult &run,
                     const Comparison *vs_baseline, std::ostream &os,
                     int attempts = 0);

} // namespace coscale

#endif // COSCALE_SIM_RUNNER_HH
