/**
 * @file
 * The full simulated server: 16 trace-driven cores, the shared LLC,
 * and the four-channel DDR3 memory system, advanced by a
 * deterministic event-driven kernel (sim/event_queue.hh): every
 * component's cached nextEventTick() is kept in a per-rank array and
 * rescheduled on state changes, and run() is a scan–dispatch loop.
 * Rank order in the queue (memory controller first, then cores by
 * index) replicates the historical polling loop's tie-break exactly,
 * keeping golden traces byte-identical.
 *
 * The System is deep-copyable: the Offline policy clones it and runs
 * the clone one epoch ahead at maximum frequencies to obtain its
 * perfect profile. No component holds owning pointers into another;
 * the only cross-references (config pointers) are re-seated on copy,
 * and event-queue membership is re-derived from the cloned
 * components at the same time.
 */

#ifndef COSCALE_SIM_SYSTEM_HH
#define COSCALE_SIM_SYSTEM_HH

#include <string>
#include <vector>

#include "cache/llc.hh"
#include "common/dvfs.hh"
#include "common/types.hh"
#include "cpu/core.hh"
#include "memctrl/mem_ctrl.hh"
#include "model/energy_model.hh"
#include "model/perf_model.hh"
#include "power/power_model.hh"
#include "sim/event_queue.hh"
#include "trace/synthetic.hh"
#include "trace/trace.hh"

namespace coscale {

/** Knob-space enablement (model/knobs.hh, DESIGN.md §13). */
struct KnobConfig
{
    /**
     * Expose the per-core LLC way-partition dimension: the System
     * installs an even-split starting partition, enables the shadow
     * monitors, and the profile carries the per-core miss curves —
     * which puts the way dimension into makeKnobSpace() and the
     * policies' search. Requires llc.ways >= 2 * numCores (the
     * partition must leave room to move); silently inert otherwise,
     * so enabling it on the default 16-core/16-way server changes
     * nothing.
     */
    bool llcWays = false;
    int wayFloor = 1;  //!< QoS floor: minimum ways per core

    bool operator==(const KnobConfig &) const = default;
};

/** Everything needed to instantiate a System. */
struct SystemConfig
{
    int numCores = 16;
    FreqLadder coreLadder = defaultCoreLadder();
    FreqLadder memLadder = defaultMemLadder();

    LlcConfig llc;
    MemGeometry geom;
    DramTimingParams timing;
    int writeHighWater = 16;
    int writeLowWater = 8;
    double respFixedNs = 10.0;
    /**
     * Memory-backend selection (dram/mem_backend.hh): scheduler, row
     * policy, DRAM standard. The single source of truth — anything
     * standard-dependent (timing, memLadder, power.mem) is derived
     * from it by applyMemBackend(). Defaults to the paper's backend.
     */
    MemBackendSel memBackend;

    /** Optional knob dimensions beyond DVFS (all off by default). */
    KnobConfig knobs;

    Tick coreTransitionTicks = 30 * tickPerUs;
    bool ooo = false;
    int oooWindow = 128;
    int maxOutstanding = 16;
    std::uint64_t instrBudget = 20'000'000;

    Tick epochLen = tickPerMs;           //!< scaled default (see below)
    Tick profileLen = 60 * tickPerUs;
    double gamma = 0.10;                 //!< allowed slowdown

    /**
     * Epochs run at maximum frequency before the policy starts
     * deciding. Lets the caches warm so the first real decision is
     * not based on a cold-start profile, and accrues initial slack
     * cushion — an OS would do the same when a program starts.
     */
    int warmupEpochs = 1;

    /**
     * OS scheduling quantum in epochs (Section 3.3: context
     * switching with per-thread slack). 0 disables scheduling; with
     * a positive value the System may be built with more
     * applications than cores, rotated round-robin every quantum.
     */
    int schedQuantumEpochs = 0;

    /** Pipeline/cache-warmth penalty charged per context switch. */
    Tick contextSwitchTicks = 5 * tickPerUs;

    PowerParams power;  //!< geom/timing/numCores filled by factories
    std::uint64_t seed = 1;

    /**
     * Documentation of the time scale relative to the paper's setup
     * (100M instructions, 5 ms epochs, 300 us profiling, 30+ us core
     * transitions). All four are scaled together so per-workload
     * epoch counts and relative overheads match the paper.
     */
    double timeScale = 0.2;

    bool operator==(const SystemConfig &) const = default;
};

/**
 * The paper's configuration at time scale @p scale (default 0.2:
 * 20M instructions, 1 ms epochs). scale = 1.0 reproduces the full
 * 100M-instruction setup.
 */
SystemConfig makeScaledConfig(double scale = 0.2);

/**
 * Select @p sel as @p cfg's memory backend and re-derive everything
 * that depends on the DRAM standard: cfg.timing and cfg.power.timing
 * from the standard's table (with the recalibration penalty rescaled
 * by cfg.timeScale, exactly as makeScaledConfig() scales the DDR3
 * default), cfg.memLadder from the standard's bus-frequency range,
 * and cfg.power.mem currents/fRef from its electrical package. With
 * the default MemBackendSel this reproduces makeScaledConfig()'s
 * output bit-for-bit, so tests that depend on the paper's backend
 * (golden fixtures, DDR3 timing arithmetic) call this to pin it
 * explicitly, immune to the COSCALE_MEM_SCHED / COSCALE_ROW_POLICY /
 * COSCALE_DRAM_STANDARD environment overrides that makeScaledConfig()
 * honours (the CI non-default-backend leg sets those).
 */
void applyMemBackend(SystemConfig &cfg, const MemBackendSel &sel);

/** Snapshot of all cumulative counters, for window deltas. */
struct CounterSnapshot
{
    std::vector<CoreCounters> cores;
    ChannelCounters mem;                    //!< aggregate
    std::vector<ChannelCounters> memChannels; //!< per channel
    LlcCounters llc;
    /** Shadow-monitor counters (empty unless tracking is on). */
    std::vector<std::uint64_t> llcWayHits;   //!< [core][depth]
    std::vector<std::uint64_t> llcShadowMiss; //!< per core
    Tick tick = 0;
};

/** Average power of a counter window, by component. */
struct PowerBreakdown
{
    double cpuW = 0.0;   //!< cores + shared L2
    double memW = 0.0;   //!< DRAM + DIMM + MC
    double otherW = 0.0; //!< fixed rest-of-system
    double totalW() const { return cpuW + memW + otherW; }
};

/** The simulated machine. */
class System
{
  public:
    /**
     * Build a system running the given applications. Without
     * scheduling (schedQuantumEpochs == 0) @p apps must have exactly
     * numCores entries; with scheduling it may have more, and the
     * surplus waits in the run queue.
     */
    System(const SystemConfig &cfg, const std::vector<AppSpec> &apps);

    System(const System &other);
    System &operator=(const System &other);

    /** Advance simulated time to @p until. */
    void run(Tick until);

    Tick now() const { return curTick; }

    /** True once every application reached its instruction budget. */
    bool allAppsDone() const;

    /** Completion tick of the slowest application. */
    Tick lastCompletionTick() const;

    /** Per-application completion ticks (maxTick if unfinished). */
    std::vector<Tick> appCompletionTicks() const;

    /** Apply a DVFS decision (with transition penalties). */
    void applyConfig(const FreqConfig &cfg);

    FreqConfig currentConfig() const;

    CounterSnapshot snapshot() const;

    /** Model profile over the window since @p since. */
    SystemProfile makeProfile(const CounterSnapshot &since) const;

    /**
     * The Offline policy's perfect profile: clone this system, run
     * the clone for @p horizon at all-max frequencies, profile it.
     */
    SystemProfile oracleProfile(Tick horizon) const;

    /** Measured average power over the window since @p since. */
    PowerBreakdown windowPower(const CounterSnapshot &since) const;

    /** Instructions retired per core since @p since. */
    std::vector<std::uint64_t>
    instrsSince(const CounterSnapshot &since) const;

    /**
     * Context-switch rotation (scheduling mode): park every running
     * application at the back of the run queue and dispatch the
     * longest-waiting ones. No-op without waiting applications.
     */
    void rotateApps();

    /** Which application currently runs on each core. */
    const std::vector<int> &appAssignment() const { return appOnCore; }

    /** Total applications (>= numCores in scheduling mode). */
    int numApps() const { return static_cast<int>(appInstrs.size()); }

    /**
     * Events dispatched by the kernel since construction (core steps
     * plus memory-controller command issues). The KernelPin digests
     * hash it, and bench_cluster reports it per run.
     */
    std::uint64_t eventsDispatched() const { return events; }

    const SystemConfig &config() const { return cfg; }
    const Llc &llc() const { return cache; }
    const MemCtrl &memCtrl() const { return mc; }
    const Core &core(int i) const
    {
        return coreVec[static_cast<size_t>(i)];
    }
    int numCores() const { return static_cast<int>(coreVec.size()); }

    const PerfModel &perfModel() const { return perf; }
    const PowerModel &powerModel() const { return power; }

    /** An EnergyModel viewing this system's models and ladders. */
    EnergyModel
    energyModel() const
    {
        return EnergyModel(&perf, &power, &cfg.coreLadder,
                           &cfg.memLadder);
    }

    /**
     * Attach a DDR3 timing-legality auditor (check/dram_audit.hh) to
     * every memory channel; nullptr detaches. The pointer is
     * non-owning and dropped on copy, so oracle clones run un-audited.
     */
    void attachDramAuditor(DramTimingAuditor *a) { mc.attachAuditor(a); }

  private:
    /** The memory controller's rank in the event queue (cores follow). */
    static constexpr int mcRank = 0;

    void reseat();

    /**
     * Enqueue the memory traffic of @p core's LLC access to @p addr
     * at curTick, whose result is @p res: a miss's demand read (the
     * core then stalls on it), dirty-victim writebacks and the
     * next-line prefetch. A plain hit has none and never calls this;
     * run() handles it inline.
     */
    void forwardToMemory(Core &core, BlockAddr addr,
                         const LlcAccessResult &res);

    // --- event-kernel reschedule hooks ---
    // Called after any operation that may move a component's cached
    // nextEventTick(); the queue key must always equal the
    // component's current value when run() scans.
    void
    rescheduleMc()
    {
        eq.schedule(mcRank, mc.nextEventTick());
    }

    void
    rescheduleCore(int i)
    {
        eq.schedule(mcRank + 1 + i,
                    coreVec[static_cast<size_t>(i)].nextEventTick());
    }

    /** Re-derive every queue key (construction, copy, applyConfig). */
    void syncQueue();

    /** Credit a core's retired instructions to its current app. */
    void harvestCore(int i);

    SystemConfig cfg;
    CoreConfig coreCfg;        //!< shared by all cores (pointer target)
    std::vector<Core> coreVec;
    Llc cache;
    MemCtrl mc;
    PerfModel perf;
    PowerModel power;
    Tick curTick = 0;
    std::uint64_t events = 0;  //!< kernel events dispatched
    EventQueue eq;             //!< rank 0 = mc, rank 1+i = core i

    // --- scheduling state (Section 3.3 context switching) ---
    struct ParkedApp
    {
        int app = -1; //!< -1 = unassigned; real ids start at 0
        TraceHandle trace;
    };
    std::vector<int> appOnCore;          //!< app id per core
    std::vector<ParkedApp> parked;       //!< FIFO run queue
    std::vector<std::uint64_t> appInstrs; //!< retired per app
    std::vector<Tick> appCompletion;     //!< budget-crossing ticks
    std::vector<std::uint64_t> ticAtDispatch; //!< core TIC at swap-in
    bool rotated = false;                //!< any rotation happened
    int nextSwapCore = 0;                //!< round-robin cursor
};

} // namespace coscale

#endif // COSCALE_SIM_SYSTEM_HH
