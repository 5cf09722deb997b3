/**
 * @file
 * Trace-driven core model (Section 4.1): in-order, single-issue,
 * one outstanding LLC miss, Alpha-like. Optionally emulates an
 * out-of-order instruction window (Section 4.2.4) that overlaps LLC
 * misses within a 128-instruction window (MLP but no extra ILP).
 *
 * The core alternates between "compute" segments (gap cycles at the
 * current core frequency) and LLC accesses whose latency the cache
 * and memory system determine. Per-core DVFS transitions halt the
 * core for a configurable few tens of microseconds.
 *
 * Maintains the CoScale counter set: TIC/TMS/TLA/TLM/TLS, the four
 * Core Activity Counters, and stall-time integrators.
 */

#ifndef COSCALE_CPU_CORE_HH
#define COSCALE_CPU_CORE_HH

#include <algorithm>
#include <deque>

#include "check/contract.hh"
#include "common/dvfs.hh"
#include "common/types.hh"
#include "stats/perf_counters.hh"
#include "trace/trace.hh"

namespace coscale {

/** Per-core static configuration. */
struct CoreConfig
{
    FreqLadder ladder;                    //!< DVFS ladder (idx 0 fastest)
    Tick transitionTicks = 30 * tickPerUs; //!< DVFS halt per change
    bool ooo = false;                     //!< emulate MLP window
    int oooWindow = 128;                  //!< instruction window
    int maxOutstanding = 16;              //!< MSHRs in OoO mode
    std::uint64_t instrBudget = 20'000'000; //!< completion point
};

/** What a core wants from the System when its next event fires. */
struct CoreEvent
{
    bool wantsLlc = false;
    BlockAddr addr = 0;
    bool write = false;
};

/** One trace-driven core. Plain value type (config pointer reseated). */
class Core
{
  public:
    Core() = default;
    Core(CoreId id, const CoreConfig *cfg, TraceHandle trace, Tick start);

    /** Re-point at the owning system's config after a copy. */
    void reseatConfig(const CoreConfig *c) { cfg = c; }

    /** Absolute tick of the next core event (maxTick if blocked). */
    Tick nextEventTick() const { return wakeAt; }

    /** True while executing a gap that ends in an LLC access. */
    bool computing() const { return state == State::Compute; }

    /**
     * Block the access TraceHandle::lookahead records after the
     * pending one will touch: the farthest address the core already
     * knows, for host-cache prefetching.
     */
    BlockAddr aheadAddr() const { return trace.newest().addr; }

    /**
     * Advance the core; must be called when simulated time reaches
     * nextEventTick(). May request an LLC access, in which case the
     * System must follow up with completeHit() or sendToMemory().
     * Defined inline below, with the rest of the per-access path.
     */
    inline CoreEvent step(Tick now);

    /** The pending LLC access hit; resume after @p hit_latency. */
    inline void completeHit(Tick now, Tick hit_latency);

    /**
     * The pending LLC access missed and was dispatched to memory.
     * @return the request token to match the completion with.
     */
    std::uint64_t sendToMemory(Tick now);

    /** A read for @p token finishes at @p finish_at. */
    void memCompleted(std::uint64_t token, Tick finish_at);

    /** Change this core's DVFS state (halts the core briefly). */
    void setFrequencyIndex(int idx, Tick now);

    /**
     * Context switch: replace the running trace with @p incoming and
     * return the outgoing one. The pipeline and MSHRs are flushed
     * (in-flight misses are abandoned; their completions will be
     * ignored) and execution restarts on the incoming trace after a
     * switch penalty. Hardware counters keep accumulating — they are
     * per-core, not per-thread; per-thread attribution is the OS's
     * (the System's) job.
     */
    TraceHandle swapTrace(TraceHandle incoming, Tick now,
                          Tick switch_penalty);

    /**
     * Arm a marker that records the tick at which this core's
     * cumulative instruction count (TIC) crosses @p tic_value — how
     * the scheduler detects a thread reaching its budget mid-epoch.
     */
    void
    setBudgetMarker(std::uint64_t tic_value)
    {
        budgetMarkerTic = tic_value;
        budgetMarkerAt = maxTick;
    }

    /** Tick the armed marker fired at (maxTick if not yet). */
    Tick budgetMarkerTick() const { return budgetMarkerAt; }

    int frequencyIndex() const { return freqIdx; }
    Freq freq() const { return cfg->ladder.freq(freqIdx); }

    const CoreCounters &counters() const { return stats; }
    std::uint64_t instrsRetired() const { return stats.tic; }

    /** True once the instruction budget has been reached. */
    bool done() const { return completionAt != maxTick; }
    Tick completionTick() const { return completionAt; }

    CoreId id() const { return coreId; }
    int outstandingMisses() const
    {
        return static_cast<int>(outstanding.size());
    }

  private:
    enum class State
    {
        Compute,   //!< executing the current gap
        StallL2,   //!< blocked on an L2 hit
        StallMem,  //!< blocked on a DRAM access (or MLP window/MSHR)
        NeedLlc,   //!< transient: step() returned an LLC request
    };

    struct OutMiss
    {
        std::uint64_t token = 0;
        std::uint64_t atInstr = 0; //!< retired-instruction position
        Tick resolveAt = maxTick;  //!< known once the MC commits it
    };

    /** Pull the next trace record and enter Compute (or stall). */
    inline void loadNextRecord(Tick now);

    /** Retire the instructions of the just-finished gap. */
    inline void retireGap(Tick now);

    /** Drop resolved misses from the front of the outstanding queue. */
    inline void drainResolved(Tick now);

    /**
     * True if the MLP window or MSHR limit forces a stall (out-of-order
     * mode only, so out of line).
     */
    bool mustStallForMisses() const;

    /** Start executing the gap of the record in `current`. */
    inline void startGap(Tick now);

    CoreId coreId = -1;
    const CoreConfig *cfg = nullptr;
    TraceHandle trace;

    int freqIdx = 0;
    Tick period = 0;

    State state = State::Compute;
    TraceRecord current;      //!< record whose gap is being executed
    Tick computeStart = 0;
    Tick computeEndAt = 0;
    std::uint64_t gapCyclesLeft = 0; //!< remaining after a transition
    Tick wakeAt = maxTick;
    Tick stallStart = 0;
    Tick transitionUntil = 0;

    std::deque<OutMiss> outstanding;
    std::uint64_t nextToken = 1;
    bool stalledOnFront = false;  //!< StallMem waits for front miss

    Tick completionAt = maxTick;
    std::uint64_t budgetMarkerTic = ~std::uint64_t(0);
    Tick budgetMarkerAt = maxTick;
    CoreCounters stats;
};

// --- the per-access path, inline so System::run's loop carries it ---
// (always_inline where the compiler's size heuristics would otherwise
// keep a call on every access)

inline void
Core::retireGap(Tick now)
{
    stats.tic += current.gapInstrs;
    stats.computeTicks += now - computeStart;
    stats.aluOps += current.aluOps;
    stats.fpuOps += current.fpuOps;
    stats.branchOps += current.branchOps;
    stats.memOps += current.memOps;
    if (completionAt == maxTick && stats.tic >= cfg->instrBudget)
        completionAt = now;
    if (budgetMarkerAt == maxTick && stats.tic >= budgetMarkerTic)
        budgetMarkerAt = now;
}

inline void
Core::drainResolved(Tick now)
{
    while (!outstanding.empty() && outstanding.front().resolveAt <= now)
        outstanding.pop_front();
}

inline void
Core::startGap(Tick now)
{
    computeStart = std::max(now, transitionUntil);
    gapCyclesLeft = current.gapCycles;
    computeEndAt = computeStart + gapCyclesLeft * period;
    state = State::Compute;
    wakeAt = computeEndAt;
}

[[gnu::always_inline]] inline void
Core::loadNextRecord(Tick now)
{
    drainResolved(now);
    if (cfg->ooo && mustStallForMisses()) {
        state = State::StallMem;
        stallStart = now;
        stalledOnFront = true;
        stats.tls += 1;
        Tick resolve = outstanding.front().resolveAt;
        wakeAt = resolve == maxTick
                     ? maxTick
                     : std::max(resolve, transitionUntil);
        return;
    }
    stalledOnFront = false;
    current = trace.next();
    startGap(now);
}

[[gnu::always_inline]] inline CoreEvent
Core::step(Tick now)
{
    CoreEvent ev;
    switch (state) {
      case State::Compute:
        retireGap(now);
        stats.tla += 1;
        state = State::NeedLlc;
        wakeAt = maxTick;
        ev.wantsLlc = true;
        ev.addr = current.addr;
        ev.write = current.isWrite != 0;
        return ev;

      case State::StallL2:
        stats.l2StallTicks += now - stallStart;
        break;

      case State::StallMem:
        stats.memStallTicks += now - stallStart;
        break;

      case State::NeedLlc:
        coscale_panic("core %d stepped while awaiting LLC result",
                      coreId);
    }
    loadNextRecord(now);
    return ev;
}

inline void
Core::completeHit(Tick now, Tick hit_latency)
{
    COSCALE_CHECK(state == State::NeedLlc,
                  "completeHit in wrong state on core %d", coreId);
    stats.tms += 1;
    state = State::StallL2;
    stallStart = now;
    wakeAt = std::max(now + hit_latency, transitionUntil);
}

} // namespace coscale

#endif // COSCALE_CPU_CORE_HH
