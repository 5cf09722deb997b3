/**
 * @file
 * The on-chip memory controller and per-channel DRAM scheduling model.
 *
 * The backend is pluggable (dram/mem_backend.hh): a Scheduler picks
 * the next request (paper FCFS-with-write-drain or FR-FCFS), a
 * RowPolicyModel manages the row buffer (closed-page auto-precharge
 * or open-page), and a DramStandard names the timing/current package
 * (DDR3-800, DDR4-1600, LPDDR4-1600). The default MemBackendSel is
 * the paper's Section 4.1 configuration and reproduces the
 * pre-refactor controller bit-for-bit.
 *
 * Timing constraints modelled per channel: bank cycle time (tRCD /
 * tCL / tRAS / tRTP / tWR / tRP), same-rank ACT-to-ACT spacing (tRRD),
 * the four-activate window (tFAW), shared data-bus occupancy (burst
 * cycles per the standard), periodic per-rank refresh (tREFI / tRFC),
 * and frequency-recalibration halts (recalCycles memory cycles plus
 * recalExtraNs, both per-standard).
 *
 * Everything is a plain value type so the whole simulator can be
 * deep-copied (needed by the Offline oracle policy): the Scheduler
 * and RowPolicyModel are immutable singletons re-bound from the
 * config on copy, and every piece of mutable scheduling state (queues,
 * bank/rank state, drain hysteresis, the FR-FCFS anti-starvation
 * counter) is an ordinary copyable member.
 */

#ifndef COSCALE_MEMCTRL_MEM_CTRL_HH
#define COSCALE_MEMCTRL_MEM_CTRL_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/dvfs.hh"
#include "common/types.hh"
#include "dram/ddr3_params.hh"
#include "dram/mem_backend.hh"
#include "dram/row_policy.hh"
#include "memctrl/mem_req.hh"
#include "memctrl/scheduler.hh"
#include "stats/perf_counters.hh"

namespace coscale {

class DramTimingAuditor;

/** Memory-controller configuration. */
struct MemCtrlConfig
{
    MemGeometry geom;
    DramTimingParams timing;
    FreqLadder ladder;        //!< bus-frequency ladder (index 0 fastest)
    int writeHighWater = 16;  //!< write-drain trigger (half of 32-deep)
    int writeLowWater = 8;    //!< write-drain release
    double respFixedNs = 10.0; //!< MC pipeline + link overhead per read
    MemBackendSel backend;     //!< scheduler / row policy / standard
};

/**
 * Which channel a frequency change targets: one channel (the
 * MultiScale per-channel domains) or all of them (the paper's shared
 * bus domain).
 */
struct ChannelSel
{
    int ch = -1;  //!< channel index, or -1 for every channel

    static constexpr ChannelSel all() { return ChannelSel{}; }
    static constexpr ChannelSel one(int c) { return ChannelSel{c}; }
    constexpr bool isAll() const { return ch < 0; }
};

/** One DRAM channel: queues, bank/rank state, and the scheduler. */
class Channel
{
  public:
    Channel() = default;
    Channel(const MemCtrlConfig *cfg, int id, int freq_idx, Tick start);

    /** Add a transaction to the appropriate queue. */
    void enqueue(const MemReq &req);

    /**
     * Absolute tick of the next command issue, or maxTick if idle.
     * The value is cached behind a dirty flag that enqueue(), step(),
     * and changeFrequency() invalidate; repeated calls between state
     * changes cost one branch (inline fast path).
     */
    Tick
    nextEventTick() const
    {
        if (!haveCand && !selectCandidate())
            return maxTick;
        return candIssueAt;
    }

    /**
     * Test hook: drop the cached candidate so the next
     * nextEventTick() recomputes from scratch. Recomputation is
     * idempotent, so cached == recomputed pins the cache-invalidation
     * contract (see test_memctrl.cc).
     */
    void invalidateCandidateForTest() { haveCand = false; }

    /**
     * Commit the pending command. Must only be called when the
     * simulated time has reached nextEventTick(). Returns a
     * completion when a read or prefetch was issued.
     */
    std::optional<MemCompletion> step();

    /** Apply a bus-frequency change taking effect after @p halt_until. */
    void changeFrequency(int freq_idx, Tick halt_until);

    /**
     * Re-point at the owning controller's config after a copy and
     * re-bind the backend singletons it names.
     */
    void
    reseatConfig(const MemCtrlConfig *c)
    {
        cfg = c;
        bindBackend();
    }

    /**
     * Attach a timing-legality auditor (check/dram_audit.hh), seeding
     * it with this channel's live floors so mid-run attachment never
     * false-fires. Pass nullptr to detach. The pointer is non-owning
     * and deliberately NOT carried across copies: a cloned controller
     * (the Offline oracle) would otherwise replay a divergent command
     * stream into the same shadow.
     */
    void attachAuditor(DramTimingAuditor *a);

    /** Cumulative counters. */
    const ChannelCounters &counters() const { return stats; }

    /** Current bus-frequency ladder index of this channel. */
    int freqIndex() const { return freqIdx; }

  private:
    struct RankState
    {
        Tick actWindow[4] = {0, 0, 0, 0}; //!< last four ACT ticks
        int actCursor = 0;
        std::uint64_t actCount = 0; //!< ACTs issued so far
        Tick lastActAt = 0;        //!< for tRRD
        Tick nextRefreshDue = 0;
        Tick refreshUntil = 0;
        Tick activeUntil = 0;      //!< power accounting (union of use)
    };

    /** Resolve the backend singletons named by the config. */
    void
    bindBackend()
    {
        sched = &Scheduler::get(cfg->backend.sched);
        rowPol = &RowPolicyModel::get(cfg->backend.rowPolicy);
    }

    /**
     * Pick the next request to issue into the candidate cache;
     * updates drainMode. Const because it only refreshes the cache:
     * recomputing from identical queue state always reproduces the
     * same candidate (the drain-hysteresis update is idempotent
     * between queue changes, and Scheduler::pick() is pure).
     */
    bool selectCandidate() const;

    /** Earliest ACT (or CAS for open-page hits) tick for @p req. */
    Tick computeIssueTick(const MemReq &req) const;

    /**
     * Apply refreshes due on @p rank before @p t; may push t later.
     * @p commit_refreshes distinguishes the real issue path (step()
     * passes the live refresh counter) from the timing probes in
     * computeIssueTick(), which run on a copy of the rank state and
     * pass nullptr so probing never commits stats.
     */
    Tick applyRefreshes(RankState &rank, Tick t,
                        std::uint64_t *commit_refreshes) const;

    /** Account rank-active time for the power model. */
    void accountActive(RankState &rank, Tick from, Tick to);

    const MemCtrlConfig *cfg = nullptr;
    const Scheduler *sched = nullptr;     //!< singleton; see bindBackend
    const RowPolicyModel *rowPol = nullptr; //!< singleton
    DramTimingAuditor *auditor = nullptr; //!< non-owning; not copied
    ResolvedTiming t;
    int chanId = 0;
    int freqIdx = 0;

    std::deque<MemReq> readQ;
    std::deque<MemReq> writeQ;
    std::vector<BankState> banks;  //!< [rank * banksPerRank + bank]
    std::vector<RankState> ranks;
    Tick busFreeAt = 0;
    Tick haltUntil = 0;
    Tick lastCommitAt = 0;

    /**
     * Consecutive commits that served a request other than the front
     * of its queue (FR-FCFS row-hit bypasses). Committed state — only
     * step() updates it — feeding Scheduler::pick()'s anti-starvation
     * guard through QueueView.
     */
    std::uint32_t frontBypasses = 0;

    // Candidate cache: haveCand is the (inverted) dirty flag, cleared
    // by enqueue/step/changeFrequency. drainMode is scheduler state,
    // but it only ever changes inside selectCandidate() and its
    // update is a pure function of the queue depths, so refreshing
    // the cache from a const context is safe.
    mutable bool drainMode = false;
    mutable bool haveCand = false;
    mutable bool candIsWrite = false;
    mutable std::uint32_t candIndex = 0;
    mutable Tick candIssueAt = 0;

    ChannelCounters stats;
};

/** The multi-channel memory controller with a shared frequency domain. */
class MemCtrl
{
  public:
    MemCtrl() = default;
    MemCtrl(MemCtrlConfig cfg, Tick start);

    // Value semantics: channels point back into our config, so the
    // pointer must be re-seated on copy/move.
    MemCtrl(const MemCtrl &other);
    MemCtrl &operator=(const MemCtrl &other);

    /** Route a transaction to its channel. */
    void enqueue(const MemReq &req);

    /**
     * Earliest pending command across channels (maxTick when idle).
     * Cached with the winning channel behind a dirty flag so the
     * event kernel's reschedule path and step() share one scan.
     */
    Tick
    nextEventTick() const
    {
        return nextValid ? nextTick : recomputeNext();
    }

    /** Issue the earliest pending command. */
    std::optional<MemCompletion> step();

    /** Test hook: force a from-scratch next-event recompute. */
    void
    invalidateCandidatesForTest()
    {
        nextValid = false;
        for (auto &ch : channels)
            ch.invalidateCandidateForTest();
    }

    /**
     * Change the bus frequency of @p sel: every channel
     * (ChannelSel::all(), the paper's shared domain — all accesses
     * halt for the re-calibration of recalCycles memory cycles plus
     * recalExtraNs) or a single channel (ChannelSel::one(), the
     * MultiScale per-channel domains — only that channel halts). The
     * single audited entry point for memory-frequency changes.
     */
    void setFrequency(ChannelSel sel, int idx, Tick now);

    int frequencyIndex() const { return freqIdx; }
    Freq busFreq() const { return config.ladder.freq(freqIdx); }

    /**
     * Attach @p a to every channel (nullptr detaches). Auditors are
     * dropped on copy: clones run un-audited.
     */
    void attachAuditor(DramTimingAuditor *a);

    int
    channelFrequencyIndex(int ch) const
    {
        return channels[static_cast<size_t>(ch)].freqIndex();
    }

    Freq
    channelBusFreq(int ch) const
    {
        return config.ladder.freq(channelFrequencyIndex(ch));
    }

    /** True if any two channels run at different frequencies. */
    bool perChannelFrequencies() const;
    const MemCtrlConfig &cfgRef() const { return config; }

    /** Sum of all per-channel counters. */
    ChannelCounters totalCounters() const;

    const ChannelCounters &
    channelCounters(int c) const
    {
        return channels[static_cast<size_t>(c)].counters();
    }

    int numChannels() const { return static_cast<int>(channels.size()); }

  private:
    void reseatChannelPointers();

    /** Slow path of nextEventTick(): rescan channels into the cache. */
    Tick recomputeNext() const;

    MemCtrlConfig config;
    std::vector<Channel> channels;
    int freqIdx = 0;

    // Earliest-channel cache, invalidated by enqueue/step/frequency
    // changes (mutable: refreshed from const nextEventTick()).
    mutable bool nextValid = false;
    mutable Tick nextTick = maxTick;
    mutable int nextChan = -1;
};

} // namespace coscale

#endif // COSCALE_MEMCTRL_MEM_CTRL_HH
