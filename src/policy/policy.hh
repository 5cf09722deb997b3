/**
 * @file
 * The energy-management policy interface and the shared
 * performance-slack tracker (Section 3, "Performance management").
 *
 * Slack for application i accumulates per epoch:
 *   slack_i += I_i * TPIref_i * (1 + gamma) - T_epoch
 * where I_i is the instructions retired, TPIref_i the modelled
 * time-per-instruction at the policy's reference frequencies
 * (all-max for honest accounting), and gamma the allowed slowdown.
 * Positive slack means the application is ahead of its allowed pace.
 */

#ifndef COSCALE_POLICY_POLICY_HH
#define COSCALE_POLICY_POLICY_HH

#include <limits>
#include <string>
#include <vector>

#include "common/types.hh"
#include "model/energy_model.hh"
#include "model/perf_model.hh"
#include "obs/metrics.hh"
#include "obs/trace_sink.hh"

namespace coscale {

/** End-of-epoch measurements handed back to the policy. */
struct EpochObservation
{
    SystemProfile epochProfile;      //!< derived from epoch counters
    std::vector<std::uint64_t> instrs; //!< retired per core this epoch
    Tick epochTicks = 0;
    FreqConfig applied;              //!< configuration that ran
    std::vector<int> appOnCore;      //!< thread per core (may be empty)
};

/** Thread id running on core @p i under mapping @p map (identity when
 *  empty — the no-scheduling case). */
inline int
appOf(const std::vector<int> &map, int i)
{
    return map.empty() ? i : map[static_cast<size_t>(i)];
}

/** Per-application accumulated-slack bookkeeping. */
class SlackTracker
{
  public:
    SlackTracker() = default;

    /**
     * @param gamma the user-facing performance bound
     * @param safety_frac fraction of gamma held back as margin for
     *        model error and workload drift: the tracker internally
     *        targets gamma * (1 - safety_frac) so the *measured*
     *        degradation stays under gamma (the paper's CoScale lands
     *        at 9.6% under a 10% bound for the same reason)
     */
    SlackTracker(int num_apps, double gamma, double safety_frac = 0.04)
        : gammaBound(gamma * (1.0 - safety_frac)),
          slackSecsVec(static_cast<size_t>(num_apps), 0.0)
    {
    }

    /**
     * Account one application's epoch: @p instrs retired over
     * @p elapsed_secs, against reference pace @p ref_tpi_secs.
     */
    void
    update(int i, double ref_tpi_secs, std::uint64_t instrs,
           double elapsed_secs)
    {
        slackSecsVec[static_cast<size_t>(i)] +=
            static_cast<double>(instrs) * ref_tpi_secs
                * (1.0 + gammaBound)
            - elapsed_secs;
    }

    /**
     * Largest admissible TPI for the next epoch of length
     * @p epoch_secs, given the predicted reference pace.
     *
     * Derivation: requiring slack to stay non-negative after an epoch
     * at TPI t gives
     *   slack + E * ((1+gamma) * ref / t - 1) >= 0
     *   => t <= (1+gamma) * ref * E / (E - slack).
     */
    double
    allowedTpi(int i, double ref_tpi_secs, double epoch_secs) const
    {
        double s = slackSecsVec[static_cast<size_t>(i)];
        if (s >= epoch_secs) {
            // More than a full epoch of accumulated headroom.
            return std::numeric_limits<double>::infinity();
        }
        return (1.0 + gammaBound) * ref_tpi_secs * epoch_secs
               / (epoch_secs - s);
    }

    double
    slackSecs(int i) const
    {
        return slackSecsVec[static_cast<size_t>(i)];
    }

    double gamma() const { return gammaBound; }
    int size() const { return static_cast<int>(slackSecsVec.size()); }

  private:
    double gammaBound = 0.10;
    std::vector<double> slackSecsVec;
};

/** Abstract frequency-selection policy. */
class Policy
{
  public:
    virtual ~Policy() = default;

    /** Human-readable policy name (used in benches and logs). */
    virtual std::string name() const = 0;

    /**
     * Choose the configuration for the rest of the epoch, given the
     * profiling snapshot.
     */
    virtual FreqConfig decide(const SystemProfile &profile,
                              const EnergyModel &em,
                              const FreqConfig &current,
                              Tick epoch_len) = 0;

    /** Digest end-of-epoch measurements (slack accounting). */
    virtual void observeEpoch(const EpochObservation &obs,
                              const EnergyModel &em) = 0;

    /**
     * decide() wrapped in graceful degradation — the entry point the
     * runner actually calls. Two guards, in order:
     *
     *  1. Slack-exhaustion escape hatch: when the policy keeps a
     *     ledger and any application's deficit exceeds one
     *     gamma-epoch (slack < -gamma * epoch), every frequency goes
     *     to max without consulting decide() at all. Beyond that
     *     deficit no admissible configuration exists anyway, so for a
     *     well-behaved search this is behavior-preserving; for a
     *     misbehaving one it is the emergency exit that keeps the
     *     run inside the degradation bound.
     *
     *  2. Model validation, both before and after the search: when
     *     the snapshot itself is poisoned (a counter dropout reads
     *     back NaN, under which a gradient search can spin forever on
     *     always-false comparisons) the current configuration is held
     *     without consulting decide(); a returned decision whose
     *     predicted TPI is non-finite or non-positive on any core, or
     *     whose indices fall off the ladders, is likewise replaced by
     *     the current configuration.
     *
     * Both guards emit "guard" trace events / guard.* metrics when
     * observability is attached. Non-virtual by design: every policy
     * gets the same safety net.
     */
    FreqConfig safeDecide(const SystemProfile &profile,
                          const EnergyModel &em,
                          const FreqConfig &current, Tick epoch_len);

    /**
     * True if decide() should be fed a perfect oracle profile of the
     * upcoming epoch instead of the 300 us profiling window (the
     * Offline policy).
     */
    virtual bool wantsOracleProfile() const { return false; }

    /**
     * The (safety-adjusted) slowdown bound this policy holds slack
     * against. Used by the audit layer to parameterise its shadow
     * ledger; policies without a ledger report the paper's default.
     */
    virtual double slackGamma() const { return 0.10; }

    /**
     * This policy's slack ledger, or nullptr for ledger-free policies
     * (Baseline, PowerCap, FastCap). The runner traces it per epoch.
     */
    virtual const SlackTracker *slackLedger() const { return nullptr; }

    /**
     * Update the power cap this policy optimizes under, in watts. A
     * no-op for uncapped policies; the capped ones (PowerCap,
     * FastCap) honour it from the next decide(). The cluster layer's
     * allocator calls this every cluster epoch with the node's
     * granted share of the global budget.
     */
    virtual void setPowerCap(double) {}

    // --- observability wiring (obs/) ---

    /**
     * Attach a per-run trace sink and metrics registry (either may be
     * null). Attached by the EpochDriver that steps the policy and
     * detached when it is destroyed; policies emit search telemetry
     * through traceSearch().
     */
    void
    attachObs(TraceSink *sink, MetricsRegistry *metrics)
    {
        obsSink = sink;
        obsMetrics = metrics;
    }

    /** Simulated tick stamped on search events (set before decide()). */
    void setObsTick(Tick now) { obsTick = now; }

  protected:
    /**
     * Emit one per-decision search summary: candidate configurations
     * whose SER (or feasibility) was evaluated, gradient steps taken
     * by dimension, the largest core group moved at once (Fig. 3),
     * and the winning SER (negative for model-free policies).
     */
    void
    traceSearch(std::uint64_t candidates, std::uint64_t mem_steps,
                std::uint64_t group_steps, int max_group,
                double best_ser) const
    {
        if (obsMetrics) {
            obsMetrics->counter("search.decides").inc();
            obsMetrics->counter("search.candidates").inc(candidates);
            obsMetrics->counter("search.mem_steps").inc(mem_steps);
            obsMetrics->counter("search.group_steps").inc(group_steps);
            if (best_ser >= 0.0)
                obsMetrics->accum("search.best_ser").sample(best_ser);
        }
        if (obsSink) {
            obsSink->write(TraceEvent(obsTick, "search", name())
                               .f("candidates", candidates)
                               .f("mem_steps", mem_steps)
                               .f("group_steps", group_steps)
                               .f("max_group", max_group)
                               .f("best_ser", best_ser));
        }
    }

    bool obsEnabled() const { return obsSink || obsMetrics; }

    TraceSink *obsSink = nullptr;
    MetricsRegistry *obsMetrics = nullptr;
    Tick obsTick = 0;
};

/** The no-energy-management baseline: everything at max frequency. */
class BaselinePolicy final : public Policy
{
  public:
    std::string name() const override { return "Baseline"; }

    FreqConfig
    decide(const SystemProfile &profile, const EnergyModel &,
           const FreqConfig &, Tick) override
    {
        return FreqConfig::allMax(static_cast<int>(profile.cores.size()));
    }

    void observeEpoch(const EpochObservation &,
                      const EnergyModel &) override
    {
    }
};

} // namespace coscale

#endif // COSCALE_POLICY_POLICY_HH
