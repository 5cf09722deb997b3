/**
 * @file
 * The single-component comparison policies of Section 3.2:
 *
 *  - MemScale: memory-subsystem DVFS only, cores pinned at maximum;
 *  - CPUOnly: per-core DVFS only, memory pinned at maximum, with the
 *    optimistic exhaustive-equivalent selection the paper grants it.
 *
 * Both assume the unmanaged component behaves next epoch as it did in
 * the profiling window, and both keep honest (all-max-referenced)
 * slack accounting.
 */

#ifndef COSCALE_POLICY_SIMPLE_POLICIES_HH
#define COSCALE_POLICY_SIMPLE_POLICIES_HH

#include "policy/policy.hh"
#include "policy/search_common.hh"

namespace coscale {

/**
 * Shared base: honest slack accounting against all-max reference.
 * Offline and Semi-coordinated keep the same ledger.
 */
class TrackedPolicy : public Policy
{
  public:
    TrackedPolicy(int num_apps, double gamma)
        : tracker(num_apps, gamma)
    {
    }

    void
    observeEpoch(const EpochObservation &obs,
                 const EnergyModel &em) override
    {
        int n = static_cast<int>(obs.epochProfile.cores.size());
        FreqConfig all_max = FreqConfig::allMax(n);
        double secs = ticksToSeconds(obs.epochTicks);
        for (int i = 0; i < n; ++i) {
            double ref = em.tpi(obs.epochProfile, i, all_max);
            tracker.update(appOf(obs.appOnCore, i), ref,
                           obs.instrs[static_cast<size_t>(i)], secs);
        }
    }

    const SlackTracker &slack() const { return tracker; }

    double slackGamma() const override { return tracker.gamma(); }

    const SlackTracker *slackLedger() const override { return &tracker; }

  protected:
    SlackTracker tracker;
};

/** Memory-subsystem DVFS only (MemScale, [10]). */
class MemScalePolicy final : public TrackedPolicy
{
  public:
    using TrackedPolicy::TrackedPolicy;

    std::string name() const override { return "MemScale"; }

    FreqConfig
    decide(const SystemProfile &profile, const EnergyModel &em,
           const FreqConfig &, Tick epoch_len) override
    {
        int n = static_cast<int>(profile.cores.size());
        FreqConfig cfg = FreqConfig::allMax(n);
        std::vector<double> ref = refTpis(em, profile, cfg);
        std::vector<double> allowed =
            allowedTpis(tracker, ref, epoch_len, profile.appOnCore);
        SearchStats stats;
        cfg.memIdx = memOnlyBest(em, profile, cfg.coreIdx, allowed,
                                 obsEnabled() ? &stats : nullptr);
        if (obsEnabled())
            traceSearch(stats.candidates, 0, 0, 0, stats.bestSer);
        return cfg;
    }
};

/**
 * Measurement-driven feedback governor — the classic alternative to
 * model-based control that Section 2.1 contrasts CoScale against.
 * It shares the honest slack accounting but uses *no* performance or
 * power model when deciding: when slack accumulates it steps one
 * dimension down (alternating CPU and memory), and when slack goes
 * negative it steps both back up. Converges slowly, dithers around
 * phase changes, and cannot trade the two knobs against each other —
 * which is exactly why the paper's model-predictive search wins.
 */
class ReactivePolicy final : public TrackedPolicy
{
  public:
    using TrackedPolicy::TrackedPolicy;

    std::string name() const override { return "Reactive"; }

    FreqConfig
    decide(const SystemProfile &profile, const EnergyModel &em,
           const FreqConfig &current, Tick epoch_len) override
    {
        int n = static_cast<int>(profile.cores.size());
        double epoch_secs = ticksToSeconds(epoch_len);

        // Aggregate slack position, in fractions of an epoch.
        double worst = 1e18;
        for (int i = 0; i < n; ++i)
            worst = std::min(worst, tracker.slackSecs(i));
        double pos = worst / epoch_secs;

        int cpu = current.coreIdx.empty() ? 0 : current.coreIdx[0];
        int mem = current.memIdx;
        if (pos > 0.25 * tracker.gamma()) {
            // Comfortably ahead: spend, alternating dimensions.
            if (stepCpuNext && cpu + 1 < em.cores().size())
                cpu += 1;
            else if (mem + 1 < em.mem().size())
                mem += 1;
            else if (cpu + 1 < em.cores().size())
                cpu += 1;
            stepCpuNext = !stepCpuNext;
        } else if (pos < 0.0) {
            // Behind the bound: back off both knobs.
            cpu = std::max(0, cpu - 1);
            mem = std::max(0, mem - 1);
        }

        FreqConfig cfg;
        cfg.coreIdx.assign(static_cast<size_t>(n), cpu);
        cfg.memIdx = mem;
        // Model-free: one candidate per decision, no SER evaluated.
        if (obsEnabled())
            traceSearch(1, 0, 0, 0, -1.0);
        return cfg;
    }

  private:
    bool stepCpuNext = true;
};

/** Per-core CPU DVFS only, exhaustive-equivalent selection. */
class CpuOnlyPolicy final : public TrackedPolicy
{
  public:
    using TrackedPolicy::TrackedPolicy;

    std::string name() const override { return "CPUOnly"; }

    FreqConfig
    decide(const SystemProfile &profile, const EnergyModel &em,
           const FreqConfig &, Tick epoch_len) override
    {
        int n = static_cast<int>(profile.cores.size());
        FreqConfig all_max = FreqConfig::allMax(n);
        std::vector<double> ref = refTpis(em, profile, all_max);
        std::vector<double> allowed =
            allowedTpis(tracker, ref, epoch_len, profile.appOnCore);
        double ser = 0.0;
        SearchStats stats;
        FreqConfig pick = capScanBestForMem(
            em, profile, 0, allowed, ser,
            obsEnabled() ? &stats : nullptr);
        if (obsEnabled())
            traceSearch(stats.candidates, 0, 0, 0, stats.bestSer);
        return pick;
    }
};

} // namespace coscale

#endif // COSCALE_POLICY_SIMPLE_POLICIES_HH
