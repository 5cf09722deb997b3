/**
 * @file
 * FastCap (PAPERS.md): the per-node controller of the cluster
 * power-capping scheme, in two phases. Phase 1 fits: starting from
 * all-max, a greedy walk takes the highest-utility (delta power /
 * delta performance) step until the predicted power fits under the
 * cap. Phase 2 spends any leftover headroom on performance: it
 * repeatedly takes the single upgrade step (one memory rung or one
 * core rung back up) that most reduces the predicted relative
 * execution time while still fitting under the cap — the
 * maximise-minimum-performance fairness rule, expressed on the
 * CoScale performance model.
 *
 * Phase 1 alone is the single machine's power-capping extension
 * (Section 2.3: CoScale "can be readily extended to cap power"): the
 * roster's `powercap` is this class with the fairness phase off,
 * named PowerCap.
 *
 * The cap is mutable (setPowerCap): the cluster allocator re-divides
 * the global budget every cluster epoch and pushes each node's grant
 * into its FastCap instance before the next decide().
 *
 * Deliberately NOT overridden: slackLedger(). safeDecide()'s
 * slack-exhaustion escape hatch jumps to all-max frequencies when a
 * ledger shows a deep deficit — under a tight cap that is exactly the
 * wrong move (it would blow the budget the node was granted). For a
 * capped node the power bound dominates the performance bound, so the
 * ledger stays internal, for reporting only.
 */

#ifndef COSCALE_POLICY_FASTCAP_HH
#define COSCALE_POLICY_FASTCAP_HH

#include "policy/policy.hh"

namespace coscale {

/** Cap-then-maximise-performance controller (FastCap's node agent). */
class FastCapPolicy final : public Policy
{
  public:
    /**
     * @param num_apps slack-ledger width (reporting only)
     * @param gamma the nominal performance bound the ledger tracks
     * @param cap_watts initial power cap; updated via setPowerCap()
     * @param fairness run phase 2; false is PowerCap, which keeps no
     *        ledger and reports the default slackGamma()
     */
    FastCapPolicy(int num_apps, double gamma, double cap_watts,
                  bool fairness = true)
        : tracker(num_apps, gamma), capWatts(cap_watts),
          fairnessPhase(fairness)
    {
    }

    std::string
    name() const override
    {
        return fairnessPhase ? "FastCap" : "PowerCap";
    }

    FreqConfig decide(const SystemProfile &profile, const EnergyModel &em,
                      const FreqConfig &current, Tick epoch_len) override;

    void observeEpoch(const EpochObservation &obs,
                      const EnergyModel &em) override;

    double
    slackGamma() const override
    {
        return fairnessPhase ? tracker.gamma() : Policy::slackGamma();
    }

    void setPowerCap(double watts) override { capWatts = watts; }

    double cap() const { return capWatts; }

    /** True if the last decision could not fit under the cap. */
    bool lastDecisionOverCap() const { return overCap; }

    /** The internal (reporting-only) slack ledger. */
    const SlackTracker &slack() const { return tracker; }

  private:
    SlackTracker tracker;
    double capWatts;
    bool fairnessPhase;
    bool overCap = false;
};

} // namespace coscale

#endif // COSCALE_POLICY_FASTCAP_HH
