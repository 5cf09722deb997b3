/**
 * @file
 * The flawed multi-controller policies of Section 3.2:
 *
 *  - Uncoordinated: fully independent CPU and memory managers. Each
 *    keeps its own slack estimate referenced against a world where
 *    only *it* degrades performance (the CPU manager references cores
 *    at max with memory at its previous frequency, and vice versa),
 *    so both spend the same slack and the bound is violated.
 *
 *  - Semi-coordinated: the managers share one honest slack estimate
 *    (so the bound holds) but still plan independently, each assuming
 *    the other component stays at its previous frequency and trying
 *    to consume the entire remaining slack itself — causing
 *    over-correction, oscillation, and settling in local minima.
 *    An out-of-phase variant alternates which manager acts each epoch
 *    (the Section 4.2.2 ablation).
 */

#ifndef COSCALE_POLICY_UNCOORDINATED_HH
#define COSCALE_POLICY_UNCOORDINATED_HH

#include "policy/policy.hh"
#include "policy/search_common.hh"
#include "policy/simple_policies.hh"

namespace coscale {

/** Fully independent CPU + memory managers (violates the bound). */
class UncoordinatedPolicy final : public Policy
{
  public:
    UncoordinatedPolicy(int num_apps, double gamma)
        : cpuTracker(num_apps, gamma), memTracker(num_apps, gamma)
    {
    }

    std::string name() const override { return "Uncoordinated"; }

    double slackGamma() const override { return cpuTracker.gamma(); }

    FreqConfig decide(const SystemProfile &profile, const EnergyModel &em,
                      const FreqConfig &current, Tick epoch_len) override;

    void observeEpoch(const EpochObservation &obs,
                      const EnergyModel &em) override;

  private:
    SlackTracker cpuTracker;  //!< believes memory never degrades
    SlackTracker memTracker;  //!< believes cores never degrade
    FreqConfig lastApplied;
};

/** Semi-coordinated: shared slack, independent planning. */
class SemiCoordinatedPolicy final : public TrackedPolicy
{
  public:
    /** How the two managers are phased (Section 4.2.2). */
    enum class Phase
    {
        InPhase,    //!< both act every epoch (default)
        Alternate,  //!< managers act on alternating epochs
    };

    SemiCoordinatedPolicy(int num_apps, double gamma,
                          Phase phase = Phase::InPhase)
        : TrackedPolicy(num_apps, gamma), phase(phase)
    {
    }

    std::string name() const override { return "Semi-coordinated"; }

    FreqConfig decide(const SystemProfile &profile, const EnergyModel &em,
                      const FreqConfig &current, Tick epoch_len) override;

  private:
    Phase phase;
    std::uint64_t epochNo = 0;
};

} // namespace coscale

#endif // COSCALE_POLICY_UNCOORDINATED_HH
