// A second copy of the epoch loop: it decides and observes through
// the policy itself, so it skips whatever the EpochDriver's step
// adds (rotation, fault seams, the way-hold rule, audits).
#include "policy/policy.hh"

namespace coscale {

void
handRolledEpoch(Policy &policy, Policy *shadow, const SystemProfile &prof,
                const EnergyModel &em, const FreqConfig &prev,
                const EpochObservation &obs, Tick epoch_len)
{
    FreqConfig next = policy.safeDecide(prof, em, prev, epoch_len);
    (void)next;
    policy.observeEpoch(obs, em);
    shadow->observeEpoch(obs, em);
}

} // namespace coscale
