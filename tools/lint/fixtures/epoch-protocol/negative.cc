// The sanctioned shapes: a policy overrides the protocol hooks, and
// callers step an EpochDriver, which alone calls them.
#include "policy/policy.hh"
#include "sim/runner.hh"

namespace coscale {

class HoldPolicy final : public Policy
{
  public:
    std::string name() const override { return "hold"; }

    FreqConfig
    decide(const SystemProfile &, const EnergyModel &,
           const FreqConfig &current, Tick) override
    {
        return current;
    }

    void observeEpoch(const EpochObservation &, const EnergyModel &) override
    {
    }
};

std::uint64_t
steppedEpoch(EpochDriver &driver)
{
    EpochStep st = driver.step();
    return st.obs.epochTicks;
}

} // namespace coscale
