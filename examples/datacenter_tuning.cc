/**
 * @file
 * Example: the operator's view. A datacenter operator picking a
 * performance-degradation budget wants the energy/latency trade-off
 * curve; one running a power-capped rack wants the best achievable
 * performance under a watts ceiling. This example produces both,
 * using the CoScale controller and the PowerCap extension on a
 * MID-class workload, with each sweep executed as one parallel
 * engine batch.
 *
 * Usage: datacenter_tuning [MIX] [scale]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "exp/engine.hh"
#include "exp/options.hh"
#include "exp/policies.hh"
#include "sim/runner.hh"

using namespace coscale;

int
main(int argc, char **argv)
{
    std::string mix_name = "MID4";
    double scale = 0.1;
    exp::parseArgsOrExit({"datacenter_tuning [MIX] [scale]",
                          {{"MIX", "", &mix_name, "Table 1 workload mix"},
                           {"scale", "", &scale, "time scale",
                            exp::scaleRange}}},
                         argc, argv);

    const WorkloadMix &mix = mixByName(mix_name);
    exp::ExperimentEngine engine;

    // --- Part 1: the energy/performance trade-off curve ---
    std::printf("Energy/performance trade-off for %s "
                "(vary the bound, Fig. 10 style):\n\n",
                mix.name.c_str());
    std::printf("%-7s | %10s | %12s | %10s\n", "bound%", "savings%",
                "avg slowdown", "J per 1e9 instr");

    const std::vector<double> bounds = {0.01, 0.02, 0.05,
                                        0.10, 0.15, 0.20};
    std::vector<RunRequest> requests;
    for (double gamma : bounds) {
        SystemConfig cfg = makeScaledConfig(scale);
        cfg.gamma = gamma;
        requests.push_back(
            RunRequest::forMix(cfg, mix)
                .with(exp::policyFactoryByName("CoScale", cfg.numCores,
                                               cfg.gamma))
                .withBaseline());
    }
    std::vector<exp::RunOutcome> outcomes = engine.run(requests);

    for (size_t i = 0; i < bounds.size(); ++i) {
        const exp::RunOutcome &out = outcomes[i];
        if (!out.ok)
            continue;
        const Comparison &c = out.vsBaseline;
        std::printf("%-7.0f | %10.1f | %11.1f%% | %10.1f\n",
                    bounds[i] * 100.0, c.fullSystemSavings * 100.0,
                    c.avgDegradation * 100.0,
                    out.result.energyPerInstrNj());
    }

    // --- Part 2: power capping (the Section 2.3 extension) ---
    std::printf("\nPower capping on %s (CoScale machinery, cap "
                "objective):\n\n",
                mix.name.c_str());
    SystemConfig cfg = makeScaledConfig(scale);
    BaselinePolicy b;
    RunResult base = run(RunRequest::forMix(cfg, mix).with(b));
    double peak_w =
        base.totalEnergyJ() / ticksToSeconds(base.finishTick);
    std::printf("uncapped average power: %.0f W\n\n", peak_w);
    std::printf("%-8s | %10s | %10s\n", "cap (W)", "avg power",
                "slowdown%");

    const std::vector<double> fracs = {1.0, 0.9, 0.8, 0.7, 0.6};
    std::vector<RunRequest> capRequests;
    for (double frac : fracs) {
        capRequests.push_back(
            RunRequest::forMix(cfg, mix)
                .with(exp::policyFactoryByName(
                    "powercap", cfg.numCores, cfg.gamma,
                    peak_w * frac)));
    }
    std::vector<exp::RunOutcome> capOutcomes = engine.run(capRequests);

    for (size_t i = 0; i < fracs.size(); ++i) {
        const exp::RunOutcome &out = capOutcomes[i];
        if (!out.ok)
            continue;
        double cap = peak_w * fracs[i];
        const RunResult &r = out.result;
        double avg_w = r.totalEnergyJ() / ticksToSeconds(r.finishTick);
        double slowdown = static_cast<double>(r.finishTick)
                              / static_cast<double>(base.finishTick)
                          - 1.0;
        std::printf("%-8.0f | %9.0f%s | %10.1f\n", cap, avg_w,
                    avg_w > cap * 1.02 ? "!" : " ", slowdown * 100.0);
    }
    std::printf("\nLower caps trade performance for a hard power "
                "ceiling;\nthe controller sheds watts where they cost "
                "the least time.\n");
    return 0;
}
