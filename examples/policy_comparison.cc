/**
 * @file
 * Example: compare all six energy-management policies on one workload
 * mix — the Figure 8/9 experiment in miniature. Shows how to build a
 * RunRequest batch, execute it on the parallel experiment engine, and
 * interpret the Comparison record (the baseline run is computed once
 * by the engine's memoizing pool and shared by all requests).
 *
 * Usage: policy_comparison [MIX] [scale]
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
    std::string mix_name = "MIX3";
    double scale = 0.1;
    exp::parseArgsOrExit({"policy_comparison [MIX] [scale]",
                          {{"MIX", "", &mix_name, "Table 1 workload mix"},
                           {"scale", "", &scale, "time scale",
                            exp::scaleRange}}},
                         argc, argv);

    SystemConfig cfg = makeScaledConfig(scale);
    const WorkloadMix &mix = mixByName(mix_name);

    std::printf("Policy comparison on %s (bound %.0f%%):\n\n",
                mix.name.c_str(), cfg.gamma * 100.0);

    std::vector<std::string> policies = {"Reactive"};
    for (const std::string &name : exp::paperPolicyNames())
        policies.push_back(name);

    std::vector<RunRequest> requests;
    for (const std::string &name : policies) {
        requests.push_back(
            RunRequest::forMix(cfg, mix)
                .with(exp::policyFactoryByName(name, cfg.numCores,
                                               cfg.gamma))
                .withBaseline());
    }

    exp::ExperimentEngine engine;
    std::vector<exp::RunOutcome> outcomes = engine.run(requests);

    std::printf("%-17s | %7s %7s %7s | %8s %8s\n", "policy", "full%",
                "mem%", "cpu%", "avg-deg%", "worst%");
    for (const exp::RunOutcome &out : outcomes) {
        if (!out.ok) {
            std::printf("%-17s | failed: %s\n", out.label.c_str(),
                        out.error.c_str());
            continue;
        }
        const Comparison &c = out.vsBaseline;
        bool violates = c.worstDegradation > cfg.gamma + 0.005;
        std::printf("%-17s | %7.1f %7.1f %7.1f | %8.1f %8.1f%s\n",
                    out.result.policyName.c_str(),
                    c.fullSystemSavings * 100.0, c.memSavings * 100.0,
                    c.cpuSavings * 100.0, c.avgDegradation * 100.0,
                    c.worstDegradation * 100.0,
                    violates ? "  <-- violates the bound" : "");
    }

    std::printf("\nExpected (paper, Section 4.2.3): Uncoordinated\n"
                "saves the most but violates the bound; CoScale beats\n"
                "every other practical policy and approaches Offline.\n");
    return 0;
}
