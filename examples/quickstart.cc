/**
 * @file
 * Quickstart: run one workload mix under the baseline and under
 * CoScale, and print the headline numbers — full-system energy
 * savings and per-application performance degradation against the
 * 10% bound.
 *
 * Usage: quickstart [MIX] [scale]
 *   MIX    one of ILP1..4, MID1..4, MEM1..4, MIX1..4 (default MID1)
 *   scale  time scale in (0,1]; 0.1 keeps this example fast
 */

#include <cstdio>
#include <string>

#include "exp/options.hh"
#include "policy/coscale_policy.hh"
#include "sim/runner.hh"

using namespace coscale;

int
main(int argc, char **argv)
{
    std::string mix_name = "MID1";
    double scale = 0.1;
    exp::parseArgsOrExit({"quickstart [MIX] [scale]",
                          {{"MIX", "", &mix_name, "Table 1 workload mix"},
                           {"scale", "", &scale, "time scale",
                            exp::scaleRange}}},
                         argc, argv);

    SystemConfig cfg = makeScaledConfig(scale);
    const WorkloadMix &mix = mixByName(mix_name);

    std::printf("CoScale quickstart: mix %s (%s class), %d cores, "
                "%.0fM instructions per app, %.2f ms epochs\n",
                mix.name.c_str(), mix.wlClass.c_str(), cfg.numCores,
                static_cast<double>(cfg.instrBudget) / 1e6,
                ticksToSeconds(cfg.epochLen) * 1e3);

    BaselinePolicy baseline;
    RunResult base = run(RunRequest::forMix(cfg, mix).with(baseline));
    std::printf("  baseline: %.2f ms, %.1f J "
                "(cpu %.1f, mem %.1f, other %.1f)\n",
                ticksToSeconds(base.finishTick) * 1e3,
                base.totalEnergyJ(), base.cpuEnergyJ, base.memEnergyJ,
                base.otherEnergyJ);

    CoScalePolicy coscale_policy(cfg.numCores, cfg.gamma);
    RunResult result =
        run(RunRequest::forMix(cfg, mix).with(coscale_policy));
    Comparison c = compare(base, result);

    std::printf("  CoScale : %.2f ms, %.1f J over %zu epochs\n",
                ticksToSeconds(result.finishTick) * 1e3,
                result.totalEnergyJ(), result.epochs.size());
    std::printf("  full-system energy savings: %5.1f%%\n",
                c.fullSystemSavings * 100.0);
    std::printf("  CPU energy savings:         %5.1f%%\n",
                c.cpuSavings * 100.0);
    std::printf("  memory energy savings:      %5.1f%%\n",
                c.memSavings * 100.0);
    std::printf("  perf degradation avg/worst: %.1f%% / %.1f%% "
                "(bound %.0f%%)\n",
                c.avgDegradation * 100.0, c.worstDegradation * 100.0,
                cfg.gamma * 100.0);

    bool ok = c.worstDegradation <= cfg.gamma + 0.01;
    std::printf("  bound respected: %s\n", ok ? "yes" : "NO");
    return ok ? 0 : 1;
}
