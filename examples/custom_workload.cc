/**
 * @file
 * Example: authoring a custom workload. Builds an application model
 * from scratch (a phased, bursty service-like process), records its
 * trace to a file and replays it (the two-step methodology), then
 * runs a heterogeneous 16-core mix of custom apps under CoScale.
 *
 * Usage: custom_workload [scale]
 */

#include <cstdio>

#include "common/log.hh"
#include "exp/options.hh"
#include "policy/coscale_policy.hh"
#include "sim/runner.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"

using namespace coscale;

namespace {

/** A latency-sensitive service: mostly compute, periodic scans. */
AppSpec
makeService(std::uint64_t budget)
{
    AppSpec s;
    s.name = "service";
    AppPhase serving;
    serving.instructions = budget * 7 / 10;
    serving.baseCpi = 1.3;
    serving.l1Mpki = 10.0;
    serving.llcMpki = 0.8;
    serving.writeFrac = 0.2;
    serving.hotBlocks = 4096;
    AppPhase scan = serving;
    scan.instructions = budget * 3 / 10;
    scan.llcMpki = 12.0;
    scan.l1Mpki = 30.0;
    scan.seqRunLen = 24.0;  // long sequential scans
    s.phases = {serving, scan};
    return s;
}

/** A batch analytics job: streaming, memory-hungry. */
AppSpec
makeBatch(std::uint64_t budget)
{
    AppSpec s;
    s.name = "batch";
    AppPhase p;
    p.instructions = budget;
    p.baseCpi = 0.95;
    p.l1Mpki = 35.0;
    p.llcMpki = 9.0;
    p.writeFrac = 0.35;
    p.seqRunLen = 16.0;
    s.phases.push_back(p);
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    double scale = 0.1;
    exp::parseArgsOrExit(
        {"custom_workload [scale]",
         {{"scale", "", &scale, "time scale", exp::scaleRange}}},
        argc, argv);
    SystemConfig cfg = makeScaledConfig(scale);

    // --- Step 1: record a trace (the paper's front-end step) ---
    const std::string trace_path = "service_app.trace";
    {
        SyntheticTraceSource src(makeService(cfg.instrBudget), 0, 42);
        TraceFileWriter writer(trace_path);
        std::uint64_t instrs = 0;
        while (instrs < cfg.instrBudget / 10) {  // a sample window
            TraceRecord r = src.next();
            instrs += r.gapInstrs;
            writer.append(r);
        }
        writer.close();
        std::printf("recorded %llu trace records (%llu instructions) "
                    "to %s\n",
                    static_cast<unsigned long long>(
                        writer.recordsWritten()),
                    static_cast<unsigned long long>(instrs),
                    trace_path.c_str());
    }

    // --- Step 2: replay it to verify the round trip ---
    try {
        ReplayTraceSource replay(loadTraceFile(trace_path));
        std::uint64_t instrs = 0, accesses = 0;
        for (int i = 0; i < 10000; ++i) {
            instrs += replay.next().gapInstrs;
            accesses += 1;
        }
        std::printf("replayed sample: %.1f LLC accesses per "
                    "kilo-instruction\n\n",
                    1000.0 * static_cast<double>(accesses)
                        / static_cast<double>(instrs));
    } catch (const TraceParseError &e) {
        fatal("%s", e.what());
    }

    // --- Step 3: a heterogeneous custom mix under CoScale ---
    std::vector<AppSpec> apps;
    for (int i = 0; i < cfg.numCores; ++i) {
        apps.push_back(i % 2 == 0 ? makeService(cfg.instrBudget)
                                  : makeBatch(cfg.instrBudget));
    }

    BaselinePolicy baseline;
    RunResult base =
        run(RunRequest::forApps(cfg, "custom-mix", apps).with(baseline));
    CoScalePolicy policy(cfg.numCores, cfg.gamma);
    RunResult result =
        run(RunRequest::forApps(cfg, "custom-mix", apps).with(policy));
    Comparison c = compare(base, result);

    std::printf("custom mix (8x service + 8x batch) under CoScale:\n");
    std::printf("  full-system savings : %5.1f%%\n",
                c.fullSystemSavings * 100.0);
    std::printf("  memory savings      : %5.1f%%\n",
                c.memSavings * 100.0);
    std::printf("  CPU savings         : %5.1f%%\n",
                c.cpuSavings * 100.0);
    std::printf("  degradation         : %4.1f%% avg, %4.1f%% worst "
                "(bound %.0f%%)\n",
                c.avgDegradation * 100.0, c.worstDegradation * 100.0,
                cfg.gamma * 100.0);
    std::printf("  measured MPKI       : %.2f\n", result.measuredMpki);

    std::remove(trace_path.c_str());
    return c.worstDegradation <= cfg.gamma + 0.01 ? 0 : 1;
}
