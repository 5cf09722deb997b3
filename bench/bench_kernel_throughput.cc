/**
 * @file
 * Simulation-kernel throughput: wall-clock sim-ticks/sec and
 * events/sec on a fixed mid-intensity mix (MID1, 16 cores, all
 * components at maximum frequency — no policy in the loop, so the
 * number isolates the kernel's pop–dispatch cost from search cost).
 *
 * Emits a machine-readable BENCH_kernel.json (ticks_per_sec,
 * events_per_sec, wall_s, ...) so CI can track the repo's perf
 * trajectory; scripts/perf_check.py compares a fresh run against
 * bench/BENCH_kernel_baseline.json and fails on a >25% events/sec
 * regression.
 *
 * Usage: bench_kernel_throughput [output.json] [time-scale] [reps]
 * (kernelBenchOptionTable() in src/exp/options.cc).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "exp/options.hh"
#include "sim/system.hh"
#include "workloads/spec_catalogue.hh"

namespace {

struct Sample
{
    double wallS = 0.0;
    std::uint64_t ticks = 0;
    std::uint64_t events = 0;
};

/** One full run of the fixed workload; returns the measured sample. */
Sample
runOnce(double scale)
{
    using clock = std::chrono::steady_clock;
    coscale::SystemConfig cfg = coscale::makeScaledConfig(scale);
    std::vector<coscale::AppSpec> apps = coscale::expandMix(
        coscale::mixByName("MID1"), cfg.numCores, cfg.instrBudget);
    coscale::System sys(cfg, apps);

    auto t0 = clock::now();
    while (!sys.allAppsDone())
        sys.run(sys.now() + cfg.epochLen);
    auto t1 = clock::now();

    Sample s;
    s.wallS = std::chrono::duration<double>(t1 - t0).count();
    s.ticks = sys.now();
    s.events = sys.eventsDispatched();
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    coscale::exp::KernelBenchOptions opt;
    coscale::exp::parseArgsOrExit(
        coscale::exp::kernelBenchOptionTable(opt), argc, argv);

    // Warm-up run (page faults, trace caches), then best-of-reps to
    // shave scheduler noise off the wall clock.
    runOnce(opt.scale);
    Sample best;
    for (int r = 0; r < opt.reps; ++r) {
        Sample s = runOnce(opt.scale);
        if (best.wallS == 0.0 || s.wallS < best.wallS)
            best = s;
    }

    double ticks_per_sec = static_cast<double>(best.ticks) / best.wallS;
    double events_per_sec =
        static_cast<double>(best.events) / best.wallS;

    std::ofstream out(opt.outPath, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", opt.outPath.c_str());
        return 1;
    }
    coscale::JsonWriter j(out);
    j.beginObject();
    j.field("benchmark", std::string("kernel_throughput"));
    j.field("mix", std::string("MID1"));
    j.field("time_scale", opt.scale);
    j.field("reps", static_cast<std::uint64_t>(opt.reps));
    j.field("sim_ticks", best.ticks);
    j.field("events", best.events);
    j.field("wall_s", best.wallS);
    j.field("ticks_per_sec", ticks_per_sec);
    j.field("events_per_sec", events_per_sec);
    j.endObject();
    out << "\n";

    std::printf("kernel throughput (MID1, scale %.3g, best of %d)\n",
                opt.scale, opt.reps);
    std::printf("  wall_s         %.3f\n", best.wallS);
    std::printf("  sim_ticks      %llu\n",
                static_cast<unsigned long long>(best.ticks));
    std::printf("  events         %llu\n",
                static_cast<unsigned long long>(best.events));
    std::printf("  ticks_per_sec  %.4g\n", ticks_per_sec);
    std::printf("  events_per_sec %.4g\n", events_per_sec);
    std::printf("  -> %s\n", opt.outPath.c_str());
    return 0;
}
