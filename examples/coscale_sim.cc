/**
 * @file
 * coscale_sim — the command-line front end to the whole library.
 * Runs any workload mix under any policy at any configuration, and
 * prints (or CSVs) the result. This is the "driver binary" a
 * downstream user scripts their own experiments with. Multi-mix
 * sweeps execute on the parallel experiment engine; results are
 * printed in mix order regardless of worker count. `--nodes N`
 * switches to an N-node fleet (src/cluster/).
 *
 * The flags are simOptionTable() in src/exp/options.cc; `coscale_sim
 * --help` prints them.
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "common/csv.hh"
#include "common/log.hh"
#include "exp/bench_options.hh"
#include "exp/engine.hh"
#include "exp/options.hh"
#include "exp/policies.hh"
#include "exp/report.hh"
#include "sim/runner.hh"

using namespace coscale;

namespace {

SystemConfig
makeConfig(const exp::SimOptions &opt)
{
    SystemConfig cfg = opt.makeSystemConfig();
    cfg.numCores = opt.cores;
    cfg.gamma = opt.bound / 100.0;
    cfg.ooo = opt.ooo;
    cfg.llc.prefetchNextLine = opt.prefetch;
    if (opt.regionMap || opt.policy == "multiscale") {
        cfg.geom.addrMap = AddrMap::RegionPerChannel;
        cfg.power.geom = cfg.geom;
    }
    cfg.seed = opt.seed;
    if (opt.freqSteps != 10) {
        cfg.coreLadder = defaultCoreLadder(opt.freqSteps);
        cfg.memLadder =
            standardMemLadder(opt.memBackend.standard, opt.freqSteps);
    }
    if (opt.halfVoltage)
        cfg.coreLadder = halfVoltageCoreLadder(opt.freqSteps);
    cfg.power.mem.memPowerMultiplier = opt.memPowerMult;
    cfg.power.otherFrac = opt.otherFrac;
    cfg.power.numCores = opt.cores;
    return cfg;
}

void
printOutcome(const exp::SimOptions &opt, const SystemConfig &cfg,
             const WorkloadMix &mix, const exp::RunOutcome &out,
             CsvWriter *csv)
{
    const RunResult &result = out.result;
    const Comparison &c = out.vsBaseline;

    std::printf("%-6s %-16s | full %5.1f%% mem %5.1f%% cpu %5.1f%% | "
                "deg %4.1f/%4.1f%% | %6.2f ms %6.1f J\n",
                mix.name.c_str(), result.policyName.c_str(),
                c.fullSystemSavings * 100.0, c.memSavings * 100.0,
                c.cpuSavings * 100.0, c.avgDegradation * 100.0,
                c.worstDegradation * 100.0,
                ticksToSeconds(result.finishTick) * 1e3,
                result.totalEnergyJ());

    if (opt.printEpochs) {
        for (size_t e = 0; e < result.epochs.size(); ++e) {
            const EpochLog &log = result.epochs[e];
            double avg_core = 0.0;
            for (int idx : log.applied.coreIdx)
                avg_core += cfg.coreLadder.freq(idx) / GHz;
            avg_core /= static_cast<double>(log.applied.coreIdx.size());
            std::printf("  epoch %3zu: mem %.0f MHz, cores avg "
                        "%.2f GHz, power %.1f W\n",
                        e + 1,
                        cfg.memLadder.freq(log.applied.memIdx) / MHz,
                        avg_core, log.avgPower.totalW());
        }
    }

    if (csv) {
        csv->row()
            .cell(mix.name)
            .cell(result.policyName)
            .cell(opt.scale)
            .cell(cfg.gamma)
            .cell(c.fullSystemSavings)
            .cell(c.memSavings)
            .cell(c.cpuSavings)
            .cell(c.avgDegradation)
            .cell(c.worstDegradation)
            .cell(result.totalEnergyJ());
    }
}

/** Cluster mode: build the fleet, run it, print/emit per scope. */
int
runCluster(const exp::SimOptions &opt)
{
    if (opt.mix == "all")
        fatal("--mix all is a single-node sweep; cluster mode runs "
              "one mix per fleet (pick one)");

    cluster::ClusterConfig ccfg;
    ccfg.numNodes = opt.nodes;
    exp::SimOptions nopt = opt;
    nopt.cores = opt.nodeCores;
    ccfg.node = makeConfig(nopt);
    // Node-sizing, as cluster::makeNodeConfig: no warmup (a warming
    // node runs all-max through any cap) and a one-channel memory
    // system (a 2-core node with the 16-core server's four channels
    // would be all background power).
    ccfg.node.warmupEpochs = 0;
    ccfg.node.geom.channels = 1;
    ccfg.node.geom.dimmsPerChannel = 1;
    ccfg.node.power.geom = ccfg.node.geom;
    ccfg.mix = opt.mix;
    ccfg.policy = opt.policy;
    ccfg.budgetW = opt.powerCap;
    ccfg.epochs = opt.clusterEpochs;
    ccfg.seed = opt.seed;
    ccfg.faults = opt.faults;
    ccfg.jobs = opt.jobs;
    try {
        ccfg.lb = cluster::parseLbPolicy(opt.lb);
        if (!opt.churn.empty())
            ccfg.churn = cluster::parseChurnSpec(opt.churn);
        if (!opt.arrival.empty()) {
            ccfg.arrival = cluster::parseArrivalSpec(opt.arrival);
        } else {
            double epoch_secs = ticksToSeconds(ccfg.node.epochLen);
            ccfg.arrival.ratePerSec =
                1.5 * static_cast<double>(opt.nodes) / epoch_secs;
            ccfg.arrival.sloSecs = 6.0 * epoch_secs;
        }
    } catch (const std::exception &e) {
        fatal("%s", e.what());
    }

    std::unique_ptr<TraceSink> sink;
    if (opt.trace.enabled())
        sink = openTraceSink(opt.trace);
    std::unique_ptr<MetricsRegistry> metrics;
    if (opt.metrics)
        metrics = std::make_unique<MetricsRegistry>();

    cluster::ClusterSim sim(ccfg);
    sim.attachObs(sink.get(), metrics.get());
    cluster::ClusterResult result = sim.run();
    if (sink)
        sink->finish();

    std::printf("cluster: %d nodes x %d cores, mix %s, policy %s, "
                "lb %s%s\n",
                opt.nodes, opt.nodeCores, opt.mix.c_str(),
                opt.policy.c_str(), cluster::lbPolicyName(ccfg.lb),
                opt.powerCap > 0.0 ? "" : ", uncapped");
    for (const cluster::ClusterEpochStats &e : result.epochs) {
        std::printf("  epoch %3llu: arrivals %5llu, grant "
                    "%7.1f W, power %7.1f W, done %5llu, "
                    "queued %5llu%s\n",
                    static_cast<unsigned long long>(e.epoch),
                    static_cast<unsigned long long>(e.arrivals),
                    e.grantSumW, e.powerW,
                    static_cast<unsigned long long>(e.completed),
                    static_cast<unsigned long long>(e.queued),
                    e.capExceeded ? "  <-- over budget" : "");
    }
    std::printf("total: %llu arrivals, %llu completed, %llu SLO "
                "violations, %llu queued at end\n",
                static_cast<unsigned long long>(result.totalArrivals),
                static_cast<unsigned long long>(
                    result.totalCompleted),
                static_cast<unsigned long long>(
                    result.totalSloViolations),
                static_cast<unsigned long long>(result.finalQueued));
    std::printf("power: worst %.1f W over %zu epochs",
                result.worstPowerW, result.epochs.size());
    if (opt.powerCap > 0.0) {
        std::printf(", budget %.1f W, %llu violation epochs",
                    opt.powerCap,
                    static_cast<unsigned long long>(
                        result.capViolationEpochs));
    }
    std::printf("\n");
    if (ccfg.churn.enabled()) {
        const cluster::ChurnSummary &cs = result.churn;
        std::printf(
            "churn: %llu crashes, %llu flaps, %llu hangs, %llu "
            "blackouts, %llu deaths (%llu fenced), %llu rejoins, "
            "%llu rerouted; availability %.3f\n",
            static_cast<unsigned long long>(cs.crashes),
            static_cast<unsigned long long>(cs.flaps),
            static_cast<unsigned long long>(cs.hangs),
            static_cast<unsigned long long>(cs.blackouts),
            static_cast<unsigned long long>(cs.deaths),
            static_cast<unsigned long long>(cs.fences),
            static_cast<unsigned long long>(cs.rejoins),
            static_cast<unsigned long long>(cs.reroutedRequests),
            result.availability);
    }

    if (!opt.csvPath.empty()) {
        CsvWriter csv(opt.csvPath);
        csv.header({"epoch", "arrivals", "grant_sum_w", "power_w",
                    "completed", "slo_violations", "queued",
                    "mean_latency_s", "cap_exceeded"});
        for (const cluster::ClusterEpochStats &e : result.epochs) {
            csv.row()
                .cell(static_cast<double>(e.epoch))
                .cell(static_cast<double>(e.arrivals))
                .cell(e.grantSumW)
                .cell(e.powerW)
                .cell(static_cast<double>(e.completed))
                .cell(static_cast<double>(e.sloViolations))
                .cell(static_cast<double>(e.queued))
                .cell(e.meanLatencySecs)
                .cell(e.capExceeded ? 1.0 : 0.0);
        }
        csv.endRow();
    }
    if (!opt.jsonPath.empty()) {
        std::ofstream jf(opt.jsonPath);
        if (!jf)
            fatal("cannot open '%s'", opt.jsonPath.c_str());
        cluster::writeClusterJsonReport(ccfg, result, jf);
    }
    if (metrics) {
        std::ostringstream ms;
        metrics->writeJson(ms);
        std::fprintf(stderr, "[metrics] cluster %s\n",
                     ms.str().c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    exp::SimOptions opt;
    exp::parseArgsOrExit(exp::simOptionTable(opt), argc, argv);
    if (opt.listPolicies) {
        exp::printPolicyRoster();
        return 0;
    }
    if (opt.nodes > 0)
        return runCluster(opt);
    SystemConfig cfg = makeConfig(opt);

    PolicyFactory factory = exp::policyFactoryByName(
        opt.policy, cfg.numCores, cfg.gamma, opt.cap);

    std::vector<WorkloadMix> mixes;
    if (opt.mix == "all") {
        mixes = table1Mixes();
    } else {
        mixes.push_back(mixByName(opt.mix));
    }

    std::vector<RunRequest> requests;
    for (const auto &mix : mixes) {
        RunRequest req =
            RunRequest::forMix(cfg, mix).with(factory).withBaseline();
        if (opt.faults.enabled())
            req.withFaults(opt.faults);
        requests.push_back(std::move(req));
    }
    std::vector<exp::RunOutcome> outcomes = exp::runBatch(opt, requests);

    std::unique_ptr<CsvWriter> csv;
    if (!opt.csvPath.empty()) {
        csv = std::make_unique<CsvWriter>(opt.csvPath);
        csv->header({"mix", "policy", "scale", "bound", "full_savings",
                     "mem_savings", "cpu_savings", "avg_degradation",
                     "worst_degradation", "energy_j"});
    }

    for (size_t i = 0; i < mixes.size(); ++i) {
        if (outcomes[i].ok)
            printOutcome(opt, cfg, mixes[i], outcomes[i], csv.get());
    }
    if (csv)
        csv->endRow();

    if (!opt.jsonPath.empty()) {
        const exp::RunOutcome *last = nullptr;
        for (const auto &out : outcomes) {
            if (out.ok)
                last = &out;
        }
        if (last) {
            std::ofstream jf(opt.jsonPath);
            if (!jf)
                fatal("cannot open '%s'", opt.jsonPath.c_str());
            writeJsonReport(last->result, &last->vsBaseline, jf);
        }
    }
    for (const exp::RunOutcome &out : outcomes) {
        if (!out.ok)
            return 1;
    }
    return 0;
}
