/**
 * @file
 * Fleet-scale power-capping sweep: one uncapped reference run fixes
 * the fleet's natural power draw, then FastCap (cluster allocator +
 * per-node cap search) and plain per-node CoScale (which ignores the
 * budget entirely) run under budgets at descending fractions of it.
 * The point of the table: FastCap keeps the measured cluster power
 * under the budget at EVERY cluster epoch, while the uncoordinated
 * fleet sails straight through it.
 *
 * Emits bench_cluster.csv (one row per run) and a multi-entry
 * BENCH_cluster.json ({"entries": [...]}) so scripts/perf_check.py
 * can compare each entry's event count, a pure function of the run,
 * against the checked-in bench/BENCH_cluster*_baseline.json.
 *
 * With --churn SPEC the sweep runs a second, churned leg: the same
 * budgets with node crashes, hangs, flaps, and telemetry blackouts
 * injected (cluster/churn.hh). The exit code then additionally
 * asserts the failure-domain headline: the measured cluster power
 * never exceeds the budget during any churn event, and availability
 * and the degraded/clean SLO attribution are reported per run.
 *
 * The flags are clusterBenchOptionTable() in src/exp/options.cc;
 * `bench_cluster --help` prints them. A bad flag exits 2, because
 * exit 1 means a claim failed.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "common/json.hh"
#include "exp/options.hh"

using coscale::cluster::ClusterConfig;
using coscale::cluster::ClusterResult;
using coscale::cluster::ClusterSim;

namespace {

struct SweepRow
{
    std::string name;
    std::string policy;
    double budgetW = 0.0; //!< 0 = uncapped reference
    double worstPowerW = 0.0;
    double meanPowerW = 0.0;
    std::uint64_t capViolations = 0;
    std::uint64_t completed = 0;
    std::uint64_t sloViolations = 0;
    std::uint64_t queued = 0;
    std::uint64_t events = 0;
    double wallS = 0.0;
    double floorW = 0.0; //!< model all-min power, summed over nodes

    // Failure-domain leg (zero / 1.0 for clean runs).
    bool churned = false;
    double availability = 1.0;
    std::uint64_t churnEvents = 0;
    std::uint64_t rerouted = 0;
    std::uint64_t sloDegraded = 0;
    std::uint64_t sloClean = 0;
};

SweepRow
runConfig(const ClusterConfig &cfg, const std::string &name)
{
    using clock = std::chrono::steady_clock;
    ClusterSim sim(cfg);
    auto t0 = clock::now();
    ClusterResult r = sim.run();
    auto t1 = clock::now();

    SweepRow row;
    row.name = name;
    row.policy = cfg.policy;
    row.budgetW = cfg.budgetW;
    row.worstPowerW = r.worstPowerW;
    double sum = 0.0;
    for (const coscale::cluster::ClusterEpochStats &e : r.epochs)
        sum += e.powerW;
    row.meanPowerW =
        r.epochs.empty()
            ? 0.0
            : sum / static_cast<double>(r.epochs.size());
    row.capViolations = r.capViolationEpochs;
    row.completed = r.totalCompleted;
    row.sloViolations = r.totalSloViolations;
    row.queued = r.finalQueued;
    row.events = r.totalEvents;
    row.wallS = std::chrono::duration<double>(t1 - t0).count();
    for (const coscale::cluster::NodeEpochOutcome &o :
         sim.lastOutcomes())
        row.floorW += o.minW;
    row.churned = cfg.churn.enabled();
    row.availability = r.availability;
    row.churnEvents = r.churn.total();
    row.rerouted = r.churn.reroutedRequests;
    row.sloDegraded = r.sloViolationsDegraded;
    row.sloClean = r.sloViolationsClean;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    coscale::exp::ClusterBenchOptions opt;
    coscale::exp::OptionTable table =
        coscale::exp::clusterBenchOptionTable(opt);
    try {
        if (!coscale::exp::parseOptions(table, argc, argv)) {
            std::fputs(coscale::exp::helpText(table).c_str(), stdout);
            return 0;
        }
    } catch (const coscale::exp::OptionParseError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    coscale::cluster::ChurnPlan churn_plan;
    if (!opt.churn.empty()) {
        try {
            churn_plan = coscale::cluster::parseChurnSpec(opt.churn);
        } catch (const coscale::cluster::ChurnParseError &e) {
            std::fprintf(stderr, "option --churn: %s\n", e.what());
            return 2;
        }
    }

    ClusterConfig base;
    base.numNodes = opt.nodes;
    base.node =
        coscale::cluster::makeNodeConfig(opt.scale, opt.nodeCores);
    base.mix = opt.mix;
    base.epochs = opt.epochs;
    base.jobs = opt.jobs;
    if (!opt.arrival.empty()) {
        try {
            base.arrival =
                coscale::cluster::parseArrivalSpec(opt.arrival);
        } catch (const coscale::cluster::ArrivalParseError &e) {
            std::fprintf(stderr, "option --arrival: %s\n", e.what());
            return 2;
        }
    } else {
        // Default stream sized to the fleet: ~1.5 requests per node
        // per cluster epoch (about 60% of a 2-core node's service
        // capacity), with a mild diurnal swing and occasional bursts
        // so the generator's full path is exercised.
        double epoch_secs =
            coscale::ticksToSeconds(base.node.epochLen);
        base.arrival.ratePerSec =
            1.5 * static_cast<double>(opt.nodes) / epoch_secs;
        base.arrival.diurnalAmp = 0.25;
        base.arrival.diurnalPeriod =
            opt.epochs > 4 ? static_cast<std::uint64_t>(opt.epochs)
                           : 4;
        base.arrival.burstProb = 0.1;
        base.arrival.sloSecs = 6.0 * epoch_secs;
    }

    std::vector<SweepRow> rows;

    // Uncapped reference: the fleet's natural draw under CoScale.
    base.policy = "coscale";
    base.budgetW = 0.0;
    char label[128];
    std::snprintf(label, sizeof(label), "cluster%d_coscale_uncapped",
                  opt.nodes);
    rows.push_back(runConfig(base, label));
    double p0 = rows.back().meanPowerW;
    // Budgets interpolate the feasible band: the model's all-min
    // fleet power (plus a small margin — nothing below it is
    // reachable by any DVFS setting) up to the natural draw. A
    // budget below the floor would be infeasible for every policy
    // and prove nothing.
    double floor_w = rows.back().floorW * 1.02;
    std::printf("fleet: %d nodes x %d cores, mix %s, %d epochs, "
                "scale %.3g\n",
                opt.nodes, opt.nodeCores, opt.mix.c_str(), opt.epochs,
                opt.scale);
    std::printf("uncapped CoScale mean power: %.1f W "
                "(all-min floor %.1f W)\n\n",
                p0, floor_w);

    for (double frac : opt.fracs) {
        double budget = floor_w + frac * (p0 - floor_w);
        for (const char *policy : {"fastcap", "coscale"}) {
            ClusterConfig cfg = base;
            cfg.policy = policy;
            cfg.budgetW = budget;
            std::snprintf(label, sizeof(label),
                          "cluster%d_%s_cap%02d", opt.nodes, policy,
                          static_cast<int>(frac * 100.0 + 0.5));
            rows.push_back(runConfig(cfg, label));
        }
    }

    // Churned leg: the same fastcap budgets with the failure domain
    // armed. The budget stays a hard invariant through crashes,
    // hangs, fences, and re-routing — that is the claim the exit
    // code checks.
    if (churn_plan.enabled()) {
        for (double frac : opt.fracs) {
            double budget = floor_w + frac * (p0 - floor_w);
            ClusterConfig cfg = base;
            cfg.policy = "fastcap";
            cfg.budgetW = budget;
            cfg.churn = churn_plan;
            std::snprintf(label, sizeof(label),
                          "cluster%d_fastcap_cap%02d_churn", opt.nodes,
                          static_cast<int>(frac * 100.0 + 0.5));
            rows.push_back(runConfig(cfg, label));
        }
    }

    std::printf("%-34s %9s %9s %9s %5s %9s %7s %6s\n", "run",
                "budget_w", "worst_w", "mean_w", "viol", "completed",
                "slo", "avail");
    for (const SweepRow &r : rows) {
        std::printf(
            "%-34s %9.1f %9.1f %9.1f %5llu %9llu %7llu %6.3f%s\n",
            r.name.c_str(), r.budgetW, r.worstPowerW, r.meanPowerW,
            static_cast<unsigned long long>(r.capViolations),
            static_cast<unsigned long long>(r.completed),
            static_cast<unsigned long long>(r.sloViolations),
            r.availability,
            r.capViolations > 0 ? "   <-- VIOLATES" : "");
    }
    for (const SweepRow &r : rows) {
        if (!r.churned)
            continue;
        std::printf("%s: %llu churn events, %llu rerouted, "
                    "availability %.3f, slo degraded/clean "
                    "%llu/%llu\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.churnEvents),
                    static_cast<unsigned long long>(r.rerouted),
                    r.availability,
                    static_cast<unsigned long long>(r.sloDegraded),
                    static_cast<unsigned long long>(r.sloClean));
    }

    std::ofstream csv(opt.csvOut, std::ios::binary);
    csv << "name,policy,budget_w,worst_power_w,mean_power_w,"
           "cap_violation_epochs,completed,slo_violations,queued,"
           "availability,churn_events,rerouted\n";
    for (const SweepRow &r : rows) {
        char line[320];
        std::snprintf(line, sizeof(line),
                      "%s,%s,%.3f,%.3f,%.3f,%llu,%llu,%llu,%llu,"
                      "%.6f,%llu,%llu\n",
                      r.name.c_str(), r.policy.c_str(), r.budgetW,
                      r.worstPowerW, r.meanPowerW,
                      static_cast<unsigned long long>(
                          r.capViolations),
                      static_cast<unsigned long long>(r.completed),
                      static_cast<unsigned long long>(
                          r.sloViolations),
                      static_cast<unsigned long long>(r.queued),
                      r.availability,
                      static_cast<unsigned long long>(r.churnEvents),
                      static_cast<unsigned long long>(r.rerouted));
        csv << line;
    }
    csv.close();

    std::ofstream out(opt.jsonOut, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n",
                     opt.jsonOut.c_str());
        return 1;
    }
    coscale::JsonWriter j(out);
    j.beginObject();
    j.field("benchmark", std::string("cluster"));
    j.beginArray("entries");
    for (const SweepRow &r : rows) {
        j.beginObject();
        j.field("name", r.name);
        j.field("events", r.events);
        j.field("wall_s", r.wallS);
        j.field("events_per_sec",
                r.wallS > 0.0
                    ? static_cast<double>(r.events) / r.wallS
                    : 0.0);
        j.field("budget_w", r.budgetW);
        j.field("worst_power_w", r.worstPowerW);
        j.field("cap_violation_epochs", r.capViolations);
        if (r.churned) {
            j.field("availability", r.availability);
            j.field("churn_events", r.churnEvents);
            j.field("rerouted_requests", r.rerouted);
            j.field("slo_violations_degraded", r.sloDegraded);
            j.field("slo_violations_clean", r.sloClean);
        }
        j.endObject();
    }
    j.endArray();
    j.endObject();
    out << "\n";

    std::printf("\n-> %s, %s\n", opt.csvOut.c_str(),
                opt.jsonOut.c_str());

    // The headline claim, machine-checked: with the allocator armed,
    // FastCap never exceeds any budget; plain CoScale does at least
    // once (it ignores the cap by design). With churn armed the cap
    // invariant must additionally survive every churn event, churn
    // must actually have happened (otherwise the leg proves
    // nothing), and availability must reflect the lost node-epochs.
    bool fastcap_clean = true;
    bool coscale_violates = false;
    bool churn_happened = !churn_plan.enabled();
    bool churn_observed = !churn_plan.enabled();
    for (const SweepRow &r : rows) {
        if (r.budgetW == 0.0)
            continue;
        if (r.policy == "fastcap" && r.capViolations > 0)
            fastcap_clean = false;
        if (r.policy == "coscale" && r.capViolations > 0)
            coscale_violates = true;
        if (r.churned && r.churnEvents > 0)
            churn_happened = true;
        if (r.churned && r.availability < 1.0)
            churn_observed = true;
    }
    std::printf("fastcap respects every budget: %s\n",
                fastcap_clean ? "yes" : "NO");
    std::printf("uncapped-policy fleet violates: %s\n",
                coscale_violates ? "yes" : "NO (unexpected)");
    if (churn_plan.enabled()) {
        std::printf("churn events occurred: %s\n",
                    churn_happened ? "yes" : "NO (plan too weak)");
        std::printf("availability reflects downtime: %s\n",
                    churn_observed ? "yes" : "NO (no node lost)");
    }
    return fastcap_clean && coscale_violates && churn_happened
                   && churn_observed
               ? 0
               : 1;
}
