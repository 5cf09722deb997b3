/**
 * @file
 * Tests for the parallel experiment engine: determinism (parallel
 * batches bit-identical to serial, including the emitted JSON),
 * baseline memoization accounting, failure isolation, borrowed-policy
 * rejection, worker-count resolution, and policy-name resolution
 * (including the helpful rejection of unknown names).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/bench_options.hh"
#include "exp/engine.hh"
#include "exp/policies.hh"
#include "exp/report.hh"
#include "policy/coscale_policy.hh"
#include "policy/simple_policies.hh"
#include "sim/runner.hh"

namespace coscale {
namespace {

SystemConfig
smallConfig(double scale = 0.05)
{
    return makeScaledConfig(scale);
}

std::string
jsonOf(const RunResult &r)
{
    std::ostringstream os;
    writeJsonReport(r, nullptr, os);
    return os.str();
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.mixName, b.mixName);
    EXPECT_EQ(a.policyName, b.policyName);
    EXPECT_EQ(a.finishTick, b.finishTick);
    EXPECT_EQ(a.appCompletion, b.appCompletion);
    EXPECT_EQ(a.cpuEnergyJ, b.cpuEnergyJ);
    EXPECT_EQ(a.memEnergyJ, b.memEnergyJ);
    EXPECT_EQ(a.otherEnergyJ, b.otherEnergyJ);
    EXPECT_EQ(a.epochs.size(), b.epochs.size());
    EXPECT_EQ(a.totalInstrs, b.totalInstrs);
    EXPECT_EQ(a.measuredMpki, b.measuredMpki);
    EXPECT_EQ(a.measuredWpki, b.measuredWpki);
    // Byte-identical machine-readable reports, not just equal fields.
    EXPECT_EQ(jsonOf(a), jsonOf(b));
}

std::vector<RunRequest>
matrixRequests(const SystemConfig &cfg)
{
    std::vector<RunRequest> requests;
    for (const char *mix : {"ILP2", "MID3", "MEM1", "MIX2"}) {
        for (const char *pol : {"MemScale", "CoScale", "CPUOnly"}) {
            requests.push_back(
                RunRequest::forMix(cfg, mixByName(mix))
                    .with(exp::policyFactoryByName(pol, cfg.numCores,
                                                   cfg.gamma)));
        }
    }
    return requests;
}

// The two batch tests below run at scale 0.01: instrBudget and
// epochLen scale together, so a CoScale run of these mixes still
// takes 11-49 epochs, each with a policy decision (10-49 at 0.05), in
// a fifth of the simulated time.

TEST(ExperimentEngine, ParallelBatchBitIdenticalToSerial)
{
    SystemConfig cfg = smallConfig(0.01);
    std::vector<RunRequest> requests = matrixRequests(cfg);

    exp::EngineOptions serialOpts;
    serialOpts.jobs = 1;
    exp::ExperimentEngine serial(serialOpts);
    std::vector<exp::RunOutcome> ser = serial.run(requests);

    exp::EngineOptions parOpts;
    parOpts.jobs = 4;
    exp::ExperimentEngine parallel(parOpts);
    std::vector<exp::RunOutcome> par = parallel.run(requests);

    ASSERT_EQ(ser.size(), requests.size());
    ASSERT_EQ(par.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        ASSERT_TRUE(ser[i].ok) << ser[i].error;
        ASSERT_TRUE(par[i].ok) << par[i].error;
        EXPECT_EQ(ser[i].index, i);
        EXPECT_EQ(par[i].index, i);
        // Outcomes come back in request order, not completion order.
        EXPECT_EQ(par[i].result.mixName, requests[i].label);
        expectIdentical(ser[i].result, par[i].result);
    }
}

TEST(ExperimentEngine, FaultedRunsBitIdenticalAcrossWorkerCounts)
{
    // Re-pin the bit-identical-under---jobs-N contract for the
    // event-driven kernel with fault injection in the loop: faulted
    // decisions hash (seed, epoch, stream), so worker interleaving
    // must not leak into the event stream either.
    SystemConfig cfg = smallConfig(0.01);
    fault::FaultPlan plan;
    plan.counterNoiseAmp = 0.05;
    plan.counterNoiseProb = 0.25;
    plan.transitionDenyProb = 0.4;

    std::vector<RunRequest> requests;
    for (const char *mix : {"MID3", "MEM1"}) {
        requests.push_back(
            RunRequest::forMix(cfg, mixByName(mix))
                .with(exp::policyFactoryByName("CoScale", cfg.numCores,
                                               cfg.gamma)));
        requests.push_back(
            RunRequest::forMix(cfg, mixByName(mix))
                .with(exp::policyFactoryByName("CoScale", cfg.numCores,
                                               cfg.gamma))
                .withFaults(plan));
    }

    exp::EngineOptions serialOpts;
    serialOpts.jobs = 1;
    exp::ExperimentEngine serial(serialOpts);
    std::vector<exp::RunOutcome> ser = serial.run(requests);

    exp::EngineOptions parOpts;
    parOpts.jobs = 4;
    exp::ExperimentEngine parallel(parOpts);
    std::vector<exp::RunOutcome> par = parallel.run(requests);

    ASSERT_EQ(ser.size(), requests.size());
    ASSERT_EQ(par.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        ASSERT_TRUE(ser[i].ok) << ser[i].error;
        ASSERT_TRUE(par[i].ok) << par[i].error;
        expectIdentical(ser[i].result, par[i].result);
        EXPECT_EQ(ser[i].result.faults.transitionsDenied,
                  par[i].result.faults.transitionsDenied);
        EXPECT_EQ(ser[i].result.faults.noisyEpochs,
                  par[i].result.faults.noisyEpochs);
    }
    // The faulted requests must actually have injected something.
    EXPECT_GE(ser[1].result.faults.transitionsDenied
                  + ser[1].result.faults.noisyEpochs,
              1u);
}

TEST(ExperimentEngine, OutcomesStayInRequestOrder)
{
    // A small 2-core batch whose first request is the longest (MEM1
    // takes 39 epochs here, the others 10-18), so with three workers
    // the runs finish out of request order; the outcomes must not.
    SystemConfig cfg = smallConfig(0.01);
    cfg.numCores = 2;
    std::vector<RunRequest> requests;
    for (const char *mix : {"MEM1", "ILP2", "MID3", "MIX2"}) {
        requests.push_back(
            RunRequest::forMix(cfg, mixByName(mix))
                .with(exp::policyFactoryByName("CoScale", cfg.numCores,
                                               cfg.gamma)));
    }
    exp::EngineOptions opts;
    opts.jobs = 3;
    exp::ExperimentEngine engine(opts);
    std::vector<exp::RunOutcome> outcomes = engine.run(requests);
    ASSERT_EQ(outcomes.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
        EXPECT_EQ(outcomes[i].index, i);
        EXPECT_EQ(outcomes[i].result.mixName, requests[i].label);
    }
}

TEST(BaselinePool, MemoizesByConfigAndWorkload)
{
    SystemConfig cfg = smallConfig();
    exp::BaselinePool pool;
    exp::EngineOptions opts;
    opts.jobs = 1;
    opts.pool = &pool;
    exp::ExperimentEngine engine(opts);

    auto request = [&](const char *mix) {
        return RunRequest::forMix(cfg, mixByName(mix))
            .with(exp::policyFactoryByName("CoScale", cfg.numCores,
                                           cfg.gamma))
            .withBaseline();
    };

    exp::RunOutcome first = engine.runOne(request("MID3"));
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(pool.misses(), 1u);
    EXPECT_EQ(pool.hits(), 0u);
    EXPECT_EQ(pool.size(), 1u);

    // Equal config, apps and label -> a hit, and the same memoized
    // RunResult object.
    exp::RunOutcome second = engine.runOne(request("MID3"));
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(pool.misses(), 1u);
    EXPECT_EQ(pool.hits(), 1u);
    EXPECT_EQ(first.baseline, second.baseline);

    // A different mix is a different key.
    exp::RunOutcome third = engine.runOne(request("ILP2"));
    ASSERT_TRUE(third.ok) << third.error;
    EXPECT_EQ(pool.misses(), 2u);
    EXPECT_EQ(pool.size(), 2u);

    // A different config is a different key even for the same mix.
    SystemConfig other = cfg;
    other.gamma = cfg.gamma / 2.0;
    exp::RunOutcome fourth = engine.runOne(
        RunRequest::forMix(other, mixByName("MID3"))
            .with(exp::policyFactoryByName("CoScale", other.numCores,
                                           other.gamma))
            .withBaseline());
    ASSERT_TRUE(fourth.ok) << fourth.error;
    EXPECT_EQ(pool.misses(), 3u);

    // Every input that shapes a run is part of the key: each variant
    // of `small` below must miss. They ask the pool directly, on 2
    // cores at scale 0.01, so the sanitizer legs stay short.
    SystemConfig small = smallConfig(0.01);
    small.numCores = 2;
    auto misses = [&pool](const SystemConfig &c, const char *mix) {
        std::uint64_t before = pool.misses();
        pool.baseline(RunRequest::forMix(c, mixByName(mix)));
        return pool.misses() == before + 1;
    };
    ASSERT_TRUE(misses(small, "MID1"));
    EXPECT_FALSE(misses(small, "MID1"));
    EXPECT_TRUE(misses(small, "MID2"));

    SystemConfig changed = small;
    changed.gamma *= 2.0;
    EXPECT_TRUE(misses(changed, "MID1")) << "gamma";

    changed = small;
    changed.seed += 1;
    EXPECT_TRUE(misses(changed, "MID1")) << "seed";

    changed = small;
    changed.llc.prefetchNextLine = !changed.llc.prefetchNextLine;
    EXPECT_TRUE(misses(changed, "MID1")) << "llc.prefetchNextLine";

    changed = small;
    changed.power.mem.memPowerMultiplier *= 2.0;
    EXPECT_TRUE(misses(changed, "MID1"))
        << "power.mem.memPowerMultiplier";

    // The LLC way-partition knob: 2 cores on 16 ways open its gate,
    // so the flip changes what the Baseline run simulates.
    ASSERT_GE(small.llc.ways, 2 * small.numCores);
    changed = small;
    changed.knobs.llcWays = !changed.knobs.llcWays;
    EXPECT_TRUE(misses(changed, "MID1")) << "knobs.llcWays";
    EXPECT_EQ(pool.size(), 10u);
}

void
expectSameComparison(const Comparison &a, const Comparison &b)
{
    EXPECT_EQ(a.fullSystemSavings, b.fullSystemSavings);
    EXPECT_EQ(a.cpuSavings, b.cpuSavings);
    EXPECT_EQ(a.memSavings, b.memSavings);
    EXPECT_EQ(a.avgDegradation, b.avgDegradation);
    EXPECT_EQ(a.worstDegradation, b.worstDegradation);
}

TEST(ExperimentEngine, BaselineComparisonsIgnoreRequestOrder)
{
    // A CoScale request on an unpartitioned LLC and a Baseline request
    // on the same machine with the way-partition knob armed: 2 cores
    // on 16 ways open its gate, and a 1 MB LLC under uneven hot sets
    // makes the partition change the run. Each request must be
    // compared with the Baseline of its own config, whichever of the
    // two comes first in the batch.
    SystemConfig flat = smallConfig(0.01);
    flat.numCores = 2;
    flat.llc.sizeBytes = std::uint64_t(1) << 20;
    // Explicit: COSCALE_KNOB_LLC_WAYS=1 arms it in makeScaledConfig().
    flat.knobs.llcWays = false;
    SystemConfig parted = flat;
    parted.knobs.llcWays = true;

    auto request = [](const SystemConfig &cfg, const char *policy) {
        RunRequest req =
            RunRequest::forMix(cfg, mixByName("MID1"))
                .with(exp::policyFactoryByName(policy, cfg.numCores,
                                               cfg.gamma))
                .withBaseline();
        applyHotFootprints(req.apps, {4096, 12288});
        return req;
    };
    const RunRequest coscale = request(flat, "CoScale");
    const RunRequest base = request(parted, "Baseline");

    auto runBatch = [](exp::BaselinePool &pool,
                       const std::vector<RunRequest> &requests) {
        exp::EngineOptions opts;
        opts.jobs = 1;
        opts.pool = &pool;
        std::vector<exp::RunOutcome> outcomes =
            exp::ExperimentEngine(opts).run(requests);
        EXPECT_EQ(pool.misses(), 2u);
        for (const exp::RunOutcome &out : outcomes) {
            EXPECT_TRUE(out.ok) << out.error;
            EXPECT_TRUE(out.hasBaseline);
        }
        return outcomes;
    };
    exp::BaselinePool pool_fwd;
    exp::BaselinePool pool_rev;
    std::vector<exp::RunOutcome> fwd = runBatch(pool_fwd, {coscale, base});
    std::vector<exp::RunOutcome> rev = runBatch(pool_rev, {base, coscale});
    ASSERT_EQ(fwd.size(), 2u);
    ASSERT_EQ(rev.size(), 2u);

    // The Baseline policy against its own Baseline: nothing saved,
    // nothing slowed.
    EXPECT_EQ(fwd[1].vsBaseline.fullSystemSavings, 0.0);
    EXPECT_EQ(fwd[1].vsBaseline.worstDegradation, 0.0);
    EXPECT_EQ(rev[0].vsBaseline.fullSystemSavings, 0.0);
    EXPECT_EQ(rev[0].vsBaseline.worstDegradation, 0.0);

    expectSameComparison(fwd[0].vsBaseline, rev[1].vsBaseline);
    expectSameComparison(fwd[1].vsBaseline, rev[0].vsBaseline);
}

TEST(BaselinePool, SharedAcrossParallelBatch)
{
    SystemConfig cfg = smallConfig();
    exp::BaselinePool pool;
    exp::EngineOptions opts;
    opts.jobs = 4;
    opts.pool = &pool;
    exp::ExperimentEngine engine(opts);

    std::vector<RunRequest> requests;
    for (const char *pol : {"MemScale", "CoScale", "CPUOnly",
                            "Uncoordinated"}) {
        requests.push_back(
            RunRequest::forMix(cfg, mixByName("MID1"))
                .with(exp::policyFactoryByName(pol, cfg.numCores,
                                               cfg.gamma))
                .withBaseline());
    }
    std::vector<exp::RunOutcome> outcomes = engine.run(requests);
    for (const auto &out : outcomes) {
        ASSERT_TRUE(out.ok) << out.error;
        ASSERT_TRUE(out.hasBaseline);
        EXPECT_EQ(out.baseline, outcomes[0].baseline);
    }
    // One baseline computed no matter how many workers raced for it.
    EXPECT_EQ(pool.misses(), 1u);
    EXPECT_EQ(pool.hits(), 3u);
    EXPECT_EQ(pool.size(), 1u);
}

TEST(ExperimentEngine, ThrowingWorkerPoisonsOnlyItsRequest)
{
    SystemConfig cfg = smallConfig();
    std::vector<RunRequest> requests;
    requests.push_back(
        RunRequest::forMix(cfg, mixByName("ILP2"))
            .with(exp::policyFactoryByName("CoScale", cfg.numCores,
                                           cfg.gamma)));
    requests.push_back(
        RunRequest::forMix(cfg, mixByName("MID2"))
            .with([]() -> std::unique_ptr<Policy> {
                throw std::runtime_error("deliberate factory failure");
            }));
    requests.push_back(
        RunRequest::forMix(cfg, mixByName("MEM2"))
            .with(exp::policyFactoryByName("MemScale", cfg.numCores,
                                           cfg.gamma)));

    exp::EngineOptions opts;
    opts.jobs = 3;
    exp::ExperimentEngine engine(opts);
    std::vector<exp::RunOutcome> outcomes = engine.run(requests);

    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_NE(outcomes[1].error.find("deliberate factory failure"),
              std::string::npos);
    EXPECT_TRUE(outcomes[2].ok) << outcomes[2].error;

    // The JSONL report accounts for every request, pass or fail.
    std::ostringstream os;
    exp::writeJsonlReport(outcomes, os);
    std::string report = os.str();
    size_t lines = 0;
    for (char ch : report)
        lines += ch == '\n' ? 1 : 0;
    EXPECT_EQ(lines, outcomes.size());
    EXPECT_NE(report.find("deliberate factory failure"),
              std::string::npos);
}

TEST(ExperimentEngine, RejectsBorrowedPolicies)
{
    SystemConfig cfg = smallConfig();
    CoScalePolicy policy(cfg.numCores, cfg.gamma);
    exp::EngineOptions opts;
    opts.jobs = 1;
    exp::ExperimentEngine engine(opts);
    exp::RunOutcome out = engine.runOne(
        RunRequest::forMix(cfg, mixByName("MID3")).with(policy));
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.error.find("factory"), std::string::npos);
}

TEST(ExperimentEngine, ResolveJobsPrecedence)
{
    EXPECT_EQ(exp::resolveJobs(7), 7);

    // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded test; no engine running
    ASSERT_EQ(setenv("COSCALE_JOBS", "3", 1), 0);
    EXPECT_EQ(exp::resolveJobs(0), 3);
    EXPECT_EQ(exp::resolveJobs(5), 5);

    // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded test; no engine running
    ASSERT_EQ(unsetenv("COSCALE_JOBS"), 0);
    EXPECT_GE(exp::resolveJobs(0), 1);
}

TEST(BenchOptions, ParsesSharedFlags)
{
    const char *argv[] = {"prog",   "--scale",    "0.25", "--jobs",
                          "2",      "--jsonl",    "x.jsonl",
                          "--progress"};
    exp::BenchOptions opts = exp::parseBenchArgs(8,
        const_cast<char **>(argv));
    EXPECT_DOUBLE_EQ(opts.scale, 0.25);
    EXPECT_EQ(opts.jobs, 2);
    EXPECT_EQ(opts.jsonlPath, "x.jsonl");
    EXPECT_TRUE(opts.progress);

    const char *legacy[] = {"prog", "0.5"};
    exp::BenchOptions pos = exp::parseBenchArgs(2,
        const_cast<char **>(legacy), 0.1);
    EXPECT_DOUBLE_EQ(pos.scale, 0.5);

    const char *none[] = {"prog"};
    exp::BenchOptions def = exp::parseBenchArgs(1,
        const_cast<char **>(none), 0.2);
    EXPECT_DOUBLE_EQ(def.scale, 0.2);
}

TEST(PolicyFactories, KnowsPaperAndCliNames)
{
    SystemConfig cfg = smallConfig();
    ASSERT_EQ(exp::paperPolicyNames().size(), 6u);
    for (const std::string &name : exp::paperPolicyNames()) {
        PolicyFactory f =
            exp::policyFactoryByName(name, cfg.numCores, cfg.gamma);
        ASSERT_TRUE(static_cast<bool>(f)) << name;
        EXPECT_NE(f(), nullptr) << name;
    }
    for (const char *name : {"baseline", "reactive", "semi-alt",
                             "coscale-chipwide", "multiscale",
                             "powercap"}) {
        PolicyFactory f =
            exp::policyFactoryByName(name, cfg.numCores, cfg.gamma);
        ASSERT_TRUE(static_cast<bool>(f)) << name;
        EXPECT_NE(f(), nullptr) << name;
    }
    // Fresh instance per call, never a shared one.
    PolicyFactory f =
        exp::policyFactoryByName("CoScale", cfg.numCores, cfg.gamma);
    EXPECT_NE(f().get(), f().get());
    EXPECT_FALSE(static_cast<bool>(
        exp::policyFactoryByName("nonsense", cfg.numCores, cfg.gamma)));
}

TEST(PolicyFactories, RejectsUnknownNamesWithValidList)
{
    SystemConfig cfg = smallConfig();
    try {
        exp::requirePolicyFactory("nonsense", cfg.numCores, cfg.gamma);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        // Names the offending spelling and every valid one.
        EXPECT_NE(msg.find("nonsense"), std::string::npos) << msg;
        for (const std::string &name : exp::knownPolicyNames())
            EXPECT_NE(msg.find(name), std::string::npos) << name;
    }
    // Known names resolve to working factories through the same path.
    PolicyFactory f =
        exp::requirePolicyFactory("coscale", cfg.numCores, cfg.gamma);
    ASSERT_TRUE(static_cast<bool>(f));
    EXPECT_NE(f(), nullptr);
}

TEST(ExperimentEngine, RecordsPerRunWallTime)
{
    SystemConfig cfg = smallConfig();
    exp::EngineOptions opts;
    opts.jobs = 1;
    exp::ExperimentEngine engine(opts);
    exp::RunOutcome out = engine.runOne(
        RunRequest::forMix(cfg, mixByName("MID3"))
            .with(exp::policyFactoryByName("CoScale", cfg.numCores,
                                           cfg.gamma))
            .withMetrics());
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_GT(out.wallSecs, 0.0);
    // The wall time also lands in the run's metrics registry (and
    // only there — JSON reports stay deterministic).
    ASSERT_NE(out.result.metrics, nullptr);
    EXPECT_GT(out.result.metrics->gauge("engine.wall_secs").value(),
              0.0);
    EXPECT_EQ(jsonOf(out.result).find("wall"), std::string::npos);
}

TEST(ExperimentEngine, FailuresCarryRequestAndExceptionContext)
{
    SystemConfig cfg = smallConfig();
    exp::EngineOptions opts;
    opts.jobs = 1;
    exp::ExperimentEngine engine(opts);
    exp::RunOutcome out = engine.runOne(
        RunRequest::forMix(cfg, mixByName("MID2"))
            .with([]() -> std::unique_ptr<Policy> {
                throw std::runtime_error("deliberate factory failure");
            }));
    EXPECT_FALSE(out.ok);
    // Which request, which exception type, and what it said — enough
    // to triage a 200-run batch from the JSONL alone.
    EXPECT_NE(out.error.find("request 'MID2'"), std::string::npos)
        << out.error;
    EXPECT_NE(out.error.find("runtime_error"), std::string::npos)
        << out.error;
    EXPECT_NE(out.error.find("deliberate factory failure"),
              std::string::npos)
        << out.error;
    // The stderr failure digest counts it too.
    EXPECT_EQ(exp::reportFailures({out}), 1u);

    // And an empty batch is a clean no-op, not an edge case.
    exp::ExperimentEngine empty{exp::EngineOptions{}};
    EXPECT_TRUE(empty.run({}).empty());
}

/** Cooperative hang: each decision burns ~200 ms of host time. */
class SlowPolicy final : public Policy
{
  public:
    std::string name() const override { return "Slow"; }

    FreqConfig
    decide(const SystemProfile &profile, const EnergyModel &,
           const FreqConfig &current, Tick) override
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        (void)profile;
        return current;
    }

    void observeEpoch(const EpochObservation &,
                      const EnergyModel &) override
    {
    }
};

TEST(ExperimentEngine, WatchdogCancelsHungRunAndBatchCompletes)
{
    // The watchdog budget covers every request in the batch, so the
    // healthy run must be far under it and the hung one far over:
    // a scale-0.02 2-core run finishes in ~10 ms of host time and
    // ~10 epochs, while SlowPolicy burns 200 ms per epoch.
    SystemConfig cfg = smallConfig(0.02);
    cfg.numCores = 2;
    std::vector<RunRequest> requests;
    requests.push_back(
        RunRequest::forMix(cfg, mixByName("MID2"))
            .with([]() -> std::unique_ptr<Policy> {
                return std::make_unique<SlowPolicy>();
            }));
    requests.push_back(
        RunRequest::forMix(cfg, mixByName("ILP2"))
            .with(exp::policyFactoryByName("CoScale", cfg.numCores,
                                           cfg.gamma)));

    exp::EngineOptions opts;
    opts.jobs = 2;
    opts.timeoutSecs = 0.5;
    exp::ExperimentEngine engine(opts);
    std::vector<exp::RunOutcome> outcomes = engine.run(requests);

    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_TRUE(outcomes[0].timedOut);
    EXPECT_NE(outcomes[0].error.find("watchdog"), std::string::npos)
        << outcomes[0].error;
    // A hung neighbor must not take the batch down with it.
    EXPECT_TRUE(outcomes[1].ok) << outcomes[1].error;

    std::ostringstream os;
    exp::writeJsonlReport(outcomes, os);
    EXPECT_NE(os.str().find("\"timed_out\":true"), std::string::npos);
}

TEST(ExperimentEngine, FailuresOnAMixDoNotRefuseItsOtherRequests)
{
    // Three MID1 requests whose factory throws, then a healthy
    // MemScale request on the same mix. A failure belongs to its own
    // request only: the MemScale run completes, and the batch writes
    // the same JSONL whatever the worker count.
    SystemConfig cfg = smallConfig(0.02);
    std::vector<RunRequest> requests;
    for (int i = 0; i < 3; ++i) {
        requests.push_back(
            RunRequest::forMix(cfg, mixByName("MID1"))
                .with([]() -> std::unique_ptr<Policy> {
                    throw std::runtime_error("always broken");
                }));
    }
    requests.push_back(
        RunRequest::forMix(cfg, mixByName("MID1"))
            .with(exp::policyFactoryByName("MemScale", cfg.numCores,
                                           cfg.gamma)));

    std::vector<std::string> reports;
    for (int jobs : {1, 4}) {
        exp::EngineOptions opts;
        opts.jobs = jobs;
        exp::ExperimentEngine engine(opts);
        std::vector<exp::RunOutcome> outcomes = engine.run(requests);
        ASSERT_EQ(outcomes.size(), 4u);
        for (int i = 0; i < 3; ++i)
            EXPECT_FALSE(outcomes[i].ok) << "jobs " << jobs;
        EXPECT_TRUE(outcomes[3].ok)
            << "jobs " << jobs << ": " << outcomes[3].error;
        std::ostringstream os;
        exp::writeJsonlReport(outcomes, os);
        reports.push_back(os.str());
    }
    EXPECT_EQ(reports[0], reports[1]);
}

} // namespace
} // namespace coscale
