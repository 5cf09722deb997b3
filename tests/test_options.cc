/**
 * @file
 * The front ends' option tables (exp/options.hh) and the strict number
 * parser under them: every error kind, an argv fuzzer over each
 * table, and the inventory of invocations that CI and the docs run,
 * each pinned field by field to the values it must parse to.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/number_parse.hh"
#include "exp/bench_options.hh"
#include "exp/engine.hh"
#include "exp/options.hh"
#include "exp/policies.hh"
#include "fault/fault_plan.hh"
#include "sim/runner.hh"
#include "workloads/spec_catalogue.hh"

using namespace coscale;
using exp::Option;
using exp::OptionParseError;
using ErrKind = OptionParseError::Kind;

namespace {

/** Fresh options for every front end, and the table over each. */
struct FrontEnds
{
    exp::SimOptions sim;
    exp::BenchOptions bench;
    exp::ClusterBenchOptions cluster;
    exp::TraceDumpOptions traceDump;

    /** The table @p prog parses with; bench_* harnesses share one. */
    exp::OptionTable
    table(const std::string &prog)
    {
        if (prog == "coscale_sim")
            return exp::simOptionTable(sim);
        if (prog == "bench_cluster")
            return exp::clusterBenchOptionTable(cluster);
        if (prog == "trace_dump")
            return exp::traceDumpOptionTable(traceDump);
        return exp::benchOptionTable(bench);
    }
};

const char *const kFrontEnds[] = {"coscale_sim", "bench_fig10_bound",
                                  "bench_cluster", "trace_dump"};

/** Split a shell command line on blanks; "..." quotes a blank. */
std::vector<std::string>
splitCommand(const std::string &cmd)
{
    std::vector<std::string> out;
    std::string cur;
    bool quoted = false;
    bool any = false;
    for (char c : cmd) {
        if (c == '"') {
            quoted = !quoted;
            any = true;
        } else if (c == ' ' && !quoted) {
            if (any)
                out.push_back(cur);
            cur.clear();
            any = false;
        } else {
            cur += c;
            any = true;
        }
    }
    if (any)
        out.push_back(cur);
    return out;
}

std::vector<const char *>
argvOf(const std::vector<std::string> &args)
{
    std::vector<const char *> argv;
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    return argv;
}

/** Parse @p args (argv[0] first) against @p prog's table in @p fe. */
bool
parseWith(FrontEnds &fe, const std::string &prog,
          const std::vector<std::string> &args)
{
    std::vector<const char *> argv = argvOf(args);
    return exp::parseOptions(fe.table(prog), static_cast<int>(argv.size()),
                             argv.data());
}

OptionParseError
expectError(const std::string &cmd, ErrKind kind, const std::string &flag,
            const std::string &token)
{
    std::vector<std::string> args = splitCommand(cmd);
    FrontEnds fe;
    try {
        parseWith(fe, args[0], args);
    } catch (const OptionParseError &e) {
        EXPECT_EQ(e.kind(), kind) << cmd << ": " << e.what();
        EXPECT_EQ(e.flag(), flag) << cmd;
        EXPECT_EQ(e.token(), token) << cmd;
        std::string msg = e.what();
        EXPECT_NE(msg.find(flag), std::string::npos) << msg;
        EXPECT_NE(msg.find("'" + token + "'"), std::string::npos
                  || token.empty())
            << msg;
        return e;
    }
    ADD_FAILURE() << cmd << ": parsed, expected an OptionParseError";
    return OptionParseError(kind, flag, token, "");
}

/** Every number a row holds lies in the row's range. */
void
expectInRange(const exp::OptionTable &t, const std::string &argv)
{
    for (const Option &o : t.options) {
        double x = 0.0;
        if (int *const *i = std::get_if<int *>(&o.target))
            x = **i;
        else if (double *const *d = std::get_if<double *>(&o.target))
            x = **d;
        else if (auto *u = std::get_if<std::uint64_t *>(&o.target))
            x = static_cast<double>(**u);
        else
            continue;
        EXPECT_TRUE(o.range.contains(x))
            << o.name << " = " << x << " after '" << argv << "'";
    }
}

} // namespace

TEST(NumberParse, ConsumesTheWholeToken)
{
    double d = -1.0;
    EXPECT_TRUE(parseDouble("0.25", &d));
    EXPECT_EQ(d, 0.25);
    EXPECT_TRUE(parseDouble("-0.5", &d));
    EXPECT_EQ(d, -0.5);
    for (const char *bad : {"", "abc", "2x", "0.1 ", "1e400", "nan", "inf",
                            "-inf", "1,5"}) {
        d = 7.0;
        EXPECT_FALSE(parseDouble(bad, &d)) << "'" << bad << "'";
        EXPECT_EQ(d, 7.0) << "left untouched on '" << bad << "'";
    }

    std::uint64_t u = 9;
    EXPECT_TRUE(parseU64("0", &u));
    EXPECT_EQ(u, 0u);
    EXPECT_TRUE(parseU64("18446744073709551615", &u));
    EXPECT_EQ(u, ~std::uint64_t(0));
    for (const char *bad : {"", "-5", " 5", "+5", "\t5", "2x", "0x10",
                            "1e3", "18446744073709551616"}) {
        u = 9;
        EXPECT_FALSE(parseU64(bad, &u)) << "'" << bad << "'";
        EXPECT_EQ(u, 9u);
    }
}

TEST(OptionParse, EveryErrorKindNamesTheFlagAndTheToken)
{
    expectError("coscale_sim --bogus", ErrKind::UnknownFlag, "--bogus",
                "--bogus");
    expectError("coscale_sim stray", ErrKind::UnknownFlag, "stray",
                "stray");
    expectError("bench_fig10_bound 0.1 extra", ErrKind::UnknownFlag,
                "extra", "extra");
    expectError("coscale_sim --mix MID1 --scale", ErrKind::MissingValue,
                "--scale", "");
    expectError("coscale_sim --scale abc", ErrKind::BadNumber, "--scale",
                "abc");
    expectError("bench_fig8_9_policies --jobs 2x", ErrKind::BadNumber,
                "--jobs", "2x");
    expectError("coscale_sim --seed -5", ErrKind::BadNumber, "--seed",
                "-5");
    expectError("bench_fig10_bound abc", ErrKind::BadNumber, "scale",
                "abc");
    expectError("coscale_sim --cores 0", ErrKind::OutOfRange, "--cores",
                "0");
    expectError("coscale_sim --scale 2", ErrKind::OutOfRange, "--scale",
                "2");
    expectError("coscale_sim --fault-deny 1.5", ErrKind::OutOfRange,
                "--fault-deny", "1.5");
    expectError("bench_cluster --node-cores 17", ErrKind::OutOfRange,
                "--node-cores", "17");
    expectError("coscale_sim --cores 99999999999", ErrKind::OutOfRange,
                "--cores", "99999999999");
    expectError("coscale_sim --mem-sched fifo", ErrKind::BadValue,
                "--mem-sched", "fifo");
    expectError("coscale_sim --mix MID9", ErrKind::BadValue, "--mix",
                "MID9");
    expectError("bench_cluster --mix all", ErrKind::BadValue, "--mix",
                "all");
    expectError("coscale_sim --policy bogus", ErrKind::BadValue,
                "--policy", "bogus");
    expectError("bench_cluster --fracs 0.9,,0.3", ErrKind::BadValue,
                "--fracs", "0.9,,0.3");
    expectError("trace_dump --make nosuchapp --out F", ErrKind::BadValue,
                "--make", "nosuchapp");
    // An empty spec would read as "flag not given".
    expectError("coscale_sim --arrival \"\"", ErrKind::BadValue,
                "--arrival", "");
    expectError("bench_cluster --churn \"\"", ErrKind::BadValue,
                "--churn", "");
}

TEST(OptionParse, TraceDumpRejectsNegativeInstructionsAtParseTime)
{
    // strtoull would read "-5" as 2^64 - 5 and the generator would
    // then write an unbounded file, so this input must never get past
    // parsing.
    expectError("trace_dump --make ammp --out F --instructions -5",
                ErrKind::BadNumber, "--instructions", "-5");
    expectError("trace_dump --make ammp --out F --instructions 0",
                ErrKind::OutOfRange, "--instructions", "0");
    expectError("trace_dump FILE --records abc", ErrKind::BadNumber,
                "--records", "abc");
}

TEST(OptionParse, JobsZeroMeansAutoOnEveryFrontEnd)
{
    for (const char *prog :
         {"coscale_sim", "bench_fig10_bound", "bench_cluster"}) {
        FrontEnds fe;
        fe.sim.jobs = fe.bench.jobs = fe.cluster.jobs = 7;
        EXPECT_TRUE(parseWith(fe, prog, {prog, "--jobs", "0"}));
        EXPECT_EQ(fe.sim.jobs + fe.bench.jobs + fe.cluster.jobs, 14)
            << prog;
        expectError(std::string(prog) + " --jobs -2", ErrKind::BadNumber,
                    "--jobs", "-2");
    }
}

TEST(OptionParse, MalformedEnvironmentNumbersWarnAndFallBack)
{
    // NOLINTBEGIN(concurrency-mt-unsafe): single-threaded test; no engine running
    ASSERT_EQ(unsetenv("COSCALE_JOBS"), 0);
    const int hardware = exp::resolveJobs(0);
    ASSERT_EQ(setenv("COSCALE_JOBS", "123x", 1), 0);
    EXPECT_EQ(exp::resolveJobs(0), hardware); // not 123
    ASSERT_EQ(setenv("COSCALE_JOBS", "123", 1), 0);
    EXPECT_EQ(exp::resolveJobs(0), 123);
    ASSERT_EQ(unsetenv("COSCALE_JOBS"), 0);

    const char *argv[] = {"prog"};
    char **args = const_cast<char **>(argv);
    ASSERT_EQ(setenv("COSCALE_SCALE", "0.5x", 1), 0);
    EXPECT_EQ(exp::parseBenchArgs(1, args, 0.2).scale, 0.2); // not 0.5
    ASSERT_EQ(setenv("COSCALE_SCALE", "2", 1), 0);
    EXPECT_EQ(exp::parseBenchArgs(1, args, 0.2).scale, 0.2);
    ASSERT_EQ(setenv("COSCALE_SCALE", "0.5", 1), 0);
    EXPECT_EQ(exp::parseBenchArgs(1, args, 0.2).scale, 0.5);
    ASSERT_EQ(unsetenv("COSCALE_SCALE"), 0);
    // NOLINTEND(concurrency-mt-unsafe)
}

TEST(RunBatch, TracesEachRequestAndAppendsEveryOutcome)
{
    const std::string dir = ::testing::TempDir();
    exp::BenchOptions opts;
    opts.jobs = 2;
    opts.metrics = true;
    opts.trace.path = dir + "coscale_run_batch.trace";
    opts.jsonlPath = dir + "coscale_run_batch.jsonl";
    std::remove(opts.jsonlPath.c_str());
    SystemConfig cfg = makeScaledConfig(0.01);
    std::vector<RunRequest> requests;
    for (const char *mix : {"MID1", "MEM1"}) {
        requests.push_back(
            RunRequest::forMix(cfg, mixByName(mix))
                .with(exp::policyFactoryByName("baseline", cfg.numCores,
                                               cfg.gamma)));
    }
    std::vector<exp::RunOutcome> outcomes = exp::runBatch(opts, requests);
    ASSERT_EQ(outcomes.size(), 2u);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
        EXPECT_TRUE(outcomes[i].result.metrics) << "request " << i;
        std::string trace = opts.trace.path + "." + std::to_string(i);
        EXPECT_TRUE(std::ifstream(trace).good()) << trace;
        std::remove(trace.c_str());
    }
    std::ifstream jsonl(opts.jsonlPath);
    std::string line;
    int lines = 0;
    while (std::getline(jsonl, line))
        lines += 1;
    EXPECT_EQ(lines, 2);
    std::remove(opts.jsonlPath.c_str());
}

TEST(OptionParse, HelpStopsParsingAndListsEveryRow)
{
    for (const char *prog : kFrontEnds) {
        FrontEnds fe;
        EXPECT_FALSE(parseWith(fe, prog, {prog, "--help", "--bogus"}));
        EXPECT_FALSE(parseWith(fe, prog, {prog, "-h"}));
        exp::OptionTable t = fe.table(prog);
        std::string help = exp::helpText(t);
        for (const Option &o : t.options)
            EXPECT_NE(help.find("  " + o.name), std::string::npos)
                << prog << " " << o.name;
    }
}

TEST(OptionParse, FuzzedArgvThrowsOnlyOptionParseError)
{
    const char *const seeds[] = {
        "coscale_sim --mix MIX2 --policy coscale --scale 0.2 "
        "--trace fig7.json --trace-format chrome --epochs",
        "coscale_sim --nodes 8 --power-cap 220 --mix MID1 "
        "--cluster-epochs 12 --fault-noise-bias -0.1 --fault-deny 0.2 "
        "--seed 7 --open-page --mem-sched frfcfs --other-frac 0.15",
        "bench_fig10_bound 0.02 --jobs 2 --timeout 5 "
        "--dram-standard ddr4 --progress",
        "bench_cluster --nodes 16 --epochs 6 --jobs 2 "
        "--fracs 0.9,0.6,0.3 --json-out B.json --node-cores 4",
        "trace_dump --make ammp --out F --instructions 5000 --records 3",
    };
    const char *const junk[] = {"",     "abc",  "-5",  "2x",  "0",
                                "1e400", "nan", "-",   "--",  " 1",
                                "0x10",  "1,,2", "0.5", "17", "-0.1",
                                "99999999999999999999", "MID1", "all"};
    const std::string chars = "-.,0159eExa ";
    int parsed = 0;
    int rejected = 0;
    std::uint64_t salt = 0;
    for (const char *seed : seeds) {
        const std::vector<std::string> base = splitCommand(seed);
        const std::string prog = base[0];
        std::vector<std::string> pool(std::begin(junk), std::end(junk));
        {
            FrontEnds fe;
            for (const Option &o : fe.table(prog).options)
                pool.push_back(o.name);
        }
        for (std::uint64_t k = 0; k < 1500; ++k) {
            std::vector<std::string> args = base;
            std::uint64_t h = fault::faultMix64(++salt);
            int edits = 1 + static_cast<int>(h % 3);
            for (int e = 0; e < edits; ++e) {
                h = fault::faultMix64(h);
                std::size_t at = 1 + (h >> 8) % args.size();
                const std::string &tok = pool[(h >> 24) % pool.size()];
                char c = chars[(h >> 40) % chars.size()];
                switch (h % 5) {
                  case 0:
                    if (at < args.size())
                        args[at] = tok;
                    break;
                  case 1:
                    args.insert(args.begin() + static_cast<long>(at), tok);
                    break;
                  case 2:
                    if (at < args.size())
                        args.erase(args.begin() + static_cast<long>(at));
                    break;
                  default:
                    if (at < args.size()) {
                        std::string &t = args[at];
                        std::size_t pos = (h >> 48) % (t.size() + 1);
                        if (h % 5 == 3 || pos == t.size())
                            t.insert(pos, 1, c);
                        else
                            t[pos] = c;
                    }
                    break;
                }
            }
            std::string line;
            for (const std::string &a : args)
                line += a + " ";
            FrontEnds fe;
            exp::OptionTable t = fe.table(prog);
            std::vector<const char *> argv = argvOf(args);
            try {
                exp::parseOptions(t, static_cast<int>(argv.size()),
                                  argv.data());
                expectInRange(t, line);
                parsed += 1;
            } catch (const OptionParseError &e) {
                EXPECT_NE(std::string(e.what()).find(e.flag()),
                          std::string::npos)
                    << line;
                rejected += 1;
            }
            // Any other exception, or an exit, fails the test.
        }
    }
    EXPECT_GT(parsed, 500);
    EXPECT_GT(rejected, 500);
}

namespace {

std::string
dump(const FrontEnds &f)
{
    std::ostringstream s;
    s << std::setprecision(17);
    const exp::SimOptions &o = f.sim;
    const fault::FaultPlan &p = o.faults;
    s << "sim: " << o.mix << ' ' << o.policy << ' ' << o.scale << ' '
      << o.bound << ' ' << o.cap << ' ' << o.cores << ' ' << o.jobs << ' '
      << o.ooo << o.prefetch << ' '
      << memSchedName(o.memBackend.sched) << ' '
      << rowPolicyName(o.memBackend.rowPolicy) << ' '
      << dramStandardName(o.memBackend.standard) << ' '
      << o.memBackendSet << o.regionMap << ' ' << o.freqSteps << ' '
      << o.halfVoltage << ' ' << o.memPowerMult << ' ' << o.otherFrac
      << ' ' << o.seed << " csv=" << o.csvPath << " json=" << o.jsonPath
      << " jsonl=" << o.jsonlPath << ' ' << o.printEpochs
      << " trace=" << o.trace.path << ' '
      << static_cast<int>(o.trace.format) << ' ' << o.metrics << ' '
      << o.timeoutSecs << ' ' << o.listPolicies
      << " faults=" << p.seed << ' ' << p.counterNoiseAmp << ' '
      << p.counterNoiseBias << ' ' << p.counterDropoutProb << ' '
      << p.counterStaleProb << ' ' << p.transitionDenyProb << ' '
      << p.transitionDelayProb << ' ' << p.transitionClampProb << ' '
      << p.epochJitterFrac << " fleet=" << o.nodes << ' ' << o.nodeCores
      << ' ' << o.powerCap << ' ' << o.clusterEpochs << " arrival="
      << o.arrival << " lb=" << o.lb << " churn=" << o.churn << '\n';
    const exp::BenchOptions &b = f.bench;
    s << "bench: " << b.scale << ' ' << b.jobs << ' ' << b.progress
      << " jsonl=" << b.jsonlPath << " trace=" << b.trace.path << ' '
      << static_cast<int>(b.trace.format) << ' ' << b.metrics << ' '
      << b.timeoutSecs << ' '
      << memSchedName(b.memBackend.sched) << ' '
      << rowPolicyName(b.memBackend.rowPolicy) << ' '
      << dramStandardName(b.memBackend.standard) << ' '
      << b.memBackendSet << b.listPolicies << '\n';
    const exp::ClusterBenchOptions &c = f.cluster;
    s << "cluster: " << c.nodes << ' ' << c.epochs << ' ' << c.scale << ' '
      << c.nodeCores << ' ' << c.jobs << ' ' << c.mix << " arrival="
      << c.arrival << " churn=" << c.churn << " csv=" << c.csvOut
      << " json=" << c.jsonOut << " fracs=";
    for (double x : c.fracs)
        s << x << ',';
    s << "\ntrace_dump: " << f.traceDump.file << ' '
      << f.traceDump.makeApp << ' ' << f.traceDump.out << ' '
      << f.traceDump.instructions << ' ' << f.traceDump.records << '\n';
    return s.str();
}

struct Invocation
{
    const char *source;  //!< where the invocation is written down
    const char *command; //!< as written there, program path dropped
    double benchDefaultScale = 0.1; //!< the harness's parseBenchArgs default
    /** The values it must parse to, over the defaults. */
    std::function<void(FrontEnds &)> expect;
};

const char *const kChurnSpec =
    "crash=0.08,reboot=3,ramp=2,flap=0.05,hang=0.05,hangx=3,"
    "blackout=0.1,blackoutx=1,suspect=1,dead=2,seed=11";

} // namespace

TEST(OptionInventory, DocumentedInvocationsParseToTheirValues)
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded test
    ASSERT_EQ(unsetenv("COSCALE_SCALE"), 0);
    const std::string churnCmd =
        std::string("bench_cluster --nodes 16 --epochs 6 --jobs 2 "
                    "--churn \"")
        + kChurnSpec
        + "\" --json-out BENCH_cluster_churn.json "
          "--csv-out bench_cluster_churn.csv";
    const std::vector<Invocation> inventory = {
        {"ci.yml fault suite; SKILL.md; EXPERIMENTS.md",
         "bench_resilience 0.02 --jobs 2", 0.05,
         [](FrontEnds &e) {
             e.bench.scale = 0.02;
             e.bench.jobs = 2;
         }},
        {"ci.yml cluster-smoke",
         "bench_cluster --nodes 16 --epochs 6 --jobs 2 "
         "--json-out BENCH_cluster.json --csv-out bench_cluster.csv",
         0.1,
         [](FrontEnds &e) {
             e.cluster.nodes = 16;
             e.cluster.epochs = 6;
             e.cluster.jobs = 2;
         }},
        {"ci.yml churn-smoke; EXPERIMENTS.md", churnCmd.c_str(), 0.1,
         [](FrontEnds &e) {
             e.cluster.nodes = 16;
             e.cluster.epochs = 6;
             e.cluster.jobs = 2;
             e.cluster.churn = kChurnSpec;
             e.cluster.jsonOut = "BENCH_cluster_churn.json";
             e.cluster.csvOut = "bench_cluster_churn.csv";
         }},
        {"EXPERIMENTS.md Fig. 7",
         "coscale_sim --mix MIX2 --policy coscale --scale 0.2 "
         "--trace fig7.json --trace-format chrome",
         0.1,
         [](FrontEnds &e) {
             e.sim.mix = "MIX2";
             e.sim.scale = 0.2;
             e.sim.trace.path = "fig7.json";
             e.sim.trace.format = TraceFormat::Chrome;
         }},
        {"EXPERIMENTS.md Fig. 7",
         "coscale_sim --mix MIX2 --policy coscale --scale 0.2 "
         "--trace fig7.jsonl",
         0.1,
         [](FrontEnds &e) {
             e.sim.mix = "MIX2";
             e.sim.scale = 0.2;
             e.sim.trace.path = "fig7.jsonl";
         }},
        {"EXPERIMENTS.md resilience", "bench_resilience", 0.05,
         [](FrontEnds &e) { e.bench.scale = 0.05; }},
        {"EXPERIMENTS.md resilience", "bench_resilience 0.02 --jobs 4",
         0.05,
         [](FrontEnds &e) {
             e.bench.scale = 0.02;
             e.bench.jobs = 4;
         }},
        {"EXPERIMENTS.md resilience; SKILL.md",
         "coscale_sim --mix MEM1 --policy coscale --fault-noise 0.1 "
         "--fault-deny 0.2 --trace run.jsonl",
         0.1,
         [](FrontEnds &e) {
             e.sim.mix = "MEM1";
             e.sim.faults.counterNoiseAmp = 0.1;
             e.sim.faults.transitionDenyProb = 0.2;
             e.sim.trace.path = "run.jsonl";
         }},
        {"EXPERIMENTS.md backends", "bench_mem_backends", 0.1,
         [](FrontEnds &) {}},
        {"EXPERIMENTS.md backends", "bench_mem_backends 0.02 --jobs 4",
         0.1,
         [](FrontEnds &e) {
             e.bench.scale = 0.02;
             e.bench.jobs = 4;
         }},
        {"EXPERIMENTS.md backends",
         "coscale_sim --mix MID1 --policy coscale --mem-sched frfcfs "
         "--row-policy open --dram-standard ddr4",
         0.1,
         [](FrontEnds &e) {
             e.sim.memBackend.sched = MemSched::FrFcfs;
             e.sim.memBackend.rowPolicy = RowPolicy::Open;
             e.sim.memBackend.standard = DramStandard::Ddr4;
             e.sim.memBackendSet = true;
         }},
        {"EXPERIMENTS.md cluster", "bench_cluster --nodes 64 --epochs 8",
         0.1, [](FrontEnds &) {}},
        {"EXPERIMENTS.md cluster",
         "bench_cluster --nodes 16 --epochs 6 --jobs 2 "
         "--json-out BENCH_cluster.json",
         0.1,
         [](FrontEnds &e) {
             e.cluster.nodes = 16;
             e.cluster.epochs = 6;
             e.cluster.jobs = 2;
         }},
        {"EXPERIMENTS.md cluster",
         "bench_cluster --nodes 32 --fracs 0.9,0.6,0.3 --arrival "
         "\"rate=4000000,diurnal=0.4,period=8,burst=0.1,seed=7\"",
         0.1,
         [](FrontEnds &e) {
             e.cluster.nodes = 32;
             e.cluster.fracs = {0.9, 0.6, 0.3};
             e.cluster.arrival =
                 "rate=4000000,diurnal=0.4,period=8,burst=0.1,seed=7";
         }},
        {"EXPERIMENTS.md cluster",
         "coscale_sim --nodes 8 --power-cap 220 --mix MID1 "
         "--cluster-epochs 12 --arrival \"rate=1200000,diurnal=0.25\" "
         "--lb weighted --trace cluster.jsonl --csv cluster.csv "
         "--json cluster.json",
         0.1,
         [](FrontEnds &e) {
             e.sim.nodes = 8;
             e.sim.powerCap = 220.0;
             e.sim.arrival = "rate=1200000,diurnal=0.25";
             e.sim.trace.path = "cluster.jsonl";
             e.sim.csvPath = "cluster.csv";
             e.sim.jsonPath = "cluster.json";
         }},
        {"EXPERIMENTS.md churn",
         "coscale_sim --nodes 8 --power-cap 220 --mix MID1 "
         "--cluster-epochs 12 --churn \"crash=0.1,reboot=2,dead=2\" "
         "--trace churned.jsonl --json churned.json",
         0.1,
         [](FrontEnds &e) {
             e.sim.nodes = 8;
             e.sim.powerCap = 220.0;
             e.sim.churn = "crash=0.1,reboot=2,dead=2";
             e.sim.trace.path = "churned.jsonl";
             e.sim.jsonPath = "churned.json";
         }},
        {"EXPERIMENTS.md engine", "bench_fig8_9_policies --jobs 8", 0.1,
         [](FrontEnds &e) { e.bench.jobs = 8; }},
        {"EXPERIMENTS.md engine", "bench_fig10_bound", 0.1,
         [](FrontEnds &) {}},
        {"EXPERIMENTS.md engine",
         "bench_fig5_6_coscale --scale 0.2 --progress", 0.1,
         [](FrontEnds &e) {
             e.bench.scale = 0.2;
             e.bench.progress = true;
         }},
        {"EXPERIMENTS.md engine",
         "bench_fig8_9_policies --jsonl results.jsonl", 0.1,
         [](FrontEnds &e) { e.bench.jsonlPath = "results.jsonl"; }},
        {"SKILL.md",
         "coscale_sim --mix MID1 --policy coscale --scale 0.02", 0.1,
         [](FrontEnds &e) { e.sim.scale = 0.02; }},
        {"SKILL.md", "coscale_sim --policy offline --scale 0.02", 0.1,
         [](FrontEnds &e) {
             e.sim.policy = "offline";
             e.sim.scale = 0.02;
         }},
        {"SKILL.md", "bench_cluster --nodes 16 --epochs 6 --jobs 2", 0.1,
         [](FrontEnds &e) {
             e.cluster.nodes = 16;
             e.cluster.epochs = 6;
             e.cluster.jobs = 2;
         }},
    };
    for (const Invocation &inv : inventory) {
        SCOPED_TRACE(std::string(inv.source) + ": " + inv.command);
        std::vector<std::string> args = splitCommand(inv.command);
        FrontEnds got;
        FrontEnds want;
        if (args[0].rfind("bench_", 0) == 0 && args[0] != "bench_cluster") {
            // The harnesses' real entry point, with its default scale.
            std::vector<const char *> argv = argvOf(args);
            got.bench = exp::parseBenchArgs(
                static_cast<int>(argv.size()),
                const_cast<char **>(argv.data()), inv.benchDefaultScale);
            want.bench.scale = inv.benchDefaultScale;
        } else {
            ASSERT_TRUE(parseWith(got, args[0], args));
        }
        inv.expect(want);
        EXPECT_EQ(dump(got), dump(want));
    }
}
