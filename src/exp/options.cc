#include "exp/options.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/log.hh"
#include "common/number_parse.hh"
#include "exp/policies.hh"
#include "workloads/spec_catalogue.hh"

namespace coscale {
namespace exp {

namespace {

using ErrKind = OptionParseError::Kind;
using Setter = Option::Setter;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Range kCount{0.0}; // 0 means auto, off or none
constexpr Range kPositive{1.0};
constexpr Range kProb{0.0, 1.0};

std::string
num(double x)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.15g", x);
    return buf;
}

/** "in (0, 1]", ">= 1", or "" for an unbounded range. */
std::string
rangeText(const Range &r)
{
    if (!std::isfinite(r.lo))
        return "";
    if (!std::isfinite(r.hi))
        return (r.loOpen ? "> " : ">= ") + num(r.lo);
    return std::string("in ") + (r.loOpen ? "(" : "[") + num(r.lo) + ", "
           + num(r.hi) + (r.hiOpen ? ")" : "]");
}

/** A number or text row's value ("" for other rows). */
std::string
valueText(const Option &o)
{
    if (int *const *i = std::get_if<int *>(&o.target))
        return std::to_string(**i);
    if (auto *u = std::get_if<std::uint64_t *>(&o.target))
        return std::to_string(**u);
    if (double *const *d = std::get_if<double *>(&o.target))
        return num(**d);
    if (auto *s = std::get_if<std::string *>(&o.target))
        return **s;
    return "";
}

/** What a valid value of @p o looks like, for error messages. */
std::string
expected(const Option &o)
{
    if (std::holds_alternative<Setter>(o.target)
        || std::holds_alternative<std::string *>(o.target))
        return o.metavar + "; see --help";
    std::string bounds = rangeText(o.range);
    return (std::holds_alternative<double *>(o.target)
                ? "a number"
                : "an unsigned integer")
           + (bounds.empty() ? "" : " " + bounds);
}

void
store(const Option &o, const std::string &v)
{
    auto fail = [&](ErrKind k) {
        throw OptionParseError(k, o.name, v, expected(o));
    };
    if (bool *const *b = std::get_if<bool *>(&o.target)) {
        **b = true;
    } else if (auto *act = std::get_if<Option::Action>(&o.target)) {
        (*act)();
    } else if (auto *s = std::get_if<std::string *>(&o.target)) {
        **s = v;
    } else if (auto *set = std::get_if<Setter>(&o.target)) {
        if (!(*set)(v))
            fail(ErrKind::BadValue);
    } else {
        double *const *d = std::get_if<double *>(&o.target);
        int *const *i = std::get_if<int *>(&o.target);
        double x = 0.0;
        std::uint64_t n = 0;
        if (d ? !parseDouble(v, &x) : !parseU64(v, &n))
            fail(ErrKind::BadNumber);
        if (!d)
            x = static_cast<double>(n);
        if (!o.range.contains(x)
            || (i && x > std::numeric_limits<int>::max()))
            fail(ErrKind::OutOfRange);
        if (d)
            **d = x;
        else if (i)
            **i = static_cast<int>(n);
        else
            *std::get<std::uint64_t *>(o.target) = n;
    }
}

/** A Setter that accepts exactly the names in @p names. */
Setter
oneOf(std::vector<std::string> names, std::string *out)
{
    return [names = std::move(names), out](const std::string &v) {
        if (std::find(names.begin(), names.end(), v) == names.end())
            return false;
        *out = v;
        return true;
    };
}

std::vector<std::string>
mixNames(bool withAll)
{
    std::vector<std::string> names;
    for (const WorkloadMix &m : table1Mixes())
        names.push_back(m.name);
    if (withAll)
        names.push_back("all");
    return names;
}

/** A memory-backend Setter: parse into @p out and mark @p set. */
template <typename T>
Setter
backend(bool (*parse)(const char *, T *), T *out, bool *set)
{
    return [parse, out, set](const std::string &v) {
        if (!parse(v.c_str(), out))
            return false;
        *set = true;
        return true;
    };
}

/** Add the rows coscale_sim and every BenchOptions harness share. */
void
addBenchRows(OptionTable &t, BenchOptions &o)
{
    MemBackendSel &mem = o.memBackend;
    t.add({"--scale", "S", &o.scale, "time scale; 1 = the paper's setup",
           scaleRange});
    t.add({"--jobs", "N", &o.jobs, "worker threads; 0 = auto", kCount});
    t.add({"--jsonl", "PATH", &o.jsonlPath, "append a JSON line per run"});
    t.add({"--trace", "PATH", &o.trace.path,
           "write a trace per run (run i of a batch: PATH.i)"});
    t.add({"--trace-format", "jsonl|chrome",
           [&o](const std::string &v) {
               return parseTraceFormat(v, &o.trace.format);
           },
           "trace encoding"});
    t.add({"--metrics", "", &o.metrics, "print each run's metrics"});
    t.add({"--timeout", "SECS", &o.timeoutSecs, "per-run watchdog; 0 = off",
           {0.0}});
    t.add({"--retries", "N", &o.retries, "retries of a failed run", kCount});
    t.add({"--mem-sched", "fcfs|frfcfs",
           backend(parseMemSched, &mem.sched, &o.memBackendSet),
           "channel scheduler (paper: fcfs)"});
    t.add({"--row-policy", "closed|open",
           backend(parseRowPolicy, &mem.rowPolicy, &o.memBackendSet),
           "row-buffer policy (paper: closed)"});
    t.add({"--dram-standard", "ddr3|ddr4|lpddr4",
           backend(parseDramStandard, &mem.standard, &o.memBackendSet),
           "DRAM standard (paper: ddr3)"});
    t.add({"--list-policies", "", &o.listPolicies, "print the policy names"});
}

} // namespace

OptionParseError::OptionParseError(Kind kind, std::string flag,
                                   std::string token,
                                   const std::string &expected)
    : std::runtime_error([&] {
          if (kind == Kind::UnknownFlag)
              return "unknown argument '" + token + "' (try --help)";
          std::string what = kind == Kind::MissingValue ? "missing value"
                             : kind == Kind::BadNumber  ? "bad number"
                             : kind == Kind::OutOfRange ? "out of range"
                                                        : "bad value";
          return (flag[0] == '-' ? "option " : "argument ") + flag + ": "
                 + what + (token.empty() ? "" : " '" + token + "'")
                 + " (expected " + expected + ")";
      }()),
      errKind(kind), errFlag(std::move(flag)), errToken(std::move(token))
{
}

bool
parseOptions(const OptionTable &table, int argc, const char *const *argv)
{
    std::vector<const Option *> positionals;
    for (const Option &o : table.options) {
        if (o.name[0] != '-')
            positionals.push_back(&o);
    }
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0
            || std::strcmp(argv[i], "-h") == 0)
            return false;
    }
    std::size_t nextPositional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        bool flag = !arg.empty() && arg[0] == '-';
        if (!flag && nextPositional < positionals.size()) {
            store(*positionals[nextPositional++], arg);
            continue;
        }
        auto it = std::find_if(
            table.options.begin(), table.options.end(),
            [&](const Option &o) { return flag && o.name == arg; });
        if (it == table.options.end())
            throw OptionParseError(ErrKind::UnknownFlag, arg, arg, "");
        if (std::holds_alternative<bool *>(it->target)
            || std::holds_alternative<Option::Action>(it->target))
            store(*it, "");
        else if (i + 1 < argc)
            store(*it, argv[++i]);
        else
            throw OptionParseError(ErrKind::MissingValue, arg, "",
                                   expected(*it));
    }
    return true;
}

std::string
helpText(const OptionTable &table)
{
    std::string s = "usage: " + table.usage + "\n";
    for (const Option &o : table.options) {
        std::string line = "  " + o.name;
        if (!o.metavar.empty())
            line += " " + o.metavar;
        line.resize(std::max<std::size_t>(line.size() + 2, 24), ' ');
        std::string notes = rangeText(o.range);
        std::string value = valueText(o);
        if (!value.empty())
            notes += (notes.empty() ? "default " : "; default ") + value;
        s += line + o.help + (notes.empty() ? "" : " [" + notes + "]")
             + "\n";
    }
    return s;
}

void
parseArgsOrExit(const OptionTable &table, int argc,
                const char *const *argv)
{
    bool run = false;
    try {
        run = parseOptions(table, argc, argv);
    } catch (const OptionParseError &e) {
        fatal("%s", e.what());
    }
    if (!run) {
        std::fputs(helpText(table).c_str(), stdout);
        exitCleanly();
    }
}

OptionTable
simOptionTable(SimOptions &o)
{
    OptionTable t{"coscale_sim [options]\n--nodes N > 0 runs N fleet nodes, "
                  "each with --mix under --policy.",
                  {}};
    t.add({"--mix", "MIX", oneOf(mixNames(true), &o.mix),
           "Table 1 mix (ILP1..MIX4), or all of them"});
    t.add({"--policy", "NAME",
           [&o](const std::string &v) {
               if (!policyFactoryByName(v, 1, 0.1, 1.0))
                   return false;
               o.policy = v;
               return true;
           },
           "policy to run (see --list-policies)"});
    t.add({"--bound", "PCT", &o.bound, "performance bound, percent",
           {0, 100}});
    t.add({"--cap", "WATTS", &o.cap, "powercap's cap", {0.0, kInf, true}});
    t.add({"--cores", "N", &o.cores, "number of cores", kPositive});
    addBenchRows(t, o);
    t.add({"--ooo", "", &o.ooo, "enable the OoO/MLP window"});
    t.add({"--prefetch", "", &o.prefetch, "enable the next-line prefetcher"});
    t.add({"--open-page", "",
           [&o] {
               o.memBackend.rowPolicy = RowPolicy::Open;
               o.memBackendSet = true;
           },
           "alias for --row-policy open"});
    t.add({"--region-map", "", &o.regionMap,
           "region-per-channel placement"});
    t.add({"--freq-steps", "N", &o.freqSteps, "ladder steps", {2.0}});
    t.add({"--half-voltage", "", &o.halfVoltage, "0.95-1.2 V core range"});
    t.add({"--mem-power-mult", "M", &o.memPowerMult,
           "memory power multiplier", {0.0, kInf, true}});
    t.add({"--other-frac", "F", &o.otherFrac, "rest-of-system power share",
           {0.0, 1.0, false, true}});
    t.add({"--seed", "S", &o.seed, "workload RNG seed"});
    t.add({"--csv", "PATH", &o.csvPath, "append a CSV row per run"});
    t.add({"--json", "PATH", &o.jsonPath, "JSON report of the last run"});
    t.add({"--epochs", "", &o.printEpochs, "print the per-epoch log"});
    fault::FaultPlan &f = o.faults;
    t.add({"--fault-seed", "S", &f.seed, "fault seed; 0 = from --seed"});
    t.add({"--fault-noise", "A", &f.counterNoiseAmp, "counter noise",
           {0.0}});
    t.add({"--fault-noise-bias", "B", &f.counterNoiseBias,
           "memory-stall counter bias"});
    t.add({"--fault-dropout", "P", &f.counterDropoutProb,
           "P(a core's counters drop out)", kProb});
    t.add({"--fault-stale", "P", &f.counterStaleProb, "P(stale profile)",
           kProb});
    t.add({"--fault-deny", "P", &f.transitionDenyProb,
           "P(transition denied)", kProb});
    t.add({"--fault-delay", "P", &f.transitionDelayProb,
           "P(transition delayed)", kProb});
    t.add({"--fault-clamp", "P", &f.transitionClampProb,
           "P(transition clamped)", kProb});
    t.add({"--fault-jitter", "F", &f.epochJitterFrac, "epoch-timer jitter",
           {0.0}});
    t.add({"--nodes", "N", &o.nodes, "fleet size; 0 = one machine", kCount});
    t.add({"--node-cores", "C", &o.nodeCores, "cores per node", kPositive});
    t.add({"--power-cap", "W", &o.powerCap, "fleet budget; 0 = none",
           {0.0}});
    t.add({"--cluster-epochs", "E", &o.clusterEpochs, "cluster epochs",
           kPositive});
    t.add({"--arrival", "SPEC", &o.arrival,
           "request stream: rate,diurnal,period,burst,burstx,ipr,slo,seed=V"});
    t.add({"--lb", "NAME", &o.lb, "balancer: rr, least-loaded, weighted"});
    t.add({"--churn", "SPEC", &o.churn,
           "churn plan: crash,reboot,ramp,flap,hang,hangx,blackout,"
           "blackoutx,suspect,dead,seed=V"});
    return t;
}

OptionTable
benchOptionTable(BenchOptions &o)
{
    OptionTable t{"HARNESS [scale] [options]", {}};
    t.add({"scale", "", &o.scale, "same as --scale", scaleRange});
    t.add({"--progress", "", &o.progress, "progress lines on stderr"});
    addBenchRows(t, o);
    return t;
}

OptionTable
clusterBenchOptionTable(ClusterBenchOptions &o)
{
    OptionTable t{"bench_cluster [options]", {}};
    t.add({"--nodes", "N", &o.nodes, "fleet size", kPositive});
    t.add({"--epochs", "E", &o.epochs, "cluster epochs", kPositive});
    t.add({"--scale", "S", &o.scale, "time scale", scaleRange});
    t.add({"--node-cores", "C", &o.nodeCores, "cores per node", {1, 16}});
    t.add({"--jobs", "J", &o.jobs, "fan-out threads; 0 = auto", kCount});
    t.add({"--mix", "MIX", oneOf(mixNames(false), &o.mix),
           "each node's Table 1 mix"});
    t.add({"--arrival", "SPEC", &o.arrival, "request stream"});
    t.add({"--fracs", "a,b,c",
           [&o](const std::string &v) {
               std::vector<double> fracs;
               for (std::size_t pos = 0; pos <= v.size();) {
                   std::size_t comma = std::min(v.find(',', pos), v.size());
                   double x = 0.0;
                   if (!parseDouble(v.substr(pos, comma - pos), &x)
                       || !kProb.contains(x))
                       return false;
                   fracs.push_back(x);
                   pos = comma + 1;
               }
               o.fracs = fracs;
               return true;
           },
           "budgets in [0, 1] of the floor-to-draw band "
           "(default 0.85,0.7,0.55)"});
    t.add({"--churn", "SPEC", &o.churn, "add a churned FastCap leg"});
    t.add({"--csv-out", "PATH", &o.csvOut, "per-run CSV"});
    t.add({"--json-out", "PATH", &o.jsonOut, "JSON trajectory"});
    return t;
}

OptionTable
kernelBenchOptionTable(KernelBenchOptions &o)
{
    OptionTable t{"bench_kernel_throughput [output.json] [time-scale] [reps]",
                  {}};
    t.add({"output.json", "", &o.outPath, "the JSON report"});
    t.add({"time-scale", "", &o.scale, "time scale", scaleRange});
    t.add({"reps", "", &o.reps, "timed runs", kPositive});
    return t;
}

OptionTable
traceDumpOptionTable(TraceDumpOptions &o)
{
    OptionTable t{"trace_dump FILE [--records N]\n"
                  "       trace_dump --make APP --out FILE [--instructions M]",
                  {}};
    t.add({"FILE", "", &o.file, "trace file to summarize"});
    t.add({"--records", "N", &o.records, "records to print", kCount});
    t.add({"--make", "APP", oneOf(catalogueNames(), &o.makeApp),
           "record a trace of APP"});
    t.add({"--out", "FILE", &o.out, "output of --make"});
    t.add({"--instructions", "M", &o.instructions, "instructions to record",
           {1, 1e10}});
    return t;
}

void
printPolicyRoster()
{
    for (const std::string &name : knownPolicyNames())
        std::printf("%s\n", name.c_str());
}

BenchOptions
parseBenchArgs(int argc, char **argv, double defaultScale)
{
    BenchOptions opts;
    opts.scale = defaultScale;
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe; no setenv in the process
    const char *env = std::getenv("COSCALE_SCALE");
    double v = 0.0;
    if (env && *env && parseDouble(env, &v) && scaleRange.contains(v)) {
        opts.scale = v;
    } else if (env && *env) {
        warnOnce("bench.scale.env",
                 "COSCALE_SCALE='%s' is not a number in (0, 1]; using %g",
                 env, defaultScale);
    }
    OptionTable t = benchOptionTable(opts);
    t.usage = std::string(argv[0]) + " [scale] [options]";
    parseArgsOrExit(t, argc, argv);
    if (opts.listPolicies) {
        printPolicyRoster();
        exitCleanly();
    }
    return opts;
}

} // namespace exp
} // namespace coscale
