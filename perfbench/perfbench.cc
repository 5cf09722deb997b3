/**
 * @file
 * perfbench — the repository benchmark program. BENCHMARK.json at the
 * repository root lists its workloads and metrics; perfbench/README.md
 * explains each one and which layer metric should move which
 * end-to-end metric.
 *
 * Usage:
 *   perfbench --workload single-mid|single-mem|fleet-capped
 *             --seed N --seconds S --trace 0|1
 *             [--tiny] [--spans PATH]
 *
 * --trace 0 times the workload the way users run it (coscale_sim's
 * engine path, or ClusterSim::run) and prints the end-to-end metrics.
 * --trace 1 alternates untraced runs with a traced re-drive of the same
 * work through the public API, keeps one span per call into a layer in
 * memory, writes them to the span file at exit, and prints the
 * per-layer metrics. --tiny shrinks every workload for the self-test.
 *
 * Every run checks its outputs: each application within the slowdown
 * bound (single-*), measured fleet power within the budget at every
 * epoch and completed + queued = arrived (fleet-capped), traced results
 * bit-identical to untraced ones, and the --jobs 1 fleet identical to
 * the --jobs N fleet. The last stdout line is one JSON object with the
 * keys correct, attempted, failed and metrics; the exit code is 1 when
 * a check failed and 2 on a usage error (no JSON is printed then).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/cluster.hh"
#include "exp/engine.hh"
#include "exp/policies.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "workloads/spec_catalogue.hh"

using namespace coscale;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
maxOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ------------------------------------------------------------ arguments

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string spansPath;
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "single-mid|single-mem|fleet-capped --seed N "
                 "--seconds S --trace 0|1 [--tiny] [--spans PATH]\n",
                 msg.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
        usageError(flag + " needs a non-negative integer, got '" + text
                   + "'");
    }
    return static_cast<std::uint64_t>(v);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usageError("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--workload") {
            a.workload = value();
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = parseUnsigned(flag, value());
        } else if (flag == "--seconds") {
            std::uint64_t s = parseUnsigned(flag, value());
            if (s < 1 || s > 120)
                usageError("--seconds must be in [1, 120]");
            a.seconds = static_cast<double>(s);
        } else if (flag == "--trace") {
            std::uint64_t t = parseUnsigned(flag, value());
            if (t > 1)
                usageError("--trace must be 0 or 1");
            a.trace = t == 1;
        } else if (flag == "--tiny") {
            a.tiny = true;
        } else if (flag == "--spans") {
            a.spansPath = value();
        } else {
            usageError("unknown option '" + flag + "'");
        }
    }
    if (!have_workload)
        usageError("--workload is required");
    return a;
}

// ---------------------------------------------------------------- spans

/**
 * In-memory span log: one record per timed call into a layer, holding
 * the id of the span that caused it and the id of the traced run it
 * belongs to. Nothing is written until the run ends, so file I/O never
 * lands inside a span.
 */
class SpanLog
{
  public:
    SpanLog() : t0(Clock::now()) {}

    /** Start a new traced run; later spans carry its id. */
    void beginRun() { runId += 1; }

    std::uint64_t
    open(const char *name, std::uint64_t parent)
    {
        spans.push_back(Span{runId, spans.size() + 1, parent, name,
                             nowUs(), 0.0});
        return spans.size();
    }

    /** Close span @p id; returns its duration in seconds. */
    double
    close(std::uint64_t id)
    {
        Span &s = spans[id - 1];
        s.endUs = nowUs();
        return (s.endUs - s.startUs) * 1e-6;
    }

    std::size_t size() const { return spans.size(); }

    /** One JSON object per line; false if the file cannot be written. */
    bool
    write(const std::string &path) const
    {
        std::ofstream os(path, std::ios::binary);
        if (!os)
            return false;
        char line[256];
        for (const Span &s : spans) {
            std::snprintf(line, sizeof(line),
                          "{\"run\": %llu, \"id\": %llu, \"parent\": "
                          "%llu, \"name\": \"%s\", \"start_us\": %.3f, "
                          "\"end_us\": %.3f}\n",
                          static_cast<unsigned long long>(s.run),
                          static_cast<unsigned long long>(s.id),
                          static_cast<unsigned long long>(s.parent),
                          s.name, s.startUs, s.endUs);
            os << line;
        }
        return static_cast<bool>(os);
    }

  private:
    struct Span
    {
        std::uint64_t run;
        std::uint64_t id;     //!< 1-based; 0 is "no parent"
        std::uint64_t parent;
        const char *name;     //!< string literal
        double startUs;
        double endUs;
    };

    double nowUs() const { return secondsBetween(t0, Clock::now()) * 1e6; }

    Clock::time_point t0;
    std::uint64_t runId = 0;
    std::vector<Span> spans;
};

/**
 * Call @p fn inside span @p name (child of @p parent), add its duration
 * to @p acc when given, and return fn's result.
 */
template <typename F>
auto
spanned(SpanLog &log, const char *name, std::uint64_t parent, double *acc,
        F &&fn)
{
    std::uint64_t id = log.open(name, parent);
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        double d = log.close(id);
        if (acc)
            *acc += d;
    } else {
        auto r = fn();
        double d = log.close(id);
        if (acc)
            *acc += d;
        return r;
    }
}

// --------------------------------------------------------------- report

/**
 * Metric values of one run. Every workload fills one of these, so each
 * workload prints the same metric names; a layer a workload does not
 * exercise reads 0 (see README.md).
 */
struct EndToEnd
{
    double wallS = 0.0;
    double simMinstrPerS = 0.0;
    double setupS = 0.0;
    double peakRssMb = 0.0;
    double energySavingsPct = 0.0;
};

struct Layers
{
    double simRunS = 0.0;
    double simEvents = 0.0;
    double simInstrs = 0.0;
    double simNsPerEvent = 0.0;
    double simProfileS = 0.0;
    double cacheAccesses = 0.0;
    double cacheHitFrac = 0.0;
    double memReads = 0.0;
    double memWrites = 0.0;
    double memRowHitFrac = 0.0;
    double memAvgReadQueue = 0.0;
    double powerWindowS = 0.0;
    double policyDecides = 0.0;
    double policyDecideS = 0.0;
    double policyDecideSamples = 0.0;
    double policyDecideUsP50 = 0.0;
    double policyDecideUsMax = 0.0;
    double policyCandidates = 0.0;
    double policyWorstDegradationPct = 0.0;
    double expBaselineS = 0.0;
    double expPolicyRunS = 0.0;
    double expPoolHits = 0.0;
    double expPoolMisses = 0.0;
    double clusterStepMsP50 = 0.0;
    double clusterStepMsMax = 0.0;
    double clusterSteps = 0.0;
    double clusterNodeEpochs = 0.0;
    double clusterEvents = 0.0;
    double clusterQueueMax = 0.0;
    double clusterSloMissFrac = 0.0;
    double obsTraceOverheadFrac = 0.0;
    double obsSpans = 0.0;
};

class Report
{
  public:
    /** Record a failed check: the run is then incorrect. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            correct = false;
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
        }
    }

    void
    ops(std::uint64_t attempted_, std::uint64_t failed_)
    {
        attempted += attempted_;
        failed += failed_;
    }

    void
    endToEnd(const EndToEnd &e)
    {
        add("wall_s", e.wallS, "s");
        add("sim_minstr_per_s", e.simMinstrPerS, "Minstr/s");
        add("setup_s", e.setupS, "s");
        add("peak_rss_mb", e.peakRssMb, "MB");
        add("energy_savings_pct", e.energySavingsPct, "%");
    }

    void
    layers(const Layers &l)
    {
        add("sim.run_s", l.simRunS, "s");
        add("sim.events", l.simEvents, "count");
        add("sim.instrs", l.simInstrs, "count");
        add("sim.ns_per_event", l.simNsPerEvent, "ns");
        add("sim.profile_s", l.simProfileS, "s");
        add("cache.accesses", l.cacheAccesses, "count");
        add("cache.hit_frac", l.cacheHitFrac, "fraction");
        add("memctrl.reads", l.memReads, "count");
        add("memctrl.writes", l.memWrites, "count");
        add("memctrl.row_hit_frac", l.memRowHitFrac, "fraction");
        add("memctrl.avg_read_queue", l.memAvgReadQueue, "requests");
        add("power.window_s", l.powerWindowS, "s");
        add("policy.decides", l.policyDecides, "count");
        add("policy.decide_s", l.policyDecideS, "s");
        add("policy.decide_samples", l.policyDecideSamples, "count");
        add("policy.decide_us_p50", l.policyDecideUsP50, "us");
        add("policy.decide_us_max", l.policyDecideUsMax, "us");
        add("policy.candidates", l.policyCandidates, "count");
        add("policy.worst_degradation_pct", l.policyWorstDegradationPct,
            "%");
        add("exp.baseline_s", l.expBaselineS, "s");
        add("exp.policy_run_s", l.expPolicyRunS, "s");
        add("exp.pool_hits", l.expPoolHits, "count");
        add("exp.pool_misses", l.expPoolMisses, "count");
        add("cluster.step_ms_p50", l.clusterStepMsP50, "ms");
        add("cluster.step_ms_max", l.clusterStepMsMax, "ms");
        add("cluster.steps", l.clusterSteps, "count");
        add("cluster.node_epochs", l.clusterNodeEpochs, "count");
        add("cluster.events", l.clusterEvents, "count");
        add("cluster.queue_max", l.clusterQueueMax, "requests");
        add("cluster.slo_miss_frac", l.clusterSloMissFrac, "fraction");
        add("obs.trace_overhead_frac", l.obsTraceOverheadFrac,
            "fraction");
        add("obs.spans", l.obsSpans, "count");
    }

    /** Print the metric table and the final JSON line; exit code. */
    int
    finish() const
    {
        for (const Metric &m : metrics)
            std::printf("  %-30s %.6g %s\n", m.name, m.value, m.unit);
        std::printf("checks: %s, %llu ops attempted, %llu failed\n",
                    correct ? "all passed" : "FAILED",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        std::string json = "{\"correct\": ";
        json += correct ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(attempted);
        json += ", \"failed\": " + std::to_string(failed);
        json += ", \"metrics\": {";
        for (size_t i = 0; i < metrics.size(); ++i) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "%s\"%s\": {\"value\": %.17g, \"unit\": "
                          "\"%s\"}",
                          i ? ", " : "", metrics[i].name,
                          metrics[i].value, metrics[i].unit);
            json += buf;
        }
        json += "}}";
        std::printf("%s\n", json.c_str());
        std::fflush(stdout);
        return correct ? 0 : 1;
    }

  private:
    struct Metric
    {
        const char *name;
        double value;
        const char *unit;
    };

    void
    add(const char *name, double value, const char *unit)
    {
        // JSON has no NaN or infinity; a non-finite value is a bug.
        check(std::isfinite(value),
              std::string("metric ") + name + " is not finite");
        metrics.push_back(
            Metric{name, std::isfinite(value) ? value : 0.0, unit});
    }

    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
};

// --------------------------------------------------------------- digest

/**
 * Simulated-statistics digest: the listed values plus an FNV-1a hash
 * over all of them. A change that only speeds the simulator up must
 * leave every digest line byte-identical.
 */
class Digest
{
  public:
    explicit Digest(const std::string &tag) : text("digest " + tag) {}

    Digest &
    add(const char *key, std::uint64_t v)
    {
        text += ' ';
        text += key;
        text += '=';
        text += std::to_string(v);
        mix(&v, sizeof(v));
        return *this;
    }

    Digest &
    add(const char *key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %s=%.17g", key, v);
        text += buf;
        mix(&v, sizeof(v));
        return *this;
    }

    Digest &
    add(const char *key, const std::vector<Tick> &v)
    {
        text += ' ';
        text += key;
        text += '=';
        for (size_t i = 0; i < v.size(); ++i) {
            if (i)
                text += ',';
            text += std::to_string(v[i]);
            mix(&v[i], sizeof(v[i]));
        }
        return *this;
    }

    void
    print() const
    {
        std::printf("%s hash=%016llx\n", text.c_str(),
                    static_cast<unsigned long long>(h));
    }

  private:
    void
    mix(const void *p, size_t n)
    {
        const unsigned char *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }

    std::string text;
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/** Counters run() does not return: kernel events, LLC and DRAM totals. */
struct KernelCounters
{
    std::uint64_t events = 0;
    std::uint64_t instrs = 0;
    LlcCounters llc;
    ChannelCounters mem;

    void
    add(const System &sys)
    {
        events += sys.eventsDispatched();
        for (int i = 0; i < sys.numCores(); ++i)
            instrs += sys.core(i).counters().tic;
        add(sys.llc().counters(), sys.memCtrl().totalCounters());
    }

    void
    add(const KernelCounters &o)
    {
        events += o.events;
        instrs += o.instrs;
        add(o.llc, o.mem);
    }

    bool
    operator==(const KernelCounters &o) const
    {
        return events == o.events && instrs == o.instrs
               && llc.accesses == o.llc.accesses
               && llc.hits == o.llc.hits && llc.misses == o.llc.misses
               && mem.readReqs == o.mem.readReqs
               && mem.writeReqs == o.mem.writeReqs
               && mem.rowHits == o.mem.rowHits
               && mem.rowMisses == o.mem.rowMisses
               && mem.queueLenSum == o.mem.queueLenSum
               && mem.queueSamples == o.mem.queueSamples;
    }

    void
    fillLayers(Layers &l) const
    {
        l.simEvents = static_cast<double>(events);
        l.simInstrs = static_cast<double>(instrs);
        l.cacheAccesses = static_cast<double>(llc.accesses);
        l.cacheHitFrac = ratio(static_cast<double>(llc.hits),
                               static_cast<double>(llc.accesses));
        l.memReads = static_cast<double>(mem.readReqs);
        l.memWrites = static_cast<double>(mem.writeReqs);
        l.memRowHitFrac =
            ratio(static_cast<double>(mem.rowHits),
                  static_cast<double>(mem.rowHits + mem.rowMisses));
        l.memAvgReadQueue = ratio(static_cast<double>(mem.queueLenSum),
                                  static_cast<double>(mem.queueSamples));
    }

  private:
    void
    add(const LlcCounters &l, const ChannelCounters &m)
    {
        llc.accesses += l.accesses;
        llc.hits += l.hits;
        llc.misses += l.misses;
        mem.readReqs += m.readReqs;
        mem.writeReqs += m.writeReqs;
        mem.rowHits += m.rowHits;
        mem.rowMisses += m.rowMisses;
        mem.queueLenSum += m.queueLenSum;
        mem.queueSamples += m.queueSamples;
    }
};

// ------------------------------------------------------------ single-*

struct SingleWorkload
{
    const char *mix;
    double scale;     //!< time scale of the timed run
    double tinyScale; //!< --tiny (self-test)
};

RunRequest
singleRequest(const SingleWorkload &w, const Args &a)
{
    SystemConfig cfg = makeScaledConfig(a.tiny ? w.tinyScale : w.scale);
    cfg.seed = a.seed;
    PolicyFactory coscale =
        exp::requirePolicyFactory("coscale", cfg.numCores, cfg.gamma);
    return RunRequest::forMix(cfg, mixByName(w.mix))
        .with(coscale)
        .withBaseline();
}

bool
sameConfig(const FreqConfig &a, const FreqConfig &b)
{
    return a.coreIdx == b.coreIdx && a.memIdx == b.memIdx
           && a.chanIdx == b.chanIdx && a.wayIdx == b.wayIdx;
}

/** Bit-for-bit equality of every simulated field of two runs. */
bool
sameRun(const RunResult &a, const RunResult &b)
{
    if (a.finishTick != b.finishTick
        || a.appCompletion != b.appCompletion
        || a.cpuEnergyJ != b.cpuEnergyJ || a.memEnergyJ != b.memEnergyJ
        || a.otherEnergyJ != b.otherEnergyJ
        || a.totalInstrs != b.totalInstrs
        || a.measuredMpki != b.measuredMpki
        || a.measuredWpki != b.measuredWpki
        || a.prefetchAccuracy != b.prefetchAccuracy
        || a.dramReads != b.dramReads
        || a.dramPrefetches != b.dramPrefetches
        || a.dramWrites != b.dramWrites
        || a.epochs.size() != b.epochs.size()) {
        return false;
    }
    for (size_t e = 0; e < a.epochs.size(); ++e) {
        const EpochLog &x = a.epochs[e];
        const EpochLog &y = b.epochs[e];
        if (x.startTick != y.startTick
            || !sameConfig(x.applied, y.applied)
            || x.avgPower.cpuW != y.avgPower.cpuW
            || x.avgPower.memW != y.avgPower.memW
            || x.avgPower.otherW != y.avgPower.otherW) {
            return false;
        }
    }
    return true;
}

/** Applications of @p run slower than @p base by more than @p gamma. */
std::uint64_t
appsOverBound(const RunResult &base, const RunResult &run, double gamma)
{
    if (base.appCompletion.size() != run.appCompletion.size())
        return run.appCompletion.size();
    std::uint64_t over = 0;
    for (size_t i = 0; i < run.appCompletion.size(); ++i) {
        double d = static_cast<double>(run.appCompletion[i])
                       / static_cast<double>(base.appCompletion[i])
                   - 1.0;
        if (d > gamma)
            over += 1;
    }
    return over;
}

void
printRunDigest(const std::string &tag, const RunResult &r,
               const KernelCounters *k)
{
    Digest d(tag);
    d.add("finish_tick", static_cast<std::uint64_t>(r.finishTick))
        .add("app_finish_ticks", r.appCompletion)
        .add("instrs", r.totalInstrs)
        .add("dram_reads", r.dramReads)
        .add("dram_writes", r.dramWrites)
        .add("energy_j", r.totalEnergyJ());
    if (k) {
        // Kernel events and LLC hits are not part of RunResult; only
        // the traced re-drive, which owns the System, can read them.
        d.add("events", k->events).add("llc_hits", k->llc.hits);
    }
    d.print();
}

/** One CoScale run plus its Baseline, exactly as coscale_sim runs it. */
struct EngineRep
{
    bool ok = false;
    std::string error;
    RunResult run;
    RunResult base;
    double wallS = 0.0;
    std::uint64_t poolHits = 0;
    std::uint64_t poolMisses = 0;
};

EngineRep
engineRep(const RunRequest &req)
{
    // A fresh pool per repetition: the process-wide pool would memoize
    // the Baseline, so every repetition after the first would skip
    // half the work users pay for.
    exp::BaselinePool pool;
    exp::EngineOptions opts;
    opts.jobs = 1;
    opts.pool = &pool;
    exp::ExperimentEngine engine(opts);

    EngineRep rep;
    Clock::time_point t0 = Clock::now();
    exp::RunOutcome out = engine.runOne(req);
    rep.wallS = secondsBetween(t0, Clock::now());
    rep.ok = out.ok && out.hasBaseline && out.baseline;
    rep.error = out.error;
    if (rep.ok) {
        rep.run = std::move(out.result);
        rep.base = *out.baseline;
    }
    rep.poolHits = pool.hits();
    rep.poolMisses = pool.misses();
    return rep;
}

/** Host time per layer of one traced System run. */
struct LayerTimes
{
    double runS = 0.0;
    double profileS = 0.0;
    double windowS = 0.0;
    double decideS = 0.0;
    std::vector<double> decideUs;
};

struct TracedRun
{
    RunResult result;
    KernelCounters kernel;
    LayerTimes t;
    std::uint64_t candidates = 0;
};

/** runner.cc's accumulateEnergy, minus the auditor hook. */
void
accumulateEnergy(const System &sys, const CounterSnapshot &since,
                 RunResult &result, PowerBreakdown *avg_out)
{
    Tick end = sys.now();
    if (end <= since.tick)
        return;
    PowerBreakdown pb = sys.windowPower(since);
    if (avg_out)
        *avg_out = pb;
    Tick effective_end = end;
    if (sys.allAppsDone())
        effective_end = std::min(end, sys.lastCompletionTick());
    if (effective_end <= since.tick)
        return;
    double secs = ticksToSeconds(effective_end - since.tick);
    result.cpuEnergyJ += pb.cpuW * secs;
    result.memEnergyJ += pb.memW * secs;
    result.otherEnergyJ += pb.otherW * secs;
}

/**
 * Drive one run through the same public calls run() makes, in the same
 * order, with a span around each call into a layer. Covers the
 * configuration the benchmark uses (no auditors, faults, oracle
 * profile or scheduling rotation); the result must equal run()'s bit
 * for bit, which the caller checks.
 */
TracedRun
tracedRun(const RunRequest &req, Policy &policy, SpanLog &log,
          std::uint64_t parent)
{
    const SystemConfig cfg = req.effectiveConfig();
    if (cfg.schedQuantumEpochs != 0 || policy.wantsOracleProfile()
        || req.faults.enabled()) {
        throw std::runtime_error("traced re-drive covers plain runs only");
    }
    TracedRun tr;
    LayerTimes &t = tr.t;
    std::unique_ptr<System> sys_ptr =
        spanned(log, "sim.setup", parent, nullptr, [&] {
            return std::make_unique<System>(cfg, req.apps);
        });
    System &sys = *sys_ptr;
    EnergyModel em = sys.energyModel();

    RunResult &result = tr.result;
    result.mixName = req.label;
    result.policyName = policy.name();

    // Only the registry is attached (for search.candidates); policies
    // report into it but never read it back.
    MetricsRegistry reg;
    policy.attachObs(nullptr, &reg);

    int epoch_no = 0;
    while (!sys.allAppsDone()) {
        Tick epoch_start = sys.now();
        CounterSnapshot epoch_snap =
            spanned(log, "sim.profile", parent, &t.profileS,
                    [&] { return sys.snapshot(); });
        spanned(log, "sim.run", parent, &t.runS,
                [&] { sys.run(epoch_start + cfg.profileLen); });
        if (sys.allAppsDone()) {
            spanned(log, "power.window", parent, &t.windowS, [&] {
                accumulateEnergy(sys, epoch_snap, result, nullptr);
            });
            break;
        }
        SystemProfile prof =
            spanned(log, "sim.profile", parent, &t.profileS,
                    [&] { return sys.makeProfile(epoch_snap); });
        FreqConfig prev_cfg = sys.currentConfig();
        policy.setObsTick(sys.now());
        FreqConfig decision = prev_cfg;
        if (epoch_no >= cfg.warmupEpochs) {
            double before = t.decideS;
            decision = spanned(log, "policy.decide", parent, &t.decideS,
                               [&] {
                                   return policy.safeDecide(
                                       prof, em, prev_cfg, cfg.epochLen);
                               });
            t.decideUs.push_back((t.decideS - before) * 1e6);
        }
        if (decision.wayIdx.empty() && !prev_cfg.wayIdx.empty())
            decision.wayIdx = prev_cfg.wayIdx;
        epoch_no += 1;

        spanned(log, "power.window", parent, &t.windowS, [&] {
            accumulateEnergy(sys, epoch_snap, result, nullptr);
        });
        CounterSnapshot mid_snap =
            spanned(log, "sim.profile", parent, &t.profileS,
                    [&] { return sys.snapshot(); });

        spanned(log, "sim.apply", parent, nullptr,
                [&] { sys.applyConfig(decision); });
        spanned(log, "sim.run", parent, &t.runS,
                [&] { sys.run(epoch_start + cfg.epochLen); });

        EpochLog elog;
        elog.startTick = epoch_start;
        elog.applied = decision;
        spanned(log, "power.window", parent, &t.windowS, [&] {
            accumulateEnergy(sys, mid_snap, result, &elog.avgPower);
        });
        result.epochs.push_back(std::move(elog));

        EpochObservation obs;
        obs.epochProfile =
            spanned(log, "sim.profile", parent, &t.profileS,
                    [&] { return sys.makeProfile(epoch_snap); });
        obs.instrs = sys.instrsSince(epoch_snap);
        obs.epochTicks = sys.now() - epoch_start;
        obs.applied = decision;
        spanned(log, "policy.observe", parent, nullptr,
                [&] { policy.observeEpoch(obs, em); });
    }

    result.finishTick = sys.lastCompletionTick();
    result.appCompletion = sys.appCompletionTicks();
    std::uint64_t instrs = 0;
    for (int i = 0; i < sys.numCores(); ++i)
        instrs += sys.core(i).counters().tic;
    result.totalInstrs = instrs;
    const LlcCounters &llc = sys.llc().counters();
    if (instrs > 0) {
        result.measuredMpki = 1000.0 * static_cast<double>(llc.misses)
                              / static_cast<double>(instrs);
        result.measuredWpki =
            1000.0 * static_cast<double>(llc.writebacks)
            / static_cast<double>(instrs);
    }
    result.prefetchAccuracy = sys.llc().prefetchAccuracy();
    ChannelCounters mem = sys.memCtrl().totalCounters();
    result.dramReads = mem.readReqs;
    result.dramPrefetches = mem.prefetchReqs;
    result.dramWrites = mem.writeReqs;

    policy.attachObs(nullptr, nullptr);
    tr.kernel.add(sys);
    tr.candidates = reg.counter("search.candidates").value();
    return tr;
}

/** A traced CoScale+Baseline repetition, spans rooted at "exp.rep". */
struct TracedRep
{
    TracedRun base;
    TracedRun run;
    double baseS = 0.0;
    double runS = 0.0;
    double wallS = 0.0;
};

TracedRep
tracedRep(const RunRequest &req, SpanLog &log)
{
    TracedRep rep;
    log.beginRun();
    std::uint64_t root = log.open("exp.rep", 0);
    std::uint64_t id = log.open("exp.policy_run", root);
    std::unique_ptr<Policy> policy = req.makePolicy();
    rep.run = tracedRun(req, *policy, log, id);
    rep.runS = log.close(id);
    id = log.open("exp.baseline", root);
    BaselinePolicy baseline;
    rep.base = tracedRun(req, baseline, log, id);
    rep.baseS = log.close(id);
    rep.wallS = log.close(root);
    return rep;
}

void
runSingle(const Args &a, const SingleWorkload &w, Report &report,
          SpanLog &log)
{
    const RunRequest req = singleRequest(w, a);
    const double gamma = req.cfg.gamma;
    const std::uint64_t apps = req.apps.size();

    // Checks one engine repetition; @p first, when given, must match.
    auto checkRep = [&](const EngineRep &rep, const EngineRep *first) {
        report.check(rep.ok, "engine run failed: " + rep.error);
        report.check(rep.poolMisses == 1 && rep.poolHits == 0,
                     "baseline was not recomputed in this repetition");
        if (!rep.ok) {
            report.ops(apps, apps);
            return;
        }
        std::uint64_t over = appsOverBound(rep.base, rep.run, gamma);
        report.check(over == 0, std::to_string(over)
                                    + " application(s) slower than "
                                      "the bound");
        report.ops(apps, over);
        if (first) {
            report.check(sameRun(rep.run, first->run)
                             && sameRun(rep.base, first->base),
                         "repetitions of one seed differ");
        }
    };

    if (!a.trace) {
        EngineRep first;
        std::vector<double> setup;
        std::vector<double> wall;
        std::vector<double> rate;
        Clock::time_point start = Clock::now();
        do {
            // Set-up: what one repetition builds before its first
            // epoch (the request, then the CoScale and the Baseline
            // System). A millisecond each, so three per repetition,
            // interleaved so they see the same host as the runs.
            for (int i = 0; i < 3; ++i) {
                Clock::time_point t0 = Clock::now();
                RunRequest r = singleRequest(w, a);
                auto s1 = std::make_unique<System>(r.cfg, r.apps);
                auto s2 = std::make_unique<System>(r.cfg, r.apps);
                setup.push_back(secondsBetween(t0, Clock::now()));
            }
            EngineRep rep = engineRep(req);
            checkRep(rep, wall.empty() ? nullptr : &first);
            wall.push_back(rep.wallS);
            rate.push_back(static_cast<double>(rep.run.totalInstrs
                                               + rep.base.totalInstrs)
                           / 1e6 / rep.wallS);
            if (wall.size() == 1)
                first = std::move(rep);
        } while (wall.size() < 3
                 || secondsBetween(start, Clock::now()) < a.seconds);

        std::printf("%s: %zu repetitions of CoScale+Baseline on %s, "
                    "median %.4f s (min %.4f, max %.4f)\n",
                    a.workload.c_str(), wall.size(), w.mix, median(wall),
                    *std::min_element(wall.begin(), wall.end()),
                    maxOf(wall));
        printRunDigest(a.workload + " CoScale", first.run, nullptr);
        printRunDigest(a.workload + " Baseline", first.base, nullptr);
        EndToEnd e;
        e.wallS = median(wall);
        e.simMinstrPerS = median(rate);
        e.setupS = median(setup);
        e.peakRssMb = peakRssMb();
        if (first.ok) {
            e.energySavingsPct =
                compare(first.base, first.run).fullSystemSavings * 100.0;
        }
        report.endToEnd(e);
        return;
    }

    // Traced: alternate an untraced engine repetition with a traced
    // re-drive of the same two runs; the pair's walls give the
    // tracing overhead, the re-drive gives the layer split.
    std::vector<double> untracedWall;
    std::vector<TracedRep> traced;
    std::uint64_t poolHits = 0;
    std::uint64_t poolMisses = 0;
    EngineRep first;
    Clock::time_point start = Clock::now();
    do {
        // Alternate which side of the pair runs first, so a drift in
        // host speed cancels out of the overhead ratio.
        const bool traced_first = traced.size() % 2 == 1;
        TracedRep tr;
        if (traced_first)
            tr = tracedRep(req, log);
        EngineRep rep = engineRep(req);
        if (!traced_first)
            tr = tracedRep(req, log);
        checkRep(rep, untracedWall.empty() ? nullptr : &first);
        untracedWall.push_back(rep.wallS);
        poolHits += rep.poolHits;
        poolMisses += rep.poolMisses;

        report.check(rep.ok && sameRun(tr.run.result, rep.run)
                         && sameRun(tr.base.result, rep.base),
                     "traced results differ from run()'s");
        std::uint64_t over =
            appsOverBound(tr.base.result, tr.run.result, gamma);
        report.check(over == 0, "traced run: application(s) slower "
                                "than the bound");
        report.ops(apps, over);
        if (traced.empty())
            first = std::move(rep);
        traced.push_back(std::move(tr));
    } while (traced.size() < 2
             || secondsBetween(start, Clock::now()) < a.seconds);

    const TracedRep &t0 = traced.front();
    KernelCounters k = t0.run.kernel;
    k.add(t0.base.kernel);
    printRunDigest(a.workload + " CoScale", t0.run.result,
                   &t0.run.kernel);
    printRunDigest(a.workload + " Baseline", t0.base.result,
                   &t0.base.kernel);

    std::vector<double> runS, profileS, windowS, decideS, decideUs;
    std::vector<double> baseS, policyS, tracedWall;
    for (const TracedRep &tr : traced) {
        runS.push_back(tr.run.t.runS + tr.base.t.runS);
        profileS.push_back(tr.run.t.profileS + tr.base.t.profileS);
        windowS.push_back(tr.run.t.windowS + tr.base.t.windowS);
        decideS.push_back(tr.run.t.decideS + tr.base.t.decideS);
        decideUs.insert(decideUs.end(), tr.run.t.decideUs.begin(),
                        tr.run.t.decideUs.end());
        baseS.push_back(tr.baseS);
        policyS.push_back(tr.runS);
        tracedWall.push_back(tr.wallS);
    }

    Layers l;
    k.fillLayers(l);
    l.simRunS = median(runS);
    l.simNsPerEvent = ratio(l.simRunS * 1e9, l.simEvents);
    l.simProfileS = median(profileS);
    l.powerWindowS = median(windowS);
    l.policyDecides = static_cast<double>(t0.run.t.decideUs.size());
    l.policyDecideS = median(decideS);
    l.policyDecideSamples = static_cast<double>(decideUs.size());
    l.policyDecideUsP50 = median(decideUs);
    l.policyDecideUsMax = maxOf(decideUs);
    l.policyCandidates = static_cast<double>(t0.run.candidates);
    l.policyWorstDegradationPct =
        compare(t0.base.result, t0.run.result).worstDegradation * 100.0;
    l.expBaselineS = median(baseS);
    l.expPolicyRunS = median(policyS);
    l.expPoolHits = static_cast<double>(poolHits);
    l.expPoolMisses = static_cast<double>(poolMisses);
    l.obsTraceOverheadFrac =
        ratio(median(tracedWall), median(untracedWall)) - 1.0;
    l.obsSpans = static_cast<double>(log.size());
    std::printf("%s: %zu traced + %zu untraced repetitions, %zu spans\n",
                a.workload.c_str(), traced.size(), untracedWall.size(),
                log.size());
    report.layers(l);
}

// --------------------------------------------------------- fleet-capped

/**
 * The capped fleet: 64 two-core MID1 nodes under FastCap for 24
 * cluster epochs. The request stream swings through one diurnal cycle
 * with bursts, offered below capped capacity on average so peaks build
 * a queue that drains before the run ends.
 */
cluster::ClusterConfig
fleetConfig(const Args &a)
{
    cluster::ClusterConfig c;
    c.numNodes = a.tiny ? 8 : 64;
    c.node = cluster::makeNodeConfig(0.05, 2);
    c.mix = "MID1";
    c.policy = "fastcap";
    c.epochs = a.tiny ? 8 : 24;
    c.seed = a.seed;
    // The node fan-out uses up to three threads and leaves one of the
    // host's threads free: a fan-out step waits for its slowest node,
    // so sharing every thread with the rest of the host makes each
    // step as slow as the worst interruption.
    unsigned hw = std::thread::hardware_concurrency();
    c.jobs = hw <= 1 ? 1 : static_cast<int>(std::min(hw - 1, 3u));
    // 8000 requests/s per node is about half of what a capped node
    // serves (~15k/s at 250k instructions per request).
    double epoch_secs = ticksToSeconds(c.node.epochLen);
    c.arrival.ratePerSec = 8000.0 * static_cast<double>(c.numNodes);
    c.arrival.diurnalAmp = 0.5;
    c.arrival.diurnalPeriod = static_cast<std::uint64_t>(c.epochs);
    c.arrival.burstProb = 0.15;
    c.arrival.burstMult = 2.0;
    c.arrival.sloSecs = 8.0 * epoch_secs;
    c.arrival.seed = a.seed;
    return c;
}

/** The power budget's position in the band from the all-min floor to
 *  the uncapped all-max (Baseline) draw. */
constexpr double budgetFrac = 0.5;

/** What one fleet run produced, for checks and equality. */
struct FleetRun
{
    std::vector<cluster::ClusterEpochStats> epochs;
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    std::uint64_t sloViolations = 0;
    std::uint64_t finalQueued = 0;
    KernelCounters kernel;
    double powerSumW = 0.0;
    double wallS = 0.0;

    void
    addEpoch(const cluster::ClusterEpochStats &st)
    {
        epochs.push_back(st);
        arrivals += st.arrivals;
        completed += st.completed;
        sloViolations += st.sloViolations;
        powerSumW += st.powerW;
    }

    /** Totals only the finished ClusterSim can give. */
    void
    finish(const cluster::ClusterSim &sim)
    {
        finalQueued = sim.unroutedRequests();
        for (int i = 0; i < sim.numNodes(); ++i) {
            finalQueued += sim.node(i).queuedRequests();
            kernel.add(sim.node(i).system());
        }
    }

    bool
    operator==(const FleetRun &o) const
    {
        if (epochs.size() != o.epochs.size() || arrivals != o.arrivals
            || completed != o.completed
            || sloViolations != o.sloViolations
            || finalQueued != o.finalQueued || !(kernel == o.kernel)) {
            return false;
        }
        for (size_t e = 0; e < epochs.size(); ++e) {
            const cluster::ClusterEpochStats &x = epochs[e];
            const cluster::ClusterEpochStats &y = o.epochs[e];
            if (x.arrivals != y.arrivals || x.grantSumW != y.grantSumW
                || x.powerW != y.powerW || x.completed != y.completed
                || x.sloViolations != y.sloViolations
                || x.queued != y.queued
                || x.meanLatencySecs != y.meanLatencySecs
                || x.maxLatencySecs != y.maxLatencySecs
                || x.capExceeded != y.capExceeded) {
                return false;
            }
        }
        return true;
    }
};

/** Untraced fleet run, timed from construction to the last epoch. */
FleetRun
fleetRep(const cluster::ClusterConfig &cfg)
{
    FleetRun fr;
    Clock::time_point t0 = Clock::now();
    cluster::ClusterSim sim(cfg);
    cluster::ClusterResult r = sim.run();
    fr.wallS = secondsBetween(t0, Clock::now());
    for (const cluster::ClusterEpochStats &st : r.epochs)
        fr.addEpoch(st);
    fr.finish(sim);
    return fr;
}

/** Traced fleet run: spans around construction, each step, each read. */
FleetRun
tracedFleetRep(const cluster::ClusterConfig &cfg, SpanLog &log,
               std::vector<double> &stepMs, double &queueMax)
{
    FleetRun fr;
    log.beginRun();
    std::uint64_t root = log.open("cluster.run", 0);
    std::unique_ptr<cluster::ClusterSim> sim =
        spanned(log, "cluster.setup", root, nullptr, [&] {
            return std::make_unique<cluster::ClusterSim>(cfg);
        });
    for (int e = 0; e < cfg.epochs; ++e) {
        double step_s = 0.0;
        cluster::ClusterEpochStats st =
            spanned(log, "cluster.step", root, &step_s,
                    [&] { return sim->step(); });
        stepMs.push_back(step_s * 1e3);
        spanned(log, "cluster.read", root, nullptr, [&] {
            double power = 0.0;
            for (const cluster::NodeEpochOutcome &o : sim->lastOutcomes())
                power += o.avgPowerW;
            if (power != st.powerW) {
                throw std::runtime_error(
                    "node outcomes do not sum to the epoch power");
            }
            queueMax = std::max(queueMax, static_cast<double>(st.queued));
        });
        fr.addEpoch(st);
    }
    spanned(log, "cluster.read", root, nullptr, [&] { fr.finish(*sim); });
    fr.wallS = log.close(root);
    return fr;
}

void
printFleetDigest(const FleetRun &fr)
{
    Digest d("fleet-capped");
    d.add("events", fr.kernel.events)
        .add("instrs", fr.kernel.instrs)
        .add("llc_hits", fr.kernel.llc.hits)
        .add("dram_reads", fr.kernel.mem.readReqs)
        .add("dram_writes", fr.kernel.mem.writeReqs)
        .add("arrivals", fr.arrivals)
        .add("completed", fr.completed)
        .add("slo_violations", fr.sloViolations)
        .add("final_queued", fr.finalQueued)
        .add("power_sum_w", fr.powerSumW);
    d.print();
}

void
runFleet(const Args &a, Report &report, SpanLog &log)
{
    cluster::ClusterConfig cfg = fleetConfig(a);

    // The budget and the energy reference come from one uncapped
    // Baseline (all-max) fleet of the same nodes and stream: the
    // budget sits budgetFrac of the way from the model's all-min
    // floor (plus bench_cluster's 2% margin) to that draw.
    double ref_sum = 0.0;
    double floor_w = 0.0;
    {
        cluster::ClusterConfig ref_cfg = cfg;
        ref_cfg.policy = "baseline";
        ref_cfg.budgetW = 0.0;
        cluster::ClusterSim ref(ref_cfg);
        for (const cluster::ClusterEpochStats &st : ref.run().epochs)
            ref_sum += st.powerW;
        for (const cluster::NodeEpochOutcome &o : ref.lastOutcomes())
            floor_w += o.minW;
        floor_w *= 1.02;
    }
    double draw = ref_sum / static_cast<double>(cfg.epochs);
    cfg.budgetW = floor_w + budgetFrac * (draw - floor_w);
    std::printf("fleet-capped: %d nodes x %d cores, %d epochs, budget "
                "%.1f W (floor %.1f W, all-max %.1f W), jobs %d\n",
                cfg.numNodes, cfg.node.numCores, cfg.epochs, cfg.budgetW,
                floor_w, draw, cfg.jobs);

    auto checkRun = [&](const FleetRun &fr, const std::string &what) {
        for (const cluster::ClusterEpochStats &st : fr.epochs) {
            report.check(st.powerW <= cfg.budgetW && !st.capExceeded,
                         what + ": epoch " + std::to_string(st.epoch)
                             + " power over budget");
        }
        report.check(fr.completed + fr.finalQueued == fr.arrivals,
                     what + ": completed + queued != arrived");
        report.ops(fr.arrivals, fr.sloViolations + fr.finalQueued);
    };

    if (!a.trace) {
        std::vector<double> setup;
        std::vector<double> wall;
        std::vector<double> rate;
        FleetRun first;
        Clock::time_point start = Clock::now();
        do {
            // Set-up: building the ClusterSim, interleaved with the
            // runs so both see the same host.
            Clock::time_point t0 = Clock::now();
            auto built = std::make_unique<cluster::ClusterSim>(cfg);
            setup.push_back(secondsBetween(t0, Clock::now()));
            built.reset();

            FleetRun fr = fleetRep(cfg);
            checkRun(fr, "fleet");
            wall.push_back(fr.wallS);
            rate.push_back(static_cast<double>(fr.kernel.instrs) / 1e6
                           / fr.wallS);
            if (wall.size() == 1)
                first = std::move(fr);
            else
                report.check(fr == first, "repetitions of one seed differ");
        } while (wall.size() < 3
                 || secondsBetween(start, Clock::now()) < a.seconds);

        for (const cluster::ClusterEpochStats &st : first.epochs) {
            std::printf("  epoch %2llu: arrivals %4llu, power %7.1f W, "
                        "done %4llu, queued %4llu\n",
                        static_cast<unsigned long long>(st.epoch),
                        static_cast<unsigned long long>(st.arrivals),
                        st.powerW,
                        static_cast<unsigned long long>(st.completed),
                        static_cast<unsigned long long>(st.queued));
        }
        std::printf("fleet-capped: %zu repetitions, median %.4f s "
                    "(min %.4f, max %.4f)\n",
                    wall.size(), median(wall),
                    *std::min_element(wall.begin(), wall.end()),
                    maxOf(wall));
        printFleetDigest(first);
        EndToEnd e;
        e.wallS = median(wall);
        e.simMinstrPerS = median(rate);
        e.setupS = median(setup);
        e.peakRssMb = peakRssMb();
        e.energySavingsPct = (1.0 - first.powerSumW / ref_sum) * 100.0;
        report.endToEnd(e);
        return;
    }

    // Traced: the --jobs N run users time, then pairs of untraced and
    // traced --jobs 1 runs; every one must produce the same fleet.
    FleetRun parallel = fleetRep(cfg);
    checkRun(parallel, "fleet --jobs N");
    cluster::ClusterConfig serial_cfg = cfg;
    serial_cfg.jobs = 1;
    std::vector<double> untracedWall;
    std::vector<double> tracedWall;
    std::vector<double> stepMs;
    double queueMax = 0.0;
    FleetRun traced;
    Clock::time_point start = Clock::now();
    do {
        // Alternate which side of the pair runs first (see runSingle).
        const bool traced_first = tracedWall.size() % 2 == 1;
        if (traced_first)
            traced = tracedFleetRep(serial_cfg, log, stepMs, queueMax);
        FleetRun fr = fleetRep(serial_cfg);
        if (!traced_first)
            traced = tracedFleetRep(serial_cfg, log, stepMs, queueMax);
        checkRun(fr, "fleet --jobs 1");
        report.check(fr == parallel,
                     "--jobs 1 fleet differs from --jobs N fleet");
        untracedWall.push_back(fr.wallS);

        checkRun(traced, "traced fleet --jobs 1");
        report.check(traced == parallel,
                     "traced --jobs 1 fleet differs from --jobs N fleet");
        tracedWall.push_back(traced.wallS);
    } while (secondsBetween(start, Clock::now()) < a.seconds);

    printFleetDigest(traced);
    Layers l;
    traced.kernel.fillLayers(l);
    double node_epochs = static_cast<double>(cfg.numNodes)
                         * static_cast<double>(cfg.epochs);
    l.policyDecides = node_epochs;
    l.clusterStepMsP50 = median(stepMs);
    l.clusterStepMsMax = maxOf(stepMs);
    l.clusterSteps = static_cast<double>(stepMs.size());
    l.clusterNodeEpochs = node_epochs;
    l.clusterEvents = static_cast<double>(traced.kernel.events);
    l.clusterQueueMax = queueMax;
    l.clusterSloMissFrac =
        ratio(static_cast<double>(traced.sloViolations
                                  + traced.finalQueued),
              static_cast<double>(traced.arrivals));
    l.obsTraceOverheadFrac =
        ratio(median(tracedWall), median(untracedWall)) - 1.0;
    l.obsSpans = static_cast<double>(log.size());
    std::printf("fleet-capped: %zu traced + %zu untraced --jobs 1 runs, "
                "%zu spans\n",
                tracedWall.size(), untracedWall.size(), log.size());
    report.layers(l);
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    const SingleWorkload mid{"MID1", 0.05, 0.01};
    const SingleWorkload mem{"MEM1", 0.02, 0.005};
    if (a.workload != "single-mid" && a.workload != "single-mem"
        && a.workload != "fleet-capped") {
        usageError("unknown workload '" + a.workload + "'");
    }

    Report report;
    SpanLog log;
    try {
        if (a.workload == "fleet-capped")
            runFleet(a, report, log);
        else
            runSingle(a, a.workload == "single-mid" ? mid : mem, report,
                      log);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", a.workload.c_str(),
                     e.what());
        return 1;
    }
    if (a.trace && !a.spansPath.empty() && !log.write(a.spansPath)) {
        std::fprintf(stderr, "perfbench: cannot write spans to '%s'\n",
                     a.spansPath.c_str());
        return 1;
    }
    return report.finish();
}
