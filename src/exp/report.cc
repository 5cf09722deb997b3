#include "exp/report.hh"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/json.hh"
#include "common/log.hh"
#include "exp/bench_options.hh"

namespace coscale {
namespace exp {

void
writeJsonlReport(const std::vector<RunOutcome> &outcomes,
                 std::ostream &os)
{
    for (const RunOutcome &out : outcomes) {
        if (out.ok) {
            // Attempt counts are host-dependent, so they only appear
            // (attempts > 1) when a retry actually happened — a
            // clean deterministic batch stays byte-stable.
            writeJsonReport(out.result,
                            out.hasBaseline ? &out.vsBaseline : nullptr,
                            os, out.attempts > 1 ? out.attempts : 0);
        } else {
            JsonWriter w(os);
            w.beginObject();
            w.field("index",
                    static_cast<std::uint64_t>(out.index));
            w.field("label", out.label);
            w.field("error", out.error);
            if (out.attempts > 0) {
                w.field("attempts",
                        static_cast<std::uint64_t>(out.attempts));
            }
            if (out.timedOut)
                w.field("timed_out", true);
            if (out.quarantined)
                w.field("quarantined", true);
            w.endObject();
            os << "\n";
        }
    }
}

std::size_t
appendJsonlReport(const std::vector<RunOutcome> &outcomes,
                  const std::string &path)
{
    if (path.empty())
        return 0;
    std::ofstream os(path, std::ios::app);
    if (!os)
        fatal("cannot open '%s' for JSONL output", path.c_str());
    writeJsonlReport(outcomes, os);
    return outcomes.size();
}

void
writeQuarantineSummary(const std::vector<std::string> &keys,
                       std::ostream &os)
{
    if (keys.empty())
        return;
    JsonWriter w(os);
    w.beginObject();
    w.beginArray("quarantined_keys");
    for (const std::string &key : keys)
        w.value(key);
    w.endArray();
    w.endObject();
    os << "\n";
}

void
appendQuarantineSummary(const std::vector<std::string> &keys,
                        const std::string &path)
{
    if (keys.empty() || path.empty())
        return;
    std::ofstream os(path, std::ios::app);
    if (!os)
        fatal("cannot open '%s' for JSONL output", path.c_str());
    writeQuarantineSummary(keys, os);
}

std::size_t
reportFailures(const std::vector<RunOutcome> &outcomes)
{
    std::size_t failed = 0;
    for (const RunOutcome &out : outcomes) {
        if (!out.ok) {
            ++failed;
            std::fprintf(stderr, "[exp] request %zu (%s) failed: %s\n",
                         out.index, out.label.c_str(),
                         out.error.c_str());
        }
    }
    return failed;
}

std::vector<RunOutcome>
runBatch(const BenchOptions &opts, const std::vector<RunRequest> &requests)
{
    // Request i of a multi-request batch traces to PATH.i, so parallel
    // runs never share a sink.
    std::vector<RunRequest> prepared = requests;
    for (std::size_t i = 0; i < prepared.size(); ++i) {
        if (opts.trace.enabled()) {
            TraceSpec spec = opts.trace;
            if (prepared.size() > 1)
                spec.path += "." + std::to_string(i);
            prepared[i].withTrace(spec);
        }
        if (opts.metrics)
            prepared[i].withMetrics();
    }

    EngineOptions engineOpts;
    engineOpts.jobs = opts.jobs;
    engineOpts.progress = opts.progress;
    engineOpts.timeoutSecs = opts.timeoutSecs;
    engineOpts.retries = opts.retries;
    ExperimentEngine engine(engineOpts);
    std::vector<RunOutcome> outcomes = engine.run(prepared);
    appendJsonlReport(outcomes, opts.jsonlPath);
    appendQuarantineSummary(engine.quarantinedKeys(), opts.jsonlPath);
    reportFailures(outcomes);

    if (opts.metrics) {
        for (const RunOutcome &out : outcomes) {
            if (!out.ok || !out.result.metrics)
                continue;
            std::ostringstream os;
            out.result.metrics->writeJson(os);
            std::fprintf(stderr, "[metrics] %s %s %s\n",
                         out.result.mixName.c_str(),
                         out.result.policyName.c_str(),
                         os.str().c_str());
        }
    }
    return outcomes;
}

} // namespace exp
} // namespace coscale
