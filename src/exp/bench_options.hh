/**
 * @file
 * Shared command-line surface for the figure/table harnesses. Every
 * harness accepts the same knobs — time scale, worker count, progress
 * reporting, JSONL output — read through one option table
 * (benchOptionTable() in exp/options.hh) so `bench_fig8_9_policies
 * --jobs 8 --jsonl out.jsonl` works identically across the suite.
 * coscale_sim's options extend these.
 */

#ifndef COSCALE_EXP_BENCH_OPTIONS_HH
#define COSCALE_EXP_BENCH_OPTIONS_HH

#include <string>
#include <vector>

#include "dram/mem_backend.hh"
#include "exp/engine.hh"
#include "obs/trace_sink.hh"
#include "sim/system.hh"

namespace coscale {
namespace exp {

struct BenchOptions
{
    /**
     * Time scale: 1.0 is the paper's full 100M-instruction setup; the
     * default keeps a full sweep to a few minutes.
     */
    double scale = 0.1;

    /** Worker threads; 0 = auto (COSCALE_JOBS, then hardware). */
    int jobs = 0;

    /** Print per-run progress lines to stderr. */
    bool progress = false;

    /** When non-empty, append one JSON line per run to this file. */
    std::string jsonlPath;

    /**
     * Epoch-trace destination (--trace PATH, --trace-format FMT).
     * With several requests in a batch, request i writes to
     * "PATH.i" so parallel runs never share a sink.
     */
    TraceSpec trace;

    /** Collect and print per-run metrics registries (--metrics). */
    bool metrics = false;

    /** Per-run wall-clock watchdog in seconds (--timeout; 0 = off). */
    double timeoutSecs = 0.0;

    /**
     * Memory backend picked by --mem-sched / --row-policy /
     * --dram-standard; memBackendSet records whether any of the three
     * flags appeared (an untouched harness keeps makeScaledConfig()'s
     * default-or-environment behaviour).
     */
    MemBackendSel memBackend;
    bool memBackendSet = false;

    /** --list-policies: print the policy roster instead of running. */
    bool listPolicies = false;

    /**
     * The harness's base SystemConfig: makeScaledConfig(scale) with
     * the backend flags applied on top. Every harness builds its
     * configs through this so the backend flags work uniformly.
     */
    SystemConfig
    makeSystemConfig() const
    {
        SystemConfig cfg = makeScaledConfig(scale);
        if (memBackendSet)
            applyMemBackend(cfg, memBackend);
        return cfg;
    }
};

/**
 * Parse the shared harness options through benchOptionTable()
 * (exp/options.hh): `--scale X` or a bare positional scale, the
 * engine, observability and memory-backend flags, `--list-policies`
 * and `--help`. The scale falls back to COSCALE_SCALE (a malformed
 * value warns once and is ignored), then @p defaultScale. A bad
 * argument is fatal.
 */
BenchOptions parseBenchArgs(int argc, char **argv,
                            double defaultScale = 0.1);

/**
 * Run @p requests through an engine configured from @p opts, append
 * the batch to the JSONL sink when requested, and report failures on
 * stderr: the standard tail of coscale_sim and every harness.
 *
 * Observability: --trace/--metrics apply to every request (each run
 * gets a private sink, so parallel batches stay deterministic); with
 * --metrics the registries are printed to stderr after the batch.
 */
std::vector<RunOutcome> runBatch(const BenchOptions &opts,
                                 const std::vector<RunRequest> &requests);

/**
 * Print the registered policy roster (knownPolicyNames(), one per
 * line) — the `--list-policies` body shared by the harnesses and
 * coscale_sim.
 */
void printPolicyRoster();

} // namespace exp
} // namespace coscale

#endif // COSCALE_EXP_BENCH_OPTIONS_HH
