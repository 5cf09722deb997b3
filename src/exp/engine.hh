/**
 * @file
 * The parallel experiment engine: executes a batch of RunRequests on
 * a worker pool, memoizing baseline runs through the process-wide
 * BaselinePool and reporting per-request outcomes.
 *
 * Determinism contract: each simulation is a pure function of its
 * request (own System, own RNG, own Policy instance from the
 * request's factory), so a batch executed with N workers produces
 * bit-identical RunResults — and byte-identical JSON reports — to the
 * same batch executed serially, in the same request order. The only
 * shared mutable state is the baseline pool, whose entries are
 * themselves deterministic runs.
 *
 * Failure isolation: a request whose policy factory or simulation
 * throws poisons only its own outcome (ok = false, error set); the
 * rest of the batch completes normally. Errors carry the request
 * label and the exception's (demangled) type so a batch report is
 * actionable on its own.
 *
 * Watchdog (off by default): with timeoutSecs set, a run that exceeds
 * the budget is cancelled cooperatively at its next epoch boundary
 * and reported ok = false / timedOut. A failed run is never retried:
 * it would fail the same way again.
 */

#ifndef COSCALE_EXP_ENGINE_HH
#define COSCALE_EXP_ENGINE_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exp/baseline_pool.hh"
#include "sim/runner.hh"

namespace coscale {
namespace exp {

/**
 * Worker count resolution: @p requested if positive, else the
 * COSCALE_JOBS environment variable, else hardware concurrency
 * (minimum 1).
 */
int resolveJobs(int requested);

/**
 * Run fn(0) .. fn(n-1), each exactly once, on up to @p jobs worker
 * threads (atomic-next-index pool; serial in index order when
 * @p jobs <= 1 or @p n <= 1). The index argument is taken literally —
 * callers wanting COSCALE_JOBS / hardware-concurrency resolution pass
 * resolveJobs(requested).
 *
 * Exception semantics match the engine's determinism contract: every
 * index runs regardless of failures elsewhere (no early abort, so the
 * set of executed indices never depends on thread timing), and after
 * all indices complete the exception from the LOWEST failing index is
 * rethrown. Callers therefore see the same error for jobs = 1 and
 * jobs = N.
 *
 * fn must be safe to invoke concurrently from distinct threads for
 * distinct indices; parallelFor itself never invokes it twice for the
 * same index.
 */
void parallelFor(int jobs, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

struct EngineOptions
{
    /** 0 = auto (COSCALE_JOBS, then hardware concurrency). */
    int jobs = 0;

    /** Print one progress line per completed request to stderr. */
    bool progress = false;

    /** Baseline memoization pool; null = the process-wide pool. */
    BaselinePool *pool = nullptr;

    /**
     * Per-run wall-clock watchdog in host seconds; 0 disables it.
     * The run is cancelled cooperatively (the epoch loop checks a
     * flag at every epoch boundary), so a timed-out simulation never
     * leaves a worker thread wedged mid-epoch.
     */
    double timeoutSecs = 0.0;
};

/** Outcome of one request in a batch (index = request position). */
struct RunOutcome
{
    std::size_t index = 0;
    std::string label;
    bool ok = false;
    std::string error;       //!< set when !ok

    RunResult result;        //!< valid when ok

    /** The run was killed by the wall-clock watchdog. */
    bool timedOut = false;

    /**
     * Host wall-clock seconds spent executing this request (including
     * a memoized-baseline wait, if any). Diagnostic only — never part
     * of JSON reports, which must stay deterministic.
     */
    double wallSecs = 0.0;

    /** Filled when the request asked for a baseline comparison. */
    bool hasBaseline = false;
    Comparison vsBaseline;
    const RunResult *baseline = nullptr; //!< owned by the pool
};

class ExperimentEngine
{
  public:
    explicit ExperimentEngine(EngineOptions options = {});

    /**
     * Execute every request (requests[i] -> outcomes[i]). Requests
     * must carry a policy factory; borrowed Policy instances are
     * rejected per request (they are not thread-safe to share).
     */
    std::vector<RunOutcome>
    run(const std::vector<RunRequest> &requests) const;

    /** Execute one request with engine semantics (never throws). */
    RunOutcome runOne(const RunRequest &req, std::size_t index = 0) const;

    /** Resolved worker count. */
    int jobs() const { return jobCount; }

    BaselinePool &pool() const;

  private:
    EngineOptions options;
    int jobCount;
};

} // namespace exp
} // namespace coscale

#endif // COSCALE_EXP_ENGINE_HH
