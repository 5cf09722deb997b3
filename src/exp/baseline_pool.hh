/**
 * @file
 * Process-wide memoization of no-DVFS baseline runs.
 *
 * Every baseline-relative experiment needs a BaselinePolicy run of
 * the same configuration + workload; before the engine existed, each
 * bench harness recomputed those privately. The pool runs each
 * distinct baseline exactly once per process — keyed by the value of
 * the request's configuration, application list and label, compared
 * field by field with the structs' defaulted operator== — and shares
 * the result across threads, harness phases, and engine instances.
 *
 * Concurrency: the first requester of a key becomes its computer;
 * later requesters (on any thread) block on a shared future rather
 * than duplicating the run. A baseline that throws poisons only its
 * own key — every requester of that key sees the same exception.
 */

#ifndef COSCALE_EXP_BASELINE_POOL_HH
#define COSCALE_EXP_BASELINE_POOL_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"
#include "sim/runner.hh"

namespace coscale {
namespace exp {

class BaselinePool
{
  public:
    /**
     * The memoized BaselinePolicy run matching @p req's configuration,
     * application list and label. Computes it on first request; the
     * returned reference stays valid for the pool's lifetime. Rethrows
     * the baseline's failure, if any.
     */
    const RunResult &baseline(const RunRequest &req);

    /** Memoization accounting (for tests and progress reports). */
    std::uint64_t hits() const { return nHits.load(); }
    std::uint64_t misses() const { return nMisses.load(); }

    /** Number of distinct baselines computed (or in flight). */
    std::size_t size() const;

  private:
    /**
     * One memoized baseline and the inputs that identify it. A process
     * holds a few dozen at most, so a lookup is one pass over them.
     */
    struct Entry
    {
        SystemConfig cfg;
        std::vector<AppSpec> apps;
        std::string label;
        std::shared_future<RunResult> result;
    };

    mutable Mutex mu;
    std::vector<Entry> entries COSCALE_GUARDED_BY(mu);
    std::atomic<std::uint64_t> nHits{0};
    std::atomic<std::uint64_t> nMisses{0};
};

/** The process-wide pool the engine uses by default. */
BaselinePool &processBaselinePool();

} // namespace exp
} // namespace coscale

#endif // COSCALE_EXP_BASELINE_POOL_HH
