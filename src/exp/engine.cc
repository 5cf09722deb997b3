#include "exp/engine.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <typeinfo>
#include <utility>

#if defined(__GNUG__)
#include <cxxabi.h>
#endif

#include "common/log.hh"
#include "common/number_parse.hh"
#include "common/thread_annotations.hh"

namespace coscale {
namespace exp {

namespace {

std::string
demangled(const char *name)
{
#if defined(__GNUG__)
    int status = 0;
    char *d = abi::__cxa_demangle(name, nullptr, nullptr, &status);
    if (d) {
        std::string s = status == 0 ? std::string(d) : std::string(name);
        std::free(d);
        return s;
    }
#endif
    return name;
}

/** The watchdog gave up on a run wedged inside an epoch. */
struct WatchdogKill : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Format the in-flight exception with the request label and dynamic
 * exception type — a batch report that just says "boom" is useless
 * when forty requests ran. Must be called from inside a catch block.
 */
std::string
describeCurrentException(const std::string &label)
{
    std::string prefix = "request '" + label + "': ";
    try {
        throw;
    } catch (const WatchdogKill &e) {
        return prefix + e.what();
    } catch (const std::exception &e) {
        return prefix + demangled(typeid(e).name()) + ": " + e.what();
    } catch (...) {
        return prefix + "unknown non-standard exception";
    }
}

/**
 * coscale::run(req) under a wall-clock budget: run on a helper
 * thread, wait up to @p budget_secs, then flip the request's cancel
 * flag and give the epoch loop one grace period to unwind
 * cooperatively. Sets @p timed_out when the run was cancelled, and
 * throws WatchdogKill when it stayed wedged. State is
 * shared_ptr-owned so the rare truly-wedged (detached) simulation can
 * never touch freed memory.
 */
RunResult
runWatched(const RunRequest &req, double budget_secs, bool &timed_out)
{
    struct Shared
    {
        Mutex mu;
        CondVar cv;
        bool done COSCALE_GUARDED_BY(mu) = false;
        bool ok COSCALE_GUARDED_BY(mu) = false;
        RunResult result COSCALE_GUARDED_BY(mu);
        std::exception_ptr error COSCALE_GUARDED_BY(mu);
        std::atomic<bool> cancel{false};
    };
    auto sh = std::make_shared<Shared>();
    RunRequest guarded = req;
    guarded.cancelFlag = &sh->cancel;

    std::thread runner([sh, guarded] {
        std::exception_ptr err;
        RunResult r;
        bool ok = false;
        try {
            r = coscale::run(guarded);
            ok = true;
        } catch (...) {
            err = std::current_exception();
        }
        {
            MutexLock lock(sh->mu);
            sh->result = std::move(r);
            sh->ok = ok;
            sh->error = err;
            sh->done = true;
        }
        sh->cv.notify_all();
    });

    auto budget = std::chrono::duration<double>(budget_secs);
    bool finished;
    {
        MutexLock lock(sh->mu);
        auto deadline = std::chrono::steady_clock::now() + budget;
        while (!sh->done
               && sh->cv.waitUntil(sh->mu, deadline)
                      != std::cv_status::timeout) {
        }
        finished = sh->done;
        if (!finished) {
            sh->cancel.store(true, std::memory_order_relaxed);
            // Grace period for the cooperative epoch-boundary exit;
            // simulated epochs are short in host time, so one more
            // budget's worth is generous.
            deadline = std::chrono::steady_clock::now() + budget;
            while (!sh->done
                   && sh->cv.waitUntil(sh->mu, deadline)
                          != std::cv_status::timeout) {
            }
            finished = sh->done;
        }
    }

    if (!finished) {
        // Wedged inside an epoch (e.g. a policy stuck in decide()).
        // The thread keeps the shared state alive; abandon it rather
        // than block the whole batch.
        runner.detach();
        timed_out = true;
        throw WatchdogKill("killed by watchdog after "
                           + std::to_string(budget_secs)
                           + "s (simulation unresponsive)");
    }

    runner.join();
    // The join() already synchronizes, but take the lock anyway: it
    // costs nothing uncontended and keeps every guarded access
    // visible to the static analysis.
    MutexLock lock(sh->mu);
    if (!sh->ok) {
        timed_out = sh->cancel.load(std::memory_order_relaxed);
        std::rethrow_exception(sh->error);
    }
    return std::move(sh->result);
}

} // namespace

int
resolveJobs(int requested)
{
    if (requested > 0)
        return requested;
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe; setenv runs only in single-threaded tests
    if (const char *env = std::getenv("COSCALE_JOBS")) {
        std::uint64_t n = 0;
        if (parseU64(env, &n) && n > 0
            && n <= static_cast<std::uint64_t>(
                   std::numeric_limits<int>::max()))
            return static_cast<int>(n);
        warnOnce("engine.jobs.env",
                 "COSCALE_JOBS='%s' is not a positive integer; "
                 "falling back to hardware concurrency", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

void
parallelFor(int jobs, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;

    if (jobs <= 1 || n <= 1) {
        // Serial path mirrors the parallel exception contract: every
        // index runs, then the lowest failing index's error surfaces.
        std::exception_ptr first;
        for (std::size_t i = 0; i < n; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (!first)
                    first = std::current_exception();
            }
        }
        if (first)
            std::rethrow_exception(first);
        return;
    }

    struct ErrState
    {
        Mutex mu;
        std::size_t index COSCALE_GUARDED_BY(mu) =
            std::numeric_limits<std::size_t>::max();
        std::exception_ptr error COSCALE_GUARDED_BY(mu);
    };
    ErrState err;
    std::atomic<std::size_t> next{0};

    auto worker = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                MutexLock lock(err.mu);
                if (i < err.index) {
                    err.index = i;
                    err.error = std::current_exception();
                }
            }
        }
    };

    std::size_t workers = static_cast<std::size_t>(jobs) < n
                              ? static_cast<std::size_t>(jobs)
                              : n;
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();

    MutexLock lock(err.mu);
    if (err.error)
        std::rethrow_exception(err.error);
}

ExperimentEngine::ExperimentEngine(EngineOptions options_)
    : options(options_), jobCount(resolveJobs(options_.jobs))
{
}

BaselinePool &
ExperimentEngine::pool() const
{
    return options.pool ? *options.pool : processBaselinePool();
}

RunOutcome
ExperimentEngine::runOne(const RunRequest &req, std::size_t index) const
{
    RunOutcome out;
    out.index = index;
    out.label = req.label;
    auto t0 = std::chrono::steady_clock::now();
    try {
        if (!req.makePolicy) {
            throw std::invalid_argument(
                req.borrowedPolicy
                    ? "ExperimentEngine requires a policy factory; "
                      "borrowed Policy instances cannot be shared "
                      "across worker threads"
                    : "RunRequest has no policy factory");
        }
        out.result = options.timeoutSecs > 0.0
                         ? runWatched(req, options.timeoutSecs,
                                      out.timedOut)
                         : coscale::run(req);
        if (req.wantBaseline) {
            out.baseline = &pool().baseline(req);
            out.vsBaseline = compare(*out.baseline, out.result);
            out.hasBaseline = true;
        }
        out.ok = true;
    } catch (...) {
        out.error = describeCurrentException(req.label);
    }

    out.wallSecs = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    // Host-side timing goes into the run's metrics registry (wall
    // time is inherently nondeterministic, so it must never leak into
    // traces or JSON reports).
    if (out.ok && out.result.metrics)
        out.result.metrics->gauge("engine.wall_secs").set(out.wallSecs);
    return out;
}

std::vector<RunOutcome>
ExperimentEngine::run(const std::vector<RunRequest> &requests) const
{
    std::vector<RunOutcome> outcomes(requests.size());
    if (requests.empty())
        return outcomes;

    std::atomic<std::size_t> done{0};
    Mutex progressMu; // serializes the stderr progress lines only

    parallelFor(jobCount, requests.size(), [&](std::size_t i) {
        outcomes[i] = runOne(requests[i], i);
        std::size_t finished =
            done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (options.progress) {
            MutexLock lock(progressMu);
            std::fprintf(stderr, "[exp] %zu/%zu %s (%.2fs)%s\n",
                         finished, requests.size(),
                         outcomes[i].label.c_str(),
                         outcomes[i].wallSecs,
                         outcomes[i].ok ? "" : " (FAILED)");
        }
    });

    if (options.progress) {
        std::fprintf(stderr,
                     "[exp] baseline pool: %llu hits, %llu misses\n",
                     static_cast<unsigned long long>(pool().hits()),
                     static_cast<unsigned long long>(pool().misses()));
    }
    return outcomes;
}

} // namespace exp
} // namespace coscale
