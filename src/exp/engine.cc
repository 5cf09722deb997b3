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
#include "exp/digest.hh"

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
    } catch (const std::exception &e) {
        return prefix + demangled(typeid(e).name()) + ": " + e.what();
    } catch (...) {
        return prefix + "unknown non-standard exception";
    }
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

std::string
ExperimentEngine::quarantineKey(const RunRequest &req) const
{
    // Identity, not object: retried and re-submitted copies of the
    // same experiment share a key, unrelated requests never collide.
    return req.label + "/"
           + std::to_string(configDigest(req.effectiveConfig())) + "/"
           + std::to_string(workloadDigest(req.apps));
}

bool
ExperimentEngine::quarantineExpired(const QuarantineEntry &e) const
{
    if (options.quarantineResetSecs <= 0.0)
        return false;
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - e.last)
               .count()
           >= options.quarantineResetSecs;
}

std::vector<std::string>
ExperimentEngine::quarantinedKeys()
{
    std::vector<std::string> keys;
    if (options.quarantineAfter <= 0)
        return keys;
    MutexLock lock(quarantineMu);
    for (const auto &kv : exhaustedFailures) {
        if (kv.second.count >= options.quarantineAfter
            && !quarantineExpired(kv.second)) {
            keys.push_back(kv.first); // map order: already sorted
        }
    }
    return keys;
}

void
ExperimentEngine::resetQuarantine()
{
    MutexLock lock(quarantineMu);
    exhaustedFailures.clear();
}

ExperimentEngine::Attempt
ExperimentEngine::runAttempt(const RunRequest &req)
{
    Attempt a;
    try {
        if (!req.makePolicy) {
            throw std::invalid_argument(
                req.borrowedPolicy
                    ? "ExperimentEngine requires a policy factory; "
                      "borrowed Policy instances cannot be shared "
                      "across worker threads"
                    : "RunRequest has no policy factory");
        }

        if (options.timeoutSecs <= 0.0) {
            a.result = coscale::run(req);
            a.ok = true;
            return a;
        }

        // Watchdogged attempt: run on a helper thread, wait up to the
        // budget, then flip the request's cancel flag and give the
        // epoch loop one grace period to unwind cooperatively. State
        // is shared_ptr-owned so the rare truly-wedged (detached)
        // simulation can never touch freed memory.
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

        auto budget = std::chrono::duration<double>(options.timeoutSecs);
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
                // Grace period for the cooperative epoch-boundary
                // exit; simulated epochs are short in host time, so
                // one more budget's worth is generous.
                deadline = std::chrono::steady_clock::now() + budget;
                while (!sh->done
                       && sh->cv.waitUntil(sh->mu, deadline)
                              != std::cv_status::timeout) {
                }
                finished = sh->done;
            }
        }

        if (!finished) {
            // Wedged inside an epoch (e.g. a policy stuck in
            // decide()). The thread keeps the shared state alive;
            // abandon it rather than block the whole batch.
            runner.detach();
            a.timedOut = true;
            a.error = "request '" + req.label
                      + "': killed by watchdog after "
                      + std::to_string(options.timeoutSecs)
                      + "s (simulation unresponsive)";
            return a;
        }

        runner.join();
        // The join() already synchronizes, but take the lock anyway:
        // it costs nothing uncontended and keeps every guarded access
        // visible to the static analysis.
        MutexLock lock(sh->mu);
        if (sh->ok) {
            a.result = std::move(sh->result);
            a.ok = true;
            return a;
        }
        a.timedOut = sh->cancel.load(std::memory_order_relaxed);
        std::rethrow_exception(sh->error);
    } catch (...) {
        a.error = describeCurrentException(req.label);
    }
    return a;
}

RunOutcome
ExperimentEngine::runOne(const RunRequest &req, std::size_t index)
{
    RunOutcome out;
    out.index = index;
    out.label = req.label;
    auto t0 = std::chrono::steady_clock::now();

    std::string key = quarantineKey(req);
    if (options.quarantineAfter > 0) {
        MutexLock lock(quarantineMu);
        auto it = exhaustedFailures.find(key);
        if (it != exhaustedFailures.end()) {
            if (quarantineExpired(it->second)) {
                // Strikes aged out: parole the identity and let it
                // prove itself with a fresh record.
                exhaustedFailures.erase(it);
            } else if (it->second.count >= options.quarantineAfter) {
                out.quarantined = true;
                out.error = "request '" + req.label
                            + "': quarantined after "
                            + std::to_string(it->second.count)
                            + " exhausted failures";
                return out;
            }
        }
    }

    int max_attempts = 1 + (options.retries > 0 ? options.retries : 0);
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        out.attempts = attempt;
        if (attempt > 1 && options.backoffSecs > 0.0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(
                options.backoffSecs * (attempt - 1)));
        }
        Attempt a = runAttempt(req);
        out.timedOut = a.timedOut;
        if (a.ok) {
            out.result = std::move(a.result);
            out.error.clear();
            out.ok = true;
            break;
        }
        out.error = a.error;
    }

    if (out.ok) {
        try {
            if (req.wantBaseline) {
                out.baseline = &pool().baseline(req);
                out.vsBaseline = compare(*out.baseline, out.result);
                out.hasBaseline = true;
            }
        } catch (...) {
            out.ok = false;
            out.error = describeCurrentException(req.label);
        }
    }

    if (!out.ok && !out.quarantined && options.quarantineAfter > 0) {
        MutexLock lock(quarantineMu);
        QuarantineEntry &e = exhaustedFailures[key];
        e.count += 1;
        e.last = std::chrono::steady_clock::now();
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
ExperimentEngine::run(const std::vector<RunRequest> &requests)
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
