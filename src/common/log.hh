/**
 * @file
 * gem5-style status/error reporting: inform(), warn(), fatal(), panic().
 *
 * fatal() is for user errors (bad configuration); it exits with code 1.
 * panic() is for internal invariant violations; by default it aborts,
 * but tests may switch it to throw CheckFailure (see PanicBehavior) so
 * detected violations can be asserted on instead of killing the
 * process.
 *
 * The invariant macros are COSCALE_CHECK / COSCALE_DCHECK in
 * check/contract.hh; they report through detail::checkFailed
 * (expression + file:line).
 */

#ifndef COSCALE_COMMON_LOG_HH
#define COSCALE_COMMON_LOG_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/thread_annotations.hh"

namespace coscale {

/**
 * Thrown by panic()/failed checks when PanicBehavior::Throw is
 * active. Carries the formatted message plus the reporting site.
 */
class CheckFailure : public std::runtime_error
{
  public:
    CheckFailure(const std::string &msg, const char *file, int line)
        : std::runtime_error(msg), srcFile(file), srcLine(line)
    {
    }

    const char *file() const { return srcFile; }
    int line() const { return srcLine; }

  private:
    const char *srcFile;
    int srcLine;
};

/** What logPanic does after printing the message. */
enum class PanicBehavior
{
    Abort,  //!< std::abort() (the default; production behaviour)
    Throw,  //!< throw CheckFailure (test harnesses)
};

/** Set the global panic behaviour; returns the previous one. */
PanicBehavior setPanicBehavior(PanicBehavior b);

/** The currently active panic behaviour. */
PanicBehavior panicBehavior();

/**
 * RAII guard switching panic() to throw CheckFailure for a scope.
 * Death-free testing of invariant violations:
 *
 *   ScopedPanicThrow guard;
 *   EXPECT_THROW(auditor.onCommand(bad), CheckFailure);
 */
class ScopedPanicThrow
{
  public:
    ScopedPanicThrow() : prev(setPanicBehavior(PanicBehavior::Throw)) {}
    ~ScopedPanicThrow() { setPanicBehavior(prev); }
    ScopedPanicThrow(const ScopedPanicThrow &) = delete;
    ScopedPanicThrow &operator=(const ScopedPanicThrow &) = delete;

  private:
    PanicBehavior prev;
};

namespace detail {

[[noreturn]] void logFatal(const std::string &msg);
// Never returns normally: aborts or throws CheckFailure per the
// active PanicBehavior.
[[noreturn]] void logPanic(const std::string &msg,
                           const char *file, int line);
void logInform(const std::string &msg);
void logWarn(const std::string &msg);

/** Report a failed invariant check (expression only). */
[[noreturn]] void checkFailed(const char *expr, const char *file,
                              int line);

/** Report a failed invariant check with a formatted explanation. */
[[noreturn]] void checkFailed(const char *expr, const char *file,
                              int line, const std::string &msg);

/**
 * True the first time @p key is seen in this process. Thread-safe:
 * the seen-key set is guarded by the logger's mutex, so concurrent
 * engine workers racing on the same key elect exactly one winner.
 */
bool shouldWarnOnce(const std::string &key);

std::string formatString(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace detail

/** Print an informational message to stderr. */
template <typename... Args>
void
inform(const char *fmt, Args... args)
{
    detail::logInform(detail::formatString(fmt, args...));
}

/** Print a warning to stderr. Simulation continues. */
template <typename... Args>
void
warn(const char *fmt, Args... args)
{
    detail::logWarn(detail::formatString(fmt, args...));
}

/**
 * Like warn(), but each distinct @p key prints at most once per
 * process — for diagnostics that would otherwise repeat per worker
 * thread or per request in a large engine batch.
 */
template <typename... Args>
void
warnOnce(const std::string &key, const char *fmt, Args... args)
{
    if (detail::shouldWarnOnce(key))
        detail::logWarn(detail::formatString(fmt, args...));
}

/** Terminate due to a user error (bad config, bad arguments). */
template <typename... Args>
[[noreturn]] void
fatal(const char *fmt, Args... args)
{
    detail::logFatal(detail::formatString(fmt, args...));
}

/**
 * Terminate successfully after an informational code path (--help).
 * Lives here so every process-exit site sits in this one audited
 * file; the lint rule `raw-assert` bans std::exit anywhere else.
 */
[[noreturn]] inline void
exitCleanly()
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe): only reached from single-threaded CLI parsing (--help)
    std::exit(0);
}

/** Terminate due to an internal bug (abort or CheckFailure). */
#define coscale_panic(...)                                                 \
    ::coscale::detail::logPanic(                                           \
        ::coscale::detail::formatString(__VA_ARGS__), __FILE__, __LINE__)

} // namespace coscale

#endif // COSCALE_COMMON_LOG_HH
