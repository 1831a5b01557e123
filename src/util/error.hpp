/// @file
/// Error handling primitives for tgl.
///
/// Following the gem5 fatal/panic split:
///  * user-caused failures (bad files, invalid configuration) throw
///    tgl::util::Error so callers can recover or report;
///  * internal invariant violations use TGL_ASSERT / TGL_PANIC, which
///    abort — they indicate a bug in tgl itself, never user error.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace tgl::util {

/// Exception thrown for user-recoverable errors (bad input files,
/// invalid configurations, out-of-range hyperparameters).
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A failure that is expected to succeed if simply tried again
/// (EINTR/EAGAIN-style I/O hiccups, injected transient faults).
/// util::retry_transient() retries exactly this type; every other
/// Error is terminal and propagates on the first throw.
class TransientError : public Error
{
  public:
    explicit TransientError(const std::string& what) : Error(what) {}
};

/// Cooperative-cancellation signal (SIGINT/SIGTERM).
/// Distinct from Error recovery paths: checkpoint loaders and retry
/// loops must always propagate it instead of degrading or retrying.
class Cancelled : public Error
{
  public:
    explicit Cancelled(const std::string& what) : Error(what) {}
};

/// Throw a tgl::util::Error with a formatted message.
[[noreturn]] inline void
fatal(const std::string& message)
{
    throw Error(message);
}

namespace detail {

[[noreturn]] inline void
panic_impl(const char* cond, const char* file, int line, const char* msg)
{
    std::fprintf(stderr, "tgl panic: %s at %s:%d%s%s\n",
                 cond, file, line, msg[0] ? ": " : "", msg);
    std::abort();
}

} // namespace detail

} // namespace tgl::util

/// Abort with a diagnostic; use only for internal bugs, never user error.
#define TGL_PANIC(msg) \
    ::tgl::util::detail::panic_impl("panic", __FILE__, __LINE__, msg)

/// Assert an internal invariant. Active in all build types: the cost is
/// negligible outside hot loops, and hot loops use TGL_DASSERT instead.
#define TGL_ASSERT(cond)                                                     \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::tgl::util::detail::panic_impl(#cond, __FILE__, __LINE__, ""); \
        }                                                                    \
    } while (0)

/// Debug-only assert for hot paths; compiles away in NDEBUG builds.
#ifdef NDEBUG
#define TGL_DASSERT(cond) ((void)0)
#else
#define TGL_DASSERT(cond) TGL_ASSERT(cond)
#endif
