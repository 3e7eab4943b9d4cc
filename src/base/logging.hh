/**
 * @file
 * Error reporting helpers, in the spirit of gem5's base/logging.hh.
 *
 * panic() - an internal invariant was violated (a bug in this library);
 *           aborts so a debugger or core dump can capture the state.
 * fatal() - the run cannot continue because of a user error (bad
 *           configuration, malformed program); exits with code 1.
 *
 * Both write one line to stderr and end the process.  Library code
 * writes nothing to stdout, which belongs to the frontends; counts and
 * timings go to the metric registry and the tracer (obs/), whose spans
 * are stamped with monotonicNanos().
 */

#ifndef GAM_BASE_LOGGING_HH
#define GAM_BASE_LOGGING_HH

#include <cstdint>
#include <string>

namespace gam
{

/**
 * Nanoseconds on the steady clock since a process-wide epoch (the
 * first call).  The trace spans' clock.
 */
uint64_t monotonicNanos();

/** Render a printf-style format string into a std::string. */
std::string formatString(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an internal bug and abort. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an unrecoverable user error and exit(1). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Assert-like helper carrying a formatted message.  Unlike assert() this
 * is active in all build types: memory-model checkers must not silently
 * accept corrupted state in release builds.
 */
#define GAM_ASSERT(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::gam::panic("assertion '%s' failed at %s:%d: %s", #cond,       \
                         __FILE__, __LINE__,                                \
                         ::gam::formatString(__VA_ARGS__).c_str());         \
        }                                                                   \
    } while (0)

} // namespace gam

#endif // GAM_BASE_LOGGING_HH
