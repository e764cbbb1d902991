/**
 * @file
 * Tiny leveled logger behind every stderr diagnostic, and the
 * gem5-style error/status helpers: panic() for internal invariant
 * violations, fatal() for user/configuration errors, warn()/inform()
 * for status output.
 *
 * HR_LOG(level, fmt, ...) prints the caller's text verbatim (no added
 * prefixes, no reordering) when `level` is at or below the active
 * threshold, so routing an existing fprintf(stderr, ...) through it
 * leaves the default output byte-identical. The threshold comes from
 * `--log-level` (setLogLevel) or the HR_LOG_LEVEL environment variable
 * (error | warn | info | debug); the default is `info`, which keeps
 * every pre-existing diagnostic exactly as it was.
 *
 * The disabled-level cost is one relaxed atomic load and a predictable
 * branch — cheap enough for per-trial call sites.
 */

#ifndef HR_OBS_LOG_HH
#define HR_OBS_LOG_HH

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace hr
{

/** Severity levels, most severe first. */
enum class LogLevel
{
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

namespace obs_detail
{
/** Active threshold; -1 = not yet initialized from HR_LOG_LEVEL. */
extern std::atomic<int> gLogLevel;

/** Resolve (and cache) the threshold from HR_LOG_LEVEL. */
int initLogLevel();
} // namespace obs_detail

/** The active threshold (lazy HR_LOG_LEVEL init on first call). */
inline LogLevel
logLevel()
{
    const int level =
        obs_detail::gLogLevel.load(std::memory_order_relaxed);
    return static_cast<LogLevel>(level >= 0
                                     ? level
                                     : obs_detail::initLogLevel());
}

/** Override the threshold (the --log-level flag). */
void setLogLevel(LogLevel level);

/** Parse "error" / "warn" / "info" / "debug" (fatal otherwise). */
LogLevel logLevelFromName(const std::string &name);
std::string logLevelName(LogLevel level);

/** Whether a message at @p level would currently print. */
inline bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) <= static_cast<int>(logLevel());
}

/** printf to stderr, verbatim (never call directly; use HR_LOG). */
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 1, 2)))
#endif
void logPrint(const char *fmt, ...);

/** Lowercase aliases so HR_LOG(warn, ...) reads naturally. */
namespace loglevel
{
constexpr LogLevel error = LogLevel::Error;
constexpr LogLevel warn = LogLevel::Warn;
constexpr LogLevel info = LogLevel::Info;
constexpr LogLevel debug = LogLevel::Debug;
} // namespace loglevel

} // namespace hr

/**
 * Leveled stderr diagnostic: HR_LOG(warn, "warn: %s\n", msg.c_str()).
 * The level is a bare LogLevel enumerator name (error/warn/info/debug);
 * the rest is printf. Output is the caller's formatting, verbatim.
 */
#define HR_LOG(level, ...)                                             \
    do {                                                               \
        if (::hr::logEnabled(::hr::loglevel::level))                   \
            ::hr::logPrint(__VA_ARGS__);                               \
    } while (0)

namespace hr
{

/** Internal simulator bug: abort with a message. */
[[noreturn]] inline void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

/** User/configuration error: throw so callers (and tests) may catch. */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    throw std::runtime_error("fatal: " + msg);
}

/** Non-fatal suspicious condition (leveled, like HR_LOG). */
inline void
warn(const std::string &msg)
{
    HR_LOG(warn, "warn: %s\n", msg.c_str());
}

/**
 * Normal operating status message. Stays on stdout (part of some
 * commands' expected output) but honors the info log level.
 */
inline void
inform(const std::string &msg)
{
    if (logEnabled(LogLevel::Info))
        std::fprintf(stdout, "info: %s\n", msg.c_str());
}

/** panic() unless the invariant holds. */
inline void
panicIf(bool cond, const std::string &msg)
{
    if (cond)
        panic(msg);
}

/** fatal() unless the user-facing condition holds. */
inline void
fatalIf(bool cond, const std::string &msg)
{
    if (cond)
        fatal(msg);
}

} // namespace hr

#endif // HR_OBS_LOG_HH
