#include "obs/log.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hr
{

namespace obs_detail
{

std::atomic<int> gLogLevel{-1};

int
initLogLevel()
{
    int resolved = static_cast<int>(LogLevel::Info);
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once, before workers.
    const char *env = std::getenv("HR_LOG_LEVEL");
    if (env != nullptr && env[0] != '\0') {
        if (std::strcmp(env, "error") == 0)
            resolved = static_cast<int>(LogLevel::Error);
        else if (std::strcmp(env, "warn") == 0)
            resolved = static_cast<int>(LogLevel::Warn);
        else if (std::strcmp(env, "info") == 0)
            resolved = static_cast<int>(LogLevel::Info);
        else if (std::strcmp(env, "debug") == 0)
            resolved = static_cast<int>(LogLevel::Debug);
        // An unknown value keeps the default rather than aborting:
        // the env var must never make a working invocation fatal.
    }

    int expected = -1;
    gLogLevel.compare_exchange_strong(expected, resolved,
                                      std::memory_order_relaxed);
    return gLogLevel.load(std::memory_order_relaxed);
}

} // namespace obs_detail

void
setLogLevel(LogLevel level)
{
    obs_detail::gLogLevel.store(static_cast<int>(level),
                                std::memory_order_relaxed);
}

LogLevel
logLevelFromName(const std::string &name)
{
    if (name == "error")
        return LogLevel::Error;
    if (name == "warn")
        return LogLevel::Warn;
    if (name == "info")
        return LogLevel::Info;
    if (name == "debug")
        return LogLevel::Debug;
    fatal("unknown log level '" + name +
          "' (expected error, warn, info, or debug)");
}

std::string
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Error:
        return "error";
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Info:
        return "info";
      case LogLevel::Debug:
        return "debug";
    }
    return "info";
}

void
logPrint(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
}

} // namespace hr
