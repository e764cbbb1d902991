/**
 * @file
 * Flight recorder: per-thread ring-buffer trace events with Chrome
 * trace-event / Perfetto JSON export.
 *
 * The recorder is off by default and compile-time cheap when off:
 * every macro guards on one relaxed atomic load and a predictable
 * branch, performs zero allocations, and touches no shared state.
 * When enabled, each thread writes fixed-capacity POD rings
 * (overwrite-oldest; overflow is counted, never blocks), registered
 * lazily under a mutex. An epoch counter invalidates the cached
 * thread-local ring pointer whenever enable() recycles the rings, so
 * long-lived worker threads can never write through a stale pointer.
 *
 * Export happens after worker threads have joined (the runner and
 * sweep engines join before returning), so reading the rings races
 * with nothing. Two trace "processes" appear in the output: pid 1 is
 * wall time (one track per recording thread), pid 2 is simulated time
 * (per-context cycle counter tracks fed by HR_TRACE_COUNTER).
 *
 * Event names and categories MUST be string literals (or otherwise
 * outlive the recorder) — the rings store the pointers.
 *
 * Instrumentation contract: never call Machine operations from
 * instrumentation code — a run() or poke() would change simulated
 * state and append ops to an analyzer recording. Read raw internal
 * state (RunResult fields, stats members) instead.
 */

#ifndef HR_OBS_TRACE_HH
#define HR_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace hr
{

/** One recorded event; POD so ring writes are a plain struct copy. */
struct TraceEvent
{
    const char *name = nullptr;     //!< string literal
    const char *category = nullptr; //!< string literal
    char phase = 'i';               //!< 'X' complete, 'i' instant, 'C' counter
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
    const char *argName0 = nullptr;
    std::uint64_t arg0 = 0;
    const char *argName1 = nullptr;
    std::uint64_t arg1 = 0;
};

/** Process-wide flight recorder (all static; state lives in .cc). */
class TraceRecorder
{
  public:
    static constexpr std::size_t kDefaultRingCapacity = 1U << 16U;

    /** One relaxed load; the only cost every disabled call site pays. */
    static bool
    enabledFast()
    {
        return gEnabled.load(std::memory_order_relaxed);
    }

    /** Drop any previous rings, reset the clock origin, start recording. */
    static void enable(std::size_t ringCapacity = kDefaultRingCapacity);

    /** Stop recording; rings are kept for export. */
    static void disable();

    /** Free all rings and reset counters (recording must be off). */
    static void clear();

    /** Nanoseconds since the enable() origin (monotonic). */
    static std::uint64_t nowNs();

    /** Events overwritten because a ring wrapped, across all rings. */
    static std::uint64_t droppedEvents();

    /** Events currently held in rings, across all rings. */
    static std::uint64_t bufferedEvents();

    static void emitComplete(const char *category, const char *name,
                             std::uint64_t startNs);
    static void emitInstant(const char *category, const char *name,
                            const char *argName0 = nullptr,
                            std::uint64_t arg0 = 0,
                            const char *argName1 = nullptr,
                            std::uint64_t arg1 = 0);

    /**
     * Simulated-time counter sample: renders on pid 2 as a Perfetto
     * counter track named "<name>.ctx<ctx>" with value @p value.
     */
    static void emitCounter(const char *category, const char *name,
                            std::uint64_t ctx, std::uint64_t value);

    /** Chrome trace-event JSON ({"traceEvents": [...]}). */
    static std::string renderChromeTrace();

    /**
     * Render to @p path; also folds the recorder's dropped-event count
     * into the trace.events_dropped metric.
     */
    static void writeChromeTrace(const std::string &path);

  private:
    static std::atomic<bool> gEnabled;
};

/** RAII wall-time span; emits one 'X' complete event on destruction. */
class TraceScope
{
  public:
    TraceScope(const char *category, const char *name)
    {
        if (TraceRecorder::enabledFast()) {
            category_ = category;
            name_ = name;
            startNs_ = TraceRecorder::nowNs();
            active_ = true;
        }
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    ~TraceScope()
    {
        if (active_)
            TraceRecorder::emitComplete(category_, name_, startNs_);
    }

  private:
    const char *category_ = nullptr;
    const char *name_ = nullptr;
    std::uint64_t startNs_ = 0;
    bool active_ = false;
};

} // namespace hr

#define HR_OBS_CONCAT_INNER(a, b) a##b
#define HR_OBS_CONCAT(a, b) HR_OBS_CONCAT_INNER(a, b)

/** Whether the flight recorder is currently on (one relaxed load). */
#define HR_TRACE_ENABLED() (::hr::TraceRecorder::enabledFast())

/** Wall-time span covering the rest of the enclosing scope. */
#define HR_TRACE_SCOPE(category, name)                                 \
    const ::hr::TraceScope HR_OBS_CONCAT(hrTraceScope_, __LINE__)      \
    {                                                                  \
        (category), (name)                                             \
    }

/** Zero-duration marker. */
#define HR_TRACE_INSTANT(category, name)                               \
    do {                                                               \
        if (::hr::TraceRecorder::enabledFast())                        \
            ::hr::TraceRecorder::emitInstant((category), (name));      \
    } while (0)

/** Marker with one named integer argument. */
#define HR_TRACE_INSTANT1(category, name, k0, v0)                      \
    do {                                                               \
        if (::hr::TraceRecorder::enabledFast())                        \
            ::hr::TraceRecorder::emitInstant(                          \
                (category), (name), (k0),                              \
                static_cast<std::uint64_t>(v0));                       \
    } while (0)

/** Marker with two named integer arguments. */
#define HR_TRACE_INSTANT2(category, name, k0, v0, k1, v1)              \
    do {                                                               \
        if (::hr::TraceRecorder::enabledFast())                        \
            ::hr::TraceRecorder::emitInstant(                          \
                (category), (name), (k0),                              \
                static_cast<std::uint64_t>(v0), (k1),                  \
                static_cast<std::uint64_t>(v1));                       \
    } while (0)

/** Simulated-time counter sample (pid 2 track "<name>.ctx<ctx>"). */
#define HR_TRACE_COUNTER(category, name, ctx, value)                   \
    do {                                                               \
        if (::hr::TraceRecorder::enabledFast())                        \
            ::hr::TraceRecorder::emitCounter(                          \
                (category), (name),                                    \
                static_cast<std::uint64_t>(ctx),                       \
                static_cast<std::uint64_t>(value));                    \
    } while (0)

#endif // HR_OBS_TRACE_HH
