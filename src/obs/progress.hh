/**
 * @file
 * Streaming run telemetry: an opt-in JSON-lines progress sink.
 *
 * `--progress=stderr|FILE` turns it on; off (the default) every call
 * site pays one relaxed atomic load. Records go to stderr or a file —
 * never stdout — so scenario/sweep stdout stays byte-identical with
 * telemetry on.
 *
 * Heartbeats are milestone-based rather than time-based: a heartbeat
 * is emitted when the completed count first crosses each of 16 evenly
 * spaced milestones, and the `done`/`total` fields are computed from
 * the milestone (not the racy live counter). That makes the number,
 * order, and deterministic fields of the records reproducible at any
 * `--jobs`; only the wall-clock fields (`rate_per_s`, `eta_s`,
 * `wall_s`) vary run to run.
 */

#ifndef HR_OBS_PROGRESS_HH
#define HR_OBS_PROGRESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace hr
{

class ProgressSink
{
  public:
    static constexpr std::uint64_t kMilestones = 16;

    static ProgressSink &instance();

    /**
     * Route records to @p dest: "" disables, "stderr" streams to
     * stderr, anything else is opened as a file (truncated).
     */
    void configure(const std::string &dest);

    bool
    activeFast() const
    {
        return active_.load(std::memory_order_relaxed);
    }

    /** Start a task; emits a task_start record. */
    void beginTask(const char *name, std::uint64_t total, int jobs);

    /** Mark @p n more units done; may emit a heartbeat record. */
    void advance(std::uint64_t n = 1);

    /** Finish the current task; emits a task_end record. */
    void endTask();

  private:
    ProgressSink() = default;

    void writeLine(const std::string &line);

    std::atomic<bool> active_{false};
    std::atomic<std::uint64_t> done_{0};

    std::mutex mutex_;
    std::FILE *out_ = nullptr;
    bool ownsFile_ = false;
    std::string task_;
    std::uint64_t total_ = 0;
    std::uint64_t lastMilestone_ = 0;
    std::chrono::steady_clock::time_point taskStart_;
};

/** Shorthand used by instrumented loops. */
inline void
progressAdvance(std::uint64_t n = 1)
{
    ProgressSink &sink = ProgressSink::instance();
    if (sink.activeFast())
        sink.advance(n);
}

} // namespace hr

#endif // HR_OBS_PROGRESS_HH
