/**
 * @file
 * hr_bench's self-profiling suite (`hr_bench perf`).
 *
 * Times representative simulator workloads — raw core throughput, the
 * cache hot path, machine construction vs snapshot/restore, the
 * pooled trial path, quick runs of representative figures, and sweep
 * point throughput — and emits the BENCH_hr_perf.json trajectory file
 * every future PR's performance answers to.
 *
 * Comparison against a committed baseline is cross-machine tolerant:
 * the `host_speed` suite measures a fixed pure-CPU spin, and suites
 * marked `normalize` are scaled by the host-speed ratio before the
 * regression tolerance applies. Ratio suites (unit "x") compare
 * directly.
 */

#ifndef HR_EXP_PERF_HH
#define HR_EXP_PERF_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace hr
{

/** One measured suite. */
struct PerfSuite
{
    std::string name;   ///< stable identifier, e.g. "core_throughput"
    std::string metric; ///< human description of what value measures
    std::string unit;   ///< "/s", "s", or "x" (dimensionless ratio)
    double value = 0;
    double wallSeconds = 0;   ///< total measurement wall time
    long long iterations = 0; ///< work items timed
    bool higherIsBetter = true;
    bool normalize = false; ///< scale by host-speed ratio when comparing

    /**
     * Per-suite regression tolerance (fraction) overriding the global
     * --tolerance when > 0. Low-variance hot-path suites gate tighter
     * than the default 25%, so a real regression cannot erode them
     * silently; ratio suites get more slack.
     */
    double tolerance = 0;
};

/** Knobs for one perf run. */
struct PerfOptions
{
    bool quick = false;      ///< CI-sized measurement budgets
    std::uint64_t seed = 1;  ///< seed for workload construction
    std::vector<std::string> only; ///< suite name filter (empty = all)

    /** Progress sink (stderr in table mode; never stdout). */
    std::function<void(const std::string &)> progress;
};

/** Baseline values parsed back out of a BENCH_hr_perf.json. */
struct PerfBaselineEntry
{
    std::string name;
    double value = 0;
    bool higherIsBetter = true;
    bool normalize = false;
    double tolerance = 0; ///< per-suite override recorded in the file
};

/** Outcome of a baseline comparison. */
struct PerfComparison
{
    bool passed = true;
    std::string report; ///< one line per suite
};

/** Run the (optionally filtered) suites. */
std::vector<PerfSuite> runPerfSuites(const PerfOptions &options);

/** Render the BENCH_hr_perf.json document. */
std::string renderPerfJson(const std::vector<PerfSuite> &suites,
                           bool quick);

/**
 * Parse the suites out of a BENCH_hr_perf.json document (the format
 * renderPerfJson writes). fatal()s on documents without a suites
 * array.
 */
std::vector<PerfBaselineEntry>
parsePerfBaseline(const std::string &json);

/**
 * Compare measured suites against a baseline: a suite fails when it
 * is more than `tolerance` (fraction, e.g. 0.25) worse than the
 * host-speed-normalized baseline value. A per-suite tolerance (from
 * the current measurement, else the baseline file) overrides the
 * global one. Suites missing from the baseline are reported but
 * never fail.
 */
PerfComparison comparePerf(const std::vector<PerfSuite> &current,
                           const std::vector<PerfBaselineEntry> &baseline,
                           double tolerance);

} // namespace hr

#endif // HR_EXP_PERF_HH
