/**
 * @file
 * Observability plane (src/obs/): flight-recorder ring semantics and
 * trace-JSON shape, metrics-registry determinism, the leveled logger,
 * and — the invariant everything else hangs off — that enabling
 * tracing or telemetry never changes scenario/sweep output.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/sweep.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/trace.hh"

namespace hr
{
namespace
{

/** A small but real gadget sweep (pooled, reseeded per point). */
SweepOptions
smallSweep(int jobs, const std::string &profile)
{
    SweepOptions options;
    options.gadget = "arith_magnifier";
    options.profile = profile;
    options.trials = 2;
    options.jobs = jobs;
    options.seed = 7;
    options.grid.push_back(parseSweepAxis("stages=200:400:100"));
    return options;
}

std::string
sweepOutput(int jobs, const std::string &profile)
{
    return runSweep(smallSweep(jobs, profile)).render(Format::Json);
}

TEST(ObsLog, LevelNamesRoundTrip)
{
    EXPECT_EQ(logLevelFromName("error"), LogLevel::Error);
    EXPECT_EQ(logLevelFromName("warn"), LogLevel::Warn);
    EXPECT_EQ(logLevelFromName("info"), LogLevel::Info);
    EXPECT_EQ(logLevelFromName("debug"), LogLevel::Debug);
    EXPECT_EQ(logLevelName(LogLevel::Warn), "warn");
    EXPECT_THROW(logLevelFromName("verbose"), std::exception);
}

TEST(ObsLog, ThresholdGatesBySeverity)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Warn);
    EXPECT_TRUE(logEnabled(LogLevel::Error));
    EXPECT_TRUE(logEnabled(LogLevel::Warn));
    EXPECT_FALSE(logEnabled(LogLevel::Info));
    EXPECT_FALSE(logEnabled(LogLevel::Debug));
    setLogLevel(LogLevel::Debug);
    EXPECT_TRUE(logEnabled(LogLevel::Debug));
    setLogLevel(before);
}

TEST(ObsTrace, DisabledByDefaultAndEmpty)
{
    EXPECT_FALSE(HR_TRACE_ENABLED());
    EXPECT_EQ(TraceRecorder::bufferedEvents(), 0u);
    EXPECT_EQ(TraceRecorder::droppedEvents(), 0u);
}

TEST(ObsTrace, RingWrapsAndCountsDrops)
{
    TraceRecorder::enable(8);
    for (int i = 0; i < 20; ++i)
        TraceRecorder::emitInstant("test", "test.tick");
    TraceRecorder::disable();
    EXPECT_EQ(TraceRecorder::bufferedEvents(), 8u);
    EXPECT_EQ(TraceRecorder::droppedEvents(), 12u);
    TraceRecorder::clear();
    EXPECT_EQ(TraceRecorder::bufferedEvents(), 0u);
    EXPECT_EQ(TraceRecorder::droppedEvents(), 0u);
}

TEST(ObsTrace, ChromeTraceJsonShape)
{
    TraceRecorder::enable();
    TraceRecorder::emitComplete("test", "test.span",
                                TraceRecorder::nowNs());
    TraceRecorder::emitInstant("test", "test.mark", "k", 42);
    TraceRecorder::emitCounter("test", "test.cycles", 3, 1000);
    TraceRecorder::disable();
    const std::string json = TraceRecorder::renderChromeTrace();
    TraceRecorder::clear();

    EXPECT_EQ(json.rfind("{\"traceEvents\":", 0), 0u);
    EXPECT_EQ(json.back(), '\n');
    // Balanced nesting (no quoting subtleties: values are numeric).
    long depth = 0;
    for (char c : json) {
        depth += c == '{' || c == '[';
        depth -= c == '}' || c == ']';
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);

    // One of each phase, with the documented track layout.
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"test.mark\""), std::string::npos);
    EXPECT_NE(json.find("\"k\": 42"), std::string::npos);
    // Counter samples land on the simulated-time process (pid 2) as a
    // per-context track.
    EXPECT_NE(json.find("\"name\": \"test.cycles.ctx3\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"simulated\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"wall\""), std::string::npos);
}

TEST(ObsTrace, MacrosAreInertWhenDisabled)
{
    ASSERT_FALSE(HR_TRACE_ENABLED());
    HR_TRACE_INSTANT("test", "test.never");
    HR_TRACE_COUNTER("test", "test.never", 0, 1);
    {
        HR_TRACE_SCOPE("test", "test.never");
    }
    EXPECT_EQ(TraceRecorder::bufferedEvents(), 0u);
}

TEST(ObsTrace, SweepOutputIdenticalWithTracingOn)
{
    const std::string plain = sweepOutput(1, "default");
    TraceRecorder::enable();
    const std::string traced = sweepOutput(1, "default");
    TraceRecorder::disable();
    EXPECT_GT(TraceRecorder::bufferedEvents(), 0u);
    TraceRecorder::clear();
    EXPECT_EQ(plain, traced);

    const std::string noisy_plain = sweepOutput(1, "noisy");
    TraceRecorder::enable();
    const std::string noisy_traced = sweepOutput(1, "noisy");
    TraceRecorder::disable();
    TraceRecorder::clear();
    EXPECT_EQ(noisy_plain, noisy_traced);
}

TEST(ObsTrace, SweepOutputIdenticalAcrossJobsWithTracingOn)
{
    const std::string j1 = sweepOutput(1, "default");
    TraceRecorder::enable();
    const std::string j4 = sweepOutput(4, "default");
    TraceRecorder::disable();
    TraceRecorder::clear();
    EXPECT_EQ(j1, j4);
}

TEST(ObsMetrics, SnapshotIsNameSortedAndTyped)
{
    const std::vector<MetricSample> rows = metrics().snapshot();
    ASSERT_FALSE(rows.empty());
    for (std::size_t i = 1; i < rows.size(); ++i)
        EXPECT_LT(rows[i - 1].name, rows[i].name);
    bool saw_hist = false;
    for (const MetricSample &row : rows) {
        EXPECT_TRUE(row.kind == "counter" || row.kind == "gauge" ||
                    row.kind == "histogram");
        // Naming contract: subsystem.noun_verb (lowercase).
        const auto dot = row.name.find('.');
        ASSERT_NE(dot, std::string::npos) << row.name;
        for (char c : row.name)
            EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '.' || c == '_')
                << row.name;
        saw_hist |= row.kind == "histogram";
    }
    EXPECT_TRUE(saw_hist);
}

TEST(ObsMetrics, RepeatRunsSnapshotIdentically)
{
    metrics().resetAll();
    sweepOutput(1, "default");
    const std::string first = renderMetricsJson(metrics().snapshot());
    metrics().resetAll();
    sweepOutput(1, "default");
    const std::string second = renderMetricsJson(metrics().snapshot());
    EXPECT_EQ(first, second);
    EXPECT_NE(first, "{}");
}

TEST(ObsMetrics, LogicalClassIsJobsInvariant)
{
    metrics().resetAll();
    sweepOutput(1, "default");
    const std::string j1 =
        renderMetricsJson(metrics().snapshot(/*logicalOnly=*/true));
    metrics().resetAll();
    sweepOutput(4, "default");
    const std::string j4 =
        renderMetricsJson(metrics().snapshot(/*logicalOnly=*/true));
    EXPECT_EQ(j1, j4);
    EXPECT_NE(j1.find("sweep.points_total"), std::string::npos);
}

TEST(ObsMetrics, ResetClearsEverything)
{
    metrics().machineRuns.add(3);
    metrics().machineRunInstrs.observe(100);
    metrics().runnerJobsConfigured.set(8);
    metrics().resetAll();
    for (const MetricSample &row : metrics().snapshot()) {
        EXPECT_EQ(row.value, 0u) << row.name;
        EXPECT_EQ(row.sum, 0u) << row.name;
    }
}

TEST(ObsMetrics, HistogramCountsAndSums)
{
    metrics().resetAll();
    metrics().machineRunInstrs.observe(1);
    metrics().machineRunInstrs.observe(10);
    metrics().machineRunInstrs.observe(1000);
    EXPECT_EQ(metrics().machineRunInstrs.count(), 3u);
    EXPECT_EQ(metrics().machineRunInstrs.sum(), 1011u);
    metrics().resetAll();
}

TEST(ObsProgress, HeartbeatsAreMilestoneDeterministic)
{
    metrics().resetAll();
    ProgressSink &sink = ProgressSink::instance();
    sink.configure("/dev/null");
    sink.beginTask("unit", 64, 1);
    for (int i = 0; i < 64; ++i)
        sink.advance();
    sink.endTask();
    sink.configure("");
    // 64 advances over 16 milestones: one heartbeat per milestone,
    // independent of interleaving.
    EXPECT_EQ(metrics().progressHeartbeats.value(),
              ProgressSink::kMilestones);
    EXPECT_FALSE(sink.activeFast());
    metrics().resetAll();
}

} // namespace
} // namespace hr
