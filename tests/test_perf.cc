/**
 * @file
 * Perf-suite plumbing tests: JSON render/parse round trip and the
 * baseline comparison rules (tolerance, direction, host-speed
 * normalization). The timing loops themselves are exercised through
 * one cheap real suite.
 */

#include <gtest/gtest.h>

#include "exp/perf.hh"

namespace hr
{
namespace
{

PerfSuite
suite(const std::string &name, double value, const std::string &unit,
      bool higher, bool normalize)
{
    PerfSuite s;
    s.name = name;
    s.metric = "metric of " + name;
    s.unit = unit;
    s.value = value;
    s.wallSeconds = 0.1;
    s.iterations = 10;
    s.higherIsBetter = higher;
    s.normalize = normalize;
    return s;
}

std::vector<PerfSuite>
sampleSuites()
{
    return {
        suite("host_speed", 1e8, "/s", true, false),
        suite("core_throughput", 5e6, "/s", true, true),
        suite("trace_overhead", 1.0, "x", true, false),
        suite("fig08_quick_wall", 0.5, "s", false, true),
    };
}

TEST(Perf, JsonRoundTripPreservesSuites)
{
    const std::vector<PerfSuite> suites = sampleSuites();
    const std::string json = renderPerfJson(suites, true);
    const std::vector<PerfBaselineEntry> parsed =
        parsePerfBaseline(json);
    ASSERT_EQ(parsed.size(), suites.size());
    for (std::size_t i = 0; i < suites.size(); ++i) {
        EXPECT_EQ(parsed[i].name, suites[i].name);
        EXPECT_NEAR(parsed[i].value, suites[i].value,
                    suites[i].value * 1e-9);
        EXPECT_EQ(parsed[i].higherIsBetter, suites[i].higherIsBetter);
        EXPECT_EQ(parsed[i].normalize, suites[i].normalize);
    }
}

TEST(Perf, ParseRejectsDocumentsWithoutSuites)
{
    EXPECT_THROW(parsePerfBaseline("{\"schema\": \"hr_perf/v1\"}"),
                 std::exception);
}

TEST(Perf, CompareWithinTolerancePasses)
{
    const std::vector<PerfSuite> current = sampleSuites();
    const std::vector<PerfBaselineEntry> baseline =
        parsePerfBaseline(renderPerfJson(current, true));
    const PerfComparison cmp = comparePerf(current, baseline, 0.25);
    EXPECT_TRUE(cmp.passed) << cmp.report;
}

TEST(Perf, CompareFlagsRegressions)
{
    std::vector<PerfSuite> current = sampleSuites();
    const std::vector<PerfBaselineEntry> baseline =
        parsePerfBaseline(renderPerfJson(current, true));

    // Higher-is-better: a 50% drop fails at 25% tolerance.
    current[1].value *= 0.5;
    EXPECT_FALSE(comparePerf(current, baseline, 0.25).passed);
    current[1].value /= 0.5;

    // Lower-is-better: a 2x wall-time increase fails.
    current[3].value *= 2.0;
    const PerfComparison cmp = comparePerf(current, baseline, 0.25);
    EXPECT_FALSE(cmp.passed);
    EXPECT_NE(cmp.report.find("FAIL"), std::string::npos);
    EXPECT_NE(cmp.report.find("fig08_quick_wall"), std::string::npos);
}

TEST(Perf, CompareNormalizesByHostSpeed)
{
    std::vector<PerfSuite> current = sampleSuites();
    const std::vector<PerfBaselineEntry> baseline =
        parsePerfBaseline(renderPerfJson(current, true));

    // A host 2x slower: normalized throughput halves and wall time
    // doubles — both should still pass...
    current[0].value *= 0.5;
    current[1].value *= 0.5;
    current[3].value *= 2.0;
    EXPECT_TRUE(comparePerf(current, baseline, 0.25).passed);

    // ...but the unnormalized ratio suite gets no such slack.
    current[2].value *= 0.5;
    EXPECT_FALSE(comparePerf(current, baseline, 0.25).passed);
}

TEST(Perf, PerSuiteToleranceOverridesGlobal)
{
    // Batch suites carry a tighter tolerance than the CLI-wide 25%;
    // the override must round-trip through the JSON baseline and win
    // over the global value on both sides of the comparison.
    std::vector<PerfSuite> current = sampleSuites();
    current[1].tolerance = 0.10;
    const std::vector<PerfBaselineEntry> baseline =
        parsePerfBaseline(renderPerfJson(current, true));
    ASSERT_EQ(baseline[1].tolerance, 0.10);
    ASSERT_EQ(baseline[0].tolerance, 0.0); // unset stays global

    // A 15% drop passes the global 25% but fails the suite's 10%.
    current[1].value *= 0.85;
    EXPECT_FALSE(comparePerf(current, baseline, 0.25).passed);

    // The current run's tolerance wins even when the baseline entry
    // predates the override (e.g. a freshly tightened suite).
    std::vector<PerfSuite> loose = sampleSuites();
    const std::vector<PerfBaselineEntry> old_baseline =
        parsePerfBaseline(renderPerfJson(loose, true));
    std::vector<PerfSuite> tightened = sampleSuites();
    tightened[1].tolerance = 0.10;
    tightened[1].value *= 0.85;
    EXPECT_FALSE(comparePerf(tightened, old_baseline, 0.25).passed);

    // And within the override, it passes.
    tightened[1].value = sampleSuites()[1].value * 0.95;
    EXPECT_TRUE(comparePerf(tightened, old_baseline, 0.25).passed);
}

TEST(Perf, CompareIgnoresSuitesMissingFromBaseline)
{
    std::vector<PerfSuite> current = sampleSuites();
    current.push_back(suite("brand_new", 1.0, "/s", true, true));
    const std::vector<PerfBaselineEntry> baseline = parsePerfBaseline(
        renderPerfJson(sampleSuites(), true));
    const PerfComparison cmp = comparePerf(current, baseline, 0.25);
    EXPECT_TRUE(cmp.passed);
    EXPECT_NE(cmp.report.find("brand_new"), std::string::npos);
}

TEST(Perf, HostSpeedSuiteRuns)
{
    PerfOptions options;
    options.quick = true;
    options.only = {"host_speed"};
    const std::vector<PerfSuite> suites = runPerfSuites(options);
    ASSERT_EQ(suites.size(), 1u);
    EXPECT_EQ(suites.front().name, "host_speed");
    EXPECT_GT(suites.front().value, 0.0);
    EXPECT_GT(suites.front().iterations, 0);
}

} // namespace
} // namespace hr
