#include "exp/runner.hh"

#include <chrono>

#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/trace.hh"
#include "sim/profiles.hh"
#include "util/log.hh"

namespace hr
{

ExperimentRunner::ExperimentRunner(RunOptions options)
    : options_(std::move(options))
{
    fatalIf(options_.jobs < 1, "--jobs must be >= 1");
    fatalIf(options_.trials < 0,
            "--trials must be >= 0 (0 = scenario default)");
    if (!options_.profile.empty())
        fatalIf(!hasMachineProfile(options_.profile),
                "unknown machine profile '" + options_.profile + "'");
}

ResultTable
ExperimentRunner::run(Scenario &scenario)
{
    const int trials =
        options_.trials > 0 ? options_.trials : scenario.defaultTrials();
    const std::string profile = !options_.profile.empty()
                                    ? options_.profile
                                    : scenario.defaultProfile();

    ScenarioContext ctx(trials, options_.jobs, options_.seed, profile,
                        options_.params, options_.progress,
                        options_.lockstep);

    Metrics &met = metrics();
    met.runnerScenariosRun.add();
    met.runnerTrialsRequested.add(static_cast<std::uint64_t>(trials));
    met.runnerJobsConfigured.set(
        static_cast<std::uint64_t>(options_.jobs));

    ProgressSink &sink = ProgressSink::instance();
    sink.beginTask(scenario.name().c_str(),
                   static_cast<std::uint64_t>(trials), options_.jobs);

    const auto start = std::chrono::steady_clock::now();
    ResultTable result;
    {
        HR_TRACE_SCOPE("runner", "runner.scenario");
        result = scenario.run(ctx);
    }
    const auto stop = std::chrono::steady_clock::now();
    lastWallSeconds_ =
        std::chrono::duration<double>(stop - start).count();

    sink.endTask();

    result.setScenario(scenario.name(), scenario.title(),
                       scenario.paperClaim());
    result.addMeta("profile", profile);
    result.addMeta("trials", std::to_string(trials));
    result.addMeta("seed", std::to_string(options_.seed));
    return result;
}

} // namespace hr
