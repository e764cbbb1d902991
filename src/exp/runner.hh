/**
 * @file
 * ExperimentRunner: executes a Scenario under RunOptions.
 *
 * The runner resolves the trial count, machine profile, and RNG base
 * seed, builds the ScenarioContext (whose parallelMap fans trials out
 * over `jobs` worker threads with deterministic per-trial RNG
 * sub-streams), invokes the scenario, and stamps reproducibility
 * metadata into the ResultTable. Wall-clock time is reported via
 * lastWallSeconds(), never stored in the ResultTable — rendered results
 * are byte-identical across runs and thread counts.
 */

#ifndef HR_EXP_RUNNER_HH
#define HR_EXP_RUNNER_HH

#include <cstdint>
#include <functional>
#include <string>

#include "exp/registry.hh"
#include "exp/scenario.hh"

namespace hr
{

/** User-facing knobs of one experiment execution. */
struct RunOptions
{
    int trials = 0;     ///< 0 = use the scenario's default
    int jobs = 1;       ///< worker threads for trial fan-out
    std::uint64_t seed = 1; ///< RNG base seed
    Format format = Format::Table;
    std::string profile; ///< empty = scenario's default profile
    ParamSet params;     ///< --param key=value overrides

    /**
     * Periodic-loop forwarding engine inside the core
     * (CoreConfig::lockstep); byte-identical either way.
     * --no-lockstep clears it.
     */
    bool lockstep = true;

    /** Progress sink (defaults to stderr in table mode only). */
    std::function<void(const std::string &)> progress;
};

/** Executes scenarios and assembles their reported results. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(RunOptions options);

    const RunOptions &options() const { return options_; }

    /** Run one scenario to a finished, metadata-stamped ResultTable. */
    ResultTable run(Scenario &scenario);

    /** Wall-clock duration of the last run() call, in seconds. */
    double lastWallSeconds() const { return lastWallSeconds_; }

  private:
    RunOptions options_;
    double lastWallSeconds_ = 0.0;
};

} // namespace hr

#endif // HR_EXP_RUNNER_HH
