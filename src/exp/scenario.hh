/**
 * @file
 * Scenario: one registered experiment (a paper figure/table, an
 * ablation, a new workload) executed by the ExperimentRunner.
 *
 * A scenario declares its identity (name, title, paper claim), its
 * default machine profile and trial count, and a run() that builds a
 * ResultTable. All machine construction, randomness, and parallelism
 * flow through the ScenarioContext so that results are reproducible
 * and independent of the worker-thread count.
 */

#ifndef HR_EXP_SCENARIO_HH
#define HR_EXP_SCENARIO_HH

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "exp/machine_pool.hh"
#include "exp/result.hh"
#include "obs/progress.hh"
#include "sim/machine.hh"
#include "util/params.hh"
#include "util/rng.hh"

namespace hr
{

/**
 * Execution context handed to Scenario::run().
 *
 * Deterministic parallelism contract: parallelMap(count, fn) runs
 * fn(index, rng) for every index on the runner's thread pool, where
 * each index gets its own Rng seeded `baseSeed ^ index`. Results come
 * back in index order, so output is bit-identical at any --jobs value.
 */
class ScenarioContext
{
  public:
    using IndexBody = std::function<void(int)>;

    ScenarioContext(int trials, int jobs, std::uint64_t base_seed,
                    std::string profile_name, ParamSet params,
                    std::function<void(const std::string &)> progress,
                    bool lockstep = true);

    /** Requested trial/sample count (scenario default or --trials). */
    int trials() const { return trials_; }
    int jobs() const { return jobs_; }
    std::uint64_t baseSeed() const { return baseSeed_; }

    /** Deterministic per-index RNG seed (independent of jobs). */
    std::uint64_t indexSeed(int index) const
    {
        return baseSeed_ ^ static_cast<std::uint64_t>(index);
    }

    /** Resolved machine-profile name (scenario default or --profile). */
    const std::string &profileName() const { return profileName_; }

    /** Fresh MachineConfig for the resolved profile. */
    MachineConfig machineConfig() const;

    /**
     * machineConfig() with every machine-noise RNG seed (latency
     * jitter, random-replacement streams) mixed with
     * indexSeed(index): `--seed` reaches the per-trial machine
     * sub-streams, not just the scenario-level Rng, while staying
     * deterministic per trial index (independent of --jobs).
     */
    MachineConfig machineConfig(int index) const;

    /**
     * Re-seed a live (typically pooled) machine's noise streams
     * exactly as a fresh construction from machineConfig(index)
     * would: @p base must be the config the machine was built from.
     */
    static void reseedMachine(Machine &machine, const MachineConfig &base,
                              std::uint64_t mix);

    /** reseedMachine against this context's profile and trial index. */
    void reseedMachine(Machine &machine, int index) const;

    const ParamSet &params() const { return params_; }

    /** Abbreviated run requested (--param quick=1; used by tests). */
    bool quick() const { return params_.getBool("quick", false); }

    /** Progress line (stderr in table mode; never stdout). */
    void note(const std::string &text) const;

    /**
     * Run fn(index, rng) for index in [0, count) across the thread
     * pool; returns results in index order.
     */
    template <typename Fn>
    auto
    parallelMap(int count, Fn &&fn) const
    {
        using T = std::invoke_result_t<Fn &, int, Rng &>;
        // std::vector<bool> packs bits, so concurrent writes to
        // distinct indices would race; return char/int instead.
        static_assert(!std::is_same_v<T, bool>,
                      "parallelMap body must not return bool");
        std::vector<T> out(static_cast<std::size_t>(count > 0 ? count : 0));
        forEachIndex(count, [&](int index) {
            Rng rng(indexSeed(index));
            out[static_cast<std::size_t>(index)] = fn(index, rng);
        });
        return out;
    }

    /** parallelMap over the context's trial count. */
    template <typename Fn>
    auto
    mapTrials(Fn &&fn) const
    {
        return parallelMap(trials_, std::forward<Fn>(fn));
    }

    /** Periodic-loop forwarding engine enabled (--no-lockstep). */
    bool lockstep() const { return lockstep_; }

    /**
     * parallelMap over indices that each need a pooled machine in the
     * warmed base state: fn(index, rng, machine) with the machine
     * leased from @p pool (and so restored to its base) per index.
     */
    template <typename Fn>
    auto
    poolMap(MachinePool &pool, int count, Fn &&fn) const
    {
        using T = std::invoke_result_t<Fn &, int, Rng &, Machine &>;
        static_assert(!std::is_same_v<T, bool>,
                      "poolMap body must not return bool");
        std::vector<T> out(
            static_cast<std::size_t>(count > 0 ? count : 0));
        forEachIndex(count, [&](int index) {
            Rng rng(indexSeed(index));
            auto lease = pool.lease();
            out[static_cast<std::size_t>(index)] =
                fn(index, rng, lease.machine());
        });
        return out;
    }

  private:
    int trials_;
    int jobs_;
    bool lockstep_;
    std::uint64_t baseSeed_;
    std::string profileName_;
    ParamSet params_;
    std::function<void(const std::string &)> progress_;

    /** Blocking index-parallel dispatch (exceptions propagate). */
    void forEachIndex(int count, const IndexBody &body) const;
};

/** Base class for registered experiments. */
class Scenario
{
  public:
    virtual ~Scenario() = default;

    /** CLI-stable identifier, e.g. "fig04_plru_eviction". */
    virtual std::string name() const = 0;

    /** One-line human title. */
    virtual std::string title() const = 0;

    /** What the paper claims this experiment shows. */
    virtual std::string paperClaim() const = 0;

    /** Default machine profile name (see sim/profiles.hh). */
    virtual std::string defaultProfile() const { return "default"; }

    /** Default trial/sample count when --trials is not given. */
    virtual int defaultTrials() const { return 1; }

    /** Execute and return the structured result. */
    virtual ResultTable run(ScenarioContext &ctx) = 0;
};

} // namespace hr

#endif // HR_EXP_SCENARIO_HH
