/**
 * @file
 * Experiment-engine tests: parameter parsing, registry round-trip
 * (every registered scenario is listable and runnable), and the
 * determinism contract — the same seed must produce bit-identical
 * ResultTables (and pooled, reseeded trials) at any --jobs count.
 */

#include <gtest/gtest.h>

#include <set>

#include "exp/registry.hh"
#include "exp/runner.hh"
#include "isa/program.hh"
#include "sim/profiles.hh"
#include "util/log.hh"

namespace hr
{
namespace
{

RunOptions
quickOptions(int jobs)
{
    RunOptions options;
    options.jobs = jobs;
    options.trials = 2;
    options.seed = 42;
    options.params.set("quick", "1");
    return options;
}

TEST(ParamSet, TypedAccessors)
{
    ParamSet params;
    params.setFromArg("trials=250");
    params.set("ratio", "0.5");
    params.set("fast", "yes");
    EXPECT_TRUE(params.has("trials"));
    EXPECT_EQ(params.getInt("trials", 0), 250);
    EXPECT_DOUBLE_EQ(params.getDouble("ratio", 0.0), 0.5);
    EXPECT_TRUE(params.getBool("fast", false));
    EXPECT_EQ(params.getInt("absent", 7), 7);
    EXPECT_THROW(params.setFromArg("novalue"), std::runtime_error);
    params.set("bad", "zzz");
    EXPECT_THROW(params.getInt("bad", 0), std::runtime_error);
}

TEST(Profiles, RegistryKnowsAllProfiles)
{
    std::set<std::string> names;
    for (const MachineProfile &profile : machineProfiles())
        names.insert(profile.name);
    for (const char *required :
         {"default", "effective_window", "noisy", "plru", "noisy_plru",
          "random_l1", "small_llc"}) {
        EXPECT_TRUE(names.count(required)) << required;
        EXPECT_TRUE(hasMachineProfile(required));
        (void)machineConfigForProfile(required); // must not throw
    }
    EXPECT_THROW(machineConfigForProfile("nope"), std::runtime_error);
}

TEST(Registry, AllFormerBenchesRegistered)
{
    const char *expected[] = {
        "fig03_plru_walkthrough",  "fig04_plru_eviction",
        "fig07_repetition_stack",  "fig08_granularity_add",
        "fig09_granularity_mul",   "fig10_reorder_distribution",
        "fig11_arbitrary_replacement", "fig12_arithmetic_only",
        "tab_countermeasures",     "tab_detector",
        "tab_evset",               "tab_granularity_summary",
        "tab_miss_probability",    "tab_policy_ablation",
        "tab_spectreback",
    };
    std::set<std::string> names;
    for (Scenario *scenario : ScenarioRegistry::instance().all())
        names.insert(scenario->name());
    for (const char *name : expected)
        EXPECT_TRUE(names.count(name)) << name;
    EXPECT_GE(names.size(), 15u);
}

TEST(Registry, ResolvesUniquePrefixes)
{
    auto &registry = ScenarioRegistry::instance();
    EXPECT_EQ(registry.resolve("fig04").name(), "fig04_plru_eviction");
    EXPECT_EQ(registry.resolve("tab_miss_probability").name(),
              "tab_miss_probability");
    EXPECT_THROW(registry.resolve("fig0"), std::runtime_error);
    EXPECT_THROW(registry.resolve("does_not_exist"), std::runtime_error);
}

TEST(Registry, EveryScenarioRunsQuick)
{
    ExperimentRunner runner(quickOptions(2));
    for (Scenario *scenario : ScenarioRegistry::instance().all()) {
        SCOPED_TRACE(scenario->name());
        ResultTable result = runner.run(*scenario);
        EXPECT_EQ(result.scenarioName(), scenario->name());
        // Every former bench must produce renderable content in every
        // format, with no raw printf side channel.
        EXPECT_FALSE(result.render(Format::Table).empty());
        EXPECT_FALSE(result.render(Format::Json).empty());
        EXPECT_FALSE(result.render(Format::Csv).empty());
    }
}

/** Same seed => bit-identical results at any --jobs count. */
TEST(Runner, JobCountDoesNotChangeResults)
{
    const std::pair<const char *, int> cases[] = {
        {"tab_miss_probability", 2000},
        {"fig10_reorder_distribution", 12},
        {"tab_evset", 4},
    };
    for (const auto &[name, trials] : cases) {
        SCOPED_TRACE(name);
        Scenario &scenario = ScenarioRegistry::instance().resolve(name);

        RunOptions serial = quickOptions(1);
        serial.trials = trials;
        RunOptions wide = quickOptions(8);
        wide.trials = trials;

        ExperimentRunner runner1(serial);
        ExperimentRunner runner8(wide);
        const std::string render1 =
            runner1.run(scenario).render(Format::Json);
        const std::string render8 =
            runner8.run(scenario).render(Format::Json);
        EXPECT_EQ(render1, render8);
    }
}

/** Different base seeds reach different Monte-Carlo samples. */
TEST(Runner, SeedSelectsTheSampleStream)
{
    Scenario &scenario =
        ScenarioRegistry::instance().resolve("tab_miss_probability");
    RunOptions a = quickOptions(2);
    a.trials = 200;
    RunOptions b = a;
    b.seed = 777;
    const std::string render_a =
        ExperimentRunner(a).run(scenario).render(Format::Json);
    const std::string render_b =
        ExperimentRunner(b).run(scenario).render(Format::Json);
    EXPECT_NE(render_a, render_b);
}

TEST(Runner, ChecksGateThePassFlag)
{
    ResultTable result;
    EXPECT_TRUE(result.passed());
    result.addCheck("good", true);
    EXPECT_TRUE(result.passed());
    result.addCheck("bad", false);
    EXPECT_FALSE(result.passed());
}

TEST(Context, ParallelMapPreservesIndexOrder)
{
    ScenarioContext ctx(8, 4, 99, "default", {}, nullptr);
    const auto values = ctx.parallelMap(100, [](int i, Rng &rng) {
        (void)rng;
        return i * 3;
    });
    ASSERT_EQ(values.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(values[static_cast<std::size_t>(i)], i * 3);
}

TEST(Context, PerTrialRngIsSeedXorIndex)
{
    ScenarioContext ctx(4, 2, 1234, "default", {}, nullptr);
    EXPECT_EQ(ctx.indexSeed(0), 1234u);
    EXPECT_EQ(ctx.indexSeed(5), 1234u ^ 5u);
    // The derived streams must match a locally constructed Rng.
    const auto firsts = ctx.parallelMap(
        3, [](int, Rng &rng) { return rng.next(); });
    for (int i = 0; i < 3; ++i) {
        Rng expected(ctx.indexSeed(i));
        EXPECT_EQ(firsts[static_cast<std::size_t>(i)], expected.next());
    }
}

TEST(Context, ExceptionsPropagateFromWorkers)
{
    ScenarioContext ctx(4, 4, 1, "default", {}, nullptr);
    EXPECT_THROW(ctx.parallelMap(16,
                                 [](int i, Rng &) -> int {
                                     if (i == 7)
                                         fatal("boom");
                                     return i;
                                 }),
                 std::runtime_error);
}

/** Conflict addresses: twelve lines of one 8-way random_l1 set. */
Addr
conflictAddr(int i)
{
    return 0x40000 + static_cast<Addr>(i) * 0x1000;
}

/** Two passes over the conflict set: the second pass's hits depend on
 *  the random victims the first pass chose. */
Program
makePoolWorkload()
{
    ProgramBuilder builder("pool_wl");
    RegId acc = builder.movImm(1);
    for (int pass = 0; pass < 2; ++pass) {
        for (int i = 0; i < 12; ++i) {
            RegId v = builder.loadAbsolute(conflictAddr(i));
            acc = builder.binop(Opcode::Add, acc, v);
        }
    }
    builder.storeOrdered(0x90000, acc, acc);
    builder.halt();
    return builder.take();
}

TEST(Context, PoolMapWithReseedsIsJobsInvariant)
{
    // The sweep shape: every index reseeds the pooled machine's noise
    // streams with its own mix, then runs and observes it.
    auto run_with = [](int jobs) {
        ScenarioContext ctx(4, jobs, 99, "random_l1", {}, nullptr);
        MachinePool pool(ctx.machineConfig());
        return ctx.poolMap(
            pool, 8, [&](int index, Rng &, Machine &machine) {
                ScenarioContext::reseedMachine(machine, ctx.machineConfig(),
                                               ctx.indexSeed(index));
                Program program = makePoolWorkload();
                const RunResult result = machine.run(program);
                std::vector<std::uint64_t> seen = {
                    result.cycles(), result.counters.committedInstrs,
                    machine.now(), machine.cacheMisses(1),
                    machine.contextStats(0).misses,
                    static_cast<std::uint64_t>(machine.peek(0x90000))};
                for (int i = 0; i < 12; ++i)
                    seen.push_back(static_cast<std::uint64_t>(
                        machine.probeLevel(conflictAddr(i))));
                return seen;
            });
    };
    const auto serial = run_with(1);
    const auto wide = run_with(4);
    ASSERT_EQ(serial.size(), 8u);
    EXPECT_EQ(serial, wide);
    bool any_distinct = false;
    for (const auto &seen : serial)
        any_distinct |= seen != serial.front();
    EXPECT_TRUE(any_distinct); // the reseeds actually changed timing
}

} // namespace
} // namespace hr
