/**
 * @file
 * Unified TimingSource API tests: registry round-trip over every
 * registered gadget (construct by name on a compatible profile,
 * calibrate, transmit one bit each way), the pinned gadget x profile
 * compatibility matrix, machine binding (sources on identical machines
 * observe identically and independently), the pipeline determinism
 * contract (same configuration and seed produce identical
 * TimingSamples), and sweep output that is byte-identical at any
 * --jobs value.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include "exp/sweep.hh"
#include "gadgets/gadget_registry.hh"
#include "gadgets/pipeline.hh"
#include "sim/profiles.hh"

namespace hr
{
namespace
{

/** Small parameter overrides so the round-trip stays test-sized. */
ParamSet
quickParams(const std::string &gadget)
{
    ParamSet params;
    if (gadget == "repetition")
        params.set("rounds", "50");
    if (gadget == "arith_magnifier")
        params.set("stages", "1000");
    if (gadget == "arbitrary_magnifier")
        params.set("repeats", "40");
    if (gadget == "hacky_pipeline" || gadget == "reorder_pipeline")
        params.set("repeats", "2000");
    return params;
}

/** A source built on the first stock profile that can run it. */
struct Bound
{
    std::unique_ptr<Machine> machine;
    std::unique_ptr<TimingSource> source;
    MachineConfig config;
};

Bound
onFirstProfile(const std::string &gadget)
{
    Bound bound;
    for (const MachineProfile &profile : machineProfiles()) {
        bound.config = profile.make();
        bound.machine = std::make_unique<Machine>(bound.config);
        bound.source = GadgetRegistry::instance().make(
            gadget, *bound.machine, quickParams(gadget));
        if (bound.source)
            break;
    }
    return bound;
}

TEST(GadgetRegistry, ListsTheWholeFamily)
{
    std::set<std::string> names;
    for (const GadgetInfo *info : GadgetRegistry::instance().all()) {
        EXPECT_FALSE(info->name.empty());
        EXPECT_FALSE(info->description.empty());
        EXPECT_TRUE(info->factory != nullptr);
        names.insert(info->name);
    }
    // All eight gadget classes plus the coarse timer, by stable name.
    for (const char *required :
         {"pa_race", "reorder_race", "plru_pa_magnifier",
          "plru_reorder_magnifier", "plru_pin_magnifier",
          "arbitrary_magnifier", "arith_magnifier", "repetition",
          "hacky_timer", "coarse_timer", "hacky_pipeline",
          "reorder_pipeline"}) {
        EXPECT_TRUE(names.count(required)) << required;
    }
}

TEST(GadgetRegistry, ResolvesPrefixesAndRejectsUnknowns)
{
    EXPECT_EQ(GadgetRegistry::instance().resolve("arith").name,
              "arith_magnifier");
    EXPECT_EQ(GadgetRegistry::instance().resolve("pa_race").name,
              "pa_race");
    EXPECT_THROW(GadgetRegistry::instance().resolve("plru"),
                 std::runtime_error); // ambiguous
    EXPECT_THROW(GadgetRegistry::instance().resolve("nonsense"),
                 std::runtime_error);
}

TEST(GadgetRegistry, RoundTripEveryGadget)
{
    // Every registered source must construct by name on at least one
    // stock profile, calibrate, and transmit one bit each way with the
    // uniform polarity convention (secret == true reads slow). The
    // bare coarse clock is exempt from the decoding check: failing to
    // decode is its documented role.
    for (const GadgetInfo *info : GadgetRegistry::instance().all()) {
        SCOPED_TRACE(info->name);
        Bound bound = onFirstProfile(info->name);
        ASSERT_TRUE(bound.source != nullptr)
            << "no stock profile runs " << info->name;
        TimingSource *source = bound.source.get();
        EXPECT_EQ(source->name(), info->name);
        EXPECT_EQ(&source->machine(), bound.machine.get());

        source->calibrate();
        const TimingSample fast = source->sample(false);
        const TimingSample slow = source->sample(true);
        EXPECT_GT(slow.cycles, fast.cycles);
        if (info->name != "coarse_timer") {
            EXPECT_FALSE(fast.bit);
            EXPECT_TRUE(slow.bit);
        }
    }
}

TEST(GadgetRegistry, MakeMatchesTheCompatibilityMatrix)
{
    // make() returns a source exactly where the gadget can run: one
    // character per stock profile, in machineProfiles() order, '1'
    // where it runs.
    const char *kProfiles = "default effective_window noisy plru "
                            "noisy_plru random_l1 small_llc smt2 "
                            "smt2_plru";
    const std::map<std::string, std::string> kRuns = {
        {"arbitrary_magnifier", "111..1.1."},
        {"arith_magnifier", "111111111"},
        {"coarse_timer", "111111111"},
        {"hacky_pipeline", "...11.1.1"},
        {"hacky_timer", "...11.1.1"},
        {"l1_contention", ".......11"},
        {"pa_race", "111111111"},
        {"plru_pa_magnifier", "...11.1.1"},
        {"plru_pin_magnifier", "11111.111"},
        {"plru_reorder_magnifier", "...11.1.1"},
        {"reorder_pipeline", "...11.1.1"},
        {"reorder_race", "...11.1.1"},
        {"repetition", "111111111"},
        {"smt_contention", ".......11"},
    };
    std::string profiles;
    for (const MachineProfile &profile : machineProfiles())
        profiles += (profiles.empty() ? "" : " ") + profile.name;
    ASSERT_EQ(profiles, kProfiles);
    ASSERT_EQ(GadgetRegistry::instance().all().size(), kRuns.size());
    for (const GadgetInfo *info : GadgetRegistry::instance().all()) {
        ASSERT_TRUE(kRuns.count(info->name)) << info->name;
        std::string runs;
        for (const MachineProfile &profile : machineProfiles()) {
            Machine machine(profile.make());
            runs += GadgetRegistry::instance().make(info->name, machine)
                        ? '1'
                        : '.';
        }
        EXPECT_EQ(runs, kRuns.at(info->name)) << info->name;
    }
}

TEST(GadgetRegistry, MakeAppliesParameters)
{
    Machine machine(machineConfigForProfile("plru"));
    ParamSet small, large;
    small.set("repeats", "100");
    large.set("repeats", "1000");
    auto short_mag = GadgetRegistry::instance().make("plru_pa_magnifier",
                                                     machine, small);
    auto long_mag = GadgetRegistry::instance().make("plru_pa_magnifier",
                                                    machine, large);
    const Cycle short_cycles = short_mag->sample(true).cycles;
    const Cycle long_cycles = long_mag->sample(true).cycles;
    EXPECT_GT(long_cycles, 5 * short_cycles);
}

TEST(TimingSource, SourcesAreBoundToTheirOwnMachine)
{
    // Two sources from one registry entry on two identical fresh
    // machines observe exactly what one source observes alone, even
    // when used interleaved: each touches only its own machine. Covers
    // an amplifier, a timer that calibrates itself on first use, one
    // that warms its machine at construction, and a composed stack.
    const std::vector<bool> secrets = {true, false, false, true};
    for (const char *gadget : {"plru_pa_magnifier", "hacky_timer",
                               "l1_contention", "hacky_pipeline"}) {
        SCOPED_TRACE(gadget);
        Bound alone = onFirstProfile(gadget);
        ASSERT_TRUE(alone.source != nullptr);
        alone.source->calibrate();
        std::vector<TimingSample> want;
        for (bool secret : secrets)
            want.push_back(alone.source->sample(secret));

        const ParamSet params = quickParams(gadget);
        Machine machine_a(alone.config);
        Machine machine_b(alone.config);
        auto a = GadgetRegistry::instance().make(gadget, machine_a, params);
        auto b = GadgetRegistry::instance().make(gadget, machine_b, params);
        EXPECT_EQ(&a->machine(), &machine_a);
        EXPECT_EQ(&b->machine(), &machine_b);
        a->calibrate();
        b->calibrate();
        for (std::size_t i = 0; i < secrets.size(); ++i) {
            SCOPED_TRACE(i);
            const TimingSample got_a = a->sample(secrets[i]);
            const TimingSample got_b = b->sample(secrets[i]);
            for (const TimingSample *got : {&got_a, &got_b}) {
                EXPECT_EQ(got->cycles, want[i].cycles);
                EXPECT_DOUBLE_EQ(got->ns, want[i].ns);
                EXPECT_EQ(got->bit, want[i].bit);
            }
        }
        EXPECT_EQ(machine_a.now(), alone.machine->now());
        EXPECT_EQ(machine_b.now(), alone.machine->now());
    }
}

TEST(Pipeline, DeterministicTraces)
{
    // Same stages, same parameters, same machine configuration: the
    // full trace (quantized ns, raw cycles, decoded bits) must be
    // identical run over run.
    const std::vector<bool> secrets = {false, true, true, false, true};
    auto run_trace = [&] {
        Machine machine(machineConfigForProfile("plru"));
        auto pipeline =
            GadgetRegistry::instance().make("hacky_pipeline", machine);
        pipeline->calibrate();
        std::vector<TimingSample> samples;
        for (bool secret : secrets)
            samples.push_back(pipeline->sample(secret));
        return samples;
    };
    const std::vector<TimingSample> first = run_trace();
    const std::vector<TimingSample> second = run_trace();
    ASSERT_EQ(first.size(), secrets.size());
    ASSERT_EQ(second.size(), secrets.size());
    for (std::size_t i = 0; i < secrets.size(); ++i) {
        EXPECT_EQ(first[i].cycles, second[i].cycles) << i;
        EXPECT_DOUBLE_EQ(first[i].ns, second[i].ns) << i;
        EXPECT_EQ(first[i].bit, second[i].bit) << i;
        EXPECT_EQ(first[i].bit, secrets[i]) << i;
    }
}

TEST(Pipeline, HandBuiltCompositionMatchesRegistry)
{
    // Pipeline::then() composes the same stack the registry ships.
    Machine machine(machineConfigForProfile("plru"));
    ParamSet params;
    params.set("repeats", "2000");
    Pipeline custom(machine, "custom");
    custom.then(GadgetRegistry::instance().make("pa_race", machine))
        .then(GadgetRegistry::instance().make("plru_pa_magnifier",
                                              machine, params));
    custom.calibrate();
    EXPECT_FALSE(custom.sample(false).bit);
    EXPECT_TRUE(custom.sample(true).bit);

    // Every stage must run on the pipeline's own machine.
    Machine other(machineConfigForProfile("plru"));
    EXPECT_THROW(
        custom.then(GadgetRegistry::instance().make("pa_race", other)),
        std::runtime_error);
}

TEST(Sweep, ByteIdenticalAcrossJobs)
{
    auto render = [](int jobs) {
        SweepOptions options;
        options.gadget = "arith_magnifier";
        options.profile = "default";
        options.trials = 1;
        options.jobs = jobs;
        options.grid.push_back(parseSweepAxis("stages=400,800"));
        options.grid.push_back(parseSweepAxis("par_divs=2:4"));
        return runSweep(options).render(Format::Json);
    };
    const std::string lone = render(1);
    EXPECT_EQ(lone, render(3));
    EXPECT_NE(lone.find("\"stages\""), std::string::npos);
}

TEST(Sweep, GridSyntaxAndIncompatibleRows)
{
    const SweepAxis list = parseSweepAxis("key=a,b,c");
    EXPECT_EQ(list.key, "key");
    EXPECT_EQ(list.values,
              (std::vector<std::string>{"a", "b", "c"}));
    const SweepAxis range = parseSweepAxis("n=2:8:3");
    EXPECT_EQ(range.values, (std::vector<std::string>{"2", "5", "8"}));
    EXPECT_THROW(parseSweepAxis("novalue"), std::runtime_error);
    EXPECT_THROW(parseSweepAxis("k=5:1"), std::runtime_error);

    // A gadget/profile mismatch degrades to a status row, not a crash.
    SweepOptions options;
    options.gadget = "plru_pa_magnifier";
    options.profile = "random_l1";
    options.trials = 1;
    const std::string rendered =
        runSweep(options).render(Format::Csv);
    EXPECT_NE(rendered.find("incompatible"), std::string::npos);
}

TEST(Sweep, CountsThatCannotObserveAreErrorRows)
{
    // Rounds, chains and stage counts that cannot produce an
    // observation are error rows naming the key, never `ok` rows; the
    // documented `0 = auto` values still run.
    struct Case
    {
        const char *gadget;
        const char *profile;
        const char *grid;
        const char *key; ///< nullptr: every row must be ok
    };
    for (const Case &c :
         {Case{"repetition", "default", "rounds=0,-1", "rounds"},
          Case{"pa_race", "default", "slow_ops=-5", "slow_ops"},
          Case{"arith_magnifier", "default", "stages=0", "stages"},
          Case{"arbitrary_magnifier", "default", "repeats=0", "repeats"},
          Case{"hacky_timer", "plru", "repeats=0", nullptr},
          Case{"arith_magnifier", "default", "add_buffer=0", nullptr}}) {
        SCOPED_TRACE(std::string(c.gadget) + " " + c.grid);
        SweepOptions options;
        options.gadget = c.gadget;
        options.profile = c.profile;
        options.trials = 1;
        options.grid.push_back(parseSweepAxis(c.grid));
        const std::string rendered =
            runSweep(options).render(Format::Json);
        const bool ok =
            rendered.find("\"status\": \"ok\"") != std::string::npos;
        const bool error =
            rendered.find("\"status\": \"error: ") != std::string::npos;
        if (c.key == nullptr) {
            EXPECT_TRUE(ok && !error) << rendered;
            continue;
        }
        EXPECT_TRUE(error && !ok) << rendered;
        EXPECT_NE(rendered.find(std::string(c.key) + " must be >= "),
                  std::string::npos);
    }
}

} // namespace
} // namespace hr
