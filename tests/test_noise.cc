/**
 * @file
 * Noise-workload library tests (src/sim/noise.*): registry lookups,
 * parameter validation, and — the property every noisy scenario
 * leans on — full determinism of the pointer-chase evictor and the
 * stream writer under snapshot/restore replay and across --jobs.
 */

#include <gtest/gtest.h>

#include "exp/scenario.hh"
#include "obs/log.hh"
#include "sim/noise.hh"
#include "sim/profiles.hh"

namespace hr
{
namespace
{

/**
 * A primary workload the neighbor can disturb: touch 16 lines once,
 * then a long dependent ALU stretch. The gap between two runs'
 * touches is the window in which an evictor can push enough
 * conflicting tags through each set to victimize the (by then
 * PLRU-stale) primary lines.
 */
Program
primaryWorkload()
{
    ProgramBuilder builder("noisy_primary");
    RegId r = builder.movImm(0);
    RegId acc = builder.movImm(1);
    for (int i = 0; i < 16; ++i)
        builder.loadOrderedInto(r,
                                0x30'0000 + static_cast<Addr>(i) * 64);
    builder.opChain(Opcode::Add, 8000, acc, 3);
    builder.halt();
    return builder.take();
}

/** One co-run observation: primary cycles + both contexts' misses. */
struct Observation
{
    Cycle cycles = 0;
    std::uint64_t primaryMisses = 0;
    std::uint64_t neighborMisses = 0;

    bool
    operator==(const Observation &o) const
    {
        return cycles == o.cycles &&
               primaryMisses == o.primaryMisses &&
               neighborMisses == o.neighborMisses;
    }
};

Observation
observe(Machine &machine)
{
    const ContextAccessStats before0 =
        machine.contextStats(0);
    const ContextAccessStats before1 =
        machine.contextStats(1);
    Program prog = primaryWorkload();
    const RunResult result = machine.run(prog);
    Observation obs;
    obs.cycles = result.cycles();
    obs.primaryMisses =
        (machine.contextStats(0) - before0).misses;
    obs.neighborMisses =
        (machine.contextStats(1) - before1).misses;
    return obs;
}

TEST(NoiseLibrary, RegistryListsAndValidates)
{
    const auto &workloads = noiseWorkloads();
    ASSERT_EQ(workloads.size(), 3u);
    EXPECT_EQ(workloads.front().name, "idle");
    EXPECT_EQ(noiseWorkload("pointer_chase").kind,
              NoiseKind::PointerChase);
    EXPECT_THROW(noiseWorkload("bogus"), std::runtime_error);

    Machine machine(machineConfigForProfile("smt2_plru"));
    ParamSet bad;
    bad.set("noise_lines", "1");
    EXPECT_THROW(
        makeNoiseProgram(machine, NoiseKind::PointerChase, bad),
        std::runtime_error);
    // Unknown keys fail with a nearest-match suggestion.
    ParamSet typo;
    typo.set("noise_line", "64");
    EXPECT_THROW(
        makeNoiseProgram(machine, NoiseKind::StreamWriter, typo),
        std::runtime_error);
    // Idle accepts no parameters at all.
    EXPECT_THROW(makeNoiseProgram(machine, NoiseKind::Idle, typo),
                 std::runtime_error);
}

TEST(NoiseLibrary, NeighborsActuallyDisturbTheHierarchy)
{
    const MachineConfig config = machineConfigForProfile("smt2_plru");
    // Steady state: repeated runs share cache state, so once the
    // primary's lines are resident a quiet machine misses nowhere.
    constexpr int kWarmRuns = 30;
    auto steady_state = [&](Machine &machine) {
        Observation last;
        for (int run = 0; run < kWarmRuns; ++run)
            last = observe(machine);
        return last;
    };

    Machine quiet(config);
    const Observation baseline = steady_state(quiet);
    EXPECT_EQ(baseline.primaryMisses, 0u);
    EXPECT_EQ(baseline.neighborMisses, 0u);

    // Working sets sized to cover every L1 set at least
    // associativity-deep per lap (128 sets x 4 ways), so the
    // neighbor keeps re-evicting the primary's resident lines.
    const std::pair<const char *, int> noises[] = {
        {"pointer_chase", 512},
        {"stream_writer", 768},
    };
    for (const auto &[noise, lines] : noises) {
        SCOPED_TRACE(noise);
        Machine machine(config);
        ParamSet params;
        params.set("noise_lines", std::to_string(lines));
        installNoise(machine, 1, noise, params);
        const Observation noisy = steady_state(machine);
        // The neighbor generates real attributed traffic and evicts
        // the primary's lines: the primary keeps missing at steady
        // state where the quiet machine misses nowhere.
        EXPECT_GT(noisy.neighborMisses, 0u);
        EXPECT_GT(noisy.primaryMisses, 0u);
    }
}

TEST(NoiseLibrary, DeterministicUnderSnapshotRestore)
{
    for (const char *noise : {"pointer_chase", "stream_writer"}) {
        SCOPED_TRACE(noise);
        Machine machine(machineConfigForProfile("smt2_plru"));
        installNoise(machine, 1, noise);
        Machine::Snapshot base = machine.snapshot();
        const Observation first = observe(machine);
        // Replays from the snapshot are bit-identical, any number of
        // times, including the neighbor's attributed traffic.
        for (int replay = 0; replay < 3; ++replay) {
            machine.restore(base);
            EXPECT_EQ(observe(machine), first) << "replay " << replay;
        }
        // And identical to a freshly constructed machine.
        Machine fresh(machineConfigForProfile("smt2_plru"));
        installNoise(fresh, 1, noise);
        EXPECT_EQ(observe(fresh), first);
    }
}

TEST(NoiseLibrary, CoRunsIdenticalAcrossJobs)
{
    auto trials = [](int jobs) {
        ScenarioContext ctx(4, jobs, 7, "smt2_plru", {});
        return ctx.parallelMap(4, [&](int index, Rng &) {
            Machine machine(ctx.machineConfig());
            installNoise(machine, 1,
                         index % 2 == 0 ? "pointer_chase"
                                        : "stream_writer");
            return observe(machine);
        });
    };
    const auto serial = trials(1);
    const auto wide = trials(4);
    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], wide[i]) << "trial " << i;
}

} // namespace
} // namespace hr
