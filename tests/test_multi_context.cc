/**
 * @file
 * Multi-context (SMT) machine tests.
 *
 * The contracts: co-run interleaving is fully deterministic (two
 * machines with the same configuration and programs produce
 * bit-identical results, independent of worker threads), per-context
 * counters and cache attribution isolate each hardware thread's work,
 * a single-context machine's per-context result equals the whole-core
 * delta, and run() is coRun() with no explicit co-runners.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/machine_pool.hh"
#include "exp/scenario.hh"
#include "isa/program.hh"
#include "sim/machine.hh"
#include "sim/noise.hh"
#include "sim/profiles.hh"

namespace hr
{
namespace
{

/** Load/ALU mix touching a couple of dozen lines. */
Program
makePrimary(int variant)
{
    ProgramBuilder builder("mc_primary" + std::to_string(variant));
    RegId acc = builder.movImm(variant + 1);
    for (int i = 0; i < 24; ++i) {
        RegId v = builder.loadAbsolute(0x50000 +
                                       static_cast<Addr>(i) * 0x1040);
        acc = builder.binop(Opcode::Add, acc, v);
        acc = builder.binopImm(Opcode::Mul, acc, 3);
    }
    builder.storeOrdered(0x88000, acc, acc);
    builder.halt();
    return builder.take();
}

/** Everything cheaply observable about a co-run. */
struct CoRunFingerprint
{
    Cycle now = 0;
    Cycle runCycles = 0;
    std::uint64_t primaryCommitted = 0;
    std::uint64_t noiseCommitted = 0;
    std::uint64_t primaryMisses = 0;
    std::uint64_t noiseMisses = 0;
    std::uint64_t l1MissesTotal = 0;
    std::int64_t storedWord = 0;

    bool
    operator==(const CoRunFingerprint &o) const
    {
        return now == o.now && runCycles == o.runCycles &&
               primaryCommitted == o.primaryCommitted &&
               noiseCommitted == o.noiseCommitted &&
               primaryMisses == o.primaryMisses &&
               noiseMisses == o.noiseMisses &&
               l1MissesTotal == o.l1MissesTotal &&
               storedWord == o.storedWord;
    }
};

CoRunFingerprint
coRunOnce(Machine &machine, int variant)
{
    const PerfCounters noise_before =
        machine.core().contextCounters(1);
    const ContextAccessStats prim_attr_before =
        machine.contextStats(0);
    const ContextAccessStats noise_attr_before =
        machine.contextStats(1);

    Program primary = makePrimary(variant);
    const RunResult result = machine.run(primary);

    CoRunFingerprint fp;
    fp.now = machine.now();
    fp.runCycles = result.cycles();
    fp.primaryCommitted = result.counters.committedInstrs;
    fp.noiseCommitted = (machine.core().contextCounters(1) -
                         noise_before)
                            .committedInstrs;
    fp.primaryMisses = (machine.contextStats(0) -
                        prim_attr_before)
                           .misses;
    fp.noiseMisses = (machine.contextStats(1) -
                      noise_attr_before)
                         .misses;
    fp.l1MissesTotal = machine.hierarchy().l1().stats().misses;
    fp.storedWord = machine.peek(0x88000);
    return fp;
}

TEST(MultiContext, SingleContextResultEqualsWholeCoreDelta)
{
    // With one context, the per-context result delta is the
    // whole-core delta, bit for bit.
    Machine machine(machineConfigForProfile("default"));
    const PerfCounters before = machine.core().counters();
    Program prog = makePrimary(0);
    const RunResult result = machine.run(prog);
    const PerfCounters delta = machine.core().counters() - before;
    EXPECT_EQ(result.counters.cycles, delta.cycles);
    EXPECT_EQ(result.counters.committedInstrs, delta.committedInstrs);
    EXPECT_EQ(result.counters.noCommitCycles, delta.noCommitCycles);
    EXPECT_EQ(result.counters.mispredicts, delta.mispredicts);
    EXPECT_EQ(result.counters.robFullStalls, delta.robFullStalls);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(result.counters.issuedByClass[i],
                  delta.issuedByClass[i]);
}

void
expectSameCounters(const PerfCounters &a, const PerfCounters &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committedInstrs, b.committedInstrs);
    EXPECT_EQ(a.committedLoads, b.committedLoads);
    EXPECT_EQ(a.committedStores, b.committedStores);
    EXPECT_EQ(a.squashedInstrs, b.squashedInstrs);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.interrupts, b.interrupts);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(a.issuedByClass[i], b.issuedByClass[i]);
    EXPECT_EQ(a.noCommitCycles, b.noCommitCycles);
    EXPECT_EQ(a.robFullStalls, b.robFullStalls);
}

TEST(MultiContext, RunEqualsCoRunWithoutExtras)
{
    // run() is coRun() with no explicit co-runners, on one context
    // and next to a registered background alike.
    struct Setup
    {
        const char *profile;
        const char *background; ///< nullptr: none
    };
    for (const Setup &setup : {Setup{"default", nullptr},
                               Setup{"smt2", "pointer_chase"}}) {
        SCOPED_TRACE(setup.profile);
        Machine ran(machineConfigForProfile(setup.profile));
        Machine co_ran(machineConfigForProfile(setup.profile));
        if (setup.background) {
            installNoise(ran, 1, setup.background);
            installNoise(co_ran, 1, setup.background);
        }
        // One Program for both machines, so both runs see one image.
        Program prog = makePrimary(2);
        const std::vector<std::pair<RegId, std::int64_t>> regs = {
            {1, 17}};
        TrialTrace ran_trace, co_ran_trace;
        ran.beginRecord(ran_trace);
        co_ran.beginRecord(co_ran_trace);
        for (int rep = 0; rep < 2; ++rep) {
            SCOPED_TRACE(rep);
            const RunResult a = ran.run(0, prog, regs);
            const RunResult b = co_ran.coRun(0, prog, {}, regs);
            EXPECT_EQ(a.startCycle, b.startCycle);
            EXPECT_EQ(a.endCycle, b.endCycle);
            EXPECT_EQ(a.halted, b.halted);
            expectSameCounters(a.counters, b.counters);
            for (int ctx = 0; ctx < ran.contexts(); ++ctx)
                expectSameCounters(
                    ran.core().contextCounters(
                        static_cast<ContextId>(ctx)),
                    co_ran.core().contextCounters(
                        static_cast<ContextId>(ctx)));
            expectSameCounters(ran.core().counters(),
                               co_ran.core().counters());
            EXPECT_EQ(ran.core().committedRegs(0),
                      co_ran.core().committedRegs(0));
            EXPECT_EQ(ran.now(), co_ran.now());
        }
        ran.endRecord();
        co_ran.endRecord();

        ASSERT_EQ(ran_trace.ops.size(), 2u);
        ASSERT_EQ(co_ran_trace.ops.size(), 2u);
        EXPECT_FALSE(ran_trace.opaque);
        EXPECT_FALSE(co_ran_trace.opaque);
        for (std::size_t i = 0; i < ran_trace.ops.size(); ++i) {
            const TraceOp &a = ran_trace.ops[i];
            const TraceOp &b = co_ran_trace.ops[i];
            EXPECT_EQ(a.kind, TraceOp::Kind::Run);
            EXPECT_EQ(b.kind, TraceOp::Kind::Run);
            EXPECT_EQ(a.run.decoded.get(), prog.decoded.get());
            EXPECT_EQ(b.run.decoded.get(), prog.decoded.get());
            EXPECT_EQ(a.run.initialRegs, regs);
            EXPECT_EQ(b.run.initialRegs, regs);
            EXPECT_TRUE(a.run.extras.empty());
            EXPECT_TRUE(b.run.extras.empty());
            EXPECT_EQ(a.result.endCycle, b.result.endCycle);
            expectSameCounters(a.result.counters, b.result.counters);
        }
    }
}

TEST(MultiContext, CoRunIsDeterministicAcrossMachines)
{
    for (const char *noise : {"pointer_chase", "stream_writer"}) {
        SCOPED_TRACE(noise);
        CoRunFingerprint fps[2];
        for (CoRunFingerprint &fp : fps) {
            Machine machine(machineConfigForProfile("smt2"));
            installNoise(machine, 1, noise);
            fp = coRunOnce(machine, 1);
        }
        EXPECT_TRUE(fps[0] == fps[1]);
        // The neighbor really ran, and its work is attributed to it.
        EXPECT_GT(fps[0].noiseCommitted, 0u);
        EXPECT_GT(fps[0].noiseMisses, 0u);
    }
}

TEST(MultiContext, AttributionSplitsTheSharedL1Stats)
{
    Machine machine(machineConfigForProfile("smt2"));
    installNoise(machine, 1, NoiseKind::PointerChase);
    const CoRunFingerprint fp = coRunOnce(machine, 0);
    machine.settle();
    // Every demand miss belongs to exactly one context.
    EXPECT_EQ(fp.primaryMisses + fp.noiseMisses, fp.l1MissesTotal);
    EXPECT_GT(fp.primaryMisses, 0u);
    EXPECT_GT(fp.noiseMisses, 0u);
}

TEST(MultiContext, SnapshotRestoreCoversAllContexts)
{
    Machine machine(machineConfigForProfile("smt2_plru"));
    installNoise(machine, 1, NoiseKind::PointerChase);
    coRunOnce(machine, 0); // warm everything, assign program ids
    Machine::Snapshot snap = machine.snapshot();

    const CoRunFingerprint first = coRunOnce(machine, 1);
    machine.restore(snap);
    const CoRunFingerprint replay = coRunOnce(machine, 1);
    EXPECT_TRUE(first == replay);
}

TEST(MultiContext, RunOnSecondaryContext)
{
    Machine machine(machineConfigForProfile("smt2"));
    const PerfCounters c0_before = machine.core().contextCounters(0);
    Program prog = makePrimary(0);
    const RunResult result = machine.run(1, prog);
    EXPECT_TRUE(result.halted);
    EXPECT_GT(result.counters.committedInstrs, 0u);
    // Context 0 stayed idle.
    EXPECT_EQ((machine.core().contextCounters(0) - c0_before)
                  .committedInstrs,
              0u);
    // The secondary context's accesses are attributed to it.
    EXPECT_GT(machine.contextStats(1).misses, 0u);
}

TEST(MultiContext, ExplicitCoRunnersInterleave)
{
    Machine machine(machineConfigForProfile("smt2"));
    Program primary = makePrimary(0);
    Program neighbor = makeNoiseProgram(machine,
                                        NoiseKind::StreamWriter);
    const RunResult result =
        machine.coRun(0, primary, {{1, &neighbor}});
    EXPECT_TRUE(result.halted);
    EXPECT_GT(machine.core().contextCounters(1).committedStores, 0u);
}

TEST(MultiContext, CoRunTrialsAreJobCountIndependent)
{
    // The engine contract extended to noisy co-runs: pooled trials fan
    // out over any worker count with bit-identical results.
    auto run_trials = [](int jobs) {
        MachinePool pool(machineConfigForProfile("smt2_plru"),
                         [](Machine &machine) {
                             installNoise(machine, 1,
                                          NoiseKind::PointerChase);
                         });
        ScenarioContext ctx(8, jobs, 42, "smt2_plru", ParamSet());
        return ctx.mapTrials([&](int index, Rng &) {
            auto lease = pool.lease();
            return coRunOnce(lease.machine(), index % 3);
        });
    };
    const auto serial = run_trials(1);
    const auto parallel = run_trials(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_TRUE(serial[i] == parallel[i]) << "trial " << i;
}

TEST(MultiContext, BackgroundsSurviveAcrossRunsAndRestart)
{
    // Two identical runs against a registered background give the
    // same neighbor interleaving both times (the background restarts
    // fresh each run) apart from persistent-cache warmup effects.
    Machine a(machineConfigForProfile("smt2"));
    installNoise(a, 1, NoiseKind::StreamWriter);
    Machine b(machineConfigForProfile("smt2"));
    installNoise(b, 1, NoiseKind::StreamWriter);
    coRunOnce(a, 0);
    coRunOnce(b, 0);
    const CoRunFingerprint second_a = coRunOnce(a, 0);
    const CoRunFingerprint second_b = coRunOnce(b, 0);
    EXPECT_TRUE(second_a == second_b);
}

} // namespace
} // namespace hr
