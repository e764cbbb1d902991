/**
 * @file
 * Periodic-loop forwarding (core/lockstep.hh) is a pure speed knob:
 * every registered gadget, calibrated and sampled both ways on every
 * profile it supports, must produce the same run results, counters and
 * committed registers with CoreConfig::lockstep on as with it off.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gadgets/gadget_registry.hh"
#include "obs/metrics.hh"
#include "sim/machine.hh"
#include "sim/profiles.hh"

namespace hr
{
namespace
{

/** Everything one calibrate + sample(false) + sample(true) produced. */
struct Observed
{
    std::vector<RunResult> runs; ///< every Machine run, in order
    std::vector<TimingSample> samples;
    std::vector<std::vector<std::int64_t>> regs; ///< after each phase
    PerfCounters core;
    Cycle now = 0;
};

Observed
observe(const std::string &gadget, const std::string &profile,
        bool lockstep)
{
    MachineConfig config = machineConfigForProfile(profile);
    config.core.lockstep = lockstep;
    Machine machine(config);
    auto source = GadgetRegistry::instance().make(gadget, machine);
    Observed out;
    if (!source)
        return out;
    TrialTrace trace;
    machine.beginRecord(trace);
    source->calibrate();
    out.regs.push_back(machine.core().committedRegs(0));
    for (bool secret : {false, true}) {
        out.samples.push_back(source->sample(secret));
        out.regs.push_back(machine.core().committedRegs(0));
    }
    machine.endRecord();
    for (const TraceOp &op : trace.ops)
        if (op.kind == TraceOp::Kind::Run)
            out.runs.push_back(op.result);
    out.core = machine.core().counters();
    out.now = machine.now();
    return out;
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

TEST(Lockstep, EveryGadgetMatchesScalarOnEveryProfile)
{
    const std::uint64_t forwards0 = metrics().lockstepForwards.value();
    int compared = 0;
    for (const GadgetInfo *gadget : GadgetRegistry::instance().all()) {
        for (const MachineProfile &profile : machineProfiles()) {
            SCOPED_TRACE(gadget->name + " on " + profile.name);
            const Observed on = observe(gadget->name, profile.name, true);
            const Observed off =
                observe(gadget->name, profile.name, false);
            ASSERT_EQ(on.runs.size(), off.runs.size());
            if (on.runs.empty())
                continue; // incompatible with this profile
            ++compared;
            for (std::size_t i = 0; i < on.runs.size(); ++i) {
                SCOPED_TRACE("run " + std::to_string(i));
                EXPECT_EQ(on.runs[i].startCycle, off.runs[i].startCycle);
                EXPECT_EQ(on.runs[i].endCycle, off.runs[i].endCycle);
                EXPECT_EQ(on.runs[i].halted, off.runs[i].halted);
                expectSameCounters(on.runs[i].counters,
                                   off.runs[i].counters);
            }
            ASSERT_EQ(on.samples.size(), off.samples.size());
            for (std::size_t i = 0; i < on.samples.size(); ++i) {
                EXPECT_EQ(on.samples[i].cycles, off.samples[i].cycles);
                EXPECT_EQ(on.samples[i].bit, off.samples[i].bit);
            }
            EXPECT_EQ(on.regs, off.regs);
            expectSameCounters(on.core, off.core);
            EXPECT_EQ(on.now, off.now);
        }
    }
    EXPECT_GE(compared, static_cast<int>(
                            GadgetRegistry::instance().all().size()));
    EXPECT_GT(metrics().lockstepForwards.value(), forwards0);
}

TEST(Lockstep, ArithMagnifierIsForwarded)
{
    // Guards the test above against passing vacuously: the magnifier's
    // steady-state loop must actually take the forwarding path.
    const std::uint64_t before = metrics().lockstepForwards.value();
    const Observed on = observe("arith_magnifier", "default", true);
    ASSERT_FALSE(on.runs.empty());
    EXPECT_GT(metrics().lockstepForwards.value(), before);
}

} // namespace
} // namespace hr
