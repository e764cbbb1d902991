/**
 * @file
 * Static leakage analyzer tests: taint round-trips on hand-built
 * programs with known verdicts, footprint-vs-dynamic agreement across
 * every machine profile, determinism of the analyze driver across
 * worker counts, and the unknown-name suggestion contract.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <stdexcept>

#include "analysis/analyze.hh"
#include "analysis/capacity.hh"
#include "analysis/leakage.hh"
#include "channel/channel.hh"
#include "channel/channel_registry.hh"
#include "isa/program.hh"
#include "sim/machine.hh"
#include "sim/profiles.hh"

namespace hr
{
namespace
{

std::string
messageOf(const std::function<void()> &action)
{
    try {
        action();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

bool
hasFinding(const TaintReport &report, LeakKind kind)
{
    for (const TaintFinding &finding : report.findings)
        if (finding.kind == kind)
            return true;
    return false;
}

// ---------------------------------------------------------------------
// Taint round-trips: known-leaky and known-clean programs.
// ---------------------------------------------------------------------

TEST(Taint, SecretIndexedLoadIsFlagged)
{
    ProgramBuilder b("t");
    const RegId secret = b.newReg();
    Instruction load;
    load.op = Opcode::Load;
    load.dst = b.newReg();
    load.src0 = secret;
    load.scale0 = 64;
    load.imm = 0x1000;
    b.emit(load);
    b.halt();
    const Program program = b.take();

    TaintSpec spec;
    spec.regs = {secret};
    const TaintReport report =
        analyzeTaint(*decodeProgram(program), spec);
    EXPECT_FALSE(report.constantTime());
    EXPECT_TRUE(hasFinding(report, LeakKind::Address));
}

TEST(Taint, ArithmeticOnlyIsConstantTime)
{
    // The secret flows through every ALU class and is stored to a
    // fixed address: no secret-dependent address, branch, or FU mix.
    ProgramBuilder b("t");
    const RegId secret = b.newReg();
    RegId acc = b.binop(Opcode::Add, secret, b.movImm(123));
    acc = b.binop(Opcode::Xor, acc, secret);
    b.chainOpImm(Opcode::Mul, acc, 7);
    b.chainOpImm(Opcode::Div, acc, 3);
    b.chainOpImm(Opcode::Shr, acc, 2);
    b.storeAbsolute(0x2000, acc);
    b.halt();
    const Program program = b.take();

    TaintSpec spec;
    spec.regs = {secret};
    const TaintReport report =
        analyzeTaint(*decodeProgram(program), spec);
    EXPECT_TRUE(report.constantTime()) << "findings: "
                                       << report.findings.size();
}

TEST(Taint, SecretBranchFlagsControlFlow)
{
    ProgramBuilder b("t");
    const RegId secret = b.newReg();
    const std::int32_t slow = b.newLabel();
    const std::int32_t done = b.newLabel();
    b.branch(secret, slow);
    b.loadAbsolute(0x3000);
    b.jump(done);
    b.bind(slow);
    const RegId d = b.movImm(100);
    b.chainOpImm(Opcode::Div, d, 3);
    b.bind(done);
    b.halt();
    const Program program = b.take();

    TaintSpec spec;
    spec.regs = {secret};
    const TaintReport report =
        analyzeTaint(*decodeProgram(program), spec);
    EXPECT_TRUE(hasFinding(report, LeakKind::Branch));
    EXPECT_TRUE(hasFinding(report, LeakKind::ControlMem));
    EXPECT_TRUE(hasFinding(report, LeakKind::ControlFu));
}

TEST(Taint, MemorySecretPropagatesThroughLoad)
{
    // The secret lives at a marked address; the loaded value indexes
    // a second load.
    ProgramBuilder b("t");
    const RegId key = b.loadAbsolute(0x4000);
    Instruction load;
    load.op = Opcode::Load;
    load.dst = b.newReg();
    load.src0 = key;
    load.scale0 = 64;
    load.imm = 0x5000;
    b.emit(load);
    b.halt();
    const Program program = b.take();

    TaintSpec spec;
    spec.addrs = {0x4000};
    const TaintReport report =
        analyzeTaint(*decodeProgram(program), spec);
    EXPECT_TRUE(hasFinding(report, LeakKind::Address));
}

TEST(Taint, OrderingOnlyDependenceDoesNotTaint)
{
    // scale0 = 0 is an ordering-only edge in the ISA: the operand's
    // value (and hence its taint) must not reach the address.
    ProgramBuilder b("t");
    const RegId secret = b.newReg();
    Instruction load;
    load.op = Opcode::Load;
    load.dst = b.newReg();
    load.src0 = secret;
    load.scale0 = 0;
    load.imm = 0x6000;
    b.emit(load);
    b.halt();
    const Program program = b.take();

    TaintSpec spec;
    spec.regs = {secret};
    const TaintReport report =
        analyzeTaint(*decodeProgram(program), spec);
    EXPECT_TRUE(report.constantTime());
}

// ---------------------------------------------------------------------
// The built-in demo corpus round-trips through the full pipeline
// (taint + differential + dynamic cross-validation).
// ---------------------------------------------------------------------

TEST(Analysis, DemoCorpusVerdictsAndValidation)
{
    for (const ProgramTarget &target : programTargets()) {
        const LeakageReport report =
            analyzeProgramTarget(target, "default", /*validate=*/true);
        EXPECT_EQ(report.status, "ok") << target.name;
        EXPECT_TRUE(report.validation.ran) << target.name;
        EXPECT_TRUE(report.validation.passed)
            << target.name << ": "
            << (report.validation.failures.empty()
                    ? ""
                    : report.validation.failures.front());
        const bool expect_clean =
            target.name.rfind("clean_", 0) == 0;
        EXPECT_EQ(report.constantTime, expect_clean) << target.name;
    }
}

// ---------------------------------------------------------------------
// Footprint model vs the real machine, on every registered profile.
// ---------------------------------------------------------------------

TEST(Analysis, FootprintMatchesDynamicOnEveryProfile)
{
    for (const MachineProfile &profile : machineProfiles()) {
        const MachineConfig config =
            machineConfigForProfile(profile.name);

        // Branch-free pointer chase over poked words + disjoint
        // stores: statically fully resolved, so the model must be
        // exact on fills and accesses.
        ProgramBuilder b("chase");
        RegId p = b.movImm(0x9000'0000);
        for (int hop = 0; hop < 4; ++hop)
            p = b.loadPointer(p);
        b.storeAbsolute(0x9100'0000, p);
        b.storeAbsolute(0x9100'0040, p);
        b.halt();
        Program program = b.take();

        const std::map<Addr, std::int64_t> pokes = {
            {0x9000'0000, 0x9000'1000},
            {0x9000'1000, 0x9000'2000},
            {0x9000'2000, 0x9000'3000},
            {0x9000'3000, 0x9000'4000},
        };

        FootprintBuilder builder(config);
        builder.addProgram(
            interpretProgram(*decodeProgram(program), {}, pokes));
        const CacheFootprint fp = builder.finish();
        ASSERT_TRUE(fp.accessesExact) << profile.name;
        ASSERT_TRUE(fp.fillsExact) << profile.name;

        Machine machine(config);
        for (const auto &[addr, value] : pokes)
            machine.poke(addr, value);
        machine.run(program);
        machine.settle();
        std::uint64_t accesses = 0, fills = 0;
        for (int c = 0; c < machine.contexts(); ++c) {
            const ContextAccessStats stats =
                machine.contextStats(static_cast<ContextId>(c));
            accesses += stats.hits[0] + stats.misses;
            fills += stats.fills;
        }
        EXPECT_EQ(accesses, fp.memOps) << profile.name;
        EXPECT_EQ(fills, fp.predictedFills) << profile.name;
    }
}

// ---------------------------------------------------------------------
// The analyze driver is deterministic across worker counts.
// ---------------------------------------------------------------------

TEST(Analysis, DriverDeterministicAcrossJobs)
{
    AnalyzeOptions options;
    options.targets = {"repetition", "coarse_timer",
                       "secret_indexed_load", "clean_arith"};
    options.validate = false;

    std::string renders[2];
    const int jobs[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        options.jobs = jobs[i];
        std::ostringstream os;
        printReportJson(os, runAnalysis(options));
        renders[i] = os.str();
    }
    EXPECT_EQ(renders[0], renders[1]);
    EXPECT_NE(renders[0].find("\"leak_class\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Capacity soundness regression: measured per-symbol MI never exceeds
// the static QIF bound, and the bound is tight for several channels
// (the ISSUE 8 acceptance bar, same math as the
// fig_capacity_bound_vs_measured scenario).
// ---------------------------------------------------------------------

TEST(Analysis, CapacityBoundsMeasuredShannonMi)
{
    const char *profile = "smt2_plru";
    const MachineConfig config = machineConfigForProfile(profile);
    int measured = 0;
    int tight = 0;
    for (const ChannelInfo *info : ChannelRegistry::instance().all()) {
        const CapacityReport report =
            analyzeChannelCapacity(info->name, profile, {});
        ASSERT_EQ(report.status, "ok") << info->name;

        Machine machine(config);
        Channel channel(
            ChannelRegistry::instance().makeConfig(info->name, {}));
        if (!channel.compatible(machine))
            continue;
        channel.prepare(machine);
        std::vector<bool> symbols;
        for (int i = 0; i < 64; ++i)
            symbols.push_back(i % 2 == 1);
        const ChannelStats stats =
            channel.measureSymbols(machine, symbols);
        const double mi = stats.shannonBitsPerSymbol();
        EXPECT_LE(mi, report.bound.bits + 1e-9) << info->name;
        ++measured;
        tight += report.bound.bits - mi <= 1.0 ? 1 : 0;
    }
    EXPECT_EQ(measured,
              static_cast<int>(ChannelRegistry::instance().all().size()));
    EXPECT_GE(tight, 3);
}

// ---------------------------------------------------------------------
// Unknown names fail with edit-distance suggestions everywhere.
// ---------------------------------------------------------------------

TEST(Analysis, UnknownTargetSuggests)
{
    AnalyzeOptions options;
    options.targets = {"secret_indexed_loda"};
    const std::string message =
        messageOf([&] { runAnalysis(options); });
    EXPECT_NE(message.find("unknown target"), std::string::npos)
        << message;
    EXPECT_NE(message.find("secret_indexed_load"), std::string::npos)
        << message;
}

TEST(Analysis, UnknownProfileSuggests)
{
    const std::string message =
        messageOf([] { machineConfigForProfile("smt_2"); });
    EXPECT_NE(message.find("unknown machine profile"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("did you mean 'smt2'"), std::string::npos)
        << message;
}

} // namespace
} // namespace hr
