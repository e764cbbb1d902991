#include "analysis/leakage.hh"

#include <algorithm>
#include <mutex>
#include <sstream>

#include "channel/channel_registry.hh"
#include "gadgets/gadget_registry.hh"
#include "obs/log.hh"
#include "sim/profiles.hh"
#include "util/memory_image.hh"

namespace hr
{
namespace
{

/** Interpreter budget for recorded co-runners (endless loops). */
constexpr std::uint64_t kCoRunnerCap = 100'000;

} // namespace

CacheFootprint
foldTrialTrace(const TrialTrace &trace, const MachineConfig &config)
{
    FootprintBuilder builder(config);
    std::map<Addr, std::int64_t> memory;
    for (const TraceOp &op : trace.ops) {
        switch (op.kind) {
          case TraceOp::Kind::Poke:
            memory[MemoryImage::wordAddr(op.addr)] = op.value;
            break;
          case TraceOp::Kind::Warm:
            builder.addWarm(op.addr);
            break;
          case TraceOp::Kind::FlushLine:
            builder.addFlushLine(op.addr);
            break;
          case TraceOp::Kind::FlushAll:
            builder.addFlushAll();
            break;
          case TraceOp::Kind::Run: {
            InterpOptions options;
            InterpResult primary = interpretProgram(
                *op.run.decoded, op.run.initialRegs, memory, options);
            // A primary run the machine cut off at maxCycles executed
            // only a prefix of the interpreter's stream: downgrade it
            // to approximate so no exactness contract cites it.
            if (!op.result.halted)
                primary.capped = true;
            builder.addProgram(primary, /*primary=*/true);
            // Co-runners are abandoned when the primary halts; their
            // architectural stream is a capped approximation.
            InterpOptions extra_options;
            extra_options.stepCap = kCoRunnerCap;
            std::vector<InterpResult> extras;
            for (const auto &extra : op.run.extras) {
                extras.push_back(interpretProgram(*extra, {}, memory,
                                                  extra_options));
                builder.addProgram(extras.back(), /*primary=*/false);
            }
            for (const auto &[addr, value] : primary.memOut)
                memory[addr] = value;
            for (const InterpResult &extra : extras)
                for (const auto &[addr, value] : extra.memOut)
                    memory[addr] = value;
            break;
          }
        }
    }
    return builder.finish();
}

GadgetRecording
recordGadgetFootprints(const std::string &gadget, const std::string &profile,
                       const ParamSet &params)
{
    static const std::vector<std::string> kCandidates = {
        "default", "plru", "smt2", "smt2_plru"};
    const std::vector<std::string> candidates =
        profile.empty() ? kCandidates : std::vector<std::string>{profile};
    GadgetRecording recording;
    try {
        for (const std::string &candidate : candidates) {
            recording.profile = candidate;
            recording.lease.reset();
            recording.pool = std::make_unique<MachinePool>(
                machineConfigForProfile(candidate));
            recording.lease.emplace(recording.pool->lease());
            recording.source = GadgetRegistry::instance().make(
                gadget, recording.lease->machine(), params);
            if (recording.source)
                break;
        }
        if (!recording.source) {
            recording.status = "incompatible";
            return recording;
        }
        const MachinePool::Lease &lease = *recording.lease;
        Machine &machine = lease.machine();
        TimingSource &source = *recording.source;
        try {
            source.calibrate();
            source.sample(false);
            source.sample(true);
        } catch (const std::exception &) {
            recording.status = "calib_fail";
            return recording;
        }
        const MachineConfig config =
            machineConfigForProfile(recording.profile);
        for (int polarity = 0; polarity < 2; ++polarity) {
            lease.restore();
            TrialTrace trace;
            machine.beginRecord(trace);
            source.sample(polarity == 1);
            machine.endRecord();
            recording.opaque |= trace.opaque;
            recording.footprint[polarity] = foldTrialTrace(trace, config);
        }
    } catch (const std::exception &e) {
        recording.status = std::string("error: ") + e.what();
    }
    return recording;
}

namespace
{

/** Sum of traced per-context demand observations after a sample. */
struct Observed
{
    std::uint64_t accesses = 0;
    std::uint64_t fills = 0;
    std::uint64_t misses = 0;
};

Observed
observe(const Machine &machine)
{
    Observed out;
    for (int c = 0; c < machine.contexts(); ++c) {
        const ContextAccessStats stats =
            machine.contextStats(static_cast<ContextId>(c));
        out.accesses += stats.hits[0] + stats.misses;
        out.fills += stats.fills;
        out.misses += stats.misses;
    }
    return out;
}

/** Static-vs-dynamic checks shared by gadget and program validation. */
void
checkPolarity(ValidationResult &v, const CacheFootprint &fp,
              const Observed &obs, int polarity)
{
    const char *side = polarity == 0 ? "fast" : "slow";
    if (fp.accessesExact) {
        if (obs.accesses != fp.memOps)
            v.failures.push_back(
                std::string(side) + ": accesses " +
                std::to_string(obs.accesses) + " != static " +
                std::to_string(fp.memOps));
    } else if (obs.accesses < fp.completedMemOps) {
        v.failures.push_back(
            std::string(side) + ": accesses " +
            std::to_string(obs.accesses) + " < static lower bound " +
            std::to_string(fp.completedMemOps));
    }
    if (fp.fillsExact && obs.fills != fp.predictedFills)
        v.failures.push_back(std::string(side) + ": fills " +
                             std::to_string(obs.fills) + " != static " +
                             std::to_string(fp.predictedFills));
}

void
checkDistinguishability(ValidationResult &v, const LeakageReport &report)
{
    const bool same =
        v.observedAccesses[0] == v.observedAccesses[1] &&
        v.observedFills[0] == v.observedFills[1] &&
        v.observedMisses[0] == v.observedMisses[1] &&
        v.observedCycles[0] == v.observedCycles[1];
    if (!report.constantTime && same)
        v.failures.push_back("static verdict is leaky but the two "
                             "polarities were dynamically identical");
    if (report.constantTime && report.footprint[0].accessesExact &&
        report.footprint[1].accessesExact && !same)
        v.failures.push_back("static verdict is constant-time but the "
                             "polarities diverged dynamically");
}

/** Build the final class/observer fields once both footprints exist. */
void
finishReport(LeakageReport &report, const MachineConfig &config)
{
    report.diff = diffFootprints(report.footprint[0], report.footprint[1],
                                 config);
    report.leakClass = classifyLeak(report.diff);
    report.constantTime = report.leakClass == "constant_time" &&
                          report.taintFindings.empty();
    report.observers = predictObservers(report.diff, config);
    // A leaky gadget's own readout observes its own state difference
    // by construction; record that so observer-superset checks against
    // self-measuring channels are explicit rather than implied.
    if (!report.constantTime && report.kind != "program") {
        const std::string self =
            report.gadget.empty() ? report.target : report.gadget;
        if (std::find(report.observers.begin(), report.observers.end(),
                      self) == report.observers.end())
            report.observers.push_back(self);
        std::sort(report.observers.begin(), report.observers.end());
    }
}

} // namespace

LeakageReport
analyzeGadget(const std::string &name, const std::string &profile,
              const ParamSet &params, bool validate)
{
    LeakageReport report;
    report.kind = "gadget";
    const GadgetInfo &info = GadgetRegistry::instance().resolve(name);
    report.target = info.name;
    report.gadget = info.name;

    // Record and validate on ONE leased machine: the source is bound
    // to it and folds one-time calibration work into its first
    // samples, so priming it there (calibrate + one throwaway sample
    // per polarity) and restoring the lease's base state before each
    // recorded or validated sample is what makes those samples the
    // source's steady-state behaviour — the behaviour channels run.
    GadgetRecording recording =
        recordGadgetFootprints(info.name, profile, params);
    report.profile = recording.profile;
    report.status = recording.status;
    if (recording.status != "ok")
        return report;
    report.opaque = recording.opaque;
    report.footprint[0] = std::move(recording.footprint[0]);
    report.footprint[1] = std::move(recording.footprint[1]);
    const MachinePool::Lease &lease = *recording.lease;
    Machine &machine = lease.machine();
    finishReport(report, machineConfigForProfile(report.profile));
    report.detail = info.kind;

    if (validate) {
        ValidationResult &v = report.validation;
        v.ran = true;
        try {
            for (int polarity = 0; polarity < 2; ++polarity) {
                lease.restore();
                const Cycle start = machine.now();
                recording.source->sample(polarity == 1);
                machine.settle();
                const Observed obs = observe(machine);
                v.observedAccesses[polarity] = obs.accesses;
                v.observedFills[polarity] = obs.fills;
                v.observedMisses[polarity] = obs.misses;
                v.observedCycles[polarity] = machine.now() - start;
                checkPolarity(v, report.footprint[polarity], obs,
                              polarity);
            }
            checkDistinguishability(v, report);
        } catch (const std::exception &e) {
            v.failures.push_back(std::string("error: ") + e.what());
        }
        v.passed = v.failures.empty();
    }
    return report;
}

LeakageReport
analyzeChannel(const std::string &name, const std::string &profile,
               const ParamSet &params, bool validate)
{
    const ChannelInfo &info = ChannelRegistry::instance().resolve(name);
    // Analyze the gadget exactly as this channel configures it: the
    // channel's own gadget defaults merged with the caller's params
    // (channel-level keys like frame_bits are split off by makeConfig).
    const ChannelConfig config =
        ChannelRegistry::instance().makeConfig(info.name, params);
    LeakageReport report =
        analyzeGadget(config.gadget, profile, config.gadgetParams, validate);
    report.kind = "channel";
    report.target = info.name;
    report.detail = info.modulation + " over " + info.gadget;
    return report;
}

LeakageReport
analyzeProgramTarget(const ProgramTarget &target,
                     const std::string &profile, bool validate)
{
    LeakageReport report;
    report.kind = "program";
    report.target = target.name;
    report.profile = profile.empty() ? "default" : profile;
    const MachineConfig config =
        machineConfigForProfile(report.profile);

    const std::shared_ptr<const DecodedProgram> decoded =
        decodeProgram(target.program);

    const auto polarityMemory = [&](int polarity) {
        std::map<Addr, std::int64_t> memory = target.pokes;
        const auto &overrides =
            polarity == 0 ? target.fastPokes : target.slowPokes;
        for (const auto &[addr, value] : overrides)
            memory[addr] = value;
        return memory;
    };

    const TaintReport taint = analyzeTaint(
        *decoded, target.spec, target.fastRegs, polarityMemory(0));
    report.taintFindings = taint.findings;

    for (int polarity = 0; polarity < 2; ++polarity) {
        FootprintBuilder builder(config);
        const auto &regs =
            polarity == 0 ? target.fastRegs : target.slowRegs;
        builder.addProgram(
            interpretProgram(*decoded, regs, polarityMemory(polarity)));
        builder.addUnresolved(
            static_cast<int>(taint.unresolvedMemPcs.size()));
        report.footprint[polarity] = builder.finish();
    }
    finishReport(report, config);
    if (!taint.findings.empty()) {
        std::ostringstream detail;
        detail << taint.findings.size() << " taint finding(s):";
        for (const TaintFinding &finding : taint.findings)
            detail << " pc" << finding.pc << "="
                   << leakKindName(finding.kind);
        report.detail = detail.str();
    } else {
        report.detail = target.description;
    }

    if (validate) {
        MachinePool pool(config);
        ValidationResult &v = report.validation;
        v.ran = true;
        // Equal-count leaks (same number of touches to different
        // lines) are invisible in the aggregate counters, so the
        // line-set delta is validated by presence probes instead —
        // exact whenever nothing could evict on either side.
        const bool probe_lines =
            report.diff.cacheDelta() &&
            report.footprint[0].fillsExact &&
            report.footprint[1].fillsExact;
        try {
            for (int polarity = 0; polarity < 2; ++polarity) {
                MachinePool::Lease lease = pool.lease();
                Machine &machine = lease.machine();
                for (const auto &[addr, value] : polarityMemory(polarity))
                    machine.poke(addr, value);
                Program copy = target.program;
                const Cycle start = machine.now();
                machine.run(copy, polarity == 0 ? target.fastRegs
                                                : target.slowRegs);
                machine.settle();
                const Observed obs = observe(machine);
                v.observedAccesses[polarity] = obs.accesses;
                v.observedFills[polarity] = obs.fills;
                v.observedMisses[polarity] = obs.misses;
                v.observedCycles[polarity] = machine.now() - start;
                checkPolarity(v, report.footprint[polarity], obs,
                              polarity);
                if (probe_lines) {
                    const char *side = polarity == 0 ? "fast" : "slow";
                    const auto &mine = polarity == 0
                                           ? report.diff.linesOnlyA
                                           : report.diff.linesOnlyB;
                    const auto &theirs = polarity == 0
                                             ? report.diff.linesOnlyB
                                             : report.diff.linesOnlyA;
                    for (Addr line : mine)
                        if (machine.probeLevel(line) == 0)
                            v.failures.push_back(
                                std::string(side) +
                                ": predicted-touched line absent");
                    for (Addr line : theirs)
                        if (machine.probeLevel(line) != 0)
                            v.failures.push_back(
                                std::string(side) +
                                ": predicted-untouched line present");
                }
            }
            const bool same =
                v.observedAccesses[0] == v.observedAccesses[1] &&
                v.observedFills[0] == v.observedFills[1] &&
                v.observedCycles[0] == v.observedCycles[1];
            if (report.diff.fuDeltaAny() && same)
                v.failures.push_back(
                    "FU-count delta predicted but polarities were "
                    "dynamically identical");
            if (report.leakClass == "constant_time" &&
                report.taintFindings.empty() &&
                report.footprint[0].accessesExact &&
                report.footprint[1].accessesExact && !same)
                v.failures.push_back(
                    "constant-time verdict but polarities diverged");
        } catch (const std::exception &e) {
            v.failures.push_back(std::string("error: ") + e.what());
        }
        v.passed = v.failures.empty();
    }
    return report;
}

const std::vector<ProgramTarget> &
programTargets()
{
    static const std::vector<ProgramTarget> targets = [] {
        std::vector<ProgramTarget> out;

        // Known leak: the secret selects which cache line a load
        // touches (the classic secret-indexed table lookup).
        {
            ProgramTarget t;
            t.name = "secret_indexed_load";
            t.description =
                "load address = base + secret*64: the archetypal "
                "secret-indexed table lookup";
            ProgramBuilder b(t.name);
            const RegId secret = b.newReg();
            Instruction load;
            load.op = Opcode::Load;
            load.dst = b.newReg();
            load.src0 = secret;
            load.scale0 = 64;
            load.imm = 0x6100'0000;
            b.emit(load);
            b.halt();
            t.program = b.take();
            t.spec.regs = {secret};
            t.fastRegs = {{secret, 0}};
            t.slowRegs = {{secret, 1}};
            t.secretValues = {0, 1, 2, 3, 4, 5, 6, 7};
            out.push_back(std::move(t));
        }

        // Known leak: branch on the secret, with a divide and a load
        // on the taken side only (branch + control-flow findings).
        {
            ProgramTarget t;
            t.name = "secret_branch";
            t.description = "if (secret) { div chain; load A } else "
                            "{ load B }";
            ProgramBuilder b(t.name);
            const RegId secret = b.newReg();
            const std::int32_t slow_path = b.newLabel();
            const std::int32_t done = b.newLabel();
            b.branch(secret, slow_path);
            b.loadAbsolute(0x6200'0000);
            b.jump(done);
            b.bind(slow_path);
            const RegId d = b.movImm(1'000'000);
            b.chainOpImm(Opcode::Div, d, 3);
            b.loadAbsolute(0x6200'2000);
            b.bind(done);
            b.halt();
            t.program = b.take();
            t.spec.regs = {secret};
            t.fastRegs = {{secret, 0}};
            t.slowRegs = {{secret, 1}};
            t.secretValues = {0, 1};
            out.push_back(std::move(t));
        }

        // Known clean: the secret flows through arithmetic only and is
        // stored to a fixed address — constant-time by construction.
        {
            ProgramTarget t;
            t.name = "clean_arith";
            t.description = "arithmetic-only mixing of the secret, "
                            "result stored to a fixed address";
            ProgramBuilder b(t.name);
            const RegId secret = b.newReg();
            RegId acc = b.movImm(0x5a5a);
            acc = b.binop(Opcode::Xor, acc, secret);
            acc = b.binop(Opcode::Add, acc, secret);
            b.chainOpImm(Opcode::Mul, acc, 31);
            b.chainOpImm(Opcode::Shr, acc, 7);
            b.storeAbsolute(0x6300'0000, acc);
            b.halt();
            t.program = b.take();
            t.spec.regs = {secret};
            t.fastRegs = {{secret, 17}};
            t.slowRegs = {{secret, 4242}};
            t.secretValues = {1, 5, 17, 4242};
            out.push_back(std::move(t));
        }

        // Known leak via memory taint: the secret lives in memory and
        // a value loaded from it indexes a second load.
        {
            ProgramTarget t;
            t.name = "secret_mem_index";
            t.description = "value loaded from a secret-marked line "
                            "indexes a second load";
            ProgramBuilder b(t.name);
            const RegId key = b.loadAbsolute(0x6400'0000);
            Instruction load;
            load.op = Opcode::Load;
            load.dst = b.newReg();
            load.src0 = key;
            load.scale0 = 64;
            load.imm = 0x6500'0000;
            b.emit(load);
            b.halt();
            t.program = b.take();
            t.spec.addrs = {0x6400'0000};
            t.fastPokes[0x6400'0000] = 2;
            t.slowPokes[0x6400'0000] = 5;
            t.secretValues = {0, 1, 2, 3};
            out.push_back(std::move(t));
        }

        // Known clean: a pointer chase fully resolved by the memory
        // environment — exercises constant propagation through loads.
        {
            ProgramTarget t;
            t.name = "clean_pointer_chase";
            t.description = "4-hop pointer chase over poked pointers; "
                            "no secret involved";
            ProgramBuilder b(t.name);
            RegId p = b.movImm(0x6600'0000);
            for (int hop = 0; hop < 4; ++hop)
                p = b.loadPointer(p);
            b.storeAbsolute(0x6600'8000, p);
            b.halt();
            t.program = b.take();
            t.pokes[0x6600'0000] = 0x6600'1000;
            t.pokes[0x6600'1000] = 0x6600'2000;
            t.pokes[0x6600'2000] = 0x6600'3000;
            t.pokes[0x6600'3000] = 0x6600'4000;
            t.fastRegs = {};
            t.slowRegs = {};
            out.push_back(std::move(t));
        }
        return out;
    }();
    return targets;
}

const ProgramTarget *
findProgramTarget(const std::string &name)
{
    for (const ProgramTarget &target : programTargets())
        if (target.name == name)
            return &target;
    return nullptr;
}

std::string
leakageClassFor(const std::string &gadget)
{
    static std::mutex mutex;
    static std::map<std::string, std::string> cache;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(gadget);
    if (it != cache.end())
        return it->second;
    std::string verdict;
    try {
        const LeakageReport report =
            analyzeGadget(gadget, "", {}, /*validate=*/false);
        verdict = report.status == "ok" ? report.leakClass
                                        : report.status;
    } catch (const std::exception &) {
        verdict = "n/a";
    }
    cache[gadget] = verdict;
    return verdict;
}

} // namespace hr
