#include "sim/machine.hh"

#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hr
{

namespace
{

/** Run bookkeeping at the public run/coRun boundary. */
void
noteMachineRun(ContextId ctx, const RunResult &result)
{
    metrics().machineRuns.add();
    metrics().machineRunInstrs.observe(result.counters.committedInstrs);
    HR_TRACE_COUNTER("sim", "sim.cycles", ctx, result.endCycle);
}

/**
 * The decoded image of @p program, assigning its id and image together
 * on first use. A program whose code size or register count no longer
 * matches its image was mutated in place under its old id: it gets a
 * fresh id (cold predictor state, so simulated timing is unaffected)
 * and a new image.
 */
const std::shared_ptr<const DecodedProgram> &
programImage(Program &program)
{
    if (program.id != 0 && program.decoded) {
        const DecodedProgram &image = *program.decoded;
        // O(1) check: this runs per machine call, so a deep compare
        // would cost as much as the decode it avoids. Same-size
        // in-place mutation under a live id is a contract violation
        // only debug builds pay to detect.
        if (image.numRegs == program.numRegs &&
            image.code.size() == program.code.size()) {
#ifndef NDEBUG
            fatalIf(!sameCode(image.code, program.code),
                    "Machine: program '" + program.name +
                        "' was mutated in place under a live id; "
                        "reset program.id = 0 after mutating code");
#endif
            metrics().decodeHits.add();
            return program.decoded;
        }
        metrics().decodeInvalidations.add();
        HR_TRACE_INSTANT1("decode", "decode.invalidate", "program",
                          program.id);
        program.id = 0;
    }
    if (program.id == 0)
        program.id = allocateProgramId();
    metrics().decodeMisses.add();
    HR_TRACE_INSTANT1("decode", "decode.miss", "program", program.id);
    program.decoded = decodeProgram(program);
    return program.decoded;
}

} // namespace

MachineConfig
MachineConfig::defaultProfile()
{
    return MachineConfig{};
}

MachineConfig
MachineConfig::effectiveWindowProfile()
{
    MachineConfig config;
    config.core.robSize = 64;
    return config;
}

MachineConfig
MachineConfig::noisyProfile(std::uint64_t seed)
{
    MachineConfig config;
    config.memory.l3Jitter = 8;
    config.memory.memJitter = 30;
    config.memory.rngSeed = seed;
    return config;
}

MachineConfig
MachineConfig::plruProfile()
{
    MachineConfig config;
    config.memory.l1.numSets = 128;
    config.memory.l1.assoc = 4;
    config.memory.l1.policy = PolicyKind::TreePlru;
    return config;
}

MachineConfig
MachineConfig::randomL1Profile(std::uint64_t seed)
{
    MachineConfig config;
    config.memory.l1.numSets = 64;
    config.memory.l1.assoc = 8;
    config.memory.l1.policy = PolicyKind::Random;
    config.memory.l1.rngSeed = seed;
    config.memory.l1Mshrs = 16;
    return config;
}

MachineConfig &
MachineConfig::withInterrupts(double interval_ms)
{
    core.interruptInterval =
        static_cast<Cycle>(interval_ms * 1e6 * ghz);
    return *this;
}

namespace
{

/** Propagate MachineConfig::contexts into the hierarchy's config. */
MachineConfig
normalized(MachineConfig config)
{
    fatalIf(config.contexts < 1, "MachineConfig: contexts must be >= 1");
    config.memory.contexts = config.contexts;
    return config;
}

} // namespace

Machine::Machine(const MachineConfig &config)
    : config_(normalized(config)), hierarchy_(config_.memory)
{
    core_ = std::make_unique<OooCore>(config_.core, hierarchy_, memory_,
                                      predictor_, config_.contexts);
}

double
Machine::toNs(Cycle cycles) const
{
    return static_cast<double>(cycles) / config_.ghz;
}

Machine::Snapshot
Machine::snapshot()
{
    if (recording_)
        markOpaque();
    Snapshot snap;
    snap.hierarchy = hierarchy_.snapshot();
    snap.core = core_->snapshot();
    snap.predictor = predictor_;
    snap.memory = memory_;
    return snap;
}

void
Machine::restore(const Snapshot &snap)
{
    if (recording_)
        markOpaque();
    hierarchy_.restore(snap.hierarchy);
    core_->restore(snap.core);
    predictor_ = snap.predictor;
    memory_ = snap.memory;
}

RunResult
Machine::run(Program &program,
             const std::vector<std::pair<RegId, std::int64_t>>
                 &initial_regs,
             Cycle max_cycles)
{
    return run(0, program, initial_regs, max_cycles);
}

RunResult
Machine::run(ContextId ctx, Program &program,
             const std::vector<std::pair<RegId, std::int64_t>>
                 &initial_regs,
             Cycle max_cycles)
{
    return coRun(ctx, program, {}, initial_regs, max_cycles);
}

RunResult
Machine::coRun(ContextId ctx, Program &program,
               const std::vector<std::pair<ContextId, Program *>> &extras,
               const std::vector<std::pair<RegId, std::int64_t>>
                   &initial_regs,
               Cycle max_cycles)
{
    fatalIf(ctx >= static_cast<ContextId>(config_.contexts),
            "Machine::run: context out of range");
    TraceOp::RunSpec spec;
    spec.decoded = programImage(program);
    spec.initialRegs = initial_regs;

    ContextProgram primary;
    primary.ctx = ctx;
    primary.decoded = spec.decoded.get();
    primary.programId = program.id;
    primary.initialRegs = initial_regs;

    std::vector<ContextProgram> others;
    for (const auto &[extra_ctx, extra_prog] : extras) {
        fatalIf(extra_ctx >= static_cast<ContextId>(config_.contexts),
                "Machine::coRun: co-runner context out of range");
        fatalIf(extra_ctx == ctx,
                "Machine::coRun: co-runner on the primary context");
        for (const ContextProgram &other : others)
            fatalIf(other.ctx == extra_ctx,
                    "Machine::coRun: two co-runners on one context");
        spec.extras.push_back(programImage(*extra_prog));
        ContextProgram cp;
        cp.ctx = extra_ctx;
        cp.decoded = spec.extras.back().get();
        cp.programId = extra_prog->id;
        others.push_back(std::move(cp));
    }
    // Registered backgrounds fill in every context no explicit
    // co-runner claimed; each run restarts them from the top.
    for (auto &[bg_ctx, bg] : backgrounds_) {
        if (bg_ctx == ctx)
            continue;
        bool taken = false;
        for (const ContextProgram &other : others)
            taken |= other.ctx == bg_ctx;
        if (taken)
            continue;
        ContextProgram cp;
        cp.ctx = bg_ctx;
        cp.decoded = bg.decoded.get();
        cp.programId = bg.id;
        others.push_back(std::move(cp));
    }

    RunResult result = core_->coRun(primary, others, max_cycles);
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::Run;
        op.run = std::move(spec);
        op.result = result;
        recording_->ops.push_back(std::move(op));
    }
    noteMachineRun(ctx, result);
    return result;
}

void
Machine::setBackground(ContextId ctx, Program program)
{
    fatalIf(ctx == 0, "Machine::setBackground: context 0 is the "
                      "primary context");
    fatalIf(ctx >= static_cast<ContextId>(config_.contexts),
            "Machine::setBackground: context out of range (configure "
            "MachineConfig::contexts)");
    if (recording_)
        markOpaque();
    // The registered copy gets its own fresh (cold-predictor) id even
    // if the caller's program already ran elsewhere: backgrounds are
    // machine configuration and never share predictor state with the
    // foreground instance of the same code.
    program.id = 0;
    programImage(program);
    backgrounds_.insert_or_assign(ctx, std::move(program));
}

void
Machine::clearBackground(ContextId ctx)
{
    if (recording_)
        markOpaque();
    backgrounds_.erase(ctx);
}

void
Machine::clearBackgrounds()
{
    if (recording_)
        markOpaque();
    backgrounds_.clear();
}

// ---- harness operations -------------------------------------------------

void
Machine::poke(Addr addr, std::int64_t value)
{
    memory_.write(addr, value);
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::Poke;
        op.addr = addr;
        op.value = value;
        recording_->ops.push_back(std::move(op));
    }
}

std::int64_t
Machine::peek(Addr addr) const
{
    return memory_.read(addr);
}

void
Machine::flushLine(Addr addr)
{
    hierarchy_.flushLine(addr);
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::FlushLine;
        op.addr = addr;
        recording_->ops.push_back(std::move(op));
    }
}

void
Machine::flushAllCaches()
{
    hierarchy_.flushAll();
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::FlushAll;
        recording_->ops.push_back(std::move(op));
    }
}

void
Machine::warm(Addr addr, int upto_level)
{
    hierarchy_.warm(addr, upto_level);
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::Warm;
        op.addr = addr;
        recording_->ops.push_back(std::move(op));
    }
}

int
Machine::probeLevel(Addr addr) const
{
    return hierarchy_.probeLevel(addr);
}

void
Machine::settle()
{
    hierarchy_.drainAllFills();
}

Cycle
Machine::now() const
{
    return core_->cycle();
}

ContextAccessStats
Machine::contextStats(ContextId ctx) const
{
    return hierarchy_.contextStats(ctx);
}

std::uint64_t
Machine::cacheMisses(int level) const
{
    switch (level) {
      case 1:
        return hierarchy_.l1().stats().misses;
      case 2:
        return hierarchy_.l2().stats().misses;
      case 3:
        return hierarchy_.l3().stats().misses;
      default:
        fatal("Machine::cacheMisses: level must be 1-3");
    }
}

void
Machine::reseedNoise(std::uint64_t mix)
{
    metrics().machineReseeds.add();
    hierarchy_.reseed(config_.memory.rngSeed ^ mix,
                      config_.memory.l1.rngSeed ^ mix,
                      config_.memory.l2.rngSeed ^ mix,
                      config_.memory.l3.rngSeed ^ mix);
}

// ---- recording -----------------------------------------------------------

void
Machine::beginRecord(TrialTrace &trace)
{
    panicIf(recording_ != nullptr, "Machine::beginRecord: already "
                                   "recording");
    recording_ = &trace;
}

void
Machine::endRecord()
{
    panicIf(recording_ == nullptr,
            "Machine::endRecord: not recording");
    HR_TRACE_INSTANT1("machine", "machine.record", "ops",
                      recording_->ops.size());
    recording_ = nullptr;
}

void
Machine::markOpaque()
{
    recording_->opaque = true;
    HR_TRACE_INSTANT("machine", "machine.trace_opaque");
}

} // namespace hr
