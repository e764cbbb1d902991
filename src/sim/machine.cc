#include "sim/machine.hh"

#include <cstring>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/log.hh"

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

MachineConfig &
MachineConfig::withContexts(int n)
{
    contexts = n;
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

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

struct Fingerprinter
{
    std::uint64_t hash = kFnvOffset;

    void
    mix(std::uint64_t value)
    {
        hash ^= value;
        hash *= kFnvPrime;
    }

    void
    mix(double value)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &value, sizeof(bits));
        mix(bits);
    }

    void
    mix(const FuConfig &fu)
    {
        mix(static_cast<std::uint64_t>(fu.count));
        mix(fu.latency);
        mix(fu.initInterval);
    }

    void
    mix(const CacheConfig &cache)
    {
        mix(static_cast<std::uint64_t>(cache.numSets));
        mix(static_cast<std::uint64_t>(cache.assoc));
        mix(static_cast<std::uint64_t>(cache.lineBytes));
        mix(static_cast<std::uint64_t>(cache.policy));
        mix(cache.rngSeed);
    }
};

} // namespace

std::uint64_t
machineConfigFingerprint(const MachineConfig &config)
{
    Fingerprinter fp;
    const CoreConfig &core = config.core;
    fp.mix(static_cast<std::uint64_t>(core.fetchWidth));
    fp.mix(static_cast<std::uint64_t>(core.issueWidth));
    fp.mix(static_cast<std::uint64_t>(core.commitWidth));
    fp.mix(static_cast<std::uint64_t>(core.robSize));
    fp.mix(static_cast<std::uint64_t>(core.iqSize));
    fp.mix(core.intAlu);
    fp.mix(core.intMul);
    fp.mix(core.fpDiv);
    fp.mix(core.memRead);
    fp.mix(core.memWrite);
    fp.mix(core.branchU);
    fp.mix(core.mispredictPenalty);
    fp.mix(std::uint64_t{core.readyOrderIssue ? 1u : 0u});
    fp.mix(std::uint64_t{core.delayOnMiss ? 1u : 0u});
    fp.mix(core.interruptInterval);
    fp.mix(core.interruptOverhead);

    const HierarchyConfig &mem = config.memory;
    fp.mix(mem.l1);
    fp.mix(mem.l2);
    fp.mix(mem.l3);
    fp.mix(mem.l1Latency);
    fp.mix(mem.l2Latency);
    fp.mix(mem.l3Latency);
    fp.mix(mem.memLatency);
    fp.mix(mem.l3Jitter);
    fp.mix(mem.memJitter);
    fp.mix(static_cast<std::uint64_t>(mem.l1Mshrs));
    fp.mix(std::uint64_t{mem.inclusiveL3 ? 1u : 0u});
    fp.mix(mem.rngSeed);
    fp.mix(static_cast<std::uint64_t>(mem.contexts));

    fp.mix(config.ghz);
    fp.mix(static_cast<std::uint64_t>(config.contexts));
    return fp.hash;
}

Machine::Machine(const MachineConfig &config)
    : config_(normalized(config)),
      fingerprint_(machineConfigFingerprint(config_)),
      hierarchy_(config_.memory)
{
    core_ = std::make_unique<OooCore>(config_.core, hierarchy_, memory_,
                                      predictor_, config_.contexts);
    decodeCache_ = std::make_shared<DecodeCache>(fingerprint_);
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

std::shared_ptr<const DecodedProgram>
Machine::decodeProgram(Program &program)
{
    return decodeCache_->acquire(program);
}

void
Machine::shareDecodeCache(const std::shared_ptr<DecodeCache> &cache)
{
    fatalIf(cache == nullptr, "Machine::shareDecodeCache: null cache");
    fatalIf(cache->configFingerprint() != fingerprint_,
            "Machine::shareDecodeCache: cache was built for a machine "
            "with a different configuration fingerprint");
    decodeCache_ = cache;
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
    fatalIf(ctx >= static_cast<ContextId>(config_.contexts),
            "Machine::run: context out of range");
    auto decoded = decodeCache_->acquire(program);
    RunResult result =
        realRun(ctx, *decoded, program.id, initial_regs, max_cycles);
    if (recording_) {
        TraceOp op;
        op.kind = TraceOp::Kind::Run;
        op.run.decoded = std::move(decoded);
        op.run.initialRegs = initial_regs;
        op.result = result;
        recording_->ops.push_back(std::move(op));
    }
    noteMachineRun(ctx, result);
    return result;
}

RunResult
Machine::realRun(ContextId ctx, const DecodedProgram &decoded,
                 std::uint64_t program_id,
                 const std::vector<std::pair<RegId, std::int64_t>>
                     &initial_regs,
                 Cycle max_cycles)
{
    if (backgrounds_.empty()) {
        // Fast path, and the exact legacy single-context code path.
        if (ctx == 0)
            return core_->run(decoded, program_id, initial_regs,
                              max_cycles);
        return core_->runOn(ctx, decoded, program_id, initial_regs,
                            max_cycles);
    }

    ContextProgram primary;
    primary.ctx = ctx;
    primary.decoded = &decoded;
    primary.programId = program_id;
    primary.initialRegs = initial_regs;

    // Registered backgrounds fill in every other context; each run
    // restarts them from the top.
    std::vector<ContextProgram> others;
    for (auto &[bg_ctx, bg] : backgrounds_) {
        if (bg_ctx == ctx)
            continue;
        ContextProgram spec;
        spec.ctx = bg_ctx;
        spec.decoded = bg.decoded.get();
        spec.programId = bg.program.id;
        others.push_back(std::move(spec));
    }
    return core_->coRun(primary, others, max_cycles);
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
    spec.decoded = decodeCache_->acquire(program);
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
        spec.extras.push_back(decodeCache_->acquire(*extra_prog));
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
        cp.programId = bg.program.id;
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
    Background bg;
    bg.program = std::move(program);
    bg.program.id = 0;
    bg.decoded = decodeCache_->acquire(bg.program);
    backgrounds_.insert_or_assign(ctx, std::move(bg));
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
