#include "gadgets/racing.hh"

#include "obs/log.hh"

namespace hr
{

TransientPaRace::TransientPaRace(Machine &machine,
                                 const TransientPaRaceConfig &config,
                                 const TargetExpr &expr)
    : machine_(machine), config_(config)
{
    build(expr);
}

void
TransientPaRace::build(const TargetExpr &expr)
{
    ProgramBuilder builder("pa_race[" + expr.name + "]");
    xReg_ = builder.newReg();   // attack input: 0 = train, 1 = attack
    argReg_ = builder.newReg(); // runtime expression argument
    panicIf(argReg_ != kArgReg, "argReg allocation order violated");

    // omx = 1 - x, computed up front (cheap, independent of the race).
    RegId omx = builder.binopImm(Opcode::Sub, xReg_, 1);
    RegId neg_omx = builder.binopImm(Opcode::Mul, omx, -1);

    // Synchronizing head: a load that must miss, on which both paths
    // depend, so they reach the backend long before either can issue.
    RegId sync = builder.loadAbsolute(config_.syncAddr);

    // Measurement path: pre-extension + expression + post-extension.
    SeqBuilder measurement(builder);
    RegId terminator = embedExpression(measurement, sync, expr);
    builder.appendInterleaved({measurement.take()});

    // cond = (terminator & 0) + (1 - x): ready only when the whole
    // measurement path has completed; equals 1 - x.
    RegId cond = builder.binop(Opcode::Add, terminator, neg_omx);

    // if (cond) { baseline(); access[probe]; }
    auto end = builder.newLabel();
    builder.branch(cond, end, /*invert=*/true); // skip body iff cond == 0

    // Baseline path, also synchronized on the head. While this branch
    // is mispredicted (trained not-taken, actually taken), the body
    // executes transiently and races the measurement path above.
    RegId base = builder.binopImm(Opcode::And, sync, 0);
    RegId tail = builder.opChain(config_.refOp, config_.refOps, base, 1);
    RegId zeroed = builder.binopImm(Opcode::And, tail, 0);
    builder.loadOrdered(config_.probeAddr, zeroed);

    builder.bind(end);
    builder.halt();
    program_ = builder.take();
}

void
TransientPaRace::train(std::int64_t arg)
{
    for (int i = 0; i < config_.trainRounds; ++i) {
        machine_.flushLine(config_.syncAddr);
        machine_.run(program_, {{xReg_, 0}, {argReg_, arg}});
        machine_.settle();
        // Training executes the body architecturally (cond = 1), which
        // touches the probe; clean that up (requirement (b) analogue).
        machine_.flushLine(config_.probeAddr);
    }
}

RunResult
TransientPaRace::runAttack(std::int64_t arg)
{
    machine_.flushLine(config_.syncAddr);
    return machine_.run(program_, {{xReg_, 1}, {argReg_, arg}});
}

bool
TransientPaRace::attackAndProbe(std::int64_t arg)
{
    machine_.flushLine(config_.probeAddr);
    runAttack(arg);
    machine_.settle();
    return machine_.probeLevel(config_.probeAddr) != 0;
}

ReorderRace::ReorderRace(Machine &machine, const ReorderRaceConfig &config,
                         const TargetExpr &expr)
    : machine_(machine), config_(config)
{
    fatalIf(config_.addrA == config_.addrB,
            "ReorderRace: A and B must differ");
    build(expr);
}

void
ReorderRace::build(const TargetExpr &expr)
{
    ProgramBuilder builder("reorder_race[" + expr.name + "]");

    RegId sync = builder.loadAbsolute(config_.syncAddr);

    // Measurement path -> access[A].
    SeqBuilder measurement(builder);
    RegId terminator = embedExpression(measurement, sync, expr);
    measurement.loadOrdered(config_.addrA, terminator);

    // Baseline path -> access[B].
    SeqBuilder baseline(builder);
    RegId base = baseline.binopImm(Opcode::And, sync, 0);
    RegId tail = baseline.opChain(config_.refOp, config_.refOps, base, 1);
    RegId zeroed = baseline.binopImm(Opcode::And, tail, 0);
    baseline.loadOrdered(config_.addrB, zeroed);

    builder.appendInterleaved({measurement.take(), baseline.take()});
    builder.halt();
    program_ = builder.take();
}

RunResult
ReorderRace::run()
{
    machine_.flushLine(config_.syncAddr);
    return machine_.run(program_);
}

TransientPaRaceConfig
PaRaceSource::raceConfig(Addr probe) const
{
    TransientPaRaceConfig config = config_.race;
    if (probe != 0)
        config.probeAddr = probe;
    return config;
}

TimingSample
PaRaceSource::sample(bool secret)
{
    TransientPaRace race(
        machine_, raceConfig(0),
        TargetExpr::opChain(config_.targetOp,
                            secret ? config_.slowOps : config_.fastOps));
    const Cycle t0 = machine_.now();
    race.train();
    const bool present = race.attackAndProbe();
    TimingSample s;
    s.cycles = machine_.now() - t0;
    s.ns = machine_.toNs(s.cycles);
    s.bit = present; // present == expression outlasted the baseline
    return s;
}

void
PaRaceSource::bindTarget(Addr primary, Addr)
{
    if (slowRace_ && primary == probeAddr_)
        return;
    probeAddr_ = primary;
    slowRace_ = std::make_unique<TransientPaRace>(
        machine_, raceConfig(primary),
        TargetExpr::opChain(config_.targetOp, config_.slowOps));
    fastRace_ = std::make_unique<TransientPaRace>(
        machine_, raceConfig(primary),
        TargetExpr::opChain(config_.targetOp, config_.fastOps));
}

TransientPaRace &
PaRaceSource::race(bool present)
{
    // present: probe fetched, i.e. the slow expression loses.
    fatalIf(!slowRace_ || !fastRace_,
            "pa_race: transmit before bindTarget");
    return present ? *slowRace_ : *fastRace_;
}

PlruMagnifier &
ReorderRaceSource::readout()
{
    if (!readout_) {
        readout_ = std::make_unique<PlruMagnifier>(
            machine_,
            PlruMagnifier::makeConfig(machine_, config_.set,
                                      config_.readoutRepeats,
                                      config_.tagBase),
            PlruVariant::Reorder);
        bindTarget(readout_->config().a, readout_->config().b);
    }
    return *readout_;
}

void
ReorderRaceSource::calibrate()
{
    PlruMagnifier &magnifier = readout();
    calibration_ = calibrateThreshold(
        [&](bool slow) {
            magnifier.prime();
            magnifier.forceInput(slow);
            return machine_.toNs(magnifier.traverse().cycles);
        },
        "reorder_race::calibrate");
    calibrated_ = true;
}

TimingSample
ReorderRaceSource::sample(bool secret)
{
    PlruMagnifier &magnifier = readout();
    magnifier.prime();
    // secret (slow observable) <=> A inserted first <=> the
    // measurement path wins the race, i.e. the *fast* expression.
    transmit(secret);
    TimingSample s;
    s.cycles = magnifier.traverse().cycles;
    s.ns = machine_.toNs(s.cycles);
    s.bit = calibrated_ && calibration_.isSlow(s.ns);
    return s;
}

void
ReorderRaceSource::bindTarget(Addr primary, Addr secondary)
{
    fatalIf(secondary == 0,
            "reorder_race: needs both input lines (A and B)");
    if (aFirstRace_ && primary == addrA_ && secondary == addrB_)
        return;
    addrA_ = primary;
    addrB_ = secondary;
    ReorderRaceConfig config;
    config.addrA = primary;
    config.addrB = secondary;
    config.refOp = config_.refOp;
    config.refOps = config_.refOps;
    aFirstRace_ = std::make_unique<ReorderRace>(
        machine_, config,
        TargetExpr::opChain(config_.targetOp, config_.fastOps));
    bFirstRace_ = std::make_unique<ReorderRace>(
        machine_, config,
        TargetExpr::opChain(config_.targetOp, config_.slowOps));
}

void
ReorderRaceSource::transmit(bool present)
{
    fatalIf(!aFirstRace_ || !bFirstRace_,
            "reorder_race: transmit before bindTarget");
    (present ? *aFirstRace_ : *bFirstRace_).run();
    machine_.settle();
}

} // namespace hr
