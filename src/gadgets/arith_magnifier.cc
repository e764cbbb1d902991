#include "gadgets/arith_magnifier.hh"

#include "obs/log.hh"

namespace hr
{

ArithMagnifier::ArithMagnifier(Machine &machine,
                               const ArithMagnifierConfig &config)
    : Amplifier(machine), config_(config)
{
    const auto &core = machine_.config().core;
    fatalIf(config_.divChain <= 0 || config_.parDivs <= 0,
            "ArithMagnifier: bad stage sizing");
    // Racing stages must take the same time on both paths:
    //   mulChain * latMul == divChain * latDiv.
    mulChain_ = static_cast<int>(
        (static_cast<Cycle>(config_.divChain) * core.fpDiv.latency) /
        core.intMul.latency);
    // Aligned case: PathA's burst occupies the divider for
    // parDivs * initInterval cycles after the racing stage; the ADD
    // buffer must outlast that so the next stage starts contention-free.
    addBuffer_ = config_.addBuffer > 0
                     ? config_.addBuffer
                     : static_cast<int>(config_.parDivs *
                                        core.fpDiv.initInterval) +
                           static_cast<int>(core.fpDiv.latency);
    build();
}

void
ArithMagnifier::build()
{
    ProgramBuilder builder("arith_magnify");

    RegId stages = builder.movImm(config_.stages);
    RegId sync = builder.loadAbsolute(config_.syncAddr);
    RegId head_a = builder.loadOrdered(config_.alignAddrA, sync);
    RegId head_b = builder.loadOrdered(config_.inputAddr, sync);

    // Chain registers seeded once outside the loop (non-zero so the
    // div/mul chains are well-behaved); the chains are loop-carried so
    // a delay in one stage propagates into all following stages.
    RegId chain_a = builder.binopImm(Opcode::And, head_a, 0);
    builder.chainOpImm(Opcode::Add, chain_a, 1);
    RegId chain_b = builder.binopImm(Opcode::And, head_b, 0);
    builder.chainOpImm(Opcode::Add, chain_b, 1);

    SeqBuilder path_a(builder);
    for (int m = 0; m < mulChain_; ++m)
        path_a.chainOpImm(Opcode::Mul, chain_a, 1);
    for (int d = 0; d < config_.parDivs; ++d)
        path_a.binopImm(Opcode::Div, chain_a, 1); // independent burst
    for (int a = 0; a < addBuffer_; ++a)
        path_a.chainOpImm(Opcode::Add, chain_a, 0);

    SeqBuilder path_b(builder);
    for (int d = 0; d < config_.divChain; ++d)
        path_b.chainOpImm(Opcode::Div, chain_b, 1);
    for (int a = 0; a < addBuffer_; ++a)
        path_b.chainOpImm(Opcode::Add, chain_b, 0);

    auto top = builder.newLabel();
    builder.bind(top);
    builder.appendInterleaved({path_a.take(), path_b.take()});
    builder.chainOpImm(Opcode::Sub, stages, 1);
    builder.branch(stages, top);
    builder.halt();
    program_ = builder.take();
}

void
ArithMagnifier::prepare()
{
    machine_.warm(config_.alignAddrA, 1);
    machine_.flushLine(config_.syncAddr);
}

Cycle
ArithMagnifier::traverse()
{
    RunResult result = machine_.run(program_);
    return result.cycles();
}

void
ArithMagnifier::forceInput(bool slow)
{
    // Input present = PathB aligned with PathA = fast.
    if (slow)
        machine_.flushLine(config_.inputAddr);
    else
        machine_.warm(config_.inputAddr, 1);
}

Cycle
ArithMagnifier::amplify()
{
    prepare();
    return traverse();
}

Cycle
ArithMagnifier::run(bool input_present)
{
    prepare();
    if (input_present)
        machine_.warm(config_.inputAddr, 1);
    else
        machine_.flushLine(config_.inputAddr);
    return traverse();
}

Cycle
ArithMagnifier::measureDelta()
{
    const Cycle fast = run(true);
    const Cycle slow = run(false);
    return slow > fast ? slow - fast : 0;
}

} // namespace hr
