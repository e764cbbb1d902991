#include "gadgets/arbitrary_magnifier.hh"

#include "util/log.hh"

namespace hr
{

ArbitraryMagnifier::ArbitraryMagnifier(
    Machine &machine, const ArbitraryMagnifierConfig &config)
    : Amplifier(machine), config_(config)
{
    const auto &l1 = machine_.hierarchy().l1().config();
    fatalIf(config_.numSets <= 0 || config_.numSets > l1.numSets,
            "ArbitraryMagnifier: numSets exceeds L1 sets");
    fatalIf(config_.numSets % 2 != 0,
            "ArbitraryMagnifier: numSets must be even");
    fatalIf(config_.dist % 2 != 0,
            "ArbitraryMagnifier: dist must be even (odd steps restore "
            "odd steps)");
    fatalIf(config_.seqLen >= l1.assoc,
            "ArbitraryMagnifier: SEQ must fit in a set with room over");
    build();
}

Addr
ArbitraryMagnifier::seqAddr(int set, int k) const
{
    const auto &l1 = machine_.hierarchy().l1().config();
    const Addr stride =
        static_cast<Addr>(l1.numSets) * static_cast<Addr>(l1.lineBytes);
    return static_cast<Addr>(set) * static_cast<Addr>(l1.lineBytes) +
           static_cast<Addr>(config_.seqTagBase + k) * stride;
}

Addr
ArbitraryMagnifier::parAddrOffset(int set, int j) const
{
    // Static part of a PAR address; the per-iteration tag advance is
    // added at run time through parBaseReg_, so each pass uses fresh
    // conflicting lines.
    const auto &l1 = machine_.hierarchy().l1().config();
    const Addr stride =
        static_cast<Addr>(l1.numSets) * static_cast<Addr>(l1.lineBytes);
    return static_cast<Addr>(set) * static_cast<Addr>(l1.lineBytes) +
           static_cast<Addr>(config_.parTagBase + j) * stride;
}

void
ArbitraryMagnifier::build()
{
    const auto &l1 = machine_.hierarchy().l1().config();
    const Addr stride =
        static_cast<Addr>(l1.numSets) * static_cast<Addr>(l1.lineBytes);

    ProgramBuilder builder("arb_magnify");

    // Loop-invariant setup.
    RegId repeats = builder.movImm(config_.repeats);
    parBaseReg_ = builder.movImm(0);
    const std::int64_t par_advance =
        static_cast<std::int64_t>(stride) * config_.parLen;

    // Synchronizing head and the two path heads. The chain registers
    // are seeded once, outside the loop, so the dependence chains are
    // loop-carried: a delay in one pass propagates into the next.
    RegId sync = builder.loadAbsolute(config_.syncAddr);
    RegId chain_a = builder.loadOrdered(config_.alignAddrA, sync);
    RegId chain_b = builder.loadOrdered(config_.inputAddr, sync);

    SeqBuilder path_a(builder);
    for (int i = 0; i < config_.numSets; i += 2) {
        for (int k = 0; k < config_.seqLen; ++k)
            path_a.loadOrderedInto(chain_a, seqAddr(i, k));
        const int pad_a = config_.chainPadOps + config_.pathASlackOps;
        for (int pad = 0; pad < pad_a; ++pad)
            path_a.chainOpImm(Opcode::Add, chain_a, 0);
        // PAR burst into the set PathB reads next (step i + 1):
        // independent loads, ordered only after this SEQ.
        for (int j = 0; j < config_.parLen; ++j) {
            Instruction par;
            par.op = Opcode::Load;
            par.dst = path_a.newReg();
            par.src0 = chain_a;
            par.scale0 = 0;
            par.src1 = parBaseReg_;
            par.scale1 = 1;
            par.imm =
                static_cast<std::int64_t>(parAddrOffset(i + 1, j));
            path_a.append(par);
        }
    }

    SeqBuilder path_b(builder);
    for (int i = 1; i < config_.numSets; i += 2) {
        for (int k = 0; k < config_.seqLen; ++k)
            path_b.loadOrderedInto(chain_b, seqAddr(i, k));
        for (int pad = 0; pad < config_.chainPadOps; ++pad)
            path_b.chainOpImm(Opcode::Add, chain_b, 0);
        if (config_.prefetch) {
            // Restore the set `dist` steps ahead (same parity, so a
            // set PathB will read again next pass. A restoring fill
            // can evict an already-restored line (random policy), so a
            // sweep leaves a casualty or two; those cost both input
            // polarities equally (paper footnote 6).
            const int target = (i + config_.dist) % config_.numSets;
            for (int k = 0; k < config_.seqLen; ++k)
                path_b.prefetchOrdered(seqAddr(target, k), chain_b);
        }
    }

    // The PAR tag advance for the next iteration; a one-add dependence
    // chain of its own.
    SeqBuilder advance(builder);
    advance.chainOpImm(Opcode::Add, parBaseReg_, par_advance);

    auto top = builder.newLabel();
    builder.bind(top);
    builder.appendInterleaved(
        {path_a.take(), path_b.take(), advance.take()});
    builder.chainOpImm(Opcode::Sub, repeats, 1);
    builder.branch(repeats, top);
    builder.halt();
    program_ = builder.take();
}

void
ArbitraryMagnifier::prime()
{
    // Reset to a reproducible state, then establish the initial
    // conditions. PAR conflict lines are staged in L2/L3 *first*: they
    // are numerous enough to cause inclusive-L3 evictions, which would
    // back-invalidate freshly warmed SEQ lines if done after them. SEQ
    // lines then go resident in L1 (attainable with any policy by
    // repeated access; paper footnote 6).
    machine_.flushAllCaches();

    const auto &l1 = machine_.hierarchy().l1().config();
    const Addr stride =
        static_cast<Addr>(l1.numSets) * static_cast<Addr>(l1.lineBytes);
    for (int pass = 0; pass < config_.repeats; ++pass) {
        const Addr pass_offset =
            static_cast<Addr>(pass) * static_cast<Addr>(config_.parLen) *
            stride;
        for (int i = 1; i < config_.numSets; i += 2)
            for (int j = 0; j < config_.parLen; ++j)
                machine_.warm(parAddrOffset(i, j) + pass_offset, 2);
    }

    for (int s = 0; s < config_.numSets; ++s)
        for (int k = 0; k < config_.seqLen; ++k)
            machine_.warm(seqAddr(s, k), 1);
    machine_.warm(config_.alignAddrA, 1);
    machine_.flushLine(config_.syncAddr);
}

Cycle
ArbitraryMagnifier::traverse()
{
    RunResult result = machine_.run(program_);
    return result.cycles();
}

void
ArbitraryMagnifier::forceInput(bool slow)
{
    if (slow)
        machine_.flushLine(config_.inputAddr);
    else
        machine_.warm(config_.inputAddr, 1);
}

Cycle
ArbitraryMagnifier::amplify()
{
    machine_.flushLine(config_.syncAddr);
    return traverse();
}

Cycle
ArbitraryMagnifier::run(bool input_present)
{
    prime();
    if (input_present)
        machine_.warm(config_.inputAddr, 1);
    else
        machine_.flushLine(config_.inputAddr);
    return traverse();
}

Cycle
ArbitraryMagnifier::measureDelta()
{
    const Cycle fast = run(true);
    const Cycle slow = run(false);
    return slow > fast ? slow - fast : 0;
}

} // namespace hr
