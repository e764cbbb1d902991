#include "attacks/spectreback.hh"

#include "obs/log.hh"
#include "timer/calibration.hh"

namespace hr
{

SpectreBack::SpectreBack(Machine &machine, const SpectreBackConfig &config)
    : machine_(machine), config_(config), coarse_(config.timer)
{
    magConfig_ = PlruMagnifier::makeConfig(machine_, config_.plruSet,
                                           config_.magnifierRepeats,
                                           config_.plruTagBase);
    magnifier_ = std::make_unique<PlruMagnifier>(machine_, magConfig_,
                                                 PlruVariant::Reorder);

    // None of the attack's working lines may alias the magnifier set.
    const auto &l1 = machine_.hierarchy().l1();
    for (Addr addr : {config_.offset1, config_.offset2, config_.sizeAddr,
                      config_.chainHead1, config_.chainHead2}) {
        fatalIf(l1.setIndex(addr) == config_.plruSet,
                "SpectreBack: attack line aliases the magnifier set");
    }

    layoutMemory();
    build();
}

void
SpectreBack::layoutMemory()
{
    // Pointer chases: head -> offset line -> final (A or B) line.
    machine_.poke(config_.chainHead1,
                  static_cast<std::int64_t>(config_.offset1));
    machine_.poke(config_.offset1,
                  static_cast<std::int64_t>(magConfig_.a));
    machine_.poke(config_.chainHead2,
                  static_cast<std::int64_t>(config_.offset2));
    machine_.poke(config_.offset2,
                  static_cast<std::int64_t>(magConfig_.b));
    machine_.poke(config_.sizeAddr, config_.arrayWords);
}

void
SpectreBack::build()
{
    // Code Listing 3, adapted to the micro-op ISA. Program order:
    // bounds check material, the two racing chases, then the
    // (mis)speculated secret-dependent touch.
    ProgramBuilder builder("spectreback");
    xReg_ = builder.newReg();     // attacker-controlled index
    shiftReg_ = builder.newReg(); // which bit to leak

    // Bounds check: in_bounds = ((x - size) >> 63) & 1, with the size
    // word kept cold so the branch resolves late (the transient window).
    RegId size = builder.loadAbsolute(config_.sizeAddr);
    RegId diff = builder.binop(Opcode::Sub, xReg_, size);
    RegId sign = builder.binopImm(Opcode::Shr, diff, 63);
    RegId in_bounds = builder.binopImm(Opcode::And, sign, 1);

    // Chain 1: cold head -> offset1 -> access A.
    RegId c1 = builder.loadAbsolute(config_.chainHead1);
    RegId c1_off = builder.loadPointer(c1);
    builder.loadPointer(c1_off); // the access to A

    // Chain 2: cold head -> offset2 -> access B.
    RegId c2 = builder.loadAbsolute(config_.chainHead2);
    RegId c2_off = builder.loadPointer(c2);
    builder.loadPointer(c2_off); // the access to B

    // if (x < array_size) { touch offset1 or offset2 based on secret }
    auto end = builder.newLabel();
    builder.branch(in_bounds, end, /*invert=*/true); // skip iff OOB

    Instruction secret_load;
    secret_load.op = Opcode::Load;
    secret_load.dst = builder.newReg();
    secret_load.src0 = xReg_;
    secret_load.scale0 = 8; // word index
    secret_load.imm = static_cast<std::int64_t>(config_.arrayBase);
    builder.emit(secret_load);

    RegId shifted = builder.binop(Opcode::Shr, secret_load.dst, shiftReg_);
    RegId sel = builder.binopImm(Opcode::And, shifted, 1);
    const std::int64_t spread =
        static_cast<std::int64_t>(config_.offset2) -
        static_cast<std::int64_t>(config_.offset1);
    RegId dispm = builder.binopImm(Opcode::Mul, sel, spread);
    Instruction touch;
    touch.op = Opcode::Load;
    touch.dst = builder.newReg();
    touch.src0 = dispm;
    touch.scale0 = 1;
    touch.imm = static_cast<std::int64_t>(config_.offset1);
    builder.emit(touch);

    builder.bind(end);
    builder.halt();
    program_ = builder.take();
}

void
SpectreBack::primeTrial()
{
    magnifier_->prime(); // [B,C,D,E] primed, A staged in L2
    for (Addr addr : {config_.sizeAddr, config_.chainHead1,
                      config_.chainHead2, config_.offset1,
                      config_.offset2}) {
        machine_.flushLine(addr);
    }
}

void
SpectreBack::train()
{
    // In-bounds executions teach the predictor "body executes".
    for (int i = 0; i < config_.trainRounds; ++i) {
        primeTrial();
        machine_.run(program_, {{xReg_, 0}, {shiftReg_, 0}});
        machine_.settle();
    }
}

double
SpectreBack::runTrialAndTime(std::int64_t x, std::int64_t shift)
{
    machine_.run(program_, {{xReg_, x}, {shiftReg_, shift}});
    const double begin = coarse_.nowNs(machine_.now());
    magnifier_->traverse();
    return coarse_.nowNs(machine_.now()) - begin;
}

void
SpectreBack::calibrate()
{
    // Force both reorder outcomes directly and time the magnifier:
    // A first -> pinned -> slow; B first -> A evicted -> fast.
    thresholdNs_ = calibrateThreshold(
                       [&](bool slow) {
                           primeTrial();
                           machine_.warm(slow ? magConfig_.a
                                              : magConfig_.b, 1);
                           machine_.warm(slow ? magConfig_.b
                                              : magConfig_.a, 1);
                           const double begin =
                               coarse_.nowNs(machine_.now());
                           magnifier_->traverse();
                           return coarse_.nowNs(machine_.now()) - begin;
                       },
                       "SpectreBack::calibrate")
                       .thresholdNs;
}

bool
SpectreBack::leakBit(std::int64_t oob_word_index, int bit)
{
    panicIf(thresholdNs_ < 0, "SpectreBack used before calibrate()");
    train();
    primeTrial();
    // The secret word must answer quickly for the transient touch to
    // fire inside the window (staged in L2, as repeated leaky.page-style
    // attempts achieve on real hardware).
    machine_.warm(config_.arrayBase +
                      static_cast<Addr>(oob_word_index) * 8, 2);
    const double t = runTrialAndTime(oob_word_index, bit);
    // Secret bit 0 -> offset1 touched -> chain 1 accelerated -> A first
    // -> traversal slow. Bit 1 -> B first -> fast.
    return t <= thresholdNs_;
}

std::uint8_t
SpectreBack::leakByte(std::int64_t oob_word_index, int bit_base)
{
    std::uint8_t value = 0;
    for (int bit = 0; bit < 8; ++bit) {
        if (leakBit(oob_word_index, bit_base + bit))
            value |= static_cast<std::uint8_t>(1u << bit);
    }
    return value;
}

SpectreBackResult
SpectreBack::leakSecret(const std::vector<std::uint8_t> &secret)
{
    // Plant the ground truth just past the array bounds (one byte per
    // word, as a JS typed-array victim would look after boxing).
    for (std::size_t i = 0; i < secret.size(); ++i) {
        machine_.poke(config_.arrayBase +
                          (static_cast<Addr>(config_.arrayWords) + i) * 8,
                      secret[i]);
    }

    SpectreBackResult result;
    const Cycle start = machine_.now();
    std::uint64_t correct_bits = 0;
    for (std::size_t i = 0; i < secret.size(); ++i) {
        const std::int64_t oob =
            config_.arrayWords + static_cast<std::int64_t>(i);
        const std::uint8_t leaked = leakByte(oob);
        result.leaked.push_back(leaked);
        for (int bit = 0; bit < 8; ++bit) {
            correct_bits +=
                ((leaked >> bit) & 1) == ((secret[i] >> bit) & 1);
        }
        result.trials += 8;
    }
    const double seconds =
        machine_.toNs(machine_.now() - start) / 1e9;
    result.accuracy = static_cast<double>(correct_bits) /
                      static_cast<double>(8 * secret.size());
    result.kilobitsPerSecond =
        static_cast<double>(8 * secret.size()) / seconds / 1e3;
    return result;
}

} // namespace hr
