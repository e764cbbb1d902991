#include "gadgets/plru_magnifier.hh"

#include "obs/log.hh"

namespace hr
{

PlruMagnifier::PlruMagnifier(Machine &machine,
                             const PlruMagnifierConfig &config,
                             PlruVariant variant)
    : Amplifier(machine), config_(config), variant_(variant)
{
    const auto &l1 = machine_.hierarchy().l1().config();
    fatalIf(l1.assoc != 4,
            "PlruMagnifier implements the paper's W=4 pattern; "
            "configure a 4-way L1 (see MachineConfig) or use "
            "PlruPinPatternFinder for other associativities");
    fatalIf(l1.policy != PolicyKind::TreePlru,
            "PlruMagnifier requires a tree-PLRU L1");
    const Addr line = ~static_cast<Addr>(l1.lineBytes - 1);
    const int set = machine_.hierarchy().l1().setIndex(config_.a);
    for (Addr addr : {config_.b, config_.c, config_.d, config_.e}) {
        fatalIf(machine_.hierarchy().l1().setIndex(addr) != set,
                "PlruMagnifier: lines must map to one L1 set");
        fatalIf((addr & line) == (config_.a & line),
                "PlruMagnifier: lines must be distinct");
    }
    buildTraverseProgram();
}

std::string
PlruMagnifier::name() const
{
    return variant_ == PlruVariant::PresenceAbsence
               ? "plru_pa_magnifier"
               : "plru_reorder_magnifier";
}

void
PlruMagnifier::forceInput(bool slow)
{
    if (variant_ == PlruVariant::PresenceAbsence) {
        // Slow: A present (fetched into L1). Fast: A stays in L2.
        if (slow)
            machine_.warm(config_.a, 1);
        return;
    }
    // Reorder: slow iff A is inserted before B.
    machine_.warm(slow ? config_.a : config_.b, 1);
    machine_.warm(slow ? config_.b : config_.a, 1);
}

std::vector<Addr>
PlruMagnifier::sameSetLines(const Machine &machine, int set_index,
                            int count, int tag_base)
{
    const auto &l1 = machine.hierarchy().l1().config();
    fatalIf(set_index < 0 || set_index >= l1.numSets,
            "sameSetLines: bad set index");
    const Addr stride =
        static_cast<Addr>(l1.numSets) * static_cast<Addr>(l1.lineBytes);
    std::vector<Addr> out;
    out.reserve(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
        out.push_back(static_cast<Addr>(set_index) *
                          static_cast<Addr>(l1.lineBytes) +
                      static_cast<Addr>(tag_base + k) * stride);
    }
    return out;
}

PlruMagnifierConfig
PlruMagnifier::makeConfig(const Machine &machine, int set_index,
                          int repeats, int tag_base)
{
    auto lines = sameSetLines(machine, set_index, 5, tag_base);
    PlruMagnifierConfig config;
    config.a = lines[0];
    config.b = lines[1];
    config.c = lines[2];
    config.d = lines[3];
    config.e = lines[4];
    config.repeats = repeats;
    return config;
}

std::vector<Addr>
PlruMagnifier::pattern() const
{
    if (variant_ == PlruVariant::PresenceAbsence) {
        return {config_.b, config_.c, config_.e,
                config_.c, config_.d, config_.c};
    }
    return {config_.c, config_.e, config_.c,
            config_.d, config_.c, config_.b};
}

void
PlruMagnifier::prime()
{
    // Clear the five lines everywhere, then establish Fig. 3(1):
    // ways [B,C,D,E], tree = (0,0,1) => eviction candidate B.
    for (Addr addr : {config_.a, config_.b, config_.c, config_.d,
                      config_.e}) {
        machine_.flushLine(addr);
    }
    machine_.warm(config_.b, 1);
    machine_.warm(config_.c, 1);
    machine_.warm(config_.d, 1);
    machine_.warm(config_.e, 1);
    machine_.warm(config_.d, 1); // extra touch flips the right subtree
    // Stage A in L2 so the racing access fills L1 quickly.
    machine_.warm(config_.a, 2);
}

Program
PlruMagnifier::buildPrimeProgram() const
{
    // The attacker-realistic version of prime(): a serial load chain
    // B, C, D, E, D (order guarantees the fills land in way order and
    // the final D touch sets the right-subtree pointer).
    ProgramBuilder builder("plru_prime");
    RegId r = builder.movImm(0);
    for (Addr addr : {config_.b, config_.c, config_.d, config_.e,
                      config_.d}) {
        r = builder.loadOrdered(addr, r);
    }
    builder.halt();
    return builder.take();
}

void
PlruMagnifier::buildTraverseProgram()
{
    ProgramBuilder builder(variant_ == PlruVariant::PresenceAbsence
                               ? "plru_magnify_pa"
                               : "plru_magnify_reorder");
    RegId r = builder.movImm(0);
    const auto period = pattern();
    for (int rep = 0; rep < config_.repeats; ++rep)
        for (Addr addr : period)
            builder.loadOrderedInto(r, addr);
    builder.halt();
    traverseProgram_ = builder.take();
}

MagnifierResult
PlruMagnifier::traverse()
{
    const std::uint64_t misses_before = machine_.cacheMisses(1);
    RunResult run = machine_.run(traverseProgram_);
    MagnifierResult result;
    result.cycles = run.cycles();
    result.l1Misses = machine_.cacheMisses(1) - misses_before;
    return result;
}

} // namespace hr
