/**
 * @file
 * DecodedProgram: the static, per-instruction facts OooCore would
 * otherwise recompute on every fetch of every trial.
 *
 * Scenario and channel trials run the same few-hundred-instruction
 * gadget Programs millions of times; per fetch the core used to
 * re-derive the functional-unit class, the register-write predicate,
 * the next-pc kind, and the source-operand layout (including the
 * store-data slot) from the raw Instruction. A DecodedProgram
 * precomputes all of it once per Program. Decoding is a pure
 * function of the instruction stream — it reads no machine state — so
 * the Machine decodes a Program on its first run, stores the image on
 * the Program (Program::decoded), and every later run on any machine,
 * and every copy of the Program, reuses it.
 *
 * The decoded image owns a copy of the code, so RobEntries reference
 * instructions through it without pinning the caller's Program alive.
 */

#ifndef HR_ISA_DECODED_PROGRAM_HH
#define HR_ISA_DECODED_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace hr
{

/** How fetch computes the next pc after this op. */
enum class NextPcKind : std::uint8_t
{
    Seq,    ///< fall through (nextPc == pc + 1, precomputed)
    Branch, ///< predictor decides between target and pc + 1
    Jump,   ///< unconditional (nextPc == target)
    Halt,   ///< fetch stops (nextPc == code size)
};

/** Pre-resolved static facts about one instruction. */
struct DecodedOp
{
    FuClass fu = FuClass::IntAlu;
    NextPcKind next = NextPcKind::Seq;
    bool writesDst = false; ///< architecturally writes dst
    bool isMem = false;     ///< Load/Store/Prefetch
    bool isControl = false; ///< Branch/Jump
    std::uint8_t numSrcs = 0;
    std::int32_t nextPc = 0; ///< resolved next pc for non-Branch kinds
    /** Rename sources in slot order; slot 2 carries store data. */
    RegId srcs[3] = {kNoReg, kNoReg, kNoReg};
};

/** A Program decoded once, shareable across machines and trials. */
struct DecodedProgram
{
    std::string name;
    std::vector<Instruction> code; ///< owned copy of the program code
    std::vector<DecodedOp> ops;    ///< one per instruction
    std::uint32_t numRegs = 0;
    /** pcs of conditional branches (predictor-keyed state). */
    std::vector<std::int32_t> branchPcs;

    std::size_t size() const { return code.size(); }
};

/** Decode @p program (pure function of its code and numRegs). */
std::shared_ptr<const DecodedProgram> decodeProgram(const Program &program);

/** Exact instruction-stream equality (field-wise, no padding reads). */
bool sameCode(const std::vector<Instruction> &a,
              const std::vector<Instruction> &b);

} // namespace hr

#endif // HR_ISA_DECODED_PROGRAM_HH
