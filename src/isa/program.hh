/**
 * @file
 * Programs and the ProgramBuilder DSL used by gadget generators.
 */

#ifndef HR_ISA_PROGRAM_HH
#define HR_ISA_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "util/types.hh"

namespace hr
{

struct DecodedProgram;

/**
 * A straight-line-or-branching micro-op sequence with a stable identity.
 *
 * The identity (id) keys branch-predictor state inside a Machine, so
 * running the same Program for training and attack phases naturally
 * trains the predictor, as in the paper's transient gadgets.
 */
struct Program
{
    std::string name = "prog";
    std::vector<Instruction> code;

    /** Number of architectural registers the code uses. */
    std::uint32_t numRegs = 0;

    /** Assigned by the Machine on first execution; 0 = unassigned. */
    std::uint64_t id = 0;

    /**
     * Decoded image, set by the Machine together with id and reused by
     * every later run (copies share it). Mutating code in place keeps
     * a stale image: reset id to 0 afterwards (see Machine).
     */
    std::shared_ptr<const DecodedProgram> decoded;

    std::size_t size() const { return code.size(); }

    /** Multi-line disassembly with indices. */
    std::string disassemble() const;
};

/**
 * Allocate a process-unique Program id (collision-free, monotonic).
 *
 * Ids key branch-predictor state, so two distinct Programs must never
 * share one. The counter is process-wide and never rolls back — not
 * per-machine and not part of a Machine snapshot — which is what makes
 * assignment collision-free across pool reuse and snapshot/restore.
 * Replays stay bit-identical anyway: a freshly assigned id always
 * starts with cold predictor state, and predictor keys are injective
 * per (id, pc), so the id's numeric value never influences simulated
 * timing.
 */
std::uint64_t allocateProgramId();

/**
 * Builder for Programs: virtual-register allocation, labels with
 * back-patching, and helpers for the dependence idioms gadgets need
 * (chains, ordering-only loads, proportional interleaving of
 * independent paths).
 */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::string name = "prog");

    /** Allocate a fresh architectural register. */
    RegId newReg();

    /** Number of registers allocated so far. */
    RegId regCount() const { return nextReg_; }

    /** Current instruction index (== index of the next emitted op). */
    std::int32_t here() const;

    // ---- raw emission ------------------------------------------------
    /** Append an instruction verbatim; returns its index. */
    std::int32_t emit(const Instruction &inst);

    // ---- convenience emitters ----------------------------------------
    RegId movImm(std::int64_t value);
    void movImmTo(RegId dst, std::int64_t value);

    /** dst = a (+|-|*|/|&|||^) b. */
    RegId binop(Opcode op, RegId a, RegId b);
    /** dst = a op imm. */
    RegId binopImm(Opcode op, RegId a, std::int64_t imm);
    /** In-place chain step: r = r op imm (serial dependence on r). */
    void chainOpImm(Opcode op, RegId r, std::int64_t imm);

    /** Emit a serial chain of n ops, all through one register. */
    RegId opChain(Opcode op, std::size_t n, RegId seed,
                  std::int64_t imm = 1);

    /** dst = mem[addr + dep*0]: fixed address, ordering-only dependence. */
    RegId loadOrdered(Addr addr, RegId dep);
    /**
     * r = mem[addr + r*0]: in-place serial load chain step through a
     * fixed register — the idiom for loop-carried traversal chains.
     */
    void loadOrderedInto(RegId r, Addr addr);
    /** dst = mem[base_value] — pointer chase step. */
    RegId loadPointer(RegId pointer, std::int64_t offset = 0);
    /** dst = mem[addr] with no register dependence. */
    RegId loadAbsolute(Addr addr);
    /** mem[addr + dep*0] = data. */
    void storeOrdered(Addr addr, RegId data, RegId dep);
    /** mem[addr] = data, no ordering dependence (streaming stores). */
    void storeAbsolute(Addr addr, RegId data);
    /** Software prefetch of addr, ordered after dep (scale 0). */
    void prefetchOrdered(Addr addr, RegId dep);

    // ---- control flow ------------------------------------------------
    /** Allocate a label to be placed later. */
    std::int32_t newLabel();
    /** Bind a label to the current position. */
    void bind(std::int32_t label);
    /** Conditional branch to a label: taken iff (cond != 0) ^ invert. */
    void branch(RegId cond, std::int32_t label, bool invert = false);
    void jump(std::int32_t label);
    void halt();

    /**
     * Append several independent instruction sequences, interleaved
     * proportionally so that an in-order front end feeds all of them at
     * matching fractional rates (required for long racing paths whose
     * combined length exceeds the reorder buffer).
     */
    void appendInterleaved(
        const std::vector<std::vector<Instruction>> &paths);

    /** Finish: patch labels, validate, and return the program. */
    Program take();

  private:
    Program prog_;
    RegId nextReg_ = 0;
    std::vector<std::int32_t> labelPos_;    // label -> index or -1
    std::vector<std::size_t> pendingRefs_;  // instr indices awaiting patch
    bool taken_ = false;

    void checkNotTaken() const;
};

/**
 * Standalone sequence builder producing a raw instruction vector that can
 * later be interleaved into a ProgramBuilder. Registers are allocated
 * from the parent builder so sequences stay independent.
 */
class SeqBuilder
{
  public:
    explicit SeqBuilder(ProgramBuilder &parent) : parent_(parent) {}

    std::vector<Instruction> take() { return std::move(code_); }
    const std::vector<Instruction> &code() const { return code_; }

    RegId newReg() { return parent_.newReg(); }

    void append(const Instruction &inst) { code_.push_back(inst); }

    RegId binopImm(Opcode op, RegId a, std::int64_t imm);
    void chainOpImm(Opcode op, RegId r, std::int64_t imm);
    RegId opChain(Opcode op, std::size_t n, RegId seed,
                  std::int64_t imm = 1);
    RegId loadOrdered(Addr addr, RegId dep);
    void loadOrderedInto(RegId r, Addr addr);
    RegId loadPointer(RegId pointer, std::int64_t offset = 0);
    void prefetchOrdered(Addr addr, RegId dep);

  private:
    ProgramBuilder &parent_;
    std::vector<Instruction> code_;
};

} // namespace hr

#endif // HR_ISA_PROGRAM_HH
