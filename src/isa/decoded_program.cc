#include "isa/decoded_program.hh"

namespace hr
{

namespace
{

/** True if the op architecturally writes its dst register. */
bool
writesReg(const Instruction &inst)
{
    if (inst.dst == kNoReg)
        return false;
    switch (inst.op) {
      case Opcode::Store:
      case Opcode::Prefetch:
      case Opcode::Branch:
      case Opcode::Jump:
      case Opcode::Halt:
      case Opcode::Nop:
        return false;
      default:
        return true;
    }
}

} // namespace

bool
sameCode(const std::vector<Instruction> &a,
         const std::vector<Instruction> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const Instruction &x = a[i];
        const Instruction &y = b[i];
        if (x.op != y.op || x.dst != y.dst || x.src0 != y.src0 ||
            x.src1 != y.src1 || x.imm != y.imm ||
            x.scale0 != y.scale0 || x.scale1 != y.scale1 ||
            x.target != y.target || x.invert != y.invert) {
            return false;
        }
    }
    return true;
}

std::shared_ptr<const DecodedProgram>
decodeProgram(const Program &program)
{
    auto decoded = std::make_shared<DecodedProgram>();
    decoded->name = program.name;
    decoded->code = program.code;
    decoded->numRegs = program.numRegs;

    const auto size = static_cast<std::int32_t>(program.code.size());
    decoded->ops.resize(program.code.size());
    for (std::int32_t pc = 0; pc < size; ++pc) {
        const Instruction &inst = decoded->code[pc];
        DecodedOp &op = decoded->ops[pc];
        op.fu = inst.fuClass();
        op.writesDst = writesReg(inst);
        op.isMem = isMemOp(inst.op);
        op.isControl = isControlOp(inst.op);
        switch (inst.op) {
          case Opcode::Branch:
            op.next = NextPcKind::Branch;
            op.nextPc = inst.target; // taken target; fall = pc + 1
            decoded->branchPcs.push_back(pc);
            break;
          case Opcode::Jump:
            op.next = NextPcKind::Jump;
            op.nextPc = inst.target;
            break;
          case Opcode::Halt:
            op.next = NextPcKind::Halt;
            op.nextPc = size;
            break;
          default:
            op.next = NextPcKind::Seq;
            op.nextPc = pc + 1;
        }
        // Rename sources in slot order; stores read data via slot 2.
        op.srcs[0] = inst.src0;
        op.srcs[1] = inst.src1;
        op.srcs[2] = inst.op == Opcode::Store ? inst.dst : kNoReg;
        for (int slot = 0; slot < 3; ++slot)
            if (op.srcs[slot] != kNoReg)
                ++op.numSrcs;
    }
    return decoded;
}

} // namespace hr
