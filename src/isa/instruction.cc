#include "isa/instruction.hh"

#include <cstdio>

#include "obs/log.hh"

namespace hr
{

FuClass
fuClassOf(Opcode op)
{
    switch (op) {
      case Opcode::Nop:
      case Opcode::MovImm:
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Lea:
      case Opcode::Halt:
      case Opcode::Rdtsc:
        return FuClass::IntAlu;
      case Opcode::Mul:
        return FuClass::IntMul;
      case Opcode::Div:
        return FuClass::FpDiv;
      case Opcode::Load:
      case Opcode::Prefetch:
        return FuClass::MemRead;
      case Opcode::Store:
        return FuClass::MemWrite;
      case Opcode::Branch:
      case Opcode::Jump:
        return FuClass::BranchU;
    }
    panic("fuClassOf: bad opcode");
}

bool
isMemOp(Opcode op)
{
    return op == Opcode::Load || op == Opcode::Store ||
           op == Opcode::Prefetch;
}

bool
isControlOp(Opcode op)
{
    return op == Opcode::Branch || op == Opcode::Jump;
}

std::string
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Nop: return "nop";
      case Opcode::MovImm: return "movimm";
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::Mul: return "mul";
      case Opcode::Div: return "div";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Shl: return "shl";
      case Opcode::Shr: return "shr";
      case Opcode::Lea: return "lea";
      case Opcode::Load: return "load";
      case Opcode::Store: return "store";
      case Opcode::Prefetch: return "prefetch";
      case Opcode::Branch: return "branch";
      case Opcode::Jump: return "jump";
      case Opcode::Halt: return "halt";
      case Opcode::Rdtsc: return "rdtsc";
    }
    panic("opcodeName: bad opcode");
}

namespace
{

std::string
regName(RegId r)
{
    if (r == kNoReg)
        return "-";
    char buf[16];
    std::snprintf(buf, sizeof(buf), "r%u", static_cast<unsigned>(r));
    return buf;
}

std::string
eaString(const Instruction &inst)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "[0x%llx + %s*%d + %s*%d]",
                  static_cast<unsigned long long>(inst.imm),
                  regName(inst.src0).c_str(), inst.scale0,
                  regName(inst.src1).c_str(), inst.scale1);
    return buf;
}

} // namespace

std::string
Instruction::toString() const
{
    char buf[160];
    switch (op) {
      case Opcode::Nop:
        return "nop";
      case Opcode::Halt:
        return "halt";
      case Opcode::MovImm:
        std::snprintf(buf, sizeof(buf), "movimm %s = %lld",
                      regName(dst).c_str(), static_cast<long long>(imm));
        return buf;
      case Opcode::Load:
        std::snprintf(buf, sizeof(buf), "load %s = %s",
                      regName(dst).c_str(), eaString(*this).c_str());
        return buf;
      case Opcode::Store:
        std::snprintf(buf, sizeof(buf), "store %s = %s",
                      eaString(*this).c_str(), regName(dst).c_str());
        return buf;
      case Opcode::Prefetch:
        std::snprintf(buf, sizeof(buf), "prefetch %s",
                      eaString(*this).c_str());
        return buf;
      case Opcode::Lea:
        std::snprintf(buf, sizeof(buf), "lea %s = 0x%llx + %s*%d + %s*%d",
                      regName(dst).c_str(),
                      static_cast<unsigned long long>(imm),
                      regName(src0).c_str(), scale0,
                      regName(src1).c_str(), scale1);
        return buf;
      case Opcode::Branch:
        std::snprintf(buf, sizeof(buf), "branch %s(%s != 0) -> %d",
                      invert ? "!" : "", regName(src0).c_str(), target);
        return buf;
      case Opcode::Jump:
        std::snprintf(buf, sizeof(buf), "jump -> %d", target);
        return buf;
      default:
        std::snprintf(buf, sizeof(buf), "%s %s = %s, %s, imm=%lld",
                      opcodeName(op).c_str(), regName(dst).c_str(),
                      regName(src0).c_str(), regName(src1).c_str(),
                      static_cast<long long>(imm));
        return buf;
    }
}

} // namespace hr
