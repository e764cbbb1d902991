#include "gadgets/path.hh"

#include <utility>

#include "obs/log.hh"

namespace hr
{

TargetExpr
TargetExpr::empty()
{
    TargetExpr expr;
    expr.name = "empty";
    expr.emit = [](SeqBuilder &, RegId in) { return in; };
    return expr;
}

TargetExpr
TargetExpr::opChain(Opcode op, int n)
{
    TargetExpr expr;
    expr.name = opcodeName(op) + "x" + std::to_string(n);
    expr.emit = [op, n](SeqBuilder &seq, RegId in) {
        // Seed with a non-zero value so div chains are well-defined;
        // derive it from `in` to keep the data dependence.
        RegId r = seq.binopImm(Opcode::Add, in,
                               op == Opcode::Div ? 1 : 0);
        for (int i = 0; i < n; ++i)
            seq.chainOpImm(op, r, 1);
        return r;
    };
    return expr;
}

TargetExpr
TargetExpr::loadLatency(Addr addr)
{
    TargetExpr expr;
    expr.name = "load@" + std::to_string(addr);
    expr.emit = [addr](SeqBuilder &seq, RegId in) {
        return seq.loadOrdered(addr, in);
    };
    return expr;
}

TargetExpr
TargetExpr::loadChain(std::vector<Addr> addrs)
{
    TargetExpr expr;
    expr.name = "loadchain_x" + std::to_string(addrs.size());
    expr.emit = [addrs = std::move(addrs)](SeqBuilder &seq, RegId in) {
        RegId r = in;
        for (Addr addr : addrs)
            r = seq.loadOrdered(addr, r);
        return r;
    };
    return expr;
}

TargetExpr
TargetExpr::loadIndirect(RegId addr_reg)
{
    TargetExpr expr;
    expr.name = "load[r" + std::to_string(addr_reg) + "]";
    expr.emit = [addr_reg](SeqBuilder &seq, RegId in) {
        Instruction inst;
        inst.op = Opcode::Load;
        inst.dst = seq.newReg();
        inst.src0 = in;
        inst.scale0 = 0;
        inst.src1 = addr_reg;
        inst.scale1 = 1;
        inst.imm = 0;
        seq.append(inst);
        return inst.dst;
    };
    return expr;
}

RegId
embedExpression(SeqBuilder &seq, RegId head, const TargetExpr &expr)
{
    fatalIf(!expr.emit, "TargetExpr has no emit function");
    // Pre-extension: the expression's input is derived from the head
    // (value 0 at run time), so it cannot start before the head.
    RegId input = seq.binopImm(Opcode::And, head, 0);
    RegId output = expr.emit(seq, input);
    // Post-extension: collapse the output to zero while keeping the
    // data dependence, producing the terminator.
    return seq.binopImm(Opcode::And, output, 0);
}

} // namespace hr
