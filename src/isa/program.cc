#include "isa/program.hh"

#include <atomic>
#include <cstdio>

#include "obs/log.hh"

namespace hr
{

std::uint64_t
allocateProgramId()
{
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::string
Program::disassemble() const
{
    std::string out;
    char buf[32];
    for (std::size_t i = 0; i < code.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%5zu: ", i);
        out += buf;
        out += code[i].toString();
        out += "\n";
    }
    return out;
}

ProgramBuilder::ProgramBuilder(std::string name)
{
    prog_.name = std::move(name);
}

void
ProgramBuilder::checkNotTaken() const
{
    panicIf(taken_, "ProgramBuilder used after take()");
}

RegId
ProgramBuilder::newReg()
{
    checkNotTaken();
    fatalIf(nextReg_ == kNoReg - 1,
            "ProgramBuilder: register space exhausted (use in-place "
            "chain helpers such as loadOrderedInto for long loops)");
    return nextReg_++;
}

std::int32_t
ProgramBuilder::here() const
{
    return static_cast<std::int32_t>(prog_.code.size());
}

std::int32_t
ProgramBuilder::emit(const Instruction &inst)
{
    checkNotTaken();
    prog_.code.push_back(inst);
    return here() - 1;
}

RegId
ProgramBuilder::movImm(std::int64_t value)
{
    RegId dst = newReg();
    movImmTo(dst, value);
    return dst;
}

void
ProgramBuilder::movImmTo(RegId dst, std::int64_t value)
{
    Instruction inst;
    inst.op = Opcode::MovImm;
    inst.dst = dst;
    inst.imm = value;
    emit(inst);
}

RegId
ProgramBuilder::binop(Opcode op, RegId a, RegId b)
{
    Instruction inst;
    inst.op = op;
    inst.dst = newReg();
    inst.src0 = a;
    inst.src1 = b;
    emit(inst);
    return inst.dst;
}

RegId
ProgramBuilder::binopImm(Opcode op, RegId a, std::int64_t imm)
{
    Instruction inst;
    inst.op = op;
    inst.dst = newReg();
    inst.src0 = a;
    inst.imm = imm;
    emit(inst);
    return inst.dst;
}

void
ProgramBuilder::chainOpImm(Opcode op, RegId r, std::int64_t imm)
{
    Instruction inst;
    inst.op = op;
    inst.dst = r;
    inst.src0 = r;
    inst.imm = imm;
    emit(inst);
}

RegId
ProgramBuilder::opChain(Opcode op, std::size_t n, RegId seed,
                        std::int64_t imm)
{
    RegId r = binopImm(Opcode::Add, seed, 0); // copy into a fresh register
    for (std::size_t i = 0; i < n; ++i)
        chainOpImm(op, r, imm);
    return r;
}

RegId
ProgramBuilder::loadOrdered(Addr addr, RegId dep)
{
    Instruction inst;
    inst.op = Opcode::Load;
    inst.dst = newReg();
    inst.src0 = dep;
    inst.scale0 = 0;
    inst.imm = static_cast<std::int64_t>(addr);
    emit(inst);
    return inst.dst;
}

void
ProgramBuilder::loadOrderedInto(RegId r, Addr addr)
{
    Instruction inst;
    inst.op = Opcode::Load;
    inst.dst = r;
    inst.src0 = r;
    inst.scale0 = 0;
    inst.imm = static_cast<std::int64_t>(addr);
    emit(inst);
}

RegId
ProgramBuilder::loadPointer(RegId pointer, std::int64_t offset)
{
    Instruction inst;
    inst.op = Opcode::Load;
    inst.dst = newReg();
    inst.src0 = pointer;
    inst.scale0 = 1;
    inst.imm = offset;
    emit(inst);
    return inst.dst;
}

RegId
ProgramBuilder::loadAbsolute(Addr addr)
{
    Instruction inst;
    inst.op = Opcode::Load;
    inst.dst = newReg();
    inst.imm = static_cast<std::int64_t>(addr);
    emit(inst);
    return inst.dst;
}

void
ProgramBuilder::storeOrdered(Addr addr, RegId data, RegId dep)
{
    Instruction inst;
    inst.op = Opcode::Store;
    inst.dst = data;
    inst.src0 = dep;
    inst.scale0 = 0;
    inst.imm = static_cast<std::int64_t>(addr);
    emit(inst);
}

void
ProgramBuilder::storeAbsolute(Addr addr, RegId data)
{
    Instruction inst;
    inst.op = Opcode::Store;
    inst.dst = data;
    inst.imm = static_cast<std::int64_t>(addr);
    emit(inst);
}

void
ProgramBuilder::prefetchOrdered(Addr addr, RegId dep)
{
    Instruction inst;
    inst.op = Opcode::Prefetch;
    inst.src0 = dep;
    inst.scale0 = 0;
    inst.imm = static_cast<std::int64_t>(addr);
    emit(inst);
}

std::int32_t
ProgramBuilder::newLabel()
{
    labelPos_.push_back(-1);
    return static_cast<std::int32_t>(labelPos_.size()) - 1;
}

void
ProgramBuilder::bind(std::int32_t label)
{
    panicIf(label < 0 ||
            label >= static_cast<std::int32_t>(labelPos_.size()),
            "bind: bad label");
    panicIf(labelPos_[label] != -1, "bind: label already bound");
    labelPos_[label] = here();
}

void
ProgramBuilder::branch(RegId cond, std::int32_t label, bool invert)
{
    Instruction inst;
    inst.op = Opcode::Branch;
    inst.src0 = cond;
    inst.invert = invert;
    inst.target = label; // patched in take()
    pendingRefs_.push_back(static_cast<std::size_t>(emit(inst)));
}

void
ProgramBuilder::jump(std::int32_t label)
{
    Instruction inst;
    inst.op = Opcode::Jump;
    inst.target = label;
    pendingRefs_.push_back(static_cast<std::size_t>(emit(inst)));
}

void
ProgramBuilder::halt()
{
    Instruction inst;
    inst.op = Opcode::Halt;
    emit(inst);
}

void
ProgramBuilder::appendInterleaved(
    const std::vector<std::vector<Instruction>> &paths)
{
    checkNotTaken();
    std::size_t total = 0;
    for (const auto &p : paths)
        total += p.size();
    std::vector<std::size_t> cursor(paths.size(), 0);
    // Proportional round-robin: at each step take from the path that is
    // furthest behind its fair share.
    for (std::size_t step = 0; step < total; ++step) {
        double best = -1.0;
        std::size_t pick = 0;
        for (std::size_t i = 0; i < paths.size(); ++i) {
            if (cursor[i] >= paths[i].size())
                continue;
            const double deficit =
                static_cast<double>(paths[i].size() - cursor[i]) /
                static_cast<double>(paths[i].size());
            if (deficit > best) {
                best = deficit;
                pick = i;
            }
        }
        prog_.code.push_back(paths[pick][cursor[pick]++]);
    }
}

Program
ProgramBuilder::take()
{
    checkNotTaken();
    for (std::size_t idx : pendingRefs_) {
        Instruction &inst = prog_.code[idx];
        const std::int32_t label = inst.target;
        panicIf(label < 0 ||
                label >= static_cast<std::int32_t>(labelPos_.size()),
                "take: unpatched branch has bad label");
        panicIf(labelPos_[label] == -1, "take: label never bound");
        inst.target = labelPos_[label];
    }
    prog_.numRegs = nextReg_;
    taken_ = true;
    return std::move(prog_);
}

RegId
SeqBuilder::binopImm(Opcode op, RegId a, std::int64_t imm)
{
    Instruction inst;
    inst.op = op;
    inst.dst = newReg();
    inst.src0 = a;
    inst.imm = imm;
    append(inst);
    return inst.dst;
}

void
SeqBuilder::chainOpImm(Opcode op, RegId r, std::int64_t imm)
{
    Instruction inst;
    inst.op = op;
    inst.dst = r;
    inst.src0 = r;
    inst.imm = imm;
    append(inst);
}

RegId
SeqBuilder::opChain(Opcode op, std::size_t n, RegId seed, std::int64_t imm)
{
    RegId r = binopImm(Opcode::Add, seed, 0);
    for (std::size_t i = 0; i < n; ++i)
        chainOpImm(op, r, imm);
    return r;
}

RegId
SeqBuilder::loadOrdered(Addr addr, RegId dep)
{
    Instruction inst;
    inst.op = Opcode::Load;
    inst.dst = newReg();
    inst.src0 = dep;
    inst.scale0 = 0;
    inst.imm = static_cast<std::int64_t>(addr);
    append(inst);
    return inst.dst;
}

void
SeqBuilder::loadOrderedInto(RegId r, Addr addr)
{
    Instruction inst;
    inst.op = Opcode::Load;
    inst.dst = r;
    inst.src0 = r;
    inst.scale0 = 0;
    inst.imm = static_cast<std::int64_t>(addr);
    append(inst);
}

RegId
SeqBuilder::loadPointer(RegId pointer, std::int64_t offset)
{
    Instruction inst;
    inst.op = Opcode::Load;
    inst.dst = newReg();
    inst.src0 = pointer;
    inst.scale0 = 1;
    inst.imm = offset;
    append(inst);
    return inst.dst;
}

void
SeqBuilder::prefetchOrdered(Addr addr, RegId dep)
{
    Instruction inst;
    inst.op = Opcode::Prefetch;
    inst.src0 = dep;
    inst.scale0 = 0;
    inst.imm = static_cast<std::int64_t>(addr);
    append(inst);
}

} // namespace hr
