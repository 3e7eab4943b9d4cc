#include "isa/program.hh"

#include <sstream>

#include "base/logging.hh"

namespace gam::isa
{

std::string
Program::toString() const
{
    std::ostringstream os;
    for (size_t i = 0; i < code.size(); ++i)
        os << i << ": " << code[i].toString() << "\n";
    return os.str();
}

std::optional<std::string>
Program::check() const
{
    for (size_t i = 0; i < code.size(); ++i) {
        const Instruction &instr = code[i];
        if (instr.isBranch()) {
            if (instr.imm < 0
                || instr.imm > static_cast<int64_t>(code.size())) {
                return formatString(
                    "instruction %zu: branch target %lld out of range",
                    i, static_cast<long long>(instr.imm));
            }
        }
        for (Reg r : {instr.dst, instr.src1, instr.src2}) {
            if (r < 0 || r >= NUM_REGS) {
                return formatString("instruction %zu: bad register %d",
                                    i, int(r));
            }
        }
    }
    return std::nullopt;
}

ProgramBuilder &
ProgramBuilder::nop()
{
    code.push_back(makeNop());
    return *this;
}

ProgramBuilder &
ProgramBuilder::alu(Opcode op, Reg dst, Reg src1, Reg src2)
{
    code.push_back(makeAlu(op, dst, src1, src2));
    return *this;
}

ProgramBuilder &
ProgramBuilder::aluImm(Opcode op, Reg dst, Reg src1, int64_t imm)
{
    code.push_back(makeAluImm(op, dst, src1, imm));
    return *this;
}

ProgramBuilder &
ProgramBuilder::add(Reg dst, Reg src1, Reg src2)
{
    return alu(Opcode::ADD, dst, src1, src2);
}

ProgramBuilder &
ProgramBuilder::sub(Reg dst, Reg src1, Reg src2)
{
    return alu(Opcode::SUB, dst, src1, src2);
}

ProgramBuilder &
ProgramBuilder::xorr(Reg dst, Reg src1, Reg src2)
{
    return alu(Opcode::XOR, dst, src1, src2);
}

ProgramBuilder &
ProgramBuilder::addi(Reg dst, Reg src1, int64_t imm)
{
    return aluImm(Opcode::ADDI, dst, src1, imm);
}

ProgramBuilder &
ProgramBuilder::li(Reg dst, int64_t imm)
{
    code.push_back(makeLi(dst, imm));
    return *this;
}

ProgramBuilder &
ProgramBuilder::mov(Reg dst, Reg src)
{
    return aluImm(Opcode::ADDI, dst, src, 0);
}

ProgramBuilder &
ProgramBuilder::ld(Reg dst, Reg addrReg, int64_t offset)
{
    code.push_back(makeLoad(dst, addrReg, offset));
    return *this;
}

ProgramBuilder &
ProgramBuilder::st(Reg addrReg, Reg dataReg, int64_t offset)
{
    code.push_back(makeStore(addrReg, dataReg, offset));
    return *this;
}

ProgramBuilder &
ProgramBuilder::rmw(Opcode op, Reg dst, Reg addrReg, Reg dataReg,
                    int64_t offset)
{
    code.push_back(makeRmw(op, dst, addrReg, dataReg, offset));
    return *this;
}

ProgramBuilder &
ProgramBuilder::branchTo(Opcode op, Reg a, Reg b, const std::string &label)
{
    fixups.emplace_back(code.size(), label);
    if (op == Opcode::JMP)
        code.push_back(makeJmp(0));
    else
        code.push_back(makeBranch(op, a, b, 0));
    return *this;
}

ProgramBuilder &
ProgramBuilder::beq(Reg a, Reg b, const std::string &label)
{
    return branchTo(Opcode::BEQ, a, b, label);
}

ProgramBuilder &
ProgramBuilder::bne(Reg a, Reg b, const std::string &label)
{
    return branchTo(Opcode::BNE, a, b, label);
}

ProgramBuilder &
ProgramBuilder::blt(Reg a, Reg b, const std::string &label)
{
    return branchTo(Opcode::BLT, a, b, label);
}

ProgramBuilder &
ProgramBuilder::bge(Reg a, Reg b, const std::string &label)
{
    return branchTo(Opcode::BGE, a, b, label);
}

ProgramBuilder &
ProgramBuilder::jmp(const std::string &label)
{
    return branchTo(Opcode::JMP, REG_ZERO, REG_ZERO, label);
}

ProgramBuilder &
ProgramBuilder::fence(FenceKind k)
{
    code.push_back(makeFence(k));
    return *this;
}

ProgramBuilder &
ProgramBuilder::fenceAcquire()
{
    return fence(FenceKind::LL).fence(FenceKind::LS);
}

ProgramBuilder &
ProgramBuilder::fenceRelease()
{
    return fence(FenceKind::LS).fence(FenceKind::SS);
}

ProgramBuilder &
ProgramBuilder::fenceFull()
{
    return fence(FenceKind::LL).fence(FenceKind::LS)
          .fence(FenceKind::SL).fence(FenceKind::SS);
}

ProgramBuilder &
ProgramBuilder::halt()
{
    code.push_back(makeHalt());
    return *this;
}

ProgramBuilder &
ProgramBuilder::raw(const Instruction &instr)
{
    code.push_back(instr);
    return *this;
}

ProgramBuilder &
ProgramBuilder::label(const std::string &name)
{
    if (!tryLabel(name))
        fatal("duplicate label '%s'", name.c_str());
    return *this;
}

bool
ProgramBuilder::tryLabel(const std::string &name)
{
    return labels.emplace(name, code.size()).second;
}

Program
ProgramBuilder::build()
{
    std::string error;
    auto p = tryBuild(&error);
    if (!p)
        fatal("%s", error.c_str());
    return *std::move(p);
}

std::optional<Program>
ProgramBuilder::tryBuild(std::string *error)
{
    for (const auto &[index, name] : fixups) {
        auto it = labels.find(name);
        if (it == labels.end()) {
            if (error)
                *error = "undefined label '" + name + "'";
            return std::nullopt;
        }
        code[index].imm = static_cast<int64_t>(it->second);
    }
    Program p;
    p.code = code;
    if (auto err = p.check()) {
        if (error)
            *error = *err;
        return std::nullopt;
    }
    return p;
}

} // namespace gam::isa
