/**
 * @file
 * Program container and a fluent builder with label resolution.
 */

#ifndef GAM_ISA_PROGRAM_HH
#define GAM_ISA_PROGRAM_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "isa/instruction.hh"

namespace gam::isa
{

/** A single hardware thread's instruction sequence. */
struct Program
{
    std::vector<Instruction> code;

    size_t size() const { return code.size(); }
    bool empty() const { return code.empty(); }
    const Instruction &operator[](size_t i) const { return code[i]; }

    /** Multi-line disassembly with instruction indices. */
    std::string toString() const;

    /**
     * Check static well-formedness: branch targets in range [0, size]
     * and register names in range.  Returns a diagnostic on the first
     * violation, nullopt when the program is well-formed.
     */
    std::optional<std::string> check() const;
};

/**
 * Fluent program builder.
 *
 * Branch targets may be given as label strings; build() resolves them to
 * absolute instruction indices.  Combined fences are expanded into the
 * paper's basic-fence sequences.
 *
 *     Program p = ProgramBuilder()
 *         .li(R(1), 1)
 *         .st(R(2), R(1))
 *         .fenceSS()
 *         .st(R(3), R(1))
 *         .build();
 */
class ProgramBuilder
{
  public:
    ProgramBuilder &nop();
    ProgramBuilder &alu(Opcode op, Reg dst, Reg src1, Reg src2);
    ProgramBuilder &aluImm(Opcode op, Reg dst, Reg src1, int64_t imm);
    ProgramBuilder &add(Reg dst, Reg src1, Reg src2);
    ProgramBuilder &sub(Reg dst, Reg src1, Reg src2);
    ProgramBuilder &xorr(Reg dst, Reg src1, Reg src2);
    ProgramBuilder &addi(Reg dst, Reg src1, int64_t imm);
    ProgramBuilder &li(Reg dst, int64_t imm);
    ProgramBuilder &mov(Reg dst, Reg src);
    ProgramBuilder &ld(Reg dst, Reg addrReg, int64_t offset = 0);
    ProgramBuilder &st(Reg addrReg, Reg dataReg, int64_t offset = 0);
    /** dst = mem[addr]; mem[addr] = dst-op-data (AMOSWAP / AMOADD). */
    ProgramBuilder &rmw(Opcode op, Reg dst, Reg addrReg, Reg dataReg,
                        int64_t offset = 0);
    ProgramBuilder &beq(Reg a, Reg b, const std::string &label);
    ProgramBuilder &bne(Reg a, Reg b, const std::string &label);
    ProgramBuilder &blt(Reg a, Reg b, const std::string &label);
    ProgramBuilder &bge(Reg a, Reg b, const std::string &label);
    ProgramBuilder &jmp(const std::string &label);
    ProgramBuilder &fence(FenceKind k);
    ProgramBuilder &fenceLL() { return fence(FenceKind::LL); }
    ProgramBuilder &fenceLS() { return fence(FenceKind::LS); }
    ProgramBuilder &fenceSL() { return fence(FenceKind::SL); }
    ProgramBuilder &fenceSS() { return fence(FenceKind::SS); }
    /** Acquire fence: FenceLL; FenceLS (Section III-D1). */
    ProgramBuilder &fenceAcquire();
    /** Release fence: FenceLS; FenceSS. */
    ProgramBuilder &fenceRelease();
    /** Full fence: FenceLL; FenceLS; FenceSL; FenceSS. */
    ProgramBuilder &fenceFull();
    ProgramBuilder &halt();
    /** Append an arbitrary pre-built instruction. */
    ProgramBuilder &raw(const Instruction &instr);

    /** Bind @p name to the next instruction index. */
    ProgramBuilder &label(const std::string &name);

    /**
     * label(), but recoverable: returns false (and binds nothing) when
     * @p name is already bound.
     */
    bool tryLabel(const std::string &name);

    /** Current instruction count (next index to be appended). */
    size_t here() const { return code.size(); }

    /** Resolve labels and return the finished program. */
    Program build();

    /**
     * build(), but recoverable: returns nullopt (with a diagnostic in
     * @p error when given) on an undefined label or an ill-formed
     * program instead of aborting.
     */
    std::optional<Program> tryBuild(std::string *error = nullptr);

  private:
    ProgramBuilder &branchTo(Opcode op, Reg a, Reg b,
                             const std::string &label);

    std::vector<Instruction> code;
    std::map<std::string, size_t> labels;
    /** (instruction index, label) pairs awaiting resolution. */
    std::vector<std::pair<size_t, std::string>> fixups;
};

} // namespace gam::isa

#endif // GAM_ISA_PROGRAM_HH
