#include "operational/sc_machine.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"
#include "isa/semantics.hh"

namespace gam::operational
{

using isa::Instruction;
using isa::Opcode;
using isa::Value;

ScMachine::ScMachine(const litmus::LitmusTest &test)
    : test(test), memory(test.initialMem)
{
    procs.resize(test.threads.size());
}

bool
ScMachine::procDone(size_t p) const
{
    const auto &prog = test.threads[p];
    return procs[p].pc >= prog.size()
        || prog[procs[p].pc].op == Opcode::HALT;
}

std::vector<ScRule>
ScMachine::enabledRules() const
{
    std::vector<ScRule> rules;
    for (size_t p = 0; p < procs.size(); ++p)
        if (!procDone(p))
            rules.push_back({uint8_t(p)});
    return rules;
}

void
ScMachine::fire(const ScRule &rule)
{
    Proc &proc = procs[rule.proc];
    const Instruction &in = test.threads[rule.proc][proc.pc];
    auto reg = [&](isa::Reg r) { return proc.regs[size_t(r)]; };
    auto set = [&](isa::Reg r, Value v) {
        if (r != isa::REG_ZERO)
            proc.regs[size_t(r)] = v;
    };
    uint16_t next = uint16_t(proc.pc + 1);

    if (in.isRegToReg()) {
        set(in.dst, isa::evalRegToReg(in, reg(in.src1), reg(in.src2)));
    } else if (in.isRmw()) {
        const isa::Addr a = isa::effectiveAddr(in, reg(in.src1));
        const Value old_value = memory.load(a);
        memory.store(a, isa::evalRmwStored(in, old_value, reg(in.src2)));
        set(in.dst, old_value);
    } else if (in.isLoad()) {
        set(in.dst, memory.load(isa::effectiveAddr(in, reg(in.src1))));
    } else if (in.isStore()) {
        memory.store(isa::effectiveAddr(in, reg(in.src1)), reg(in.src2));
    } else if (in.isBranch()) {
        if (isa::evalBranchTaken(in, reg(in.src1), reg(in.src2)))
            next = uint16_t(in.imm);
    }
    // NOP and FENCE: no effect in the SC machine.
    proc.pc = next;
}

bool
ScMachine::terminal() const
{
    for (size_t p = 0; p < procs.size(); ++p)
        if (!procDone(p))
            return false;
    return true;
}

litmus::Outcome
ScMachine::outcome() const
{
    litmus::Outcome o;
    for (auto [tid, reg] : test.observedRegs)
        o.regs.push_back({tid, reg, procs[size_t(tid)].regs[size_t(reg)]});
    for (isa::Addr a : test.addressUniverse)
        o.mem.push_back({a, memory.load(a)});
    o.canonicalize();
    return o;
}

std::string
ScMachine::encode() const
{
    std::ostringstream os;
    for (const Proc &proc : procs) {
        os << proc.pc << ":";
        for (size_t r = 0; r < proc.regs.size(); ++r)
            if (proc.regs[r])
                os << r << "=" << proc.regs[r] << ",";
        os << "|";
    }
    std::vector<std::pair<isa::Addr, Value>> mem(memory.raw().begin(),
                                                 memory.raw().end());
    std::sort(mem.begin(), mem.end());
    for (auto [a, v] : mem)
        os << a << "=" << v << ",";
    return os.str();
}

void
ScMachine::hashInto(StateHasher &h) const
{
    for (const Proc &proc : procs) {
        h.add(proc.pc);
        for (Value r : proc.regs)
            h.add(uint64_t(r));
        h.separator();
    }
    h.add(hashUnorderedPairs(memory.raw()));
}

} // namespace gam::operational
