#include "operational/tso_machine.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"
#include "isa/semantics.hh"

namespace gam::operational
{

using isa::Instruction;
using isa::Opcode;
using isa::Value;

TsoMachine::TsoMachine(const litmus::LitmusTest &test)
    : test(test), memory(test.initialMem)
{
    procs.resize(test.threads.size());
}

bool
TsoMachine::procDone(size_t p) const
{
    const auto &prog = test.threads[p];
    return procs[p].pc >= prog.size()
        || prog[procs[p].pc].op == Opcode::HALT;
}

bool
TsoMachine::stepEnabled(size_t p) const
{
    if (procDone(p))
        return false;
    const Instruction &in = test.threads[p][procs[p].pc];
    if (in.isFence() && in.fence == isa::FenceKind::SL)
        return procs[p].sb.empty(); // FenceSL waits for the buffer
    if (in.isRmw())
        return procs[p].sb.empty(); // RMWs drain the buffer first
    return true;
}

std::vector<TsoRule>
TsoMachine::enabledRules() const
{
    std::vector<TsoRule> rules;
    for (size_t p = 0; p < procs.size(); ++p) {
        if (stepEnabled(p))
            rules.push_back({uint8_t(p), TsoRule::Step});
        if (!procs[p].sb.empty())
            rules.push_back({uint8_t(p), TsoRule::Drain});
    }
    return rules;
}

void
TsoMachine::fire(const TsoRule &rule)
{
    Proc &proc = procs[rule.proc];
    if (rule.kind == TsoRule::Drain) {
        GAM_ASSERT(!proc.sb.empty(), "drain of an empty store buffer");
        memory.store(proc.sb.front().addr, proc.sb.front().value);
        proc.sb.pop_front();
        return;
    }

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
        // The buffer is empty (stepEnabled): read-modify-write memory
        // atomically, like a locked x86 operation.
        const isa::Addr a = isa::effectiveAddr(in, reg(in.src1));
        const Value old_value = memory.load(a);
        memory.store(a, isa::evalRmwStored(in, old_value, reg(in.src2)));
        set(in.dst, old_value);
    } else if (in.isLoad()) {
        const isa::Addr a = isa::effectiveAddr(in, reg(in.src1));
        bool forwarded = false;
        for (auto it = proc.sb.rbegin(); it != proc.sb.rend(); ++it) {
            if (it->addr == a) {
                set(in.dst, it->value);
                forwarded = true;
                break;
            }
        }
        if (!forwarded)
            set(in.dst, memory.load(a));
    } else if (in.isStore()) {
        proc.sb.push_back({isa::effectiveAddr(in, reg(in.src1)),
                           reg(in.src2)});
    } else if (in.isBranch()) {
        if (isa::evalBranchTaken(in, reg(in.src1), reg(in.src2)))
            next = uint16_t(in.imm);
    }
    // NOP and fences other than FenceSL: no effect under TSO.
    proc.pc = next;
}

bool
TsoMachine::terminal() const
{
    for (size_t p = 0; p < procs.size(); ++p)
        if (!procDone(p) || !procs[p].sb.empty())
            return false;
    return true;
}

litmus::Outcome
TsoMachine::outcome() const
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
TsoMachine::encode() const
{
    std::ostringstream os;
    for (const Proc &proc : procs) {
        os << proc.pc << ":";
        for (size_t r = 0; r < proc.regs.size(); ++r)
            if (proc.regs[r])
                os << r << "=" << proc.regs[r] << ",";
        os << "/";
        for (const auto &s : proc.sb)
            os << s.addr << "=" << s.value << ",";
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
TsoMachine::hashInto(StateHasher &h) const
{
    for (const Proc &proc : procs) {
        h.add(proc.pc);
        for (Value r : proc.regs)
            h.add(uint64_t(r));
        h.separator();
        for (const auto &s : proc.sb) {
            h.add(uint64_t(s.addr));
            h.add(uint64_t(s.value));
        }
        h.separator();
    }
    h.add(hashUnorderedPairs(memory.raw()));
}

} // namespace gam::operational
