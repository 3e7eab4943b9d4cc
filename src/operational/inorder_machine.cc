#include "operational/inorder_machine.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"
#include "isa/semantics.hh"

namespace gam::operational
{

using isa::Instruction;
using isa::Opcode;
using isa::Value;
using model::ModelKind;

InOrderMachine::InOrderMachine(const litmus::LitmusTest &test,
                               ModelKind kind)
    : test(test), storeBuffers(kind == ModelKind::TSO),
      memory(test.initialMem)
{
    GAM_ASSERT(kind == ModelKind::SC || kind == ModelKind::TSO,
               "the in-order machine decides SC and TSO, not %s",
               model::modelName(kind).c_str());
    procs.resize(test.threads.size());
}

bool
InOrderMachine::procDone(size_t p) const
{
    const auto &prog = test.threads[p];
    return procs[p].pc >= prog.size()
        || prog[procs[p].pc].op == Opcode::HALT;
}

bool
InOrderMachine::buffering(size_t p) const
{
    return std::any_of(buffered.begin(), buffered.end(),
                       [&](const BufferedStore &s) { return s.proc == p; });
}

bool
InOrderMachine::stepEnabled(size_t p) const
{
    if (procDone(p))
        return false;
    if (!buffering(p))
        return true;
    const Instruction &in = test.threads[p][procs[p].pc];
    return !(in.isFence() && in.fence == isa::FenceKind::SL)
        && !in.isRmw();
}

std::vector<InOrderRule>
InOrderMachine::enabledRules() const
{
    std::vector<InOrderRule> rules;
    for (size_t p = 0; p < procs.size(); ++p) {
        if (stepEnabled(p))
            rules.push_back({uint8_t(p), InOrderRule::Step});
        if (buffering(p))
            rules.push_back({uint8_t(p), InOrderRule::Drain});
    }
    return rules;
}

void
InOrderMachine::fire(const InOrderRule &rule)
{
    auto own = [&](const BufferedStore &s) { return s.proc == rule.proc; };
    if (rule.kind == InOrderRule::Drain) {
        const auto oldest =
            std::find_if(buffered.begin(), buffered.end(), own);
        GAM_ASSERT(oldest != buffered.end(),
                   "drain of an empty store buffer");
        memory.store(oldest->addr, oldest->value);
        buffered.erase(oldest);
        return;
    }

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
        // The buffer is empty (stepEnabled): read-modify-write memory
        // atomically, like a locked x86 operation.
        const isa::Addr a = isa::effectiveAddr(in, reg(in.src1));
        const Value old_value = memory.load(a);
        memory.store(a, isa::evalRmwStored(in, old_value, reg(in.src2)));
        set(in.dst, old_value);
    } else if (in.isLoad()) {
        // Forward from the youngest buffered store to the address.
        const isa::Addr a = isa::effectiveAddr(in, reg(in.src1));
        const auto youngest = std::find_if(
            buffered.rbegin(), buffered.rend(),
            [&](const BufferedStore &s) { return own(s) && s.addr == a; });
        set(in.dst, youngest != buffered.rend() ? youngest->value
                                                : memory.load(a));
    } else if (in.isStore()) {
        const isa::Addr a = isa::effectiveAddr(in, reg(in.src1));
        if (storeBuffers)
            buffered.push_back({rule.proc, a, reg(in.src2)});
        else
            memory.store(a, reg(in.src2));
    } else if (in.isBranch()) {
        if (isa::evalBranchTaken(in, reg(in.src1), reg(in.src2)))
            next = uint16_t(in.imm);
    }
    // NOP and fences: no effect here (FenceSL waits in stepEnabled()).
    proc.pc = next;
}

bool
InOrderMachine::terminal() const
{
    for (size_t p = 0; p < procs.size(); ++p)
        if (!procDone(p))
            return false;
    return buffered.empty();
}

litmus::Outcome
InOrderMachine::outcome() const
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
InOrderMachine::encode() const
{
    std::ostringstream os;
    for (size_t p = 0; p < procs.size(); ++p) {
        os << procs[p].pc << ":";
        for (size_t r = 0; r < procs[p].regs.size(); ++r)
            if (procs[p].regs[r])
                os << r << "=" << procs[p].regs[r] << ",";
        os << "/";
        for (const BufferedStore &s : buffered)
            if (s.proc == p)
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
InOrderMachine::hashInto(StateHasher &h) const
{
    for (const Proc &proc : procs) {
        h.add(proc.pc);
        for (Value r : proc.regs)
            h.add(uint64_t(r));
        h.separator();
    }
    // The buffers one processor at a time, so states whose stores of
    // different processors entered `buffered` in another order
    // fingerprint alike.  Empty buffers add nothing: an SC state
    // hashes no more words than it has.
    if (!buffered.empty()) {
        for (size_t p = 0; p < procs.size(); ++p) {
            for (const BufferedStore &s : buffered) {
                if (s.proc == p) {
                    h.add(uint64_t(s.addr));
                    h.add(uint64_t(s.value));
                }
            }
            h.separator();
        }
    }
    h.add(hashUnorderedPairs(memory.raw()));
}

} // namespace gam::operational
