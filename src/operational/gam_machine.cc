#include "operational/gam_machine.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"
#include "isa/semantics.hh"

namespace gam::operational
{

using isa::Addr;
using isa::Instruction;
using isa::Opcode;
using isa::Value;
using model::InitStore;
using model::StoreId;

namespace
{

constexpr StoreId
sid(int proc, uint16_t pc)
{
    return static_cast<StoreId>(proc * 1024 + pc);
}

} // anonymous namespace

GamMachine::GamMachine(const litmus::LitmusTest &test, GamOptions options)
    : test(test), options(options), memory(test.initialMem)
{
    procs.resize(test.threads.size());
}

const Instruction &
GamMachine::instrAt(int proc, const Entry &e) const
{
    return test.threads[size_t(proc)][e.pc];
}

std::optional<Value>
GamMachine::readReg(int proc, size_t idx, isa::Reg r) const
{
    if (r == isa::REG_ZERO)
        return Value{0};
    const auto &rob = procs[size_t(proc)].rob;
    for (size_t j = idx; j-- > 0;) {
        const Instruction &in = instrAt(proc, rob[j]);
        auto ws = in.writeSet();
        if (std::find(ws.begin(), ws.end(), r) != ws.end()) {
            if (!rob[j].done)
                return std::nullopt;
            return rob[j].result;
        }
    }
    return Value{0}; // architectural initial value
}

bool
GamMachine::regsReady(int proc, size_t idx,
                      const std::vector<isa::Reg> &set) const
{
    for (isa::Reg r : set)
        if (!readReg(proc, idx, r))
            return false;
    return true;
}

bool
GamMachine::fenceGuard(int proc, size_t idx) const
{
    const auto &rob = procs[size_t(proc)].rob;
    const isa::FenceKind k = instrAt(proc, rob[idx]).fence;
    for (size_t j = 0; j < idx; ++j) {
        const Instruction &in = instrAt(proc, rob[j]);
        if (in.isMem() && in.isMemType(isa::fencePre(k))
            && !rob[j].done) {
            return false;
        }
    }
    return true;
}

bool
GamMachine::loadGuard(int proc, size_t idx) const
{
    const auto &rob = procs[size_t(proc)].rob;
    const Entry &e = rob[idx];
    if (!e.addrAvail)
        return false;
    // All older FenceXL must be done.
    for (size_t j = 0; j < idx; ++j) {
        const Instruction &in = instrAt(proc, rob[j]);
        if (in.isFence() && isa::fencePost(in.fence) == isa::MemType::Load
            && !rob[j].done) {
            return false;
        }
    }
    // Backward search (Figure 17, Execute-Load).
    const bool stall_on_load = options.kind == model::ModelKind::GAM;
    for (size_t j = idx; j-- > 0;) {
        const Entry &o = rob[j];
        const Instruction &in = instrAt(proc, o);
        if (!in.isMem() || !o.addrAvail || o.addr != e.addr || o.done)
            continue;
        if (in.isRmw())
            return false;           // must wait: RMWs access memory
        if (in.isLoad()) {
            if (stall_on_load)
                return false;       // GAM: stall behind not-done load
            continue;               // others: loads do not block
        }
        return o.dataAvail;         // forward iff the data is ready
    }
    return true;                    // read the monolithic memory
}

bool
GamMachine::loadAltGuard(int proc, size_t idx) const
{
    // Alpha* load-load forwarding: the closest older same-address
    // memory instruction (with known address) is a done load.
    if (options.kind != model::ModelKind::AlphaStar)
        return false;
    const auto &rob = procs[size_t(proc)].rob;
    const Entry &e = rob[idx];
    if (!e.addrAvail)
        return false;
    for (size_t j = 0; j < idx; ++j) {
        const Instruction &in = instrAt(proc, rob[j]);
        if (in.isFence() && isa::fencePost(in.fence) == isa::MemType::Load
            && !rob[j].done) {
            return false;
        }
    }
    for (size_t j = idx; j-- > 0;) {
        const Entry &o = rob[j];
        const Instruction &in = instrAt(proc, o);
        if (!in.isMem() || !o.addrAvail || o.addr != e.addr)
            continue;
        return in.isLoad() && !in.isRmw() && o.done;
    }
    return false;
}

bool
GamMachine::storeGuard(int proc, size_t idx) const
{
    const auto &rob = procs[size_t(proc)].rob;
    const Entry &e = rob[idx];
    if (!e.addrAvail || !e.dataAvail)
        return false;
    for (size_t j = 0; j < idx; ++j) {
        const Entry &o = rob[j];
        const Instruction &in = instrAt(proc, o);
        if (in.isBranch() && !o.done)
            return false;                        // guard 3 (BrSt)
        if (in.isMem() && !o.addrAvail)
            return false;                        // guard 4 (AddrSt)
        if (in.isMem() && o.addrAvail && o.addr == e.addr && !o.done)
            return false;                        // guard 5 (SAMemSt)
        if (in.isFence()
            && isa::fencePost(in.fence) == isa::MemType::Store
            && !o.done) {
            return false;                        // guard 6 (FenceOrd)
        }
    }

    if (options.kind == model::ModelKind::ARM && armPairHazard(proc, idx))
        return false;
    return true;
}

bool
GamMachine::armPairHazard(int proc, size_t idx) const
{
    // ARM-variant extra guard: the SALdLdARM repair kills a younger
    // load when an older same-address load executes later and reads a
    // different store.  A memory write is irrevocable, so a store (or
    // RMW) must wait while any older same-address load *pair* is
    // unresolved (its older member not done): the younger member is
    // then either already done and killable, or may still execute
    // early and become killable.  This makes the ARM machine sound but
    // conservative; see the class comment.
    const auto &rob = procs[size_t(proc)].rob;
    for (size_t j = 0; j < idx; ++j) {
        const Entry &young = rob[j];
        if (!instrAt(proc, young).isLoad() || !young.addrAvail)
            continue;
        for (size_t i = 0; i < j; ++i) {
            const Entry &old = rob[i];
            if (instrAt(proc, old).isLoad() && !old.done
                && old.addrAvail && old.addr == young.addr) {
                return true;
            }
        }
    }
    return false;
}

bool
GamMachine::rmwGuard(int proc, size_t idx) const
{
    // An RMW obeys every load guard and every store guard at once and
    // always accesses memory (Section III-C): address and data
    // available, older branches done, older memory addresses known,
    // older same-address accesses done, and *all* older fences done
    // (an RMW is both a type-L and a type-S memory instruction).
    const auto &rob = procs[size_t(proc)].rob;
    const Entry &e = rob[idx];
    if (!e.addrAvail || !e.dataAvail)
        return false;
    for (size_t j = 0; j < idx; ++j) {
        const Entry &o = rob[j];
        const Instruction &in = instrAt(proc, o);
        if (in.isBranch() && !o.done)
            return false;
        if (in.isMem() && !o.addrAvail)
            return false;
        if (in.isMem() && o.addrAvail && o.addr == e.addr && !o.done)
            return false;
        if (in.isFence() && !o.done)
            return false;
    }
    if (options.kind == model::ModelKind::ARM && armPairHazard(proc, idx))
        return false;
    return true;
}

std::vector<GamRule>
GamMachine::enabledRules() const
{
    std::vector<GamRule> rules;

    // Fetch rules (optionally exclusive, see GamOptions::eagerLocal).
    for (size_t p = 0; p < procs.size(); ++p) {
        const Proc &proc = procs[p];
        const auto &prog = test.threads[p];
        if (proc.pc >= prog.size() || prog[proc.pc].op == Opcode::HALT)
            continue;
        const Instruction &in = prog[proc.pc];
        if (in.isCondBranch()) {
            rules.push_back({uint8_t(p), GamRule::Fetch, 0, 0});
            rules.push_back({uint8_t(p), GamRule::Fetch, 0, 1});
        } else {
            rules.push_back({uint8_t(p), GamRule::Fetch, 0, 0});
        }
        if (options.eagerLocal)
            return rules; // fetch-first reduction
    }

    // Other deterministic local rules, fired eagerly when enabled.
    if (options.eagerLocal) {
        for (size_t p = 0; p < procs.size(); ++p) {
            const auto &rob = procs[p].rob;
            for (size_t i = 0; i < rob.size(); ++i) {
                const Entry &e = rob[i];
                const Instruction &in = instrAt(int(p), e);
                if (in.isStore() && !e.dataAvail
                    && regsReady(int(p), i, in.dataReadSet())) {
                    return {{uint8_t(p), GamRule::ComputeStoreData,
                             uint16_t(i), 0}};
                }
                if (e.done)
                    continue;
                if (in.isRegToReg()
                    && regsReady(int(p), i, in.readSet())) {
                    return {{uint8_t(p), GamRule::ExecRegToReg,
                             uint16_t(i), 0}};
                }
                if (in.isFence() && fenceGuard(int(p), i)) {
                    return {{uint8_t(p), GamRule::ExecFence,
                             uint16_t(i), 0}};
                }
            }
        }
    }

    for (size_t p = 0; p < procs.size(); ++p) {
        const auto &rob = procs[p].rob;
        for (size_t i = 0; i < rob.size(); ++i) {
            const Entry &e = rob[i];
            const Instruction &in = instrAt(int(p), e);
            const auto u8p = uint8_t(p);
            const auto u16i = uint16_t(i);

            if (in.isMem() && !e.addrAvail
                && regsReady(int(p), i, in.addrReadSet())) {
                rules.push_back({u8p, GamRule::ComputeMemAddr, u16i, 0});
            }
            if (in.isStore() && !e.dataAvail
                && regsReady(int(p), i, in.dataReadSet())) {
                rules.push_back({u8p, GamRule::ComputeStoreData, u16i, 0});
            }
            if (e.done)
                continue;
            if (in.isRegToReg() && regsReady(int(p), i, in.readSet())) {
                rules.push_back({u8p, GamRule::ExecRegToReg, u16i, 0});
            } else if (in.isBranch()
                       && regsReady(int(p), i, in.readSet())) {
                rules.push_back({u8p, GamRule::ExecBranch, u16i, 0});
            } else if (in.isFence() && fenceGuard(int(p), i)) {
                rules.push_back({u8p, GamRule::ExecFence, u16i, 0});
            } else if (in.isRmw()) {
                if (rmwGuard(int(p), i))
                    rules.push_back({u8p, GamRule::ExecRmw, u16i, 0});
            } else if (in.isLoad()) {
                if (loadGuard(int(p), i))
                    rules.push_back({u8p, GamRule::ExecLoad, u16i, 0});
                if (loadAltGuard(int(p), i))
                    rules.push_back({u8p, GamRule::ExecLoad, u16i, 1});
            } else if (in.isStore() && storeGuard(int(p), i)) {
                rules.push_back({u8p, GamRule::ExecStore, u16i, 0});
            }
        }
    }
    return rules;
}

void
GamMachine::squashFrom(int proc, size_t from, uint16_t new_pc)
{
    auto &rob = procs[size_t(proc)].rob;
    for (size_t k = from; k < rob.size(); ++k) {
        if (instrAt(proc, rob[k]).isStore() && rob[k].done) {
            std::fprintf(stderr, "ROB of P%d at bad squash(from=%zu):\n",
                         proc, from);
            for (size_t j = 0; j < rob.size(); ++j) {
                const Entry &e = rob[j];
                std::fprintf(stderr,
                             "  [%zu] pc=%u %-18s done=%d addrAvail=%d "
                             "addr=%lld rf=%d\n", j, e.pc,
                             instrAt(proc, e).toString().c_str(), e.done,
                             e.addrAvail, (long long)e.addr, e.rfSrc);
            }
            panic("squashing an executed store");
        }
    }
    rob.resize(from);
    procs[size_t(proc)].pc = new_pc;
}

void
GamMachine::fireFetch(int proc, uint8_t choice)
{
    Proc &pr = procs[size_t(proc)];
    const Instruction &in = test.threads[size_t(proc)][pr.pc];
    Entry e;
    e.pc = pr.pc;
    if (in.op == Opcode::JMP) {
        e.predictedNext = uint16_t(in.imm); // static target: no prediction
    } else if (in.isCondBranch()) {
        e.predictedNext = choice ? uint16_t(in.imm) : uint16_t(pr.pc + 1);
    } else {
        e.predictedNext = uint16_t(pr.pc + 1);
    }
    pr.rob.push_back(e);
    pr.pc = e.predictedNext;
}

void
GamMachine::fireExecLoad(int proc, size_t idx, uint8_t choice)
{
    auto &rob = procs[size_t(proc)].rob;
    Entry &e = rob[idx];

    if (choice == 1) {
        // Alpha* load-load forwarding.
        for (size_t j = idx; j-- > 0;) {
            Entry &o = rob[j];
            const Instruction &in = instrAt(proc, o);
            if (!in.isMem() || !o.addrAvail || o.addr != e.addr)
                continue;
            GAM_ASSERT(in.isLoad() && o.done, "bad LL-forward source");
            e.result = o.result;
            e.rfSrc = o.rfSrc;
            e.done = true;
            return;
        }
        panic("LL-forward source vanished");
    }

    bool resolved = false;
    const bool skip_loads = options.kind != model::ModelKind::GAM;
    for (size_t j = idx; j-- > 0;) {
        Entry &o = rob[j];
        const Instruction &in = instrAt(proc, o);
        if (!in.isMem() || !o.addrAvail || o.addr != e.addr || o.done)
            continue;
        GAM_ASSERT(!in.isRmw(), "Execute-Load fired past a pending RMW");
        if (in.isLoad()) {
            GAM_ASSERT(skip_loads, "Execute-Load fired while stalled");
            continue;
        }
        GAM_ASSERT(o.dataAvail, "Execute-Load fired without store data");
        e.result = o.data;                        // bypass from the store
        e.rfSrc = sid(proc, o.pc);
        resolved = true;
        break;
    }
    if (!resolved) {
        e.result = memory.load(e.addr);           // read monolithic memory
        auto it = lastWriter.find(e.addr);
        e.rfSrc = it == lastWriter.end() ? InitStore : it->second;
    }
    e.done = true;

    if (options.kind == model::ModelKind::ARM) {
        // SALdLdARM: younger done same-address loads that read from a
        // different store have violated the commit order; kill the
        // oldest such load and everything younger.
        for (size_t k = idx + 1; k < rob.size(); ++k) {
            const Entry &y = rob[k];
            const Instruction &in = instrAt(proc, y);
            // Only pure loads can be victims: a done RMW younger than a
            // not-done same-address load is unreachable (its guard
            // requires all older same-address accesses done).
            if (in.isLoad() && !in.isStore() && y.done && y.addrAvail
                && y.addr == e.addr && y.rfSrc != e.rfSrc) {
                uint16_t restart = y.pc;
                squashFrom(proc, k, restart);
                break;
            }
        }
    }
}

void
GamMachine::fireExecStore(int proc, size_t idx)
{
    Entry &e = procs[size_t(proc)].rob[idx];
    memory.store(e.addr, e.data);
    lastWriter[e.addr] = sid(proc, e.pc);
    e.result = e.data;
    e.done = true;
}

void
GamMachine::fireExecRmw(int proc, size_t idx)
{
    Entry &e = procs[size_t(proc)].rob[idx];
    const Instruction &in = instrAt(proc, e);
    const Value old_value = memory.load(e.addr);
    memory.store(e.addr, isa::evalRmwStored(in, old_value, e.data));
    e.result = old_value;
    auto it = lastWriter.find(e.addr);
    e.rfSrc = it == lastWriter.end() ? InitStore : it->second;
    lastWriter[e.addr] = sid(proc, e.pc);
    e.done = true;
}

void
GamMachine::fireComputeMemAddr(int proc, size_t idx)
{
    auto &rob = procs[size_t(proc)].rob;
    Entry &e = rob[idx];
    const Instruction &in = instrAt(proc, e);
    auto base = readReg(proc, idx, in.src1);
    GAM_ASSERT(base.has_value(), "Compute-Mem-Addr without operands");
    e.addr = isa::effectiveAddr(in, *base);
    e.addrAvail = true;

    // Kill search (Figure 17): walk younger same-address entries.  A
    // done load found here read a value that predates this instruction
    // (its forwarding source, if any, would have been encountered as a
    // store first) and must be killed; a same-address *store* shields
    // everything younger (loads beyond it read it or something newer);
    // a not-done load has read nothing yet and is skipped.  GAM applies
    // the kill for load and store address resolution (SALdLd +
    // LdVal/SAStLd); the relaxed variants only for stores (LdVal).
    const bool kills = in.isStore()
        || options.kind == model::ModelKind::GAM;
    if (!kills)
        return;
    for (size_t k = idx + 1; k < rob.size(); ++k) {
        const Entry &y = rob[k];
        const Instruction &yin = instrAt(proc, y);
        if (!yin.isMem() || !y.addrAvail || y.addr != e.addr)
            continue;
        if (yin.isStore())
            break; // shields younger same-address instructions
        if (y.done) {
            uint16_t restart = y.pc;
            squashFrom(proc, k, restart);
            break;
        }
        // Not-done load: nothing read yet; keep scanning.
    }
}

void
GamMachine::fire(const GamRule &rule)
{
    const int p = rule.proc;
    switch (rule.kind) {
      case GamRule::Fetch:
        fireFetch(p, rule.choice);
        return;
      case GamRule::ExecRegToReg: {
        Entry &e = procs[size_t(p)].rob[rule.idx];
        const Instruction &in = instrAt(p, e);
        auto a = readReg(p, rule.idx, in.src1);
        auto b = readReg(p, rule.idx, in.src2);
        GAM_ASSERT(a && b, "Execute-Reg-to-Reg without operands");
        e.result = isa::evalRegToReg(in, *a, *b);
        e.done = true;
        return;
      }
      case GamRule::ExecBranch: {
        auto &rob = procs[size_t(p)].rob;
        Entry &e = rob[rule.idx];
        const Instruction &in = instrAt(p, e);
        auto a = readReg(p, rule.idx, in.src1);
        auto b = readReg(p, rule.idx, in.src2);
        GAM_ASSERT(a && b, "Execute-Branch without operands");
        uint16_t actual = isa::evalBranchTaken(in, *a, *b)
            ? uint16_t(in.imm) : uint16_t(e.pc + 1);
        e.result = actual;
        e.done = true;
        if (actual != e.predictedNext)
            squashFrom(p, rule.idx + 1, actual);
        return;
      }
      case GamRule::ExecFence: {
        procs[size_t(p)].rob[rule.idx].done = true;
        return;
      }
      case GamRule::ExecLoad:
        fireExecLoad(p, rule.idx, rule.choice);
        return;
      case GamRule::ComputeStoreData: {
        Entry &e = procs[size_t(p)].rob[rule.idx];
        const Instruction &in = instrAt(p, e);
        auto v = readReg(p, rule.idx, in.src2);
        GAM_ASSERT(v.has_value(), "Compute-Store-Data without operand");
        e.data = *v;
        e.dataAvail = true;
        return;
      }
      case GamRule::ExecStore:
        fireExecStore(p, rule.idx);
        return;
      case GamRule::ExecRmw:
        fireExecRmw(p, rule.idx);
        return;
      case GamRule::ComputeMemAddr:
        fireComputeMemAddr(p, rule.idx);
        return;
    }
    panic("unknown rule kind");
}

bool
GamMachine::terminal() const
{
    for (size_t p = 0; p < procs.size(); ++p) {
        const auto &prog = test.threads[p];
        const Proc &proc = procs[p];
        if (proc.pc < prog.size() && prog[proc.pc].op != Opcode::HALT)
            return false;
        for (const Entry &e : proc.rob)
            if (!e.done)
                return false;
    }
    return true;
}

litmus::Outcome
GamMachine::outcome() const
{
    litmus::Outcome o;
    for (auto [tid, reg] : test.observedRegs) {
        auto v = readReg(tid, procs[size_t(tid)].rob.size(), reg);
        GAM_ASSERT(v.has_value(), "outcome read of a not-done register");
        o.regs.push_back({tid, reg, *v});
    }
    for (Addr a : test.addressUniverse)
        o.mem.push_back({a, memory.load(a)});
    o.canonicalize();
    return o;
}

std::string
GamMachine::encode() const
{
    std::ostringstream os;
    for (const Proc &proc : procs) {
        os << proc.pc << ";";
        for (const Entry &e : proc.rob) {
            os << e.pc << "," << e.done << e.addrAvail << e.dataAvail
               << "," << e.result << "," << e.addr << "," << e.data
               << "," << e.predictedNext << "," << e.rfSrc << " ";
        }
        os << "|";
    }
    std::vector<std::pair<Addr, Value>> mem(memory.raw().begin(),
                                            memory.raw().end());
    std::sort(mem.begin(), mem.end());
    for (auto [a, v] : mem)
        os << a << "=" << v << ",";
    os << "$";
    for (auto [a, s] : lastWriter)
        os << a << ":" << s << ",";
    return os.str();
}

void
GamMachine::hashInto(StateHasher &h) const
{
    for (const Proc &proc : procs) {
        h.add(proc.pc);
        for (const Entry &e : proc.rob) {
            h.add(uint64_t(e.pc) | (uint64_t(e.done) << 16)
                  | (uint64_t(e.addrAvail) << 17)
                  | (uint64_t(e.dataAvail) << 18)
                  | (uint64_t(e.predictedNext) << 32));
            h.add(uint64_t(e.result));
            h.add(uint64_t(e.addr));
            h.add(uint64_t(e.data));
            h.add(uint64_t(int64_t(e.rfSrc)));
        }
        h.separator();
    }
    h.add(hashUnorderedPairs(memory.raw()));
    // lastWriter is an ordered map; stream it sequentially.
    for (auto [a, s] : lastWriter) {
        h.add(uint64_t(a));
        h.add(uint64_t(int64_t(s)));
    }
}

} // namespace gam::operational
