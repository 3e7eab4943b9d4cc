#include "litmus/test.hh"

#include <algorithm>
#include <sstream>

#include "base/hashing.hh"
#include "base/logging.hh"

namespace gam::litmus
{

void
LitmusTest::finalize()
{
    if (observedRegs.empty()) {
        for (size_t tid = 0; tid < threads.size(); ++tid) {
            for (const auto &instr : threads[tid].code) {
                for (isa::Reg r : instr.writeSet())
                    observedRegs.emplace_back(static_cast<int>(tid), r);
            }
        }
        // Condition registers too: a constraint on a register no
        // thread writes must still be decidable (the register holds
        // its initial 0, and both engines report it identically).
        for (const auto &rc : regCond) {
            if (rc.tid >= 0 && rc.tid < static_cast<int>(threads.size())
                && rc.reg != isa::REG_ZERO && rc.reg >= 0
                && rc.reg < isa::NUM_REGS) {
                observedRegs.emplace_back(rc.tid, rc.reg);
            }
        }
        std::sort(observedRegs.begin(), observedRegs.end());
        observedRegs.erase(
            std::unique(observedRegs.begin(), observedRegs.end()),
            observedRegs.end());
    }
    if (addressUniverse.empty()) {
        for (const auto &[name, addr] : locations)
            addressUniverse.push_back(addr);
        std::sort(addressUniverse.begin(), addressUniverse.end());
        addressUniverse.erase(
            std::unique(addressUniverse.begin(), addressUniverse.end()),
            addressUniverse.end());
    }
}

std::optional<std::string>
LitmusTest::check() const
{
    if (threads.empty())
        return "test has no threads";
    if (threads.size() > 64)
        return formatString("test has %zu threads (limit 64)",
                            threads.size());
    for (size_t tid = 0; tid < threads.size(); ++tid) {
        const isa::Program &prog = threads[tid];
        if (prog.size() >= 1024) {
            return formatString(
                "thread %zu has %zu instructions (limit 1023)", tid,
                prog.size());
        }
        if (auto err = prog.check())
            return formatString("thread %zu: %s", tid, err->c_str());
        for (size_t i = 0; i < prog.size(); ++i) {
            const isa::Instruction &instr = prog[i];
            if (instr.isBranch()
                && instr.imm <= static_cast<int64_t>(i)) {
                return formatString(
                    "thread %zu instruction %zu: backward branch to "
                    "%lld (engines require forward branches)",
                    tid, i, static_cast<long long>(instr.imm));
            }
        }
    }

    auto bad_tid = [&](int tid) {
        return tid < 0 || tid >= static_cast<int>(threads.size());
    };
    auto bad_reg = [](isa::Reg r) {
        return r < 0 || r >= isa::NUM_REGS;
    };
    for (const auto &rc : regCond) {
        if (bad_tid(rc.tid))
            return formatString("condition references thread %d, but "
                                "the test has %zu threads",
                                rc.tid, threads.size());
        if (bad_reg(rc.reg))
            return formatString("condition references bad register %d",
                                int(rc.reg));
    }
    for (const auto &[tid, reg] : observedRegs) {
        if (bad_tid(tid))
            return formatString("observed register on thread %d, but "
                                "the test has %zu threads",
                                tid, threads.size());
        if (bad_reg(reg))
            return formatString("observed bad register %d", int(reg));
    }

    auto misaligned = [](isa::Addr addr) { return (addr & 7) != 0; };
    for (const auto &[name, addr] : locations) {
        if (misaligned(addr))
            return formatString("location '%s' at misaligned address "
                                "0x%llx", name.c_str(),
                                static_cast<long long>(addr));
    }
    for (const auto &mc : memCond) {
        if (misaligned(mc.addr))
            return formatString("condition on misaligned address 0x%llx",
                                static_cast<long long>(mc.addr));
    }
    for (isa::Addr addr : addressUniverse) {
        if (misaligned(addr))
            return formatString("observed misaligned address 0x%llx",
                                static_cast<long long>(addr));
    }
    return std::nullopt;
}

bool
LitmusTest::conditionMatches(const Outcome &outcome) const
{
    for (const auto &rc : regCond) {
        bool found = false;
        for (const auto &obs : outcome.regs) {
            if (obs.tid == rc.tid && obs.reg == rc.reg) {
                if (obs.value != rc.value)
                    return false;
                found = true;
                break;
            }
        }
        if (!found)
            return false;
    }
    for (const auto &mc : memCond) {
        bool found = false;
        for (const auto &obs : outcome.mem) {
            if (obs.addr == mc.addr) {
                if (obs.value != mc.value)
                    return false;
                found = true;
                break;
            }
        }
        if (!found)
            return false;
    }
    return true;
}

std::string
LitmusTest::toString() const
{
    std::ostringstream os;
    os << name << " (" << paperRef << ")\n";
    if (!description.empty())
        os << description << "\n";
    for (size_t tid = 0; tid < threads.size(); ++tid) {
        os << "--- thread " << tid << " ---\n";
        os << threads[tid].toString();
    }
    os << "condition:";
    for (const auto &rc : regCond)
        os << " " << rc.tid << ":" << isa::regName(rc.reg) << "="
           << rc.value;
    for (const auto &mc : memCond)
        os << " [0x" << std::hex << mc.addr << std::dec << "]="
           << mc.value;
    os << "\n";
    return os.str();
}

uint64_t
fingerprint(const LitmusTest &test)
{
    StateHasher h;
    h.add(test.threads.size());
    for (const auto &program : test.threads) {
        for (const auto &instr : program.code) {
            h.add(uint64_t(instr.op));
            h.add(uint64_t(uint16_t(instr.dst)));
            h.add(uint64_t(uint16_t(instr.src1)));
            h.add(uint64_t(uint16_t(instr.src2)));
            h.add(uint64_t(instr.imm));
            h.add(uint64_t(instr.fence));
        }
        h.separator();
    }
    // The memory image iterates in unordered_map order; fold it
    // order-insensitively so equal images always hash equally.
    h.add(hashUnorderedPairs(test.initialMem.raw()));
    for (const auto &rc : test.regCond) {
        h.add(uint64_t(rc.tid));
        h.add(uint64_t(uint16_t(rc.reg)));
        h.add(uint64_t(rc.value));
    }
    h.separator();
    for (const auto &mc : test.memCond) {
        h.add(uint64_t(mc.addr));
        h.add(uint64_t(mc.value));
    }
    h.separator();
    for (const auto &[tid, reg] : test.observedRegs) {
        h.add(uint64_t(tid));
        h.add(uint64_t(uint16_t(reg)));
    }
    h.separator();
    for (isa::Addr addr : test.addressUniverse)
        h.add(uint64_t(addr));
    return h.digest();
}

LitmusBuilder::LitmusBuilder(std::string name, std::string paper_ref,
                             std::string description)
{
    test.name = std::move(name);
    test.paperRef = std::move(paper_ref);
    test.description = std::move(description);
}

LitmusBuilder &
LitmusBuilder::location(const std::string &name, isa::Addr addr)
{
    test.locations.emplace_back(name, addr);
    return *this;
}

LitmusBuilder &
LitmusBuilder::thread(isa::Program program)
{
    test.threads.push_back(std::move(program));
    return *this;
}

LitmusBuilder &
LitmusBuilder::requireReg(int tid, isa::Reg reg, isa::Value value)
{
    test.regCond.push_back(RegConstraint{tid, reg, value});
    return *this;
}

LitmusBuilder &
LitmusBuilder::requireMem(isa::Addr addr, isa::Value value)
{
    test.memCond.push_back(MemConstraint{addr, value});
    return *this;
}

LitmusBuilder &
LitmusBuilder::observe(int tid, isa::Reg reg)
{
    test.observedRegs.emplace_back(tid, reg);
    return *this;
}

LitmusBuilder &
LitmusBuilder::expect(model::ModelKind kind, bool allowed)
{
    test.expected[kind] = allowed;
    return *this;
}

LitmusTest
LitmusBuilder::done()
{
    GAM_ASSERT(!test.threads.empty(), "litmus test '%s' has no threads",
               test.name.c_str());
    test.finalize();
    return test;
}

} // namespace gam::litmus
