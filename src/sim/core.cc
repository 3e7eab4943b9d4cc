#include "sim/core.hh"

#include <algorithm>

#include "base/logging.hh"

namespace gam::sim
{

using isa::Instruction;
using isa::Opcode;

namespace
{

/** Instruction memory is disjoint from data memory. */
constexpr uint64_t instFetchBase = 0x4000'0000ull;

/** Function-unit classes of the Table I configuration. */
enum class FuClass { IntAlu, IntMul, IntDiv, FpAlu, FpMul, FpDiv, Mem };

FuClass
fuClassOf(const Instruction &in)
{
    if (in.isMem())
        return FuClass::Mem;
    switch (in.op) {
      case Opcode::MUL:
        return FuClass::IntMul;
      case Opcode::DIV: case Opcode::DIVU:
      case Opcode::REM: case Opcode::REMU:
        return FuClass::IntDiv;
      case Opcode::FADD: case Opcode::FSUB: case Opcode::FMIN:
      case Opcode::FMAX: case Opcode::FMOV: case Opcode::FCVT_I2F:
      case Opcode::FCVT_F2I:
        return FuClass::FpAlu;
      case Opcode::FMUL:
        return FuClass::FpMul;
      case Opcode::FDIV: case Opcode::FSQRT:
        return FuClass::FpDiv;
      default:
        return FuClass::IntAlu; // ALU ops, branches, fences, NOP
    }
}

} // anonymous namespace

Core::Core(const DynTrace &trace, model::ModelKind kind, CoreParams params,
           mem::MemSystemParams mem_params)
    : trace(trace), params(params),
      policy(LsqPolicy::forModel(kind)), memsys(mem_params),
      bpred(params.bpredBits)
{
    renameMap.fill(-1);
    for (const DynUop &u : trace.uops) {
        if (u.instr.isRmw()) {
            fatal("the cycle simulator does not model RMW operations "
                  "(the paper's evaluation has none); use the abstract "
                  "machines for RMW programs");
        }
    }
}

bool
Core::producerReady(int64_t seq) const
{
    if (seq < int64_t(headSeq))
        return true; // committed (or no producer)
    const InFlight &p = rob[size_t(seq - int64_t(headSeq))];
    return p.execDone;
}

void
Core::rebuildRenameMap()
{
    renameMap.fill(-1);
    for (const InFlight &f : rob)
        for (isa::Reg w : f.u->instr.writeSet())
            renameMap[size_t(w)] = int64_t(f.seq);
}

void
Core::squash(uint64_t from)
{
    while (!rob.empty() && rob.back().seq >= from) {
        InFlight &f = rob.back();
        if (f.inRs)
            --rsUsed;
        if (f.u->instr.isLoad())
            --lqUsed;
        if (f.u->instr.isStore())
            --sqUsed;
        rob.pop_back();
    }
    fetchQueue.clear();
    fetchCursor = from;
    fetchResumeCycle = cycle + uint64_t(params.redirectPenalty);
    lastFetchLine = UINT64_MAX;
    rebuildRenameMap();
}

void
Core::doFetch()
{
    if (cycle < fetchResumeCycle)
        return;
    int budget = params.fetchWidth;
    while (budget > 0 && fetchQueue.size() < size_t(params.fetchQueueSize)
           && fetchCursor < trace.uops.size()) {
        const DynUop &u = trace.uops[fetchCursor];
        const uint64_t inst_addr = instFetchBase + uint64_t(u.pc) * 8;
        const uint64_t line = inst_addr / 64;
        if (line != lastFetchLine) {
            const uint64_t ready =
                memsys.fetch(isa::Addr(inst_addr), cycle);
            lastFetchLine = line;
            if (ready > cycle) {
                fetchResumeCycle = ready;
                return;
            }
        }
        fetchQueue.push_back(fetchCursor);
        ++fetchCursor;
        --budget;
        if (statsArmed)
            ++stats.fetchedUops;
        if (u.taken)
            break; // a taken branch ends the fetch group
    }
}

void
Core::doRename()
{
    int budget = params.renameWidth;
    while (budget > 0 && !fetchQueue.empty()) {
        const uint64_t seq = fetchQueue.front();
        const DynUop &u = trace.uops[seq];
        const Instruction &in = u.instr;

        if (rob.size() >= size_t(params.robSize) || rsUsed >= params.rsSize)
            return;
        if (in.isLoad() && lqUsed >= params.lqSize)
            return;
        if (in.isStore() && sqUsed >= params.sqSize)
            return;

        InFlight f;
        f.seq = seq;
        f.u = &trace.uops[seq];
        f.src1Seq = in.src1 != isa::REG_ZERO
            ? renameMap[size_t(in.src1)] : -1;
        f.src2Seq = in.src2 != isa::REG_ZERO
            ? renameMap[size_t(in.src2)] : -1;
        if (in.isCondBranch())
            f.mispredicted = bpred.predict(u.pc) != u.taken;
        for (isa::Reg w : in.writeSet())
            renameMap[size_t(w)] = int64_t(seq);

        f.inRs = true;
        ++rsUsed;
        if (in.isLoad())
            ++lqUsed;
        if (in.isStore())
            ++sqUsed;
        if (rob.empty())
            headSeq = seq;
        rob.push_back(f);
        fetchQueue.pop_front();
        --budget;
    }
}

void
Core::doIssue()
{
    int budget = params.issueWidth;
    int alu = params.intAlu, mul = params.intMul;
    int fpalu = params.fpAlu, fpmul = params.fpMul;
    int mem_ports = params.memPorts;

    for (InFlight &f : rob) {
        if (budget <= 0)
            break;
        if (!f.inRs || f.issued)
            continue;
        const Instruction &in = f.u->instr;

        // Operand readiness: memory ops need the address operand only
        // (store data is captured on the side), others need all sources.
        bool ready;
        if (in.isMem()) {
            ready = producerReady(f.src1Seq);
        } else {
            ready = producerReady(f.src1Seq) && producerReady(f.src2Seq);
        }
        if (!ready)
            continue;

        const FuClass cls = fuClassOf(in);
        int lat = params.aluLat;
        switch (cls) {
          case FuClass::IntAlu:
            if (alu <= 0)
                continue;
            --alu;
            lat = params.aluLat;
            break;
          case FuClass::IntMul:
            if (mul <= 0)
                continue;
            --mul;
            lat = params.mulLat;
            break;
          case FuClass::IntDiv:
            if (divBusyUntil > cycle)
                continue;
            divBusyUntil = cycle + uint64_t(params.divLat);
            lat = params.divLat;
            break;
          case FuClass::FpAlu:
            if (fpalu <= 0)
                continue;
            --fpalu;
            lat = params.fpAluLat;
            break;
          case FuClass::FpMul:
            if (fpmul <= 0)
                continue;
            --fpmul;
            lat = params.fpMulLat;
            break;
          case FuClass::FpDiv:
            if (fpDivBusyUntil > cycle)
                continue;
            fpDivBusyUntil = cycle + uint64_t(params.fpDivLat);
            lat = params.fpDivLat;
            break;
          case FuClass::Mem:
            if (mem_ports <= 0)
                continue;
            --mem_ports;
            lat = params.agenLat;
            break;
        }

        f.issued = true;
        f.inRs = false;
        --rsUsed;
        --budget;
        if (in.isMem())
            f.addrReadyCycle = cycle + uint64_t(lat);
        else
            f.readyCycle = cycle + uint64_t(lat);
    }
}

void
Core::doComplete()
{
    for (InFlight &f : rob) {
        const Instruction &in = f.u->instr;

        // Capture store data as soon as its producer resolves.
        if (in.isStore() && !f.dataReady && producerReady(f.src2Seq)) {
            f.dataReady = true;
            f.dataReadyCycle = cycle;
        }

        // Address generation completion + ordering scans.
        if (in.isMem() && f.issued && !f.addrReady
            && f.addrReadyCycle <= cycle) {
            f.addrReady = true;
        }
        if (in.isMem() && f.addrReady && !f.addrScanDone) {
            f.addrScanDone = true;
            const bool scan = in.isStore() || policy.saLdLdKills;
            if (scan) {
                for (InFlight &y : rob) {
                    if (y.seq <= f.seq || !y.u->instr.isLoad())
                        continue;
                    if (!y.memIssued || y.u->addr != f.u->addr)
                        continue;
                    if (y.fwdStoreSeq >= int64_t(f.seq))
                        continue; // sourced by a younger store: exempt
                    if (statsArmed) {
                        if (in.isStore())
                            ++stats.memOrderSquashes;
                        else
                            ++stats.saLdLdKills;
                    }
                    squash(y.seq);
                    return; // ROB changed: stop this cycle's scan
                }
            }
        }

        if (f.execDone)
            continue;

        if (in.isStore()) {
            if (f.addrReady && f.dataReady) {
                f.execDone = true;
                f.readyCycle = std::max(f.addrReadyCycle,
                                        f.dataReadyCycle);
            }
            continue;
        }
        if (in.isLoad()) {
            if (f.memIssued && f.readyCycle <= cycle)
                f.execDone = true;
            continue;
        }
        if (f.issued && f.readyCycle <= cycle) {
            f.execDone = true;
            if (in.isCondBranch()) {
                bpred.update(f.u->pc, f.u->taken);
                if (f.mispredicted) {
                    if (statsArmed)
                        ++stats.branchMispredicts;
                    squash(f.seq + 1);
                    return;
                }
            }
        }
    }
}

bool
Core::tryIssueLoad(InFlight &ld)
{
    // 1. Search older stores, youngest first: in-flight SQ ...  A
    // matching store is the prospective data source whether or not its
    // data is ready yet; the SALdLd stall check below needs it either
    // way.
    int64_t fwd_seq = -1;       // prospective forwarding source
    bool store_blocked = false; // must wait for that source
    for (auto it = rob.rbegin(); it != rob.rend(); ++it) {
        const InFlight &s = *it;
        if (s.seq >= ld.seq || !s.u->instr.isStore())
            continue;
        if (!s.addrReady) {
            if (!params.speculativeLoadIssue) {
                store_blocked = true; // wait for all older addresses
                break;
            }
            continue;             // speculate past the unknown address
        }
        if (s.u->addr != ld.u->addr)
            continue;
        fwd_seq = int64_t(s.seq);
        store_blocked = !params.storeForwarding || !s.dataReady;
        break;
    }

    // ... then the post-commit store buffer.
    if (fwd_seq < 0 && !store_blocked) {
        for (auto it = sbQueue.rbegin(); it != sbQueue.rend(); ++it) {
            if (it->addr != ld.u->addr)
                continue;
            fwd_seq = it->seq;
            store_blocked = !params.storeForwarding;
            break;
        }
    }

    // 2. Same-address load-load stall (GAM and ARM).
    if (policy.saLdLdStalls) {
        for (const InFlight &o : rob) {
            if (o.seq >= ld.seq)
                break;
            if (!o.u->instr.isLoad() || o.memIssued || !o.addrReady)
                continue;
            if (o.u->addr != ld.u->addr)
                continue;
            if (fwd_seq >= 0 && fwd_seq > int64_t(o.seq))
                continue; // forwarding from a younger store: exempt
            if (!ld.stallCounted && statsArmed) {
                ++stats.saLdLdStalls;
            }
            ld.stallCounted = true;
            return false;
        }
    }

    if (store_blocked)
        return false; // wait for the source store's data (or drain)

    // 3. Store-to-load forwarding.
    if (fwd_seq >= 0) {
        ld.fwdStoreSeq = fwd_seq;
        ld.readyCycle = cycle + uint64_t(params.fwdLat);
        ld.memIssued = true;
        if (statsArmed)
            ++stats.storeForwards;
        return true;
    }

    // 4. Load-load forwarding (Alpha* only).
    if (policy.llForwarding) {
        for (auto it = rob.rbegin(); it != rob.rend(); ++it) {
            const InFlight &o = *it;
            if (o.seq >= ld.seq || !o.u->instr.isLoad())
                continue;
            if (!o.execDone || o.u->addr != ld.u->addr)
                continue;
            ld.fwdStoreSeq = o.fwdStoreSeq;
            ld.readyCycle = cycle + uint64_t(params.fwdLat);
            ld.memIssued = true;
            if (statsArmed) {
                ++stats.llForwards;
                if (!memsys.probeL1D(ld.u->addr))
                    ++stats.llForwardsSavedMiss;
            }
            return true;
        }
    }

    // 5. Read the cache hierarchy.
    ld.fwdStoreSeq = -1;
    ld.readyCycle = memsys.load(ld.u->addr, cycle);
    ld.memIssued = true;
    return true;
}

void
Core::doMemStage()
{
    // Drain the post-commit store buffer: one new cache write per cycle.
    if (!sbQueue.empty()) {
        PendingStore &head = sbQueue.front();
        if (!head.issuedToMem) {
            head.doneCycle = memsys.store(head.addr, cycle);
            head.issuedToMem = true;
        }
        if (head.doneCycle <= cycle) {
            sbQueue.pop_front();
            --sqUsed;
        }
    }

    // Give address-ready loads a data source (bounded cache ports).
    int cache_issues = params.memPorts;
    for (InFlight &f : rob) {
        if (cache_issues <= 0)
            break;
        if (!f.u->instr.isLoad() || !f.addrReady || f.memIssued)
            continue;
        if (tryIssueLoad(f)) {
            if (f.fwdStoreSeq == -1)
                --cache_issues;
        }
    }
}

void
Core::doCommit()
{
    int budget = params.commitWidth;
    while (budget > 0 && !rob.empty()) {
        InFlight &head = rob.front();
        if (!head.execDone || head.readyCycle > cycle)
            return;
        const Instruction &in = head.u->instr;

        if (!statsArmed && headSeq + 1 > warmupUops) {
            // Arm exact accounting at the warmup boundary.
            statsArmed = true;
            stats = SimStats{};
            statsStartCycle = cycle;
            l1dBase = memsys.l1d().stats();
        }
        if (statsArmed) {
            ++stats.committedUops;
            if (in.isCondBranch())
                ++stats.condBranches;
            if (in.isLoad())
                ++stats.loadsExecuted;
            if (in.isStore())
                ++stats.storesCommitted;
        }

        if (in.isLoad())
            --lqUsed;
        if (in.isStore())
            sbQueue.push_back({head.u->addr, head.u->value,
                               int64_t(head.seq)});
        rob.pop_front();
        ++headSeq;
        --budget;
    }
}

SimStats
Core::run(uint64_t warmup_uops, uint64_t max_cycles)
{
    warmupUops = std::min(warmup_uops, uint64_t(trace.uops.size()));
    statsArmed = warmupUops == 0;
    statsStartCycle = 0;
    l1dBase = memsys.l1d().stats();

    uint64_t last_commit_cycle = 0;
    uint64_t last_head = 0;
    while (headSeq < trace.uops.size() || !rob.empty()
           || !fetchQueue.empty() || fetchCursor < trace.uops.size()) {
        doCommit();
        doComplete();
        doMemStage();
        doIssue();
        doRename();
        doFetch();
        ++cycle;

        if (headSeq != last_head) {
            last_head = headSeq;
            last_commit_cycle = cycle;
        }
        GAM_ASSERT(cycle - last_commit_cycle < 200000,
                   "no forward progress at cycle %llu (head seq %llu)",
                   (unsigned long long)cycle, (unsigned long long)headSeq);
        if (cycle >= max_cycles)
            break;
    }

    stats.cycles = cycle - statsStartCycle;
    const auto &l1d = memsys.l1d().stats();
    stats.l1dLoadAccesses =
        l1d.demandLoadAccesses - l1dBase.demandLoadAccesses;
    stats.l1dLoadMisses = l1d.demandLoadMisses - l1dBase.demandLoadMisses;
    stats.l2Misses = memsys.l2().stats().misses;
    stats.l3Misses = memsys.l3().stats().misses;
    return stats;
}

} // namespace gam::sim
