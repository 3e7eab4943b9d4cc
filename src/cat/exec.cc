#include "cat/exec.hh"

#include <array>

#include "base/logging.hh"
#include "isa/instruction.hh"

namespace gam::cat
{

using axiomatic::CandidateExecution;
using isa::FenceKind;
using isa::Instruction;

const ExecView &
ExecBuilder::view(const CandidateExecution &candidate)
{
    if (!any || candidate.rfEpoch != epoch) {
        rebuildTraceLevel(candidate);
        epoch = candidate.rfEpoch;
        any = true;
    }
    rebuildCoherence(candidate);
    return v;
}

void
ExecBuilder::rebuildTraceLevel(const CandidateExecution &cand)
{
    // ---- Event discovery: memory events (in candidate order) plus
    // fences, thread-major in trace order. ----
    events.clear();
    eventOfCand.assign(cand.events.size(), -1);
    eventAt.assign(cand.tables.traceBase.back(), -1);

    size_t cand_idx = 0;
    for (size_t tid = 0; tid < cand.traces.size(); ++tid) {
        const model::Trace &trace = *cand.traces[tid];
        for (size_t k = 0; k < trace.size(); ++k) {
            const model::TraceInstr &ti = trace[k];
            if (ti.isMem() || ti.instr.isFence())
                eventAt[cand.tables.traceBase[tid] + k] =
                    int(events.size());
            if (ti.isMem()) {
                GAM_ASSERT(cand_idx < cand.events.size()
                               && cand.events[cand_idx].tid == int(tid)
                               && cand.events[cand_idx].traceIdx
                                      == int(k),
                           "candidate events out of sync with traces");
                eventOfCand[cand_idx] = int(events.size());
                events.push_back({int(tid), int(k), &ti});
                ++cand_idx;
            } else if (ti.instr.isFence()) {
                events.push_back({int(tid), int(k), &ti});
            }
        }
    }
    GAM_ASSERT(cand_idx == cand.events.size(),
               "candidate events out of sync with traces");

    const size_t n = events.size();
    v.n = n;
    // Reset in place: the view's storage is reused across epochs.
    for (EventSet *set : {&v.R, &v.W, &v.M, &v.F, &v.RMW, &v.FLL, &v.FLS,
                          &v.FSL, &v.FSS})
        set->reset(n);
    for (Rel *rel : {&v.po, &v.rf, &v.loc, &v.ext, &v.int_, &v.addr,
                     &v.data, &v.ctrl, &v.id})
        rel->reset(n);
    for (size_t e = 0; e < n; ++e)
        v.id.set(e, e);

    // ---- Base sets. ----
    for (size_t e = 0; e < n; ++e) {
        const model::TraceInstr &ti = *events[e].ti;
        if (ti.isLoad())
            v.R.set(e);
        if (ti.isStore())
            v.W.set(e);
        if (ti.isMem())
            v.M.set(e);
        if (ti.instr.isRmw())
            v.RMW.set(e);
        if (ti.instr.isFence()) {
            v.F.set(e);
            switch (ti.instr.fence) {
              case FenceKind::LL: v.FLL.set(e); break;
              case FenceKind::LS: v.FLS.set(e); break;
              case FenceKind::SL: v.FSL.set(e); break;
              case FenceKind::SS: v.FSS.set(e); break;
            }
        }
    }

    // ---- po / loc / ext / int. ----
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            if (i == j)
                continue;
            const EventInfo &a = events[i], &b = events[j];
            if (a.tid == b.tid) {
                v.int_.set(i, j);
                if (a.traceIdx < b.traceIdx)
                    v.po.set(i, j);
            } else {
                v.ext.set(i, j);
            }
            if (a.ti->isMem() && b.ti->isMem()
                && a.ti->addr == b.ti->addr) {
                v.loc.set(i, j);
            }
        }
    }

    // ---- rf (reads of the initial memory carry no edge). ----
    for (size_t c = 0; c < cand.events.size(); ++c) {
        const auto &ev = cand.events[c];
        if (!ev.isLoad || ev.rf == model::InitStore)
            continue;
        const int src = cand.tables.eventOfStore(ev.rf);
        GAM_ASSERT(src >= 0, "rf store missing");
        v.rf.set(size_t(eventOfCand[size_t(src)]),
                 size_t(eventOfCand[c]));
    }

    // ---- addr / data / ctrl by per-thread register dataflow. ----
    // flow[r] = the loads whose value reaches register r through
    // reg-to-reg computation only (a load intermediary restarts the
    // flow: the dependency chains through it event-to-event instead).
    for (size_t tid = 0; tid < cand.traces.size(); ++tid) {
        const model::Trace &trace = *cand.traces[tid];
        for (EventSet &f : flow)
            f.reset(n);
        ctrlSrc.reset(n); // loads feeding any prior branch condition
        // Pointer arithmetic, not &eventAt[...]: an empty last thread
        // starts one past the end.
        const int *here = eventAt.data() + cand.tables.traceBase[tid];

        // readFlow = the union of flow[r] over @p regs.
        auto readFlowOf =
            [&](const std::vector<isa::Reg> &regs) -> const EventSet & {
            readFlow.reset(n);
            for (isa::Reg r : regs)
                readFlow |= flow[size_t(r)];
            return readFlow;
        };

        for (size_t k = 0; k < trace.size(); ++k) {
            const Instruction &in = trace[k].instr;
            if (here[k] >= 0) {
                // Every event after a conditional branch is
                // control-dependent on the loads feeding it.
                v.ctrl.addColumn(ctrlSrc, size_t(here[k]));
            }
            if (in.isMem()) {
                const size_t e = size_t(here[k]);
                readFlowOf(in.addrReadSet())
                    .forEach([&](size_t src) { v.addr.set(src, e); });
                readFlowOf(in.dataReadSet())
                    .forEach([&](size_t src) { v.data.set(src, e); });
                if (in.isLoad() && in.dst != isa::REG_ZERO) {
                    // The loaded value originates here.
                    flow[size_t(in.dst)].reset(n);
                    flow[size_t(in.dst)].set(e);
                }
            } else if (in.isCondBranch()) {
                ctrlSrc |= readFlowOf(in.readSet());
            } else if (in.isRegToReg() || in.op == isa::Opcode::LI) {
                if (in.dst != isa::REG_ZERO)
                    flow[size_t(in.dst)] = readFlowOf(in.readSet());
            }
            // Fences, NOP, HALT, JMP: read no registers.
        }
    }
}

void
ExecBuilder::rebuildCoherence(const CandidateExecution &cand)
{
    const size_t n = v.n;
    v.co.reset(n);
    v.fr.reset(n);

    // co: all ordered pairs of each per-address total order.
    for (const auto &[a, order] : cand.coOrder) {
        (void)a;
        for (size_t i = 0; i < order.size(); ++i) {
            for (size_t j = i + 1; j < order.size(); ++j) {
                v.co.set(size_t(eventOfCand[size_t(order[i])]),
                         size_t(eventOfCand[size_t(order[j])]));
            }
        }
    }

    // fr: load -> stores coherence-after its source; an initial-memory
    // read precedes every same-address store.  Identity excluded.
    for (size_t c = 0; c < cand.events.size(); ++c) {
        const auto &ld = cand.events[c];
        if (!ld.isLoad)
            continue;
        const size_t l = size_t(eventOfCand[c]);
        auto order_it = cand.coOrder.find(ld.addr);
        if (order_it == cand.coOrder.end())
            continue; // no stores for this address at all
        const auto &order = order_it->second;
        bool after = ld.rf == model::InitStore; // init: all stores
        for (int s_cand : order) {
            const auto &st = cand.events[size_t(s_cand)];
            if (!after) {
                if (st.sid == ld.rf)
                    after = true; // strictly later stores from here on
                continue;
            }
            const size_t s = size_t(eventOfCand[size_t(s_cand)]);
            if (s != l)
                v.fr.set(l, s);
        }
    }
}

} // namespace gam::cat
