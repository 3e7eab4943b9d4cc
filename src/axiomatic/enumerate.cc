#include "axiomatic/enumerate.hh"

#include <algorithm>
#include <cstddef>
#include <set>

#include "base/hashing.hh"
#include "base/logging.hh"
#include "isa/semantics.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace gam::axiomatic
{

using isa::Addr;
using isa::Instruction;
using isa::Value;
using model::InitStore;
using model::StoreId;

isa::Value
initialMemValue(const isa::MemImage &mem, Addr addr)
{
    if (addr & 7)
        return 0;
    return mem.load(addr);
}

void
CheckerStats::merge(const CheckerStats &other)
{
    rfCandidates += other.rfCandidates;
    valueConsistent += other.valueConsistent;
    coCandidates += other.coCandidates;
    accepted += other.accepted;
    rfStaticSkipped += other.rfStaticSkipped;
    rfPruned += other.rfPruned;
    partialsPruned += other.partialsPruned;
    subtreesSkipped += other.subtreesSkipped;
    maxBacktrackDepth =
        std::max(maxBacktrackDepth, other.maxBacktrackDepth);
}

Options
withConditionSeeds(const litmus::LitmusTest &test, Options options)
{
    if (options.seedValues.empty()) {
        std::set<Value> seeds;
        for (const auto &rc : test.regCond)
            seeds.insert(rc.value);
        for (const auto &mc : test.memCond)
            seeds.insert(mc.value);
        options.seedValues.assign(seeds.begin(), seeds.end());
    }
    return options;
}

namespace
{

/** a * b, saturating at UINT64_MAX (subtree-size accounting). */
uint64_t
satMul(uint64_t a, uint64_t b)
{
    if (a != 0 && b > ~uint64_t(0) / a)
        return ~uint64_t(0);
    return a * b;
}

/** a + b, saturating. */
uint64_t
satAdd(uint64_t a, uint64_t b)
{
    return b > ~uint64_t(0) - a ? ~uint64_t(0) : a + b;
}

/** n!, saturating. */
uint64_t
satFactorial(uint64_t n)
{
    uint64_t f = 1;
    for (uint64_t k = 2; k <= n; ++k)
        f = satMul(f, k);
    return f;
}

} // anonymous namespace

// ---------------------------------------------------- CandidateBuilder

CandidateBuilder::CandidateBuilder(const litmus::LitmusTest &test,
                                   Options options)
    : _test(test), _options(std::move(options))
{
    _siteBase.push_back(0);
    for (size_t tid = 0; tid < test.threads.size(); ++tid) {
        const auto &prog = test.threads[tid];
        GAM_ASSERT(prog.size() < 1024, "thread too long for StoreId");
        for (size_t idx = 0; idx < prog.size(); ++idx) {
            const Instruction &instr = prog[idx];
            // Untrusted tests (parsed or generated) are screened by
            // LitmusTest::check() before reaching any engine; this
            // fatal() only fires on programmatic misuse.
            if (instr.isBranch() && instr.imm <= static_cast<int64_t>(idx))
                fatal("axiomatic checker requires forward branches "
                      "(thread %zu instr %zu)", tid, idx);
            _loadOrdinal.push_back(
                instr.isLoad() ? static_cast<int>(_loadSites.size()) : -1);
            if (instr.isLoad())
                _loadSites.emplace_back(static_cast<int>(tid),
                                        static_cast<int>(idx));
            if (instr.isStore())
                _storeSites.push_back(storeId(static_cast<int>(tid),
                                              static_cast<int>(idx)));
            StateHasher h;
            h.add(uint64_t(instr.op));
            h.add(uint64_t(instr.dst));
            h.add(uint64_t(instr.src1));
            h.add(uint64_t(instr.src2));
            h.add(uint64_t(instr.imm));
            h.add(uint64_t(instr.fence));
            _siteHash.push_back(h.digest());
        }
        _siteBase.push_back(_siteBase.back() + prog.size());
    }
    computeStaticFeasibility();
}

void
CandidateBuilder::computeStaticFeasibility()
{
    // Per-site address when it is a function of constants only: such
    // an address is the same in every execution in which the site
    // executes, so a load whose constant address differs from a
    // store's constant address can never read from it.  Loaded values
    // are unknown, and the walk stops at the first branch whose
    // direction depends on one (everything after keeps an unknown
    // address) -- conservative, but enough to collapse the read-from
    // space of the common litmus shape where addresses come from
    // constant preludes.
    //
    // This walk is a deliberately separate abstract interpreter from
    // computeExecution()'s run_fixpoint below (unknown load values,
    // single prefix, no rf): keep their opcode dispatch in sync when
    // the ISA changes.  Drift is unsound only in the skipping
    // direction and shows up immediately as an outcome-set difference
    // in tests/enumerate_test.cc's pruned-vs-legacy parity suites.
    std::vector<std::vector<std::optional<Value>>> staticAddr(
        _test.threads.size());
    for (size_t tid = 0; tid < _test.threads.size(); ++tid) {
        const auto &prog = _test.threads[tid];
        auto &addrs = staticAddr[tid];
        addrs.assign(prog.size(), std::nullopt);

        std::array<std::optional<Value>, isa::NUM_REGS> regs;
        regs.fill(Value{0});
        auto get = [&](isa::Reg r) { return regs[size_t(r)]; };
        auto set = [&](isa::Reg r, std::optional<Value> v) {
            if (r != isa::REG_ZERO)
                regs[size_t(r)] = v;
        };

        size_t idx = 0;
        while (idx < prog.size()) {
            const Instruction &in = prog[idx];
            if (in.isRegToReg()) {
                auto a = get(in.src1), b = get(in.src2);
                set(in.dst, a && b
                    ? std::optional(isa::evalRegToReg(in, *a, *b))
                    : std::nullopt);
            } else if (in.isMem()) {
                if (auto base = get(in.src1))
                    addrs[idx] = isa::effectiveAddr(in, *base);
                if (in.isLoad())
                    set(in.dst, std::nullopt);
            } else if (in.isBranch()) {
                bool taken;
                if (in.op == isa::Opcode::JMP) {
                    taken = true;
                } else if (in.src1 == in.src2) {
                    // x ? x is value-independent: BEQ/BGE taken,
                    // BNE/BLT fall through.
                    taken = in.op == isa::Opcode::BEQ
                        || in.op == isa::Opcode::BGE;
                } else if (auto a = get(in.src1), b = get(in.src2);
                           a && b) {
                    taken = isa::evalBranchTaken(in, *a, *b);
                } else {
                    break; // direction value-dependent: stop the walk
                }
                if (taken) {
                    idx = size_t(in.imm);
                    continue;
                }
            } else if (in.op == isa::Opcode::HALT) {
                break;
            }
            ++idx;
        }
    }

    auto addrOf = [&](StoreId sid) {
        auto [tid, idx] = storeIdParts(sid);
        return staticAddr[size_t(tid)][size_t(idx)];
    };

    _rfChoices.resize(_loadSites.size());
    uint64_t full = 1, feasible = 1;
    for (size_t i = 0; i < _loadSites.size(); ++i) {
        auto [tid, idx] = _loadSites[i];
        const auto loadAddr = staticAddr[size_t(tid)][size_t(idx)];
        auto &choices = _rfChoices[i];
        choices.push_back(InitStore);
        for (StoreId sid : _storeSites) {
            const auto storeAddr = addrOf(sid);
            if (loadAddr && storeAddr && *loadAddr != *storeAddr)
                continue; // provably different addresses
            choices.push_back(sid);
        }
        full = satMul(full, uint64_t(_storeSites.size()) + 1);
        feasible = satMul(feasible, uint64_t(choices.size()));
    }
    _rfStaticSkipped = full - feasible;
}

bool
CandidateBuilder::computeExecution(const std::vector<StoreId> &rf,
                                   std::vector<ThreadExec> &out,
                                   Scratch &scratch) const
{
    using Site = Scratch::Site;
    const size_t nthreads = _test.threads.size();
    const size_t nloads = _loadSites.size();
    const std::vector<Value> &seeds = _options.seedValues;

    // Site tables, keyed by siteBase[tid] + static idx.
    std::vector<Site> &sites = scratch.sites;
    sites.assign(_siteBase.back(), Site{});
    auto site = [&](int tid, int idx) -> Site & {
        return sites[_siteBase[size_t(tid)] + size_t(idx)];
    };
    // rf source of the load at (tid, idx).
    auto rf_of = [&](size_t tid, size_t idx) {
        return rf[size_t(_loadOrdinal[_siteBase[tid] + idx])];
    };

    // The value a store site supplies to readers: an RMW supplies what
    // it wrote, not what it loaded.
    auto supplied_value = [&](StoreId src) -> std::optional<Value> {
        auto [stid, sidx] = storeIdParts(src);
        const Site &sv = site(stid, sidx);
        return _test.threads[size_t(stid)][size_t(sidx)].isRmw()
            ? sv.data2 : sv.data;
    };

    // Seed overrides for value-cycle recovery, per load ordinal.
    std::vector<std::optional<Value>> &seeded = scratch.seeded;
    seeded.assign(nloads, std::nullopt);

    // The value a load at (tid, idx) reads from @p src, given its
    // address so far.
    auto loaded_value = [&](size_t tid, size_t idx, StoreId src,
                            const Site &sv) -> std::optional<Value> {
        const auto &seed =
            seeded[size_t(_loadOrdinal[_siteBase[tid] + idx])];
        if (seed)
            return seed;
        if (src == InitStore) {
            if (sv.addr)
                return initialMemValue(_test.initialMem, *sv.addr);
            return std::nullopt;
        }
        return supplied_value(src);
    };

    auto run_fixpoint = [&]() {
        // Iterate thread executions until site values stabilise.
        for (size_t round = 0; round <= _siteBase.back() + 1; ++round) {
            bool changed = false;
            for (size_t tid = 0; tid < nthreads; ++tid) {
                const auto &prog = _test.threads[tid];
                RegFile &regs = scratch.regs;
                regs.reset();
                std::vector<Site> &next = scratch.next;
                next.assign(prog.size(), Site{});

                size_t idx = 0;
                while (idx < prog.size()) {
                    const Instruction &in = prog[idx];
                    Site &sv = next[idx];
                    sv.executed = true;
                    if (in.isRegToReg()) {
                        auto a = regs.get(in.src1), b = regs.get(in.src2);
                        if (a && b)
                            regs.set(in.dst, isa::evalRegToReg(in, *a, *b));
                        else
                            regs.set(in.dst, std::nullopt);
                    } else if (in.isRmw()) {
                        if (auto base = regs.get(in.src1))
                            sv.addr = isa::effectiveAddr(in, *base);
                        const std::optional<Value> old =
                            loaded_value(tid, idx, rf_of(tid, idx), sv);
                        sv.data = old; // the loaded value
                        auto operand = regs.get(in.src2);
                        if (old && operand) {
                            sv.data2 =
                                isa::evalRmwStored(in, *old, *operand);
                        }
                        regs.set(in.dst, old);
                    } else if (in.isLoad()) {
                        if (auto base = regs.get(in.src1))
                            sv.addr = isa::effectiveAddr(in, *base);
                        sv.data = loaded_value(tid, idx, rf_of(tid, idx), sv);
                        regs.set(in.dst, sv.data);
                    } else if (in.isStore()) {
                        if (auto base = regs.get(in.src1))
                            sv.addr = isa::effectiveAddr(in, *base);
                        sv.data = regs.get(in.src2);
                    } else if (in.isBranch()) {
                        auto a = regs.get(in.src1), b = regs.get(in.src2);
                        if (in.op != isa::Opcode::JMP && !(a && b)) {
                            // Direction unknown: stop here this round.
                            sv.executed = true;
                            break;
                        }
                        Value va = a ? *a : 0, vb = b ? *b : 0;
                        if (isa::evalBranchTaken(in, va, vb)) {
                            idx = size_t(in.imm);
                            continue;
                        }
                    } else if (in.op == isa::Opcode::HALT) {
                        break;
                    }
                    ++idx;
                }

                // Pointer arithmetic: an empty last thread starts one
                // past the end.
                Site *cur = sites.data() + _siteBase[tid];
                for (size_t i = 0; i < prog.size(); ++i) {
                    if (next[i].executed != cur[i].executed
                        || next[i].addr != cur[i].addr
                        || next[i].data != cur[i].data
                        || next[i].data2 != cur[i].data2) {
                        changed = true;
                    }
                    cur[i] = next[i];
                }
            }
            if (!changed)
                return;
        }
        // Stabilised by the instruction-count bound.
    };

    run_fixpoint();

    // Is load ordinal @p i executed with its value still undetermined?
    auto undetermined = [&](size_t i) {
        const Site &sv = site(_loadSites[i].first, _loadSites[i].second);
        return sv.executed && !sv.data;
    };
    bool anyUndetermined = false;
    for (size_t i = 0; i < nloads; ++i)
        anyUndetermined = anyUndetermined || undetermined(i);

    if (anyUndetermined && !seeds.empty()) {
        // Try each seed value for the whole undetermined set (as the
        // last fixpoint left it); keep the first consistent assignment.
        for (Value seed : seeds) {
            for (size_t i = 0; i < nloads; ++i)
                seeded[i] = undetermined(i) ? std::optional(seed)
                                            : std::nullopt;
            run_fixpoint();
            // Consistency: every seeded load's rf source must actually
            // supply the seeded value.
            bool ok = true;
            for (size_t i = 0; i < nloads; ++i) {
                const Site &sv =
                    site(_loadSites[i].first, _loadSites[i].second);
                if (!sv.executed)
                    continue;
                if (!sv.addr || !sv.data) {
                    ok = false;
                    break;
                }
                std::optional<Value> expect;
                if (rf[i] == InitStore) {
                    expect = initialMemValue(_test.initialMem, *sv.addr);
                } else {
                    expect = supplied_value(rf[i]);
                }
                if (!expect || *expect != *sv.data) {
                    ok = false;
                    break;
                }
            }
            if (ok)
                break;
            seeded.assign(nloads, std::nullopt);
        }
    }

    // Final validation and trace construction, into out's buffers.
    out.resize(nthreads);
    for (size_t tid = 0; tid < nthreads; ++tid) {
        const auto &prog = _test.threads[tid];
        ThreadExec &te = out[tid];
        te.complete = false;
        te.executedIdx.clear();
        te.trace.clear();
        te.rfTrace.clear();
        te.regs.reset();

        size_t idx = 0;
        bool complete = false;
        while (true) {
            if (idx >= prog.size()) {
                complete = true;
                break;
            }
            const Instruction &in = prog[idx];
            const Site &sv = site(int(tid), int(idx));
            if (!sv.executed)
                break;

            model::TraceInstr ti;
            ti.instr = in;
            StoreId rf_src = InitStore;
            size_t next_idx = idx + 1;

            if (in.isRegToReg()) {
                auto a = te.regs.get(in.src1);
                auto b = te.regs.get(in.src2);
                if (!(a && b))
                    return false;
                te.regs.set(in.dst, isa::evalRegToReg(in, *a, *b));
            } else if (in.isMem()) {
                if (!sv.addr || !sv.data)
                    return false; // undetermined value cycle remains
                if (in.isRmw() && !sv.data2)
                    return false;
                if (*sv.addr & 7)
                    return false; // bogus rf guess computed a bad address
                ti.addr = *sv.addr;
                ti.value = *sv.data;
                if (in.isRmw())
                    ti.rmwStored = *sv.data2;
                if (in.isLoad()) {
                    rf_src = rf_of(tid, idx);
                    te.regs.set(in.dst, *sv.data);
                }
            } else if (in.isBranch()) {
                auto a = te.regs.get(in.src1);
                auto b = te.regs.get(in.src2);
                if (in.op != isa::Opcode::JMP && !(a && b))
                    return false;
                if (isa::evalBranchTaken(in, a ? *a : 0, b ? *b : 0))
                    next_idx = size_t(in.imm);
            } else if (in.op == isa::Opcode::HALT) {
                te.executedIdx.push_back(int(idx));
                te.trace.push_back(ti);
                te.rfTrace.push_back(InitStore);
                complete = true;
                break;
            }

            te.executedIdx.push_back(int(idx));
            te.trace.push_back(ti);
            te.rfTrace.push_back(rf_src);
            idx = next_idx;
        }
        if (!complete)
            return false;
        te.complete = true;
    }

    // rf validity: executed loads read executed same-address stores;
    // unexecuted loads must use the canonical InitStore choice.
    for (size_t i = 0; i < nloads; ++i) {
        const Site &sv = site(_loadSites[i].first, _loadSites[i].second);
        if (!sv.executed) {
            if (rf[i] != InitStore)
                return false; // canonical duplicate
            continue;
        }
        if (rf[i] == InitStore) {
            // (Relevant after seeding:) the load's value must really be
            // the initial memory value of its address.
            if (*sv.data != initialMemValue(_test.initialMem, *sv.addr))
                return false;
            continue;
        }
        auto [stid, sidx] = storeIdParts(rf[i]);
        const Site &ss = site(stid, sidx);
        if (!ss.executed || !ss.addr || *ss.addr != *sv.addr)
            return false;
        auto supplied = supplied_value(rf[i]);
        if (!supplied || *supplied != *sv.data)
            return false;
    }
    return true;
}

// -------------------------------------------------- CandidateEnumerator

/**
 * The walk's current rf candidate and everything derived from it.
 * Buffers are reused across the candidates of the walk.
 */
struct CandidateEnumerator::CandidateState
{
    explicit CandidateState(const litmus::LitmusTest &t) : test(t) {}

    const litmus::LitmusTest &test;

    std::vector<CandidateBuilder::ThreadExec> exec{};
    CandidateBuilder::Scratch scratch{};
    uint64_t rfEpoch = 0;

    // Derived per rf candidate.
    std::vector<CandidateEvent> events{};
    std::vector<const model::Trace *> traces{};
    CandidateTables tables{};
    std::vector<Addr> addrs{};                       ///< search order
    std::map<Addr, std::vector<int>> storesByAddr{}; ///< full store sets
    std::map<Addr, std::vector<int>> coOrder{};      ///< growing prefixes
    /** Leaves under a whole address suffix: suffixLeaves[i] =
     *  prod_{j >= i} |stores(addrs[j])|! (suffixLeaves[naddrs] = 1). */
    std::vector<uint64_t> suffixLeaves{};
    /** Unplaced stores per address (parallel to addrs). */
    std::vector<std::vector<int>> remaining{};
    uint64_t placedTotal = 0;

    /** The candidate as filters see it (coherence prefixes when
     *  !complete). */
    CandidateExecution
    view(bool complete) const
    {
        return {events, coOrder, traces, tables, rfEpoch, complete};
    }
};

CandidateEnumerator::CandidateEnumerator(const litmus::LitmusTest &test,
                                         Options options)
    : _builder(test, std::move(options))
{
}

void
collectCandidateEvents(
    const CandidateBuilder &builder,
    const std::vector<CandidateBuilder::ThreadExec> &exec,
    std::vector<CandidateEvent> &events, CandidateTables &tables)
{
    const std::vector<size_t> &siteBase = builder.siteBase();
    events.clear();
    tables.siteBase = &siteBase;
    tables.storeEvent.assign(siteBase.back(), -1);
    tables.traceBase.assign(1, 0);
    tables.traceEvent.clear();
    tables.rfTraces.clear();
    for (size_t tid = 0; tid < exec.size(); ++tid) {
        const auto &te = exec[tid];
        tables.rfTraces.push_back(&te.rfTrace);
        for (size_t k = 0; k < te.trace.size(); ++k) {
            const auto &ti = te.trace[k];
            if (!ti.isMem()) {
                tables.traceEvent.push_back(-1);
                continue;
            }
            const int v = int(events.size());
            tables.traceEvent.push_back(v);
            CandidateEvent ev;
            ev.tid = int(tid);
            ev.traceIdx = int(k);
            ev.isStore = ti.isStore();
            ev.isLoad = ti.isLoad();
            ev.addr = ti.addr;
            ev.value = ti.instr.isRmw() ? ti.rmwStored : ti.value;
            ev.sid = ti.isStore()
                ? storeId(int(tid), te.executedIdx[k]) : InitStore;
            ev.rf = ti.isLoad() ? te.rfTrace[k] : InitStore;
            if (ev.isStore)
                tables.storeEvent[siteBase[tid]
                                  + size_t(te.executedIdx[k])] = v;
            events.push_back(ev);
        }
        tables.traceBase.push_back(tables.traceEvent.size());
    }
}

void
recordCandidateOutcome(
    const litmus::LitmusTest &test,
    const std::vector<CandidateBuilder::ThreadExec> &exec,
    const std::vector<CandidateEvent> &events,
    const std::map<Addr, std::vector<int>> &coOrder,
    litmus::OutcomeSet &outcomes)
{
    litmus::Outcome outcome;
    for (auto [tid, reg] : test.observedRegs) {
        auto v = exec[size_t(tid)].regs.get(reg);
        GAM_ASSERT(v.has_value(), "unresolved observed register");
        outcome.regs.push_back({tid, reg, *v});
    }
    for (Addr a : test.addressUniverse) {
        Value v = initialMemValue(test.initialMem, a);
        auto it = coOrder.find(a);
        if (it != coOrder.end() && !it->second.empty())
            v = events[size_t(it->second.back())].value;
        outcome.mem.push_back({a, v});
    }
    outcome.canonicalize();
    outcomes.insert(outcome);
}

void
CandidateEnumerator::prepareCandidate(CandidateState &st) const
{
    st.traces.clear();
    st.addrs.clear();
    st.storesByAddr.clear();
    st.coOrder.clear();
    st.placedTotal = 0;

    collectCandidateEvents(_builder, st.exec, st.events, st.tables);
    for (const auto &te : st.exec)
        st.traces.push_back(&te.trace);

    for (size_t v = 0; v < st.events.size(); ++v)
        if (st.events[v].isStore)
            st.storesByAddr[st.events[v].addr].push_back(int(v));
    for (auto &[a, stores] : st.storesByAddr) {
        st.addrs.push_back(a);
        st.coOrder[a]; // empty prefix
        (void)stores;
    }

    st.suffixLeaves.assign(st.addrs.size() + 1, 1);
    for (size_t i = st.addrs.size(); i-- > 0;) {
        st.suffixLeaves[i] = satMul(
            st.suffixLeaves[i + 1],
            satFactorial(st.storesByAddr[st.addrs[i]].size()));
    }

    st.remaining.resize(st.addrs.size());
    for (size_t i = 0; i < st.addrs.size(); ++i)
        st.remaining[i] = st.storesByAddr[st.addrs[i]];
}

// ---------------------------------------------------------- the walk
//
// One walk, N filter lanes.  Each lane keeps a dormancy depth: -1
// while live, the placedTotal of the push it vetoed otherwise (0 for a
// beginRf veto, which never revives mid-candidate).  A dormant lane
// sees no callbacks until the walk unwinds to its veto depth, where it
// receives the matching popStore and rejoins -- exactly the callback
// sequence a walk with that filter alone would have produced, which is
// what makes each lane's outcomes and counters independent of the
// others.

namespace
{

/**
 * Mirror one finished enumeration's counters into the global registry
 * (references cached: registration locks, increments are relaxed).
 */
void
reportEnumMetrics(const CheckerStats &s)
{
    static struct
    {
        obs::Counter &rfCandidates =
            obs::metrics().counter("enum.rf_candidates");
        obs::Counter &valueConsistent =
            obs::metrics().counter("enum.value_consistent");
        obs::Counter &coCandidates =
            obs::metrics().counter("enum.co_candidates");
        obs::Counter &accepted = obs::metrics().counter("enum.accepted");
        obs::Counter &partialsPruned =
            obs::metrics().counter("enum.partials_pruned");
        obs::Counter &runs = obs::metrics().counter("enum.runs");
    } m;
    m.rfCandidates.inc(s.rfCandidates);
    m.valueConsistent.inc(s.valueConsistent);
    m.coCandidates.inc(s.coCandidates);
    m.accepted.inc(s.accepted);
    m.partialsPruned.inc(s.partialsPruned);
    m.runs.inc();
}

/**
 * Fill @p tables' ppo shape keys (CandidateTables::shapeKey and
 * rfShapeKey) for the execution @p exec: everything ppo reads of each
 * thread -- which instructions ran (by content, not position) and
 * where each memory access went -- then, for ARM, which store each
 * load read.  Called once per rf candidate for all lanes.
 */
void
computeShapeKeys(const CandidateBuilder &builder,
                 const std::vector<CandidateBuilder::ThreadExec> &exec,
                 CandidateTables &tables)
{
    const std::vector<size_t> &siteBase = builder.siteBase();
    tables.shapeKey.clear();
    tables.rfShapeKey.clear();
    for (size_t tid = 0; tid < exec.size(); ++tid) {
        const auto &te = exec[tid];
        StateHasher shape;
        for (size_t k = 0; k < te.trace.size(); ++k) {
            const auto &ti = te.trace[k];
            shape.add(builder.siteHash()[siteBase[tid]
                                         + size_t(te.executedIdx[k])]);
            shape.add(ti.isMem() ? uint64_t(ti.addr) + 1 : 0);
        }
        tables.shapeKey.push_back(shape.digest());
        StateHasher withRf(tables.shapeKey.back());
        for (size_t k = 0; k < te.trace.size(); ++k)
            if (te.trace[k].isLoad())
                withRf.add(uint64_t(uint32_t(te.rfTrace[k])));
        tables.rfShapeKey.push_back(withRf.digest());
    }
}

} // anonymous namespace

/** Everything one run() carries through the walk. */
struct CandidateEnumerator::WalkCtx : CandidateState
{
    WalkCtx(const litmus::LitmusTest &t,
            const std::vector<IncrementalFilter *> &f)
        : CandidateState(t), filters(f), outcomes(f.size()),
          lanes(f.size()), dormantAt(f.size(), -1)
    {}

    const std::vector<IncrementalFilter *> &filters;
    std::vector<litmus::OutcomeSet> outcomes;
    std::vector<CheckerStats> lanes;
    /** Shared-walk counters (rf stream, fixpoint, leaves reached). */
    CheckerStats walk{};
    /** Dormancy depth per lane; -1 = live (see above). */
    std::vector<int64_t> dormantAt;
};

void
CandidateEnumerator::descendCoherence(
    WalkCtx &ctx, size_t ai, const CandidateExecution &partial) const
{
    const size_t nlanes = ctx.filters.size();
    if (ai == ctx.addrs.size()) {
        ++ctx.walk.coCandidates;
        const CandidateExecution complete = ctx.view(/*complete=*/true);
        for (size_t i = 0; i < nlanes; ++i) {
            if (ctx.dormantAt[i] >= 0)
                continue;
            CheckerStats &lane = ctx.lanes[i];
            ++lane.coCandidates;
            if (ctx.filters[i]->accept(complete)) {
                ++lane.accepted;
                recordCandidateOutcome(ctx.test, ctx.exec, ctx.events,
                                       ctx.coOrder, ctx.outcomes[i]);
            }
        }
        return;
    }
    const Addr a = ctx.addrs[ai];
    auto &rem = ctx.remaining[ai];
    if (rem.empty()) {
        descendCoherence(ctx, ai + 1, partial);
        return;
    }
    auto &placed = ctx.coOrder[a];
    for (size_t k = 0; k < rem.size(); ++k) {
        const int v = rem[k];
        rem.erase(rem.begin() + std::ptrdiff_t(k));
        placed.push_back(v);
        ++ctx.placedTotal;
        size_t live = 0;
        for (size_t i = 0; i < nlanes; ++i) {
            if (ctx.dormantAt[i] >= 0)
                continue;
            if (ctx.filters[i]->pushStore(partial, a, v)) {
                ++live;
                continue;
            }
            // The lane skips the whole subtree under this push; the
            // walk itself descends only for the others.
            ctx.dormantAt[i] = int64_t(ctx.placedTotal);
            CheckerStats &lane = ctx.lanes[i];
            ++lane.partialsPruned;
            lane.subtreesSkipped = satAdd(
                lane.subtreesSkipped,
                satMul(satFactorial(rem.size()),
                       ctx.suffixLeaves[ai + 1]));
            lane.maxBacktrackDepth =
                std::max(lane.maxBacktrackDepth, ctx.placedTotal);
        }
        if (live > 0)
            descendCoherence(ctx, ai, partial);
        for (size_t i = 0; i < nlanes; ++i) {
            if (ctx.dormantAt[i] < 0) {
                ctx.filters[i]->popStore(partial, a, v);
            } else if (ctx.dormantAt[i] == int64_t(ctx.placedTotal)) {
                // Vetoed at exactly this push: the filter contract
                // still delivers the matching popStore, and the lane
                // rejoins the walk at the next sibling.
                ctx.filters[i]->popStore(partial, a, v);
                ctx.dormantAt[i] = -1;
            }
        }
        --ctx.placedTotal;
        placed.pop_back();
        rem.insert(rem.begin() + std::ptrdiff_t(k), v);
    }
}

void
CandidateEnumerator::searchCoherence(WalkCtx &ctx) const
{
    prepareCandidate(ctx);
    computeShapeKeys(_builder, ctx.exec, ctx.tables);
    const CandidateExecution partial = ctx.view(/*complete=*/false);
    size_t live = 0;
    for (size_t i = 0; i < ctx.filters.size(); ++i) {
        if (ctx.filters[i]->beginRf(partial)) {
            ctx.dormantAt[i] = -1;
            ++live;
        } else {
            ctx.dormantAt[i] = 0; // out for this whole rf candidate
            CheckerStats &lane = ctx.lanes[i];
            ++lane.rfPruned;
            lane.subtreesSkipped =
                satAdd(lane.subtreesSkipped, ctx.suffixLeaves[0]);
        }
    }
    if (live > 0)
        descendCoherence(ctx, 0, partial);
}

void
CandidateEnumerator::searchRf(WalkCtx &ctx) const
{
    const auto &choices = _builder.rfChoices();
    const size_t nloads = choices.size();

    std::vector<size_t> odo(nloads, 0);
    std::vector<StoreId> rf(nloads, InitStore);
    GAM_TRACE_SCOPE("enum.search");
    for (;;) {
        for (size_t i = 0; i < nloads; ++i)
            rf[i] = choices[i][odo[i]];

        ++ctx.walk.rfCandidates;
        ++ctx.rfEpoch;
        if (_builder.computeExecution(rf, ctx.exec, ctx.scratch)) {
            ++ctx.walk.valueConsistent;
            // The coherence-growth phase of this rf epoch: one span
            // per value-consistent rf map (tracing-disabled cost is a
            // relaxed load, far below the search work it brackets).
            obs::TraceSpan coSpan("enum.co_search");
            searchCoherence(ctx);
        }

        size_t pos = 0;
        while (pos < nloads) {
            if (++odo[pos] < choices[pos].size())
                break;
            odo[pos] = 0;
            ++pos;
        }
        if (pos == nloads)
            break;
    }
}

std::vector<litmus::OutcomeSet>
CandidateEnumerator::run(const std::vector<IncrementalFilter *> &filters,
                         std::vector<CheckerStats> *laneStats)
{
    GAM_TRACE_SCOPE("enum.run");
    _stats = CheckerStats{};
    _stats.rfStaticSkipped = _builder.rfStaticSkipped();

    if (filters.empty()) {
        if (laneStats)
            laneStats->clear();
        return {};
    }
    for (const IncrementalFilter *f : filters)
        GAM_ASSERT(f != nullptr, "null incremental filter");

    // One context for the whole run: searchCoherence() clears the
    // per-candidate pieces, so the buffers are reused across the
    // millions of rf maps a campaign iterates.
    WalkCtx ctx(_builder.test(), filters);
    searchRf(ctx);

    // Each lane's counters are exactly what a walk with its filter
    // alone would report: the walk counters are common to every lane
    // by construction, the pruning counters were kept per lane.
    for (CheckerStats &lane : ctx.lanes) {
        lane.rfCandidates = ctx.walk.rfCandidates;
        lane.valueConsistent = ctx.walk.valueConsistent;
        lane.rfStaticSkipped = _stats.rfStaticSkipped;
    }

    // stats() describes the run itself: the one shared walk, plus
    // every lane's pruning and acceptance totals.
    _stats.rfCandidates = ctx.walk.rfCandidates;
    _stats.valueConsistent = ctx.walk.valueConsistent;
    _stats.coCandidates = ctx.walk.coCandidates;
    for (const CheckerStats &lane : ctx.lanes) {
        _stats.rfPruned += lane.rfPruned;
        _stats.partialsPruned += lane.partialsPruned;
        _stats.subtreesSkipped =
            satAdd(_stats.subtreesSkipped, lane.subtreesSkipped);
        _stats.accepted += lane.accepted;
        _stats.maxBacktrackDepth = std::max(_stats.maxBacktrackDepth,
                                            lane.maxBacktrackDepth);
    }
    reportEnumMetrics(_stats);

    if (laneStats)
        *laneStats = std::move(ctx.lanes);
    return std::move(ctx.outcomes);
}

} // namespace gam::axiomatic
