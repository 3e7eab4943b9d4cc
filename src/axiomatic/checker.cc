#include "axiomatic/checker.hh"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <set>

#include "base/logging.hh"
#include "cat/rel.hh"
#include "isa/semantics.hh"
#include "model/ppo.hh"
#include "obs/trace.hh"

namespace gam::axiomatic
{

using isa::Addr;
using isa::Instruction;
using isa::Value;
using model::InitStore;
using model::StoreId;

namespace
{

/**
 * The hand-coded Figure-15 axioms as an incremental filter.
 *
 * The constraint graph of the classic reduction -- ppo edges, rf
 * edges, LoadValue (fr) edges and coherence edges -- is maintained as
 * a transitively-closed bitset reachability relation (cat::Rel).
 * Permutation-independent constraints are installed once per read-from
 * candidate in beginRf(); each coherence extension adds its co edge,
 * its newly-implied fr edges and the RMW atomicity check in
 * pushStore(), failing the instant an edge closes a cycle.  accept()
 * is then trivially true: a complete candidate that survived every
 * extension has an acyclic constraint graph, i.e. a witness mo exists.
 */
class BuiltinAxiomFilter final : public IncrementalFilter
{
  public:
    BuiltinAxiomFilter(model::ModelKind model, bool enforce_inst_order,
                       PpoCache *ppo_shapes = nullptr)
        : model(model), enforceInstOrder(enforce_inst_order),
          ppoShapes(ppo_shapes)
    {}

    bool
    beginRf(const CandidateExecution &cand) override
    {
        n = cand.events.size();
        reach.reset(n);
        snapshots.clear();

        // ppo projected onto memory events (InstOrder axiom).
        if (enforceInstOrder) {
            for (size_t tid = 0; tid < cand.traces.size(); ++tid) {
                for (auto [i, j] : ppoPairs(cand, tid)) {
                    const int u = cand.tables.eventAt(int(tid), int(i));
                    const int v = cand.tables.eventAt(int(tid), int(j));
                    if (u < 0 || v < 0)
                        continue;
                    if (!reach.addClosedEdge(size_t(u), size_t(v)))
                        return false;
                }
            }
        }

        // Permutation-independent halves of LoadValue: the rf edge
        // itself, and -- for loads reading the initial memory -- the
        // requirement that *no* same-address store is po-before or
        // mo-before the load (the store *set* per address is fixed;
        // only its order varies).
        for (size_t l = 0; l < n; ++l) {
            const CandidateEvent &ld = cand.events[l];
            if (!ld.isLoad)
                continue;
            if (ld.rf == InitStore) {
                for (size_t s = 0; s < n; ++s) {
                    const CandidateEvent &st = cand.events[s];
                    if (!st.isStore || st.addr != ld.addr || s == l)
                        continue;
                    if (poBefore(cand, s, l))
                        return false; // rejected: C(L) nonempty
                    if (!reach.addClosedEdge(l, s))
                        return false;
                }
            } else {
                const size_t s = rfSource(cand, ld);
                if (!poBefore(cand, s, l) && !reach.addClosedEdge(s, l))
                    return false;
            }
        }
        return true;
    }

    bool
    pushStore(const CandidateExecution &cand, Addr addr,
              int eventIdx) override
    {
        snapshots.push_back(reach);
        const auto &p = cand.coOrder.at(addr);
        const size_t v = size_t(eventIdx);

        // Coherence edge from the previous store in this address's
        // order.
        if (p.size() >= 2
            && !reach.addClosedEdge(size_t(p[p.size() - 2]), v))
            return false;

        // Atomicity (Section III-C): an RMW's read source must be its
        // immediate coherence predecessor -- no store may slip between
        // the read and the write.
        const CandidateEvent &ev = cand.events[v];
        if (ev.isLoad && ev.isStore) {
            if (ev.rf == InitStore) {
                if (p.size() != 1)
                    return false; // something precedes the write
            } else if (p.size() < 2
                       || size_t(p[p.size() - 2]) != rfSource(cand, ev)) {
                return false; // read and write not co-adjacent
            }
        }

        // LoadValue: every load whose source now precedes this store
        // in coherence must be mo-before it (fr), and must not be
        // po-after it.
        for (size_t l = 0; l < n; ++l) {
            const CandidateEvent &ld = cand.events[l];
            if (!ld.isLoad || ld.addr != addr || l == v
                || ld.rf == InitStore) // handled in beginRf
                continue;
            const int src = int(rfSource(cand, ld));
            if (src == eventIdx)
                continue; // stores after the source arrive later
            const bool source_placed_before =
                std::find(p.begin(), p.end() - 1, src) != p.end() - 1;
            if (!source_placed_before)
                continue;
            if (poBefore(cand, v, l))
                return false; // rejected: a newer po-before store
            if (!reach.addClosedEdge(l, v))
                return false;
        }
        return true;
    }

    void
    popStore(const CandidateExecution &, Addr, int) override
    {
        reach = std::move(snapshots.back());
        snapshots.pop_back();
    }

    bool
    accept(const CandidateExecution &) override
    {
        // Every constraint was checked as it appeared.
        return true;
    }

  private:
    static bool
    poBefore(const CandidateExecution &cand, size_t a, size_t b)
    {
        return cand.events[a].tid == cand.events[b].tid
            && cand.events[a].traceIdx < cand.events[b].traceIdx;
    }

    /** Event index of the store load @p ld reads (not InitStore). */
    static size_t
    rfSource(const CandidateExecution &cand, const CandidateEvent &ld)
    {
        const int s = cand.tables.eventOfStore(ld.rf);
        GAM_ASSERT(s >= 0, "rf store missing");
        return size_t(s);
    }

    /**
     * preservedProgramOrder() edges of thread @p tid, through the
     * shared shape cache when the filter was given one: the walk keyed
     * the thread once for all lanes (CandidateTables::shapeKey), and
     * the key carries the rf sources only where the model's ppo reads
     * them.  The cache stores the materialized pair list, so a hit
     * also skips Relation::pairs().  Without a cache (the inline
     * decide() path), compute directly.
     */
    const std::vector<std::pair<size_t, size_t>> &
    ppoPairs(const CandidateExecution &cand, size_t tid)
    {
        const model::Trace &trace = *cand.traces[tid];
        const model::RfMap *rf = cand.tables.rfTraces[tid];
        if (!ppoShapes) {
            ppoScratch =
                model::preservedProgramOrder(trace, model, rf).pairs();
            return ppoScratch;
        }
        GAM_ASSERT(tid < cand.tables.shapeKey.size(),
                   "ppo cache without shape keys");
        ++ppoShapes->lookups;
        const PpoKey key{model == model::ModelKind::ARM
                             ? cand.tables.rfShapeKey[tid]
                             : cand.tables.shapeKey[tid],
                         model};
        auto [it, fresh] = ppoShapes->shapes.try_emplace(key);
        if (fresh)
            it->second =
                model::preservedProgramOrder(trace, model, rf).pairs();
        return it->second;
    }

    const model::ModelKind model;
    const bool enforceInstOrder;
    PpoCache *ppoShapes;
    /** Holds the uncached ppo edges so ppoPairs() can return a
     *  reference on both paths; valid until the next call. */
    std::vector<std::pair<size_t, size_t>> ppoScratch;

    size_t n = 0;
    /** Transitively closed reachability over the edges added so far.
     *  pushStore() snapshots it first, so popStore() also rolls back
     *  a push that failed after some of its edges went in. */
    cat::Rel reach;
    std::vector<cat::Rel> snapshots;
};

} // anonymous namespace

Checker::Checker(const litmus::LitmusTest &test, model::ModelKind model,
                 Options options)
    : test(test), model(model), options(std::move(options))
{
    // Screen programmatic misuse eagerly, exactly as the pre-refactor
    // constructor did (CandidateBuilder repeats this screen, but each
    // enumerate*() call constructs its own -- too late for a
    // constructor-time contract and too wasteful to run here in full).
    for (size_t tid = 0; tid < test.threads.size(); ++tid) {
        const auto &prog = test.threads[tid];
        GAM_ASSERT(prog.size() < 1024, "thread too long for StoreId");
        for (size_t idx = 0; idx < prog.size(); ++idx) {
            const Instruction &instr = prog[idx];
            if (instr.isBranch()
                && instr.imm <= static_cast<int64_t>(idx)) {
                fatal("axiomatic checker requires forward branches "
                      "(thread %zu instr %zu)", tid, idx);
            }
        }
    }
}

litmus::OutcomeSet
Checker::enumerate()
{
    GAM_TRACE_SCOPE("axiomatic.enumerate");
    CandidateEnumerator enumerator(test, options);
    BuiltinAxiomFilter filter(model, options.enforceInstOrder);
    litmus::OutcomeSet outcomes = std::move(enumerator.run({&filter})[0]);
    _stats = enumerator.stats();
    return outcomes;
}

litmus::OutcomeSet
Checker::enumerateLegacy()
{
    return enumerateLegacyImpl(nullptr);
}

litmus::OutcomeSet
Checker::enumerateFilteredLegacy(const CandidateFilter &accept)
{
    GAM_ASSERT(accept != nullptr, "enumerateFilteredLegacy: null filter");
    return enumerateLegacyImpl(&accept);
}

bool
Checker::isAllowed()
{
    // Seed undetermined-value candidates with the condition's constants
    // so OOTA-style conditions are decided by the axioms.
    options = withConditionSeeds(test, std::move(options));
    litmus::OutcomeSet outcomes = enumerate();
    for (const auto &o : outcomes)
        if (test.conditionMatches(o))
            return true;
    return false;
}

// ------------------------------------------------- legacy enumeration
//
// The pre-incremental pipeline, preserved verbatim: every complete
// (rf, co) candidate is materialized, the whole constraint graph is
// built, and acyclicity is tested at the end.  Differential tests
// assert outcome-set equality against the pruned search above, and
// bench_candidate_prune measures what the pruning buys.

void
Checker::checkCandidate(
    const CandidateBuilder &builder,
    const std::vector<CandidateBuilder::ThreadExec> &exec,
    litmus::OutcomeSet &outcomes, const CandidateFilter *accept,
    uint64_t rfEpoch)
{
    // ---- Collect memory events and per-thread ppo. ----
    std::vector<CandidateEvent> events;
    CandidateTables tables;
    collectCandidateEvents(builder, exec, events, tables);
    std::map<std::pair<int, int>, int> nodeOf; // (tid, traceIdx) -> node
    for (size_t v = 0; v < events.size(); ++v)
        nodeOf[{events[v].tid, events[v].traceIdx}] = int(v);
    const size_t n = events.size();

    // The committed traces, for filters that derive their own
    // relations (dependencies, fences) from the instruction stream.
    std::vector<const model::Trace *> traces;
    for (const auto &te : exec)
        traces.push_back(&te.trace);

    // ppo projected onto memory events (built-in axiom path only; a
    // filter embodies its own model).
    std::vector<std::pair<int, int>> ppoEdges;
    if (!accept && options.enforceInstOrder) {
        for (size_t tid = 0; tid < exec.size(); ++tid) {
            const auto &te = exec[tid];
            model::Relation ppo = model::preservedProgramOrder(
                te.trace, model, &te.rfTrace);
            for (auto [i, j] : ppo.pairs()) {
                auto it1 = nodeOf.find({int(tid), int(i)});
                auto it2 = nodeOf.find({int(tid), int(j)});
                if (it1 != nodeOf.end() && it2 != nodeOf.end())
                    ppoEdges.emplace_back(it1->second, it2->second);
            }
        }
    }

    // Group stores by address for coherence-order enumeration.
    std::map<Addr, std::vector<int>> storesByAddr;
    for (size_t v = 0; v < n; ++v)
        if (events[v].isStore)
            storesByAddr[events[v].addr].push_back(int(v));

    // Map store id -> node.
    std::map<StoreId, int> nodeOfStore;
    for (size_t v = 0; v < n; ++v)
        if (events[v].isStore)
            nodeOfStore[events[v].sid] = int(v);

    auto po_before = [&](int s, int l) {
        return events[s].tid == events[l].tid
            && events[s].traceIdx < events[l].traceIdx;
    };

    // ---- Enumerate coherence orders (one permutation per address). ----
    std::vector<Addr> addrs;
    for (auto &[a, v] : storesByAddr)
        addrs.push_back(a);

    std::map<Addr, std::vector<int>> perm = storesByAddr;

    // ---- Accepted-candidate outcome recording (both paths). ----
    auto record = [&]() {
        ++_stats.accepted;
        recordCandidateOutcome(test, exec, events, perm, outcomes);
    };

    auto try_combo = [&]() {
        ++_stats.coCandidates;

        if (accept) {
            const CandidateExecution candidate{events, perm, traces,
                                               tables, rfEpoch};
            if ((*accept)(candidate))
                record();
            return;
        }

        std::vector<std::vector<int>> adj(n);
        auto edge = [&](int u, int v) { adj[size_t(u)].push_back(v); };

        for (auto [u, v] : ppoEdges)
            edge(u, v);
        // Coherence edges (consecutive).
        for (const auto &a : addrs) {
            const auto &p = perm[a];
            for (size_t i = 0; i + 1 < p.size(); ++i)
                edge(p[i], p[i + 1]);
        }
        // Atomicity (Section III-C): an RMW's read source must be its
        // immediate coherence predecessor -- no store may slip between
        // the read and the write.
        for (size_t v = 0; v < n; ++v) {
            const CandidateEvent &ev = events[v];
            if (!(ev.isLoad && ev.isStore))
                continue;
            const auto &p = perm[ev.addr];
            size_t pos = 0;
            while (pos < p.size() && p[pos] != int(v))
                ++pos;
            GAM_ASSERT(pos < p.size(), "RMW missing from its co");
            if (ev.rf == InitStore) {
                if (pos != 0)
                    return; // something intervened before the write
            } else {
                auto sit = nodeOfStore.find(ev.rf);
                GAM_ASSERT(sit != nodeOfStore.end(), "rf store missing");
                if (pos == 0 || p[pos - 1] != sit->second)
                    return; // read and write are not co-adjacent
            }
        }

        // rf and fr edges per the LoadValue axiom (the load side of
        // every event, including RMWs; an RMW's own store side is
        // always coherence-after its read and is skipped).
        for (size_t v = 0; v < n; ++v) {
            const CandidateEvent &ld = events[v];
            if (!ld.isLoad)
                continue;
            const auto &p = perm[ld.addr];
            if (ld.rf == InitStore) {
                // No store may be mo-before or po-before this load.
                for (int s : p) {
                    if (s == int(v))
                        continue; // an RMW's own write
                    if (po_before(s, int(v)))
                        return; // rejected: C(L) nonempty
                    edge(int(v), s);
                }
            } else {
                auto sit = nodeOfStore.find(ld.rf);
                GAM_ASSERT(sit != nodeOfStore.end(), "rf store missing");
                int s = sit->second;
                if (!po_before(s, int(v)))
                    edge(s, int(v));
                // Stores coherence-after the source must be outside C(L).
                bool after = false;
                for (int s2 : p) {
                    if (s2 == s) {
                        after = true;
                        continue;
                    }
                    if (!after || s2 == int(v))
                        continue;
                    if (po_before(s2, int(v)))
                        return; // rejected: a newer po-before store exists
                    edge(int(v), s2);
                }
            }
        }

        // Acyclicity via iterative DFS.
        std::vector<int> state(n, 0);
        std::vector<int> stack;
        for (size_t root = 0; root < n; ++root) {
            if (state[root])
                continue;
            stack.push_back(int(root));
            while (!stack.empty()) {
                int u = stack.back();
                if (state[u] == 0) {
                    state[u] = 1;
                    for (int w : adj[size_t(u)]) {
                        if (state[w] == 1)
                            return; // cycle: candidate rejected
                        if (state[w] == 0)
                            stack.push_back(w);
                    }
                } else {
                    if (state[u] == 1)
                        state[u] = 2;
                    stack.pop_back();
                }
            }
        }

        // ---- Accepted by the built-in axioms. ----
        record();
    };

    // Recursive product of per-address permutations.
    std::function<void(size_t)> rec = [&](size_t ai) {
        if (ai == addrs.size()) {
            try_combo();
            return;
        }
        auto &p = perm[addrs[ai]];
        std::sort(p.begin(), p.end());
        do {
            rec(ai + 1);
        } while (std::next_permutation(p.begin(), p.end()));
    };
    rec(0);
}

litmus::OutcomeSet
Checker::enumerateLegacyImpl(const CandidateFilter *accept)
{
    _stats = CheckerStats{};
    litmus::OutcomeSet outcomes;

    CandidateBuilder builder(test, options);
    const size_t nloads = builder.loadSites().size();
    std::vector<StoreId> rf(nloads, InitStore);
    // Choice list per load: InitStore plus every store site.
    std::vector<StoreId> choices;
    choices.push_back(InitStore);
    choices.insert(choices.end(), builder.storeSites().begin(),
                   builder.storeSites().end());

    std::vector<size_t> odo(nloads, 0);
    std::vector<CandidateBuilder::ThreadExec> exec;
    CandidateBuilder::Scratch scratch;
    for (;;) {
        for (size_t i = 0; i < nloads; ++i)
            rf[i] = choices[odo[i]];

        ++_stats.rfCandidates;
        if (builder.computeExecution(rf, exec, scratch)) {
            ++_stats.valueConsistent;
            checkCandidate(builder, exec, outcomes, accept,
                           _stats.valueConsistent);
        }

        // Advance the odometer.
        size_t pos = 0;
        while (pos < nloads) {
            if (++odo[pos] < choices.size())
                break;
            odo[pos] = 0;
            ++pos;
        }
        if (pos == nloads || nloads == 0)
            break;
    }
    return outcomes;
}

// ------------------------------------------------ fused multi-model walk

std::vector<litmus::OutcomeSet>
enumerateModels(CandidateEnumerator &enumerator,
                const std::vector<model::ModelKind> &models,
                std::vector<CheckerStats> *stats, PpoCache *ppoShapes)
{
    GAM_TRACE_SCOPE("axiomatic.enumerate_multi");
    std::vector<BuiltinAxiomFilter> filters;
    std::vector<IncrementalFilter *> lanes;
    filters.reserve(models.size());
    for (model::ModelKind m : models) {
        filters.emplace_back(m, true, ppoShapes);
        lanes.push_back(&filters.back());
    }
    return enumerator.run(lanes, stats);
}

} // namespace gam::axiomatic
