#include "campaign/symmetry.hh"

#include <algorithm>
#include <unordered_map>

#include "base/logging.hh"

namespace gam::campaign
{

namespace
{

using litmus::CycleEdge;
using litmus::CycleEventKind;
using litmus::EventNeed;
using litmus::isFenceVariant;
using litmus::readsMemory;
using litmus::V_ADDR;
using litmus::V_CTRL;
using litmus::V_DATA;
using litmus::V_PO;
using litmus::writesMemory;

void
transitiveClose(uint64_t *p, int L)
{
    for (bool changed = true; changed;) {
        changed = false;
        for (int i = 0; i < L; ++i) {
            for (int j = 0; j < L; ++j) {
                if (!(*p >> (i * 8 + j) & 1))
                    continue;
                for (int k = 0; k < L; ++k) {
                    const uint64_t bit = 1ull << (i * 8 + k);
                    if ((*p >> (j * 8 + k) & 1) && !(*p & bit)) {
                        *p |= bit;
                        changed = true;
                    }
                }
            }
        }
    }
}

/**
 * GAM-family (Definition 6) decoration-induced event pairs for one
 * thread, projected memory-to-memory, over the static SAMemSt base:
 * RegRAW/AddrSt/SAStLd for addr and data, BrSt for ctrl, FenceOrd for
 * fences.  Mirrors model/ppo.cc case for case.
 */
uint64_t
gamFamilyPairs(const std::vector<CycleEventKind> &k,
               const std::vector<int> &loc, const std::vector<int> &dec)
{
    const int L = int(k.size());
    uint64_t p = 0;
    auto set = [&](int i, int j) { p |= 1ull << (i * 8 + j); };
    // SAMemSt: a store after older same-address memory instructions.
    for (int j = 0; j < L; ++j) {
        if (!writesMemory(k[size_t(j)]))
            continue;
        for (int i = 0; i < j; ++i)
            if (loc[size_t(i)] == loc[size_t(j)])
                set(i, j);
    }
    // SAStLd: the dep source of a store orders before the loads for
    // which that store is the closest older same-address store.
    auto saStLd = [&](int src, int s) {
        if (!writesMemory(k[size_t(s)]))
            return;
        for (int e = s + 1; e < L; ++e) {
            if (loc[size_t(e)] != loc[size_t(s)])
                continue;
            if (readsMemory(k[size_t(e)]))
                set(src, e);
            if (writesMemory(k[size_t(e)]))
                break; // intervening store shields younger loads
        }
    };
    for (int slot = 0; slot + 1 < L; ++slot) {
        const int src = slot, dst = slot + 1, d = dec[size_t(slot)];
        if (d == V_PO)
            continue;
        if (isFenceVariant(d)) { // FenceOrd
            const auto f = litmus::variantFence(d);
            for (int a = 0; a <= src; ++a) {
                if (!litmus::fitsFenceSide(isa::fencePre(f), k[size_t(a)]))
                    continue;
                for (int b = dst; b < L; ++b)
                    if (litmus::fitsFenceSide(isa::fencePost(f),
                                              k[size_t(b)]))
                        set(a, b);
            }
        } else if (d == V_ADDR) { // RegRAW + AddrSt + SAStLd
            set(src, dst);
            for (int w = dst + 1; w < L; ++w)
                if (writesMemory(k[size_t(w)]))
                    set(src, w);
            saStLd(src, dst);
        } else if (d == V_DATA) { // RegRAW + SAStLd
            set(src, dst);
            saStLd(src, dst);
        } else { // ctrl: BrSt (stores only; loads may speculate)
            for (int w = dst; w < L; ++w)
                if (writesMemory(k[size_t(w)]))
                    set(src, w);
        }
    }
    transitiveClose(&p, L);
    return p;
}

/** TSO event pairs: all of po except pure-store to pure-load, plus
 *  FenceOrd; dependencies are invisible.  Mirrors model/ppo.cc. */
uint64_t
tsoPairs(const std::vector<CycleEventKind> &k, const std::vector<int> &dec)
{
    const int L = int(k.size());
    uint64_t p = 0;
    auto set = [&](int i, int j) { p |= 1ull << (i * 8 + j); };
    for (int j = 0; j < L; ++j) {
        for (int i = 0; i < j; ++i) {
            if (k[size_t(i)] != CycleEventKind::Store
                || k[size_t(j)] != CycleEventKind::Load)
                set(i, j);
        }
    }
    for (int slot = 0; slot + 1 < L; ++slot) {
        const int d = dec[size_t(slot)];
        if (!isFenceVariant(d))
            continue;
        const auto f = litmus::variantFence(d);
        for (int a = 0; a <= slot; ++a) {
            if (!litmus::fitsFenceSide(isa::fencePre(f), k[size_t(a)]))
                continue;
            for (int b = slot + 1; b < L; ++b)
                if (litmus::fitsFenceSide(isa::fencePost(f), k[size_t(b)]))
                    set(a, b);
        }
    }
    transitiveClose(&p, L);
    return p;
}

/** One contiguous po-segment of a rotation-canonical cycle. */
struct ThreadView
{
    size_t start = 0; ///< first event's cycle index
    std::vector<CycleEventKind> kinds;
    std::vector<int> locs;
    std::vector<int> decorations;
    /** Head need of the entering comm edge. */
    EventNeed inNeed = EventNeed::Free;
    /** Tail need of the leaving comm edge. */
    EventNeed outNeed = EventNeed::Free;
};

/** Split a rotation-canonical cycle (last edge comm) into threads. */
std::vector<ThreadView>
splitThreads(const std::vector<CycleEdge> &edges,
             const std::vector<CycleEventKind> &kinds,
             const std::vector<int> &locs)
{
    const size_t n = edges.size();
    GAM_ASSERT(litmus::isCommunication(edges[n - 1].kind),
               "splitThreads: spec is not rotation-canonical");
    std::vector<ThreadView> threads;
    size_t start = 0;
    for (size_t i = 0; i < n; ++i) {
        if (!litmus::isCommunication(edges[i].kind))
            continue;
        ThreadView t;
        t.start = start;
        for (size_t e = start; e <= i; ++e) {
            t.kinds.push_back(kinds[e]);
            t.locs.push_back(locs[e]);
            if (e < i)
                t.decorations.push_back(litmus::edgeVariant(edges[e]));
        }
        t.inNeed = litmus::headNeed(edges[(start + n - 1) % n].kind);
        t.outNeed = litmus::tailNeed(edges[i].kind);
        threads.push_back(std::move(t));
        start = i + 1;
    }
    return threads;
}

/** Thread event kinds implied by boundary needs and decorations. */
void
localKinds(EventNeed inNeed, EventNeed outNeed, const std::vector<int> &dec,
           std::vector<CycleEventKind> *out)
{
    const size_t L = dec.size() + 1;
    out->resize(L);
    for (size_t j = 0; j < L; ++j) {
        const EventNeed in = j == 0
            ? inNeed
            : litmus::headNeed(litmus::variantKind(dec[j - 1]));
        const EventNeed outN = j == L - 1
            ? outNeed
            : litmus::tailNeed(litmus::variantKind(dec[j]));
        (*out)[j] = litmus::cycleEventKind(in, outN);
    }
}

/**
 * Lex-least decoration vector whose event kinds and ordering
 * signature match the thread's, drawn from the universe's decoration
 * alphabet.  Restricting candidates to what the enumeration can emit
 * (fences that fit their events in particular) is load-bearing: the
 * canonical member must itself be enumerable or its class would lose
 * its only representative.  Memoized: the same (boundary needs,
 * locations, decorations, alphabet) recurs across many cycles.
 */
std::vector<int>
canonicalDecorations(const ThreadView &t, bool allowFences,
                     bool allowDeps)
{
    const size_t slots = t.decorations.size();
    if (slots == 0)
        return {};

    // Decorations pack as their 3-bit offset from V_PO.
    uint64_t key = (t.inNeed == EventNeed::Load ? 1u : 0u)
        | (t.outNeed == EventNeed::Load ? 2u : 0u)
        | (allowFences ? 4u : 0u) | (allowDeps ? 8u : 0u)
        | (uint64_t(slots) << 4);
    for (size_t j = 0; j < t.locs.size(); ++j)
        key = key << 2 | uint64_t(t.locs[j] & 3);
    for (size_t j = 0; j < slots; ++j)
        key = key << 3 | uint64_t(t.decorations[j] - V_PO);
    // The header above takes 7 bits, the locations at most 16 and the
    // decorations 21: the packing stays in 64 bits for threads of up
    // to 8 events.
    thread_local std::unordered_map<uint64_t, uint32_t> memo;
    if (auto it = memo.find(key); it != memo.end()) {
        std::vector<int> dec(slots);
        for (size_t j = 0; j < slots; ++j)
            dec[j] = V_PO + int(it->second >> (3 * j) & 7);
        return dec;
    }

    const uint64_t gamSig =
        gamFamilyPairs(t.kinds, t.locs, t.decorations);
    const uint64_t tsoSig = tsoPairs(t.kinds, t.decorations);

    std::vector<int> cand(slots, V_PO), best = t.decorations;
    std::vector<CycleEventKind> kinds;
    for (;;) {
        // Stop at the original: it matches itself, so the first
        // equivalent candidate in lex order is the canonical one.
        if (cand == t.decorations)
            break;
        bool allowed = true;
        for (size_t j = 0; j < slots; ++j) {
            const int d = cand[j];
            if ((!allowDeps && d >= V_ADDR)
                || (isFenceVariant(d)
                    && (!allowFences
                        || !litmus::fenceFits(litmus::variantFence(d),
                                              t.kinds[j],
                                              t.kinds[j + 1])))) {
                allowed = false;
                break;
            }
        }
        if (allowed) {
            localKinds(t.inNeed, t.outNeed, cand, &kinds);
            if (kinds == t.kinds
                && gamFamilyPairs(t.kinds, t.locs, cand) == gamSig
                && tsoPairs(t.kinds, cand) == tsoSig) {
                best = cand;
                break;
            }
        }
        size_t j = slots;
        while (j-- > 0) {
            if (++cand[j] <= V_CTRL)
                break;
            cand[j] = V_PO;
        }
        if (j == size_t(-1))
            break;
    }

    uint32_t packed = 0;
    for (size_t j = 0; j < slots; ++j)
        packed |= uint32_t(best[j] - V_PO) << (3 * j);
    memo.emplace(key, packed);
    return best;
}

/**
 * Index of an interior plain-po load at a store-free location, or -1.
 * Such a load reads the initial value vacuously and contracts away
 * (see the file comment in symmetry.hh for the soundness argument).
 */
int
contractibleEvent(const std::vector<CycleEdge> &edges,
                  const std::vector<CycleEventKind> &kinds,
                  const std::vector<int> &locs)
{
    const int n = int(edges.size());
    bool locHasStore[litmus::MaxCycleLocations] = {};
    for (int i = 0; i < n; ++i)
        if (writesMemory(kinds[size_t(i)]))
            locHasStore[locs[size_t(i)]] = true;
    for (int i = 0; i < n; ++i) {
        const CycleEdge &in = edges[size_t((i + n - 1) % n)];
        const CycleEdge &out = edges[size_t(i)];
        if (in.kind == CycleEdge::Kind::Po
            && out.kind == CycleEdge::Kind::Po
            && kinds[size_t(i)] == CycleEventKind::Load
            && !locHasStore[locs[size_t(i)]])
            return i;
    }
    return -1;
}

/** Remove event @p victim, merging its two plain-po edges. */
void
contractEvent(std::vector<CycleEdge> *edges, int *numLoc, int victim)
{
    std::vector<int> locs;
    litmus::walkCycleLocations(*edges, *numLoc, locs);
    const int n = int(edges->size());
    std::vector<int> keepLoc;
    std::vector<CycleEdge> keepEdges;
    for (int i = 0; i < n; ++i) {
        if (i == victim)
            continue;
        keepLoc.push_back(locs[size_t(i)]);
        keepEdges.push_back((*edges)[size_t(i)]);
    }
    // Relabel surviving locations by first occurrence and recompute
    // the po location steps between consecutive survivors.
    const int m = int(keepEdges.size());
    int relabel[litmus::MaxCycleLocations] = {-1, -1, -1, -1};
    int next = 0;
    for (int j = 0; j < m; ++j) {
        int &slot = relabel[keepLoc[size_t(j)]];
        if (slot < 0)
            slot = next++;
        keepLoc[size_t(j)] = slot;
    }
    const int newNumLoc = std::clamp(next, litmus::MinCycleLocations,
                                     litmus::MaxCycleLocations);
    for (int j = 0; j < m; ++j) {
        CycleEdge &e = keepEdges[size_t(j)];
        if (litmus::isCommunication(e.kind))
            continue;
        const int from = keepLoc[size_t(j)];
        const int to = keepLoc[size_t((j + 1) % m)];
        e.locStep = ((to - from) % newNumLoc + newNumLoc) % newNumLoc;
    }
    *edges = std::move(keepEdges);
    *numLoc = newNumLoc;
}

} // namespace

ThreadOrderSignature
threadOrderSignature(const std::vector<CycleEventKind> &kinds,
                     const std::vector<int> &locs,
                     const std::vector<int> &decorations)
{
    GAM_ASSERT(kinds.size() == locs.size()
                   && kinds.size() == decorations.size() + 1,
               "threadOrderSignature: inconsistent thread shape");
    ThreadOrderSignature sig;
    sig.gamFamily = gamFamilyPairs(kinds, locs, decorations);
    sig.tso = tsoPairs(kinds, decorations);
    return sig;
}

bool
isFullCanonical(const std::vector<CycleEdge> &edges, int numLocations,
                const EnumerateOptions &options, SymmetryStats *stats)
{
    const auto kinds = litmus::cycleEventKinds(edges);
    std::vector<int> locs;
    litmus::walkCycleLocations(edges, numLocations, locs);
    if (contractibleEvent(edges, kinds, locs) >= 0) {
        if (stats)
            ++stats->contractible;
        return false;
    }
    for (const ThreadView &t : splitThreads(edges, kinds, locs)) {
        if (t.decorations.empty())
            continue;
        if (canonicalDecorations(t, options.fences, options.deps)
            != t.decorations) {
            if (stats)
                ++stats->decorationDuplicates;
            return false;
        }
    }
    return true;
}

std::optional<CanonicalCycle>
canonicalCycleFull(const std::vector<CycleEdge> &edges, int numLocations)
{
    std::optional<CanonicalCycle> canon =
        canonicalCycle(edges, numLocations);
    if (!canon)
        return std::nullopt;

    std::vector<CycleEdge> cur = canon->edges;
    int numLoc = canon->numLocations;
    std::vector<int> locs;
    for (bool changed = true; changed;) {
        changed = false;
        for (;;) {
            const auto kinds = litmus::cycleEventKinds(cur);
            litmus::walkCycleLocations(cur, numLoc, locs);
            const int victim = contractibleEvent(cur, kinds, locs);
            if (victim < 0)
                break;
            contractEvent(&cur, &numLoc, victim);
            changed = true;
        }
        const auto kinds = litmus::cycleEventKinds(cur);
        litmus::walkCycleLocations(cur, numLoc, locs);
        for (const ThreadView &t : splitThreads(cur, kinds, locs)) {
            const std::vector<int> dec = canonicalDecorations(
                t, /*allowFences=*/true, /*allowDeps=*/true);
            if (dec == t.decorations)
                continue;
            for (size_t j = 0; j < dec.size(); ++j)
                cur[t.start + j] = litmus::variantEdge(
                    dec[j], cur[t.start + j].locStep);
            changed = true;
        }
    }
    return canonicalCycle(cur, numLoc);
}

} // namespace gam::campaign
