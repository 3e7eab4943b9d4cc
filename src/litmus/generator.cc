#include "litmus/generator.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "isa/program.hh"
#include "litmus/suite.hh"

namespace gam::litmus
{

namespace
{

using isa::ProgramBuilder;
using isa::R;

/** The random generator draws cycles of this many edges (== events). */
constexpr int MinDrawnEdges = 3;
constexpr int MaxDrawnEdges = 6;

struct Event
{
    CycleEventKind kind = CycleEventKind::Load;
    int thread = 0;
    int loc = 0;
    /** The value this event's store side writes (stores and RMWs). */
    isa::Value storeValue = 0;
    /** The value this event's load side observes in the witness. */
    isa::Value witnessValue = 0;
};

struct Cycle
{
    /** Rotated so the closing edge (back to event 0) is communication. */
    std::vector<CycleEdge> edges;
    std::vector<Event> events; ///< events[i] is the source of edges[i]
    int threads = 0;
};

/**
 * The derivation the random draw and an explicit spec share, part
 * one: within the thread budget, rotate @p edges so the cycle closes
 * on a communication edge, then fix each event's kind and thread.  An
 * event neither adjacent edge constrains gets a coin flip from @p rng,
 * or is pinned as the lowering pins it when @p rng is null.  nullopt
 * when the cycle is outside the thread, load or store budget.
 */
std::optional<Cycle>
shapeCycle(std::vector<CycleEdge> edges, Rng *rng)
{
    const int n = static_cast<int>(edges.size());
    int comm_count = 0;
    int last_comm = -1;
    for (int i = 0; i < n; ++i) {
        if (isCommunication(edges[size_t(i)].kind)) {
            ++comm_count;
            last_comm = i;
        }
    }
    if (comm_count < MinCycleThreads || comm_count > MaxCycleThreads)
        return std::nullopt;

    Cycle cy;
    cy.threads = comm_count;
    cy.edges = std::move(edges);
    std::rotate(cy.edges.begin(), cy.edges.begin() + (last_comm + 1) % n,
                cy.edges.end());

    cy.events.resize(size_t(n));
    for (int i = 0; i < n; ++i) {
        const EventNeed in = headNeed(cy.edges[size_t((i + n - 1) % n)].kind);
        const EventNeed out = tailNeed(cy.edges[size_t(i)].kind);
        const bool coin = rng && !forcedEventKind(in, out);
        cy.events[size_t(i)].kind = coin
            ? (rng->chance(1, 2) ? CycleEventKind::Load
                                 : CycleEventKind::Store)
            : cycleEventKind(in, out);
    }
    int loads = 0, stores = 0;
    for (const Event &ev : cy.events) {
        loads += readsMemory(ev.kind);
        stores += writesMemory(ev.kind);
    }
    if (loads > MaxCycleLoads || stores > MaxCycleStores)
        return std::nullopt;
    // A communication edge moves to a fresh thread.
    for (int i = 0; i + 1 < n; ++i) {
        cy.events[size_t(i) + 1].thread = cy.events[size_t(i)].thread
            + (isCommunication(cy.edges[size_t(i)].kind) ? 1 : 0);
    }
    return cy;
}

/**
 * Part two: place the events along the edges' location walk over
 * @p nlocs locations and give them store and witness values.  False
 * when the walk does not close.
 */
bool
placeEvents(Cycle &cy, int nlocs)
{
    std::vector<int> locs;
    if (!walkCycleLocations(cy.edges, nlocs, locs))
        return false;
    const int n = static_cast<int>(cy.events.size());

    // Store values: distinct per location so rf is observable.
    std::vector<isa::Value> counter(size_t(nlocs), 0);
    for (int i = 0; i < n; ++i) {
        Event &ev = cy.events[size_t(i)];
        ev.loc = locs[size_t(i)];
        if (writesMemory(ev.kind))
            ev.storeValue = ++counter[size_t(ev.loc)];
    }

    // Witness values: an rf edge is observed exactly; an RMW whose
    // incoming edge is coherence must (by atomicity) read its co
    // predecessor; everything else reads the initial 0.
    for (int i = 0; i < n; ++i) {
        Event &ev = cy.events[size_t(i)];
        if (!readsMemory(ev.kind))
            continue;
        const int prev = (i + n - 1) % n;
        const CycleEdge::Kind in = cy.edges[size_t(prev)].kind;
        if (in == CycleEdge::Kind::Rfe
            || (ev.kind == CycleEventKind::Rmw
                && in == CycleEdge::Kind::Coe)) {
            ev.witnessValue = cy.events[size_t(prev)].storeValue;
        }
    }
    return true;
}

/** One generation attempt; nullopt when the draw is not realisable. */
std::optional<Cycle>
tryCycle(Rng &rng)
{
    std::vector<CycleEdge> edges(
        size_t(rng.rangeInclusive(MinDrawnEdges, MaxDrawnEdges)));
    for (CycleEdge &edge : edges) {
        if (rng.chance(1, 2)) {
            constexpr CycleEdge::Kind comm[] = {CycleEdge::Kind::Rfe,
                                                CycleEdge::Kind::Coe,
                                                CycleEdge::Kind::Fre};
            edge.kind = comm[rng.range(3)];
        } else if (rng.chance(1, 3)) {
            edge.kind = CycleEdge::Kind::PoFence;
        } else if (rng.chance(1, 3)) {
            constexpr CycleEdge::Kind dep[] = {CycleEdge::Kind::PoAddr,
                                               CycleEdge::Kind::PoData,
                                               CycleEdge::Kind::PoCtrl};
            edge.kind = dep[rng.range(3)];
        } else {
            edge.kind = CycleEdge::Kind::Po;
        }
    }

    auto cy = shapeCycle(std::move(edges), &rng);
    if (!cy)
        return std::nullopt;

    // A random location walk: program order usually changes address
    // (keeping it sometimes exercises the same-address orderings that
    // separate the GAM family).  The closing edge is communication.
    const int nlocs = static_cast<int>(
        rng.rangeInclusive(MinCycleLocations, MaxCycleLocations));
    const int n = static_cast<int>(cy->edges.size());
    for (int i = 0; i + 1 < n; ++i) {
        CycleEdge &edge = cy->edges[size_t(i)];
        edge.locStep = isCommunication(edge.kind) || rng.chance(1, 4)
            ? 0
            : 1 + static_cast<int>(rng.range(uint64_t(nlocs - 1)));
    }
    if (!placeEvents(*cy, nlocs))
        return std::nullopt;

    // Fence kinds: a fence that fits the adjacent events, with a coin
    // flip for the side an RMW (which fits either) stands on.
    auto side = [&](const Event &ev) {
        return fitsFenceSide(isa::MemType::Load, ev.kind)
                && (!fitsFenceSide(isa::MemType::Store, ev.kind)
                    || rng.chance(1, 2))
            ? isa::MemType::Load
            : isa::MemType::Store;
    };
    for (int i = 0; i < n; ++i) {
        CycleEdge &edge = cy->edges[size_t(i)];
        if (edge.kind != CycleEdge::Kind::PoFence)
            continue;
        const bool pre_load =
            side(cy->events[size_t(i)]) == isa::MemType::Load;
        const bool post_load =
            side(cy->events[size_t((i + 1) % n)]) == isa::MemType::Load;
        edge.fence = pre_load
            ? (post_load ? isa::FenceKind::LL : isa::FenceKind::LS)
            : (post_load ? isa::FenceKind::SL : isa::FenceKind::SS);
    }
    return cy;
}

/** Lower a realisable cycle to a finalized LitmusTest. */
LitmusTest
lowerCycle(const Cycle &cy, const std::string &name)
{
    const int n = static_cast<int>(cy.events.size());
    LitmusBuilder builder(name, "generated");

    // Only the locations some event touches get named and observed.
    bool loc_used[MaxCycleLocations] = {};
    for (const Event &ev : cy.events)
        loc_used[ev.loc] = true;
    for (int loc = 0; loc < MaxCycleLocations; ++loc) {
        if (loc_used[loc]) {
            builder.location(std::string(1, char('a' + loc)),
                             LOC_A + 8 * loc);
        }
    }

    struct Observed
    {
        int event;
        int tid;
        isa::Reg reg;
    };
    std::vector<Observed> observed;

    for (int tid = 0; tid < cy.threads; ++tid) {
        ProgramBuilder b;
        // Address prelude, one register per location (r8..r11).
        for (int loc = 0; loc < MaxCycleLocations; ++loc) {
            bool used = false;
            for (int i = 0; i < n; ++i) {
                used |= cy.events[i].thread == tid
                    && cy.events[i].loc == loc;
            }
            if (used)
                b.li(R(8 + loc), LOC_A + 8 * loc);
        }

        int next_obs = 1;    // r1.. hold observed load results
        int next_scratch = 12; // r12.. hold store data and dep chains
        isa::Reg prev_obs = R(0); // previous event's load register
        int dep_label = 0;

        for (int i = 0; i < n; ++i) {
            const Event &ev = cy.events[i];
            if (ev.thread != tid)
                continue;
            const CycleEdge &in_edge = cy.edges[size_t((i + n - 1) % n)];
            const CycleEdge::Kind in = in_edge.kind;
            const bool in_po = !isCommunication(in)
                && cy.events[(i + n - 1) % n].thread == tid;

            isa::Reg addr_reg = R(8 + ev.loc);
            if (in_po && in == CycleEdge::Kind::PoFence)
                b.fence(in_edge.fence);
            if (in_po && in == CycleEdge::Kind::PoCtrl) {
                const std::string label =
                    "d" + std::to_string(dep_label++);
                b.beq(prev_obs, prev_obs, label);
                b.label(label);
            }
            if (in_po && in == CycleEdge::Kind::PoAddr) {
                const isa::Reg t = R(next_scratch++);
                b.xorr(t, prev_obs, prev_obs);
                b.add(t, t, addr_reg);
                addr_reg = t;
            }

            switch (ev.kind) {
              case CycleEventKind::Load: {
                const isa::Reg dst = R(next_obs++);
                b.ld(dst, addr_reg);
                observed.push_back({i, tid, dst});
                prev_obs = dst;
                break;
              }
              case CycleEventKind::Store: {
                const isa::Reg v = R(next_scratch++);
                if (in_po && in == CycleEdge::Kind::PoData) {
                    const isa::Reg t = R(next_scratch++);
                    b.xorr(t, prev_obs, prev_obs);
                    b.aluImm(isa::Opcode::ADDI, v, t, ev.storeValue);
                } else {
                    b.li(v, ev.storeValue);
                }
                b.st(addr_reg, v);
                break;
              }
              case CycleEventKind::Rmw: {
                const isa::Reg v = R(next_scratch++);
                if (in_po && in == CycleEdge::Kind::PoData) {
                    const isa::Reg t = R(next_scratch++);
                    b.xorr(t, prev_obs, prev_obs);
                    b.aluImm(isa::Opcode::ADDI, v, t, ev.storeValue);
                } else {
                    b.li(v, ev.storeValue);
                }
                const isa::Reg dst = R(next_obs++);
                b.rmw(isa::Opcode::AMOSWAP, dst, R(8 + ev.loc), v);
                observed.push_back({i, tid, dst});
                prev_obs = dst;
                break;
              }
            }
        }
        builder.thread(b.build());
    }

    // The witness condition: every load observes its cycle value...
    for (const Observed &obs : observed) {
        builder.requireReg(obs.tid, obs.reg,
                           cy.events[size_t(obs.event)].witnessValue);
    }

    // ... and each written location ends on its coherence-final value.
    // Kahn's algorithm over the explicit co edges, index tie-break.
    for (int loc = 0; loc < MaxCycleLocations; ++loc) {
        std::vector<int> writers;
        for (int i = 0; i < n; ++i) {
            if (cy.events[i].loc == loc
                && writesMemory(cy.events[i].kind)) {
                writers.push_back(i);
            }
        }
        if (writers.empty())
            continue;
        std::vector<std::pair<int, int>> co_edges;
        for (int i = 0; i < n; ++i) {
            if (cy.edges[i].kind == CycleEdge::Kind::Coe
                && cy.events[i].loc == loc) {
                co_edges.emplace_back(i, (i + 1) % n);
            }
        }
        int last = -1;
        std::vector<int> pending = writers;
        while (!pending.empty()) {
            size_t pick = pending.size();
            for (size_t k = 0; k < pending.size(); ++k) {
                bool blocked = false;
                for (auto [src, dst] : co_edges) {
                    if (dst == pending[k]
                        && std::find(pending.begin(), pending.end(), src)
                               != pending.end()) {
                        blocked = true;
                        break;
                    }
                }
                if (!blocked) {
                    pick = k;
                    break;
                }
            }
            // The per-location co constraints of one cycle are acyclic;
            // guard anyway so a malformed draw cannot loop forever.
            if (pick == pending.size())
                pick = 0;
            last = pending[size_t(pick)];
            pending.erase(pending.begin() +
                          static_cast<std::ptrdiff_t>(pick));
        }
        builder.requireMem(LOC_A + 8 * loc,
                           cy.events[size_t(last)].storeValue);
    }

    // Observe only the load results: address/scratch registers are
    // compile-time constants and would just bloat every outcome.  They
    // come in (thread, register) order, and naming them before done()
    // keeps finalize() from collecting every written register.
    for (const Observed &obs : observed)
        builder.observe(obs.tid, obs.reg);
    LitmusTest test = builder.done();
    if (observed.empty())
        test.observedRegs.clear(); // a store-only cycle observes none
    return test;
}

/** Deterministic fallback shape (store buffering) for failed draws. */
LitmusTest
fallbackTest(const std::string &name)
{
    ProgramBuilder p0;
    p0.li(R(8), LOC_A).li(R(9), LOC_B);
    p0.li(R(12), 1).st(R(8), R(12)).ld(R(1), R(9));
    ProgramBuilder p1;
    p1.li(R(8), LOC_A).li(R(9), LOC_B);
    p1.li(R(12), 1).st(R(9), R(12)).ld(R(1), R(8));
    return LitmusBuilder(name, "generated")
        .location("a", LOC_A).location("b", LOC_B)
        .thread(p0.build()).thread(p1.build())
        .requireReg(0, R(1), 0).requireReg(1, R(1), 0)
        .done();
}

/**
 * Deterministically realise an explicit edge specification as a Cycle:
 * tryCycle()'s derivation with every free choice pinned -- an
 * unconstrained event is a load, locations follow the spec's locStep
 * walk and fences are the spec's.
 */
std::optional<Cycle>
cycleFromSpec(const std::vector<CycleEdge> &spec, int nlocs)
{
    if (spec.size() < size_t(MinCycleLength) || nlocs < MinCycleLocations
        || nlocs > MaxCycleLocations)
        return std::nullopt;
    auto cy = shapeCycle(spec, nullptr);
    if (!cy || !placeEvents(*cy, nlocs))
        return std::nullopt;
    return cy;
}

} // anonymous namespace

std::vector<CycleEventKind>
cycleEventKinds(const std::vector<CycleEdge> &edges)
{
    const size_t n = edges.size();
    std::vector<CycleEventKind> kinds(n);
    for (size_t i = 0; i < n; ++i) {
        kinds[i] = cycleEventKind(headNeed(edges[(i + n - 1) % n].kind),
                                  tailNeed(edges[i].kind));
    }
    return kinds;
}

bool
walkCycleLocations(const std::vector<CycleEdge> &edges, int numLocations,
                   std::vector<int> &locs)
{
    const size_t n = edges.size();
    locs.assign(n, 0);
    int loc = 0;
    for (size_t i = 0; i < n; ++i) {
        const int step =
            isCommunication(edges[i].kind) ? 0 : edges[i].locStep;
        loc = ((loc + step) % numLocations + numLocations) % numLocations;
        if (i + 1 < n)
            locs[i + 1] = loc;
    }
    return n == 0 || loc == locs[0];
}

std::optional<LitmusTest>
testFromCycle(const std::string &name,
              const std::vector<CycleEdge> &edges, int numLocations)
{
    auto cycle = cycleFromSpec(edges, numLocations);
    if (!cycle)
        return std::nullopt;
    LitmusTest test = lowerCycle(*cycle, name);
    if (test.check())
        return std::nullopt; // spec exceeded a lowering limit
    return test;
}

const std::vector<LitmusTest> &
fourThreadSuite()
{
    static const std::vector<LitmusTest> suite = [] {
        using K = CycleEdge::Kind;
        std::vector<LitmusTest> out;
        auto add = [&](const std::string &name,
                       const std::vector<CycleEdge> &edges, int nlocs) {
            auto test = testFromCycle(name, edges, nlocs);
            GAM_ASSERT(test.has_value(),
                       "fourThreadSuite: cycle '%s' is not realisable",
                       name.c_str());
            out.push_back(*std::move(test));
        };
        const CycleEdge rfe{K::Rfe, isa::FenceKind::SS, 0};
        const CycleEdge fre{K::Fre, isa::FenceKind::SS, 0};
        const CycleEdge coe{K::Coe, isa::FenceKind::SS, 0};
        const CycleEdge po{K::Po, isa::FenceKind::SS, 1};
        const CycleEdge addr_dep{K::PoAddr, isa::FenceKind::SS, 1};
        const CycleEdge data_dep{K::PoData, isa::FenceKind::SS, 1};
        const CycleEdge fence_ll{K::PoFence, isa::FenceKind::LL, 1};
        const CycleEdge fence_sl{K::PoFence, isa::FenceKind::SL, 1};

        // The IRIW family (4 threads): two writers, two observers
        // disagreeing on the write order -- the shape the GAM paper's
        // non-multi-copy-atomicity discussion revolves around.
        add("iriw_pos", {rfe, po, fre, rfe, po, fre}, 2);
        add("iriw_addrs", {rfe, addr_dep, fre, rfe, addr_dep, fre}, 2);
        add("iriw_fences", {rfe, fence_ll, fre, rfe, fence_ll, fre}, 2);

        // The WRC+ family: write-to-read causality through a middleman
        // thread, with and without dependency ordering, plus a
        // 4-thread variant that closes the cycle through a fourth
        // thread's coherence write.
        add("wrc_pos", {rfe, po, rfe, po, fre}, 2);
        add("wrc_data_addr", {rfe, data_dep, rfe, addr_dep, fre}, 2);
        add("wrc_coe_w", {rfe, data_dep, rfe, addr_dep, fre, coe}, 2);

        // W+RWC: a read-write causality chain racing a plain write.
        add("w_rwc", {rfe, po, fre, po, fre}, 2);
        add("w_rwc_fences", {rfe, fence_ll, fre, fence_sl, fre}, 2);
        return out;
    }();
    return suite;
}

LitmusTest
generateTest(uint64_t seed, uint64_t index)
{
    // Mix (seed, index) into one stream seed so tests are independent
    // and any single test can be regenerated in O(1).
    Rng rng(seed + 0x9e3779b97f4a7c15ull * (index + 1));
    const std::string name = "gen_" + std::to_string(seed) + "_"
        + std::to_string(index);

    for (int attempt = 0; attempt < 64; ++attempt) {
        auto cycle = tryCycle(rng);
        if (!cycle)
            continue;
        LitmusTest test = lowerCycle(*cycle, name);
        if (!test.check())
            return test;
    }
    // Statistically unreachable; keeps generateTest total.
    return fallbackTest(name);
}

} // namespace gam::litmus
