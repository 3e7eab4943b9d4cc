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

/** The relations a cycle edge can be drawn from. */
enum class EdgeKind : uint8_t
{
    Rfe,       ///< store read by a load on another thread
    Coe,       ///< coherence order between stores on different threads
    Fre,       ///< load overwritten by a store on another thread
    Po,        ///< plain program order
    PoFence,   ///< program order through a basic fence
    PoDepAddr, ///< program order through an address dependency
    PoDepData, ///< program order through a data dependency
    PoDepCtrl, ///< program order through a control dependency
};

bool
isComm(EdgeKind k)
{
    return k == EdgeKind::Rfe || k == EdgeKind::Coe || k == EdgeKind::Fre;
}

/** Event-type requirement an edge imposes on one of its endpoints. */
enum class Need : uint8_t { Free, Load, Store };

/** Requirement on the edge's source event. */
Need
tailNeed(EdgeKind k)
{
    switch (k) {
      case EdgeKind::Rfe: return Need::Store;
      case EdgeKind::Coe: return Need::Store;
      case EdgeKind::Fre: return Need::Load;
      // A dependency must flow out of a produced value, i.e. a load.
      case EdgeKind::PoDepAddr:
      case EdgeKind::PoDepData:
      case EdgeKind::PoDepCtrl: return Need::Load;
      default: return Need::Free;
    }
}

/** Requirement on the edge's destination event. */
Need
headNeed(EdgeKind k)
{
    switch (k) {
      case EdgeKind::Rfe: return Need::Load;
      case EdgeKind::Coe: return Need::Store;
      case EdgeKind::Fre: return Need::Store;
      // A data dependency must flow into store data.
      case EdgeKind::PoDepData: return Need::Store;
      default: return Need::Free;
    }
}

enum class EvKind : uint8_t { Load, Store, Rmw };

struct Event
{
    EvKind kind = EvKind::Load;
    int thread = 0;
    int loc = 0;
    /** The value this event's store side writes (stores and RMWs). */
    isa::Value storeValue = 0;
    /** The value this event's load side observes in the witness. */
    isa::Value witnessValue = 0;
};

struct Cycle
{
    std::vector<EdgeKind> edges;
    std::vector<Event> events; ///< events[i] is the source of edges[i]
    std::vector<isa::FenceKind> fences; ///< valid where edges[i] is PoFence
    int threads = 0;
};

/** One generation attempt; nullopt when the draw is not realisable. */
std::optional<Cycle>
tryCycle(Rng &rng, const GeneratorOptions &opts)
{
    Cycle cy;
    const int n = static_cast<int>(
        rng.rangeInclusive(opts.minEdges, opts.maxEdges));

    for (int i = 0; i < n; ++i) {
        if (rng.chance(1, 2)) {
            constexpr EdgeKind comm[] = {EdgeKind::Rfe, EdgeKind::Coe,
                                         EdgeKind::Fre};
            cy.edges.push_back(comm[rng.range(3)]);
        } else if (opts.allowFences && rng.chance(1, 3)) {
            cy.edges.push_back(EdgeKind::PoFence);
        } else if (opts.allowDeps && rng.chance(1, 3)) {
            constexpr EdgeKind dep[] = {EdgeKind::PoDepAddr,
                                        EdgeKind::PoDepData,
                                        EdgeKind::PoDepCtrl};
            cy.edges.push_back(dep[rng.range(3)]);
        } else {
            cy.edges.push_back(EdgeKind::Po);
        }
    }

    // Thread budget: one thread per communication edge.
    int comm_count = 0;
    int last_comm = -1;
    for (int i = 0; i < n; ++i) {
        if (isComm(cy.edges[i])) {
            ++comm_count;
            last_comm = i;
        }
    }
    if (comm_count < 2 || comm_count > opts.maxThreads)
        return std::nullopt;
    cy.threads = comm_count;

    // Rotate so the cycle's closing edge (back to event 0) is external.
    std::rotate(cy.edges.begin(),
                cy.edges.begin() + (last_comm + 1) % n, cy.edges.end());

    // Event kinds from the adjacent edges' requirements.
    cy.events.resize(n);
    int loads = 0, stores = 0;
    for (int i = 0; i < n; ++i) {
        const Need in = headNeed(cy.edges[(i + n - 1) % n]);
        const Need out = tailNeed(cy.edges[i]);
        EvKind kind;
        if ((in == Need::Load && out == Need::Store)
            || (in == Need::Store && out == Need::Load)) {
            if (!opts.allowRmws)
                return std::nullopt;
            kind = EvKind::Rmw;
        } else if (in == Need::Load || out == Need::Load) {
            kind = EvKind::Load;
        } else if (in == Need::Store || out == Need::Store) {
            kind = EvKind::Store;
        } else {
            kind = rng.chance(1, 2) ? EvKind::Load : EvKind::Store;
        }
        cy.events[i].kind = kind;
        loads += kind != EvKind::Store;
        stores += kind != EvKind::Load;
    }
    // Keep both engines cheap: bounded rf and coherence enumeration.
    if (loads > 4 || stores > 4)
        return std::nullopt;

    // Threads: a communication edge moves to a fresh thread.
    for (int i = 0; i + 1 < n; ++i) {
        cy.events[i + 1].thread =
            cy.events[i].thread + (isComm(cy.edges[i]) ? 1 : 0);
    }

    // Locations: communication needs same-address endpoints; program
    // order usually changes address (keeping it sometimes exercises the
    // same-address orderings that separate the GAM family).
    const int nlocs = static_cast<int>(
        rng.rangeInclusive(2, opts.maxLocations));
    for (int i = 0; i + 1 < n; ++i) {
        const int cur = cy.events[i].loc;
        if (isComm(cy.edges[i]) || rng.chance(1, 4)) {
            cy.events[i + 1].loc = cur;
        } else {
            const int step = 1 + static_cast<int>(
                rng.range(uint64_t(nlocs - 1)));
            cy.events[i + 1].loc = (cur + step) % nlocs;
        }
    }
    // The closing edge is communication: it needs loc[n-1] == loc[0].
    if (cy.events[n - 1].loc != cy.events[0].loc)
        return std::nullopt;

    // Store values: distinct per location so rf is observable.
    std::vector<isa::Value> counter(size_t(nlocs), 0);
    for (Event &ev : cy.events)
        if (ev.kind != EvKind::Load)
            ev.storeValue = ++counter[size_t(ev.loc)];

    // Witness values: an rf edge is observed exactly; an RMW whose
    // incoming edge is coherence must (by atomicity) read its co
    // predecessor; everything else reads the initial 0.
    for (int i = 0; i < n; ++i) {
        Event &ev = cy.events[i];
        if (ev.kind == EvKind::Store)
            continue;
        const int prev = (i + n - 1) % n;
        const EdgeKind in = cy.edges[prev];
        if (in == EdgeKind::Rfe
            || (ev.kind == EvKind::Rmw && in == EdgeKind::Coe)) {
            ev.witnessValue = cy.events[prev].storeValue;
        }
    }

    // Fence kinds: match the adjacent events' access types (an RMW
    // counts as either side; pick one).
    cy.fences.assign(size_t(n), isa::FenceKind::LL);
    for (int i = 0; i < n; ++i) {
        if (cy.edges[i] != EdgeKind::PoFence)
            continue;
        auto side = [&](const Event &ev) {
            if (ev.kind == EvKind::Rmw)
                return rng.chance(1, 2) ? isa::MemType::Load
                                        : isa::MemType::Store;
            return ev.kind == EvKind::Load ? isa::MemType::Load
                                           : isa::MemType::Store;
        };
        const bool pre_load = side(cy.events[i]) == isa::MemType::Load;
        const bool post_load =
            side(cy.events[(i + 1) % n]) == isa::MemType::Load;
        cy.fences[size_t(i)] = pre_load
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
    bool loc_used[4] = {false, false, false, false};
    for (const Event &ev : cy.events)
        loc_used[ev.loc] = true;
    for (int loc = 0; loc < 4; ++loc) {
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
        for (int loc = 0; loc < 4; ++loc) {
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
            const EdgeKind in = cy.edges[(i + n - 1) % n];
            const bool in_po = !isComm(in)
                && cy.events[(i + n - 1) % n].thread == tid;

            isa::Reg addr_reg = R(8 + ev.loc);
            if (in_po && in == EdgeKind::PoFence)
                b.fence(cy.fences[size_t((i + n - 1) % n)]);
            if (in_po && in == EdgeKind::PoDepCtrl) {
                const std::string label =
                    "d" + std::to_string(dep_label++);
                b.beq(prev_obs, prev_obs, label);
                b.label(label);
            }
            if (in_po && in == EdgeKind::PoDepAddr) {
                const isa::Reg t = R(next_scratch++);
                b.xorr(t, prev_obs, prev_obs);
                b.add(t, t, addr_reg);
                addr_reg = t;
            }

            switch (ev.kind) {
              case EvKind::Load: {
                const isa::Reg dst = R(next_obs++);
                b.ld(dst, addr_reg);
                observed.push_back({i, tid, dst});
                prev_obs = dst;
                break;
              }
              case EvKind::Store: {
                const isa::Reg v = R(next_scratch++);
                if (in_po && in == EdgeKind::PoDepData) {
                    const isa::Reg t = R(next_scratch++);
                    b.xorr(t, prev_obs, prev_obs);
                    b.aluImm(isa::Opcode::ADDI, v, t, ev.storeValue);
                } else {
                    b.li(v, ev.storeValue);
                }
                b.st(addr_reg, v);
                break;
              }
              case EvKind::Rmw: {
                const isa::Reg v = R(next_scratch++);
                if (in_po && in == EdgeKind::PoDepData) {
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
    for (int loc = 0; loc < 4; ++loc) {
        std::vector<int> writers;
        for (int i = 0; i < n; ++i) {
            if (cy.events[i].loc == loc
                && cy.events[i].kind != EvKind::Load) {
                writers.push_back(i);
            }
        }
        if (writers.empty())
            continue;
        std::vector<std::pair<int, int>> co_edges;
        for (int i = 0; i < n; ++i) {
            if (cy.edges[i] == EdgeKind::Coe
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
 * Deterministically realise an explicit edge specification as a Cycle,
 * mirroring tryCycle()'s rules with every free choice pinned: an
 * unconstrained event becomes a load, and locations follow the spec's
 * locStep walk instead of a random one.
 */
std::optional<Cycle>
cycleFromSpec(const std::vector<CycleEdge> &spec, int nlocs)
{
    const int n = static_cast<int>(spec.size());
    if (n < 3 || nlocs < 2 || nlocs > 4)
        return std::nullopt;

    std::vector<EdgeKind> kinds;
    std::vector<isa::FenceKind> fences;
    std::vector<int> steps;
    for (const CycleEdge &e : spec) {
        switch (e.kind) {
          case CycleEdge::Kind::Rfe:
            kinds.push_back(EdgeKind::Rfe);
            break;
          case CycleEdge::Kind::Coe:
            kinds.push_back(EdgeKind::Coe);
            break;
          case CycleEdge::Kind::Fre:
            kinds.push_back(EdgeKind::Fre);
            break;
          case CycleEdge::Kind::Po:
            kinds.push_back(EdgeKind::Po);
            break;
          case CycleEdge::Kind::PoFence:
            kinds.push_back(EdgeKind::PoFence);
            break;
          case CycleEdge::Kind::PoAddr:
            kinds.push_back(EdgeKind::PoDepAddr);
            break;
          case CycleEdge::Kind::PoData:
            kinds.push_back(EdgeKind::PoDepData);
            break;
          case CycleEdge::Kind::PoCtrl:
            kinds.push_back(EdgeKind::PoDepCtrl);
            break;
        }
        fences.push_back(e.fence);
        steps.push_back(isComm(kinds.back()) ? 0 : e.locStep);
    }

    // Thread budget: one thread per communication edge; the closing
    // edge (back to event 0) must be communication, so rotate the
    // whole spec to put the last such edge at the end.
    int comm_count = 0;
    int last_comm = -1;
    for (int i = 0; i < n; ++i) {
        if (isComm(kinds[i])) {
            ++comm_count;
            last_comm = i;
        }
    }
    if (comm_count < 2 || comm_count > 4)
        return std::nullopt;
    const int shift = (last_comm + 1) % n;
    std::rotate(kinds.begin(), kinds.begin() + shift, kinds.end());
    std::rotate(fences.begin(), fences.begin() + shift, fences.end());
    std::rotate(steps.begin(), steps.begin() + shift, steps.end());

    Cycle cy;
    cy.edges = kinds;
    cy.fences = fences;
    cy.threads = comm_count;

    // Event kinds from the adjacent edges' requirements; a free event
    // is a load (the deterministic pin of tryCycle's coin flip).
    cy.events.resize(size_t(n));
    for (int i = 0; i < n; ++i) {
        const Need in = headNeed(cy.edges[size_t((i + n - 1) % n)]);
        const Need out = tailNeed(cy.edges[size_t(i)]);
        EvKind kind;
        if ((in == Need::Load && out == Need::Store)
            || (in == Need::Store && out == Need::Load)) {
            kind = EvKind::Rmw;
        } else if (in == Need::Store || out == Need::Store) {
            kind = EvKind::Store;
        } else {
            kind = EvKind::Load;
        }
        cy.events[size_t(i)].kind = kind;
    }

    // Threads: a communication edge moves to a fresh thread.
    for (int i = 0; i + 1 < n; ++i) {
        cy.events[size_t(i) + 1].thread =
            cy.events[size_t(i)].thread
            + (isComm(cy.edges[size_t(i)]) ? 1 : 0);
    }

    // Locations along the spec's walk; the closing communication edge
    // needs the walk to return to event 0's location.
    for (int i = 0; i + 1 < n; ++i) {
        const int cur = cy.events[size_t(i)].loc;
        const int step = steps[size_t(i)];
        cy.events[size_t(i) + 1].loc =
            ((cur + step) % nlocs + nlocs) % nlocs;
    }
    if (cy.events[size_t(n) - 1].loc != cy.events[0].loc)
        return std::nullopt;

    // Store values: distinct per location so rf is observable.
    std::vector<isa::Value> counter(size_t(nlocs), 0);
    for (Event &ev : cy.events)
        if (ev.kind != EvKind::Load)
            ev.storeValue = ++counter[size_t(ev.loc)];

    // Witness values: an rf edge is observed exactly; an RMW whose
    // incoming edge is coherence must (by atomicity) read its co
    // predecessor; everything else reads the initial 0.
    for (int i = 0; i < n; ++i) {
        Event &ev = cy.events[size_t(i)];
        if (ev.kind == EvKind::Store)
            continue;
        const int prev = (i + n - 1) % n;
        const EdgeKind in = cy.edges[size_t(prev)];
        if (in == EdgeKind::Rfe
            || (ev.kind == EvKind::Rmw && in == EdgeKind::Coe)) {
            ev.witnessValue = cy.events[size_t(prev)].storeValue;
        }
    }
    return cy;
}

/** The internal edge relation a public CycleEdge::Kind names. */
EdgeKind
edgeKindOf(CycleEdge::Kind kind)
{
    switch (kind) {
      case CycleEdge::Kind::Rfe: return EdgeKind::Rfe;
      case CycleEdge::Kind::Coe: return EdgeKind::Coe;
      case CycleEdge::Kind::Fre: return EdgeKind::Fre;
      case CycleEdge::Kind::Po: return EdgeKind::Po;
      case CycleEdge::Kind::PoFence: return EdgeKind::PoFence;
      case CycleEdge::Kind::PoAddr: return EdgeKind::PoDepAddr;
      case CycleEdge::Kind::PoData: return EdgeKind::PoDepData;
      case CycleEdge::Kind::PoCtrl: return EdgeKind::PoDepCtrl;
    }
    return EdgeKind::Po;
}

} // anonymous namespace

std::vector<CycleEventKind>
cycleEventKinds(const std::vector<CycleEdge> &edges)
{
    const int n = static_cast<int>(edges.size());
    std::vector<CycleEventKind> kinds(size_t(n), CycleEventKind::Load);
    for (int i = 0; i < n; ++i) {
        const Need in =
            headNeed(edgeKindOf(edges[size_t((i + n - 1) % n)].kind));
        const Need out = tailNeed(edgeKindOf(edges[size_t(i)].kind));
        if ((in == Need::Load && out == Need::Store)
            || (in == Need::Store && out == Need::Load)) {
            kinds[size_t(i)] = CycleEventKind::Rmw;
        } else if (in == Need::Store || out == Need::Store) {
            kinds[size_t(i)] = CycleEventKind::Store;
        } else {
            kinds[size_t(i)] = CycleEventKind::Load;
        }
    }
    return kinds;
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
generateTest(uint64_t seed, uint64_t index,
             const GeneratorOptions &options)
{
    // The lowering has exactly 4 location slots (names a..d, address
    // registers r8..r11); clamp every knob to its supported range.
    GeneratorOptions opts = options;
    opts.maxThreads = std::clamp(opts.maxThreads, 2, 4);
    opts.maxLocations = std::clamp(opts.maxLocations, 2, 4);
    opts.minEdges = std::clamp(opts.minEdges, 3, 8);
    opts.maxEdges = std::clamp(opts.maxEdges, opts.minEdges, 8);

    // Mix (seed, index) into one stream seed so tests are independent
    // and any single test can be regenerated in O(1).
    Rng rng(seed + 0x9e3779b97f4a7c15ull * (index + 1));
    const std::string name = "gen_" + std::to_string(seed) + "_"
        + std::to_string(index);

    for (int attempt = 0; attempt < 64; ++attempt) {
        auto cycle = tryCycle(rng, opts);
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
