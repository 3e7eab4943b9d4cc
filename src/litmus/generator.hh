/**
 * @file
 * Relation cycles: what a diy cycle means, a deterministic lowering of
 * one to a litmus test, and a random generator of them.
 *
 * Following the Herding Cats / diy methodology, a test is derived from
 * a *relation cycle*: a closed sequence of edges over memory events
 * where each edge is either program order on one thread (optionally
 * strengthened with a fence or an address/data/control dependency) or
 * a cross-thread communication relation (rf: store read by a load,
 * co: coherence between stores, fr: load overwritten by a store).
 * Walking the cycle fixes each event's thread, location and kind; the
 * per-thread event sequences are then lowered to assembler programs,
 * and the asked-about condition is the outcome witnessing the cycle
 * (every rf edge observed, every co edge in coherence order).
 *
 * An event that a cycle forces to be both a load and a store (e.g. an
 * rf edge leaving an event a co edge enters) becomes an atomic RMW, so
 * generated tests also exercise the paper's Section III-C atomics.
 *
 * This header is the one owner of the cycle rules: the edge alphabet
 * (CycleEdge, EdgeVariant), the communication test, the event kind two
 * adjacent edges force, which fence fits the events beside it, the
 * location walk and the cycle budgets.  The random generator, the
 * lowering (testFromCycle), the campaign enumerator
 * (campaign/enumerate.hh) and its symmetry quotient
 * (campaign/symmetry.hh) all use these definitions, so they agree edge
 * for edge.
 *
 * Generation is deterministic: generateTest(seed, index) depends only
 * on its arguments, so any test from a fuzzing run can be regenerated
 * from the pair printed in the report.  Every generated test passes
 * LitmusTest::check() and is small enough for exhaustive exploration
 * and axiomatic enumeration (the cycle budgets: 2-4 threads, at most 4
 * locations, 4 loads and 4 stores).
 */

#ifndef GAM_LITMUS_GENERATOR_HH
#define GAM_LITMUS_GENERATOR_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "litmus/test.hh"

namespace gam::litmus
{

/**
 * One edge of a relation cycle (diy notation).  The random generator
 * draws these; explicit specifications spell out named test families
 * (IRIW, WRC+, W+RWC, ...) and the campaign's canonical cycles with
 * them.
 */
struct CycleEdge
{
    enum class Kind : uint8_t
    {
        Rfe,     ///< store read by a load on another thread
        Coe,     ///< coherence between stores on different threads
        Fre,     ///< load overwritten by a store on another thread
        Po,      ///< plain program order
        PoFence, ///< program order through `fence`
        PoAddr,  ///< program order through an address dependency
        PoData,  ///< program order through a data dependency
        PoCtrl,  ///< program order through a control dependency
    };

    Kind kind = Kind::Po;
    /** PoFence edges: which fence sits between the events. */
    isa::FenceKind fence = isa::FenceKind::SS;
    /**
     * Po-family edges: location steps from source to destination
     * event (modulo the cycle's location count; 0 = same location).
     * Communication edges always relate same-location events and
     * ignore this field.
     */
    int locStep = 1;
};

/**
 * The cycle budgets.  A cycle runs one thread per communication edge
 * and needs at least two; the lowering names at most four locations
 * (a..d, address registers r8..r11) and lowers a one-location cycle
 * over two; at most four loads and four stores (an RMW is both) keep
 * rf and coherence enumeration cheap for both engines.  Generated
 * tests and campaign cycles stay within all of them.
 */
inline constexpr int MinCycleThreads = 2;
inline constexpr int MaxCycleThreads = 4;
inline constexpr int MinCycleLocations = 2;
inline constexpr int MaxCycleLocations = 4;
inline constexpr int MaxCycleLoads = 4;
inline constexpr int MaxCycleStores = 4;

/**
 * The cycle lengths in edges (== events): testFromCycle() takes no
 * shorter cycle, and as every event is a load, a store or both, the
 * load and store budgets admit no longer one.  The campaign's
 * enumerateCycles() clamps its length bounds to these, and
 * `gam-litmus campaign run` refuses bounds outside them.
 */
inline constexpr int MinCycleLength = 3;
inline constexpr int MaxCycleLength = MaxCycleLoads + MaxCycleStores;

/**
 * Is @p kind a communication edge (rf, co, fr)?  It relates
 * same-location events on different threads; every other kind is
 * program order on one thread.
 */
constexpr bool
isCommunication(CycleEdge::Kind kind)
{
    return kind <= CycleEdge::Kind::Fre;
}

/**
 * The edge alphabet as one dense code per distinct edge: the Kinds
 * with PoFence split by fence kind.  The order is canonical: the
 * campaign enumerates and names edges in it, and the symmetry
 * quotient takes the lex-least po decoration (V_PO .. V_CTRL) in it.
 */
enum EdgeVariant : int
{
    V_RFE,
    V_COE,
    V_FRE,
    V_PO,
    V_FLL,
    V_FLS,
    V_FSL,
    V_FSS,
    V_ADDR,
    V_DATA,
    V_CTRL,
    EdgeVariants,
};

constexpr bool
isFenceVariant(int variant)
{
    return variant >= V_FLL && variant <= V_FSS;
}

/** The fence a fence variant names. */
constexpr isa::FenceKind
variantFence(int variant)
{
    return static_cast<isa::FenceKind>(variant - V_FLL);
}

constexpr CycleEdge::Kind
variantKind(int variant)
{
    switch (variant) {
      case V_RFE: return CycleEdge::Kind::Rfe;
      case V_COE: return CycleEdge::Kind::Coe;
      case V_FRE: return CycleEdge::Kind::Fre;
      case V_PO: return CycleEdge::Kind::Po;
      case V_ADDR: return CycleEdge::Kind::PoAddr;
      case V_DATA: return CycleEdge::Kind::PoData;
      case V_CTRL: return CycleEdge::Kind::PoCtrl;
      default: return CycleEdge::Kind::PoFence;
    }
}

constexpr int
edgeVariant(const CycleEdge &edge)
{
    switch (edge.kind) {
      case CycleEdge::Kind::Rfe: return V_RFE;
      case CycleEdge::Kind::Coe: return V_COE;
      case CycleEdge::Kind::Fre: return V_FRE;
      case CycleEdge::Kind::Po: return V_PO;
      case CycleEdge::Kind::PoFence:
        return V_FLL + static_cast<int>(edge.fence);
      case CycleEdge::Kind::PoAddr: return V_ADDR;
      case CycleEdge::Kind::PoData: return V_DATA;
      case CycleEdge::Kind::PoCtrl: return V_CTRL;
    }
    return V_PO;
}

/** The edge @p variant spells, stepping @p locStep locations. */
constexpr CycleEdge
variantEdge(int variant, int locStep)
{
    CycleEdge edge;
    edge.kind = variantKind(variant);
    if (isFenceVariant(variant))
        edge.fence = variantFence(variant);
    edge.locStep = locStep;
    return edge;
}

/**
 * The kind of a cycle event: a load, a store, or an atomic RMW when
 * its adjacent edges force it to be both.
 */
enum class CycleEventKind : uint8_t { Load, Store, Rmw };

constexpr bool
readsMemory(CycleEventKind kind)
{
    return kind != CycleEventKind::Store;
}

constexpr bool
writesMemory(CycleEventKind kind)
{
    return kind != CycleEventKind::Load;
}

/** The access an edge requires of one of its events. */
enum class EventNeed : uint8_t { Free, Load, Store };

/** What @p kind requires of its source event: rf and co leave a
 *  store, fr leaves a load, and a dependency flows out of a loaded
 *  value. */
constexpr EventNeed
tailNeed(CycleEdge::Kind kind)
{
    switch (kind) {
      case CycleEdge::Kind::Rfe:
      case CycleEdge::Kind::Coe: return EventNeed::Store;
      case CycleEdge::Kind::Fre:
      case CycleEdge::Kind::PoAddr:
      case CycleEdge::Kind::PoData:
      case CycleEdge::Kind::PoCtrl: return EventNeed::Load;
      default: return EventNeed::Free;
    }
}

/** What @p kind requires of its destination event: rf enters a load,
 *  co and fr a store, and a data dependency flows into store data. */
constexpr EventNeed
headNeed(CycleEdge::Kind kind)
{
    switch (kind) {
      case CycleEdge::Kind::Rfe: return EventNeed::Load;
      case CycleEdge::Kind::Coe:
      case CycleEdge::Kind::Fre:
      case CycleEdge::Kind::PoData: return EventNeed::Store;
      default: return EventNeed::Free;
    }
}

/**
 * The kind of the event whose entering edge needs @p in and whose
 * leaving edge needs @p out: an RMW when one needs a load and the
 * other a store, otherwise the access either needs.  nullopt when
 * neither constrains it: the random generator flips a coin there.
 */
constexpr std::optional<CycleEventKind>
forcedEventKind(EventNeed in, EventNeed out)
{
    if ((in == EventNeed::Load && out == EventNeed::Store)
        || (in == EventNeed::Store && out == EventNeed::Load)) {
        return CycleEventKind::Rmw;
    }
    if (in == EventNeed::Store || out == EventNeed::Store)
        return CycleEventKind::Store;
    if (in == EventNeed::Load || out == EventNeed::Load)
        return CycleEventKind::Load;
    return std::nullopt;
}

/**
 * The kind the deterministic lowering (testFromCycle) gives that
 * event: forcedEventKind(), with an unconstrained event pinned to a
 * load.
 */
constexpr CycleEventKind
cycleEventKind(EventNeed in, EventNeed out)
{
    return forcedEventKind(in, out).value_or(CycleEventKind::Load);
}

/**
 * cycleEventKind() of every event of @p edges, as given: events[i] is
 * the source of edges[i] and the destination of edges[i-1]
 * (cyclically).  The kinds the lowering assigns, before its
 * realisability rotation.
 */
std::vector<CycleEventKind>
cycleEventKinds(const std::vector<CycleEdge> &edges);

/** Can an event of @p kind stand on a fence's @p side?  An RMW fits
 *  either side. */
constexpr bool
fitsFenceSide(isa::MemType side, CycleEventKind kind)
{
    return side == isa::MemType::Load ? readsMemory(kind)
                                      : writesMemory(kind);
}

/**
 * Does @p fence fit between an event of kind @p before and one of kind
 * @p after?  The random generator draws only fitting fences, and the
 * campaign enumerates only those.
 */
constexpr bool
fenceFits(isa::FenceKind fence, CycleEventKind before,
          CycleEventKind after)
{
    return fitsFenceSide(isa::fencePre(fence), before)
        && fitsFenceSide(isa::fencePost(fence), after);
}

/**
 * The location walk of @p edges over @p numLocations locations: event
 * 0 sits at location 0, a communication edge keeps its source's
 * location and a po edge moves it by its locStep.  Fills @p locs
 * (locs[i] is the source of edges[i]) and returns whether the walk
 * closes -- the last edge leads back to event 0's location, as it
 * must in every lowerable cycle.
 */
bool walkCycleLocations(const std::vector<CycleEdge> &edges,
                        int numLocations, std::vector<int> &locs);

/**
 * Deterministically lower an explicit relation cycle to a finalized
 * litmus test over @p numLocations shared locations (2..4).  Follows
 * the random generator's derivation with every free choice pinned --
 * 2..4 communication edges (one thread each) with the cycle rotated to
 * close on one, type conflicts become RMWs, an unconstrained event is
 * a load, at most 4 loads and 4 stores, locations follow the locStep
 * walk, which must close -- and returns nullopt when the
 * specification violates it.  The result
 * passes LitmusTest::check() and carries no expected verdicts (see
 * harness::annotateExpected).
 */
std::optional<LitmusTest>
testFromCycle(const std::string &name,
              const std::vector<CycleEdge> &edges, int numLocations);

/**
 * The named 4-thread-era cycle families, built with testFromCycle():
 * the IRIW family (plain, address-dependent, fenced -- 4 threads), the
 * WRC+ family (dependency-ordered WRC and a 4-thread coherence-writer
 * extension) and W+RWC.  Representative pinned copies with verdicts
 * live under tests/corpus/ (`gam-litmus gen --four-thread`).
 */
const std::vector<LitmusTest> &fourThreadSuite();

/**
 * Deterministically generate the @p index-th test of @p seed's stream:
 * a random 3-6 edge cycle within the cycle budgets, with fences,
 * dependencies and RMWs.  The result is named "gen_<seed>_<index>",
 * finalized, and guaranteed to pass LitmusTest::check().  It carries
 * no expected verdicts; see harness::annotateExpected() for
 * engine-derived ones.
 */
LitmusTest generateTest(uint64_t seed, uint64_t index);

} // namespace gam::litmus

#endif // GAM_LITMUS_GENERATOR_HH
