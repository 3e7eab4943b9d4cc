/**
 * @file
 * Symmetry reduction beyond rotation: the CanonicalForm::Full quotient.
 *
 * The rotation canonical form (campaign/enumerate.hh) already
 * identifies every cycle-level isomorph: all communication-ending
 * rotations are compared under restricted-growth location relabelling,
 * which subsumes cyclic thread permutation and location renaming.
 * Measured on the length-<=6 universe, the residual test-level
 * isomorphism quotient (thread permutation x location permutation x
 * per-location value renumbering over the lowered programs) collapses
 * less than 0.5% further -- the bloat is not in naming.
 *
 * Where the universe *is* redundant is in decorations: many fence/dep
 * choices on the same cycle skeleton induce exactly the same preserved
 * program order, so their tests cannot be told apart by any shipped
 * model.  CanonicalForm::Full quotients by two verdict-preserving
 * moves:
 *
 *   decoration equivalence
 *       Two decoration assignments to one thread are equivalent when
 *       they induce equal transitively-closed intra-thread ordering
 *       relations under both pair semantics used by the shipped
 *       models: the Definition 6 cases of the GAM family (RegRAW,
 *       BrSt, AddrSt, SAStLd, FenceOrd over the static SAMemSt base)
 *       and TSO's fence-over-relaxed-po.  SC orders everything and
 *       GAM/ARM/PerLocSC only add decoration-independent relations on
 *       top of the GAM0 base, so equal closures imply equal ppo -- and
 *       hence equal verdicts -- for every ModelKind and the shipped
 *       .cat models.  The canonical member is the lexicographically
 *       least assignment (in litmus::EdgeVariant order) achieving the
 *       thread's signature.  Example: between two loads, `addr` and
 *       `fll` collapse (the fence is lex-least and survives), and a
 *       bare `ctrl` (no later store to order) collapses with plain
 *       po.
 *
 *   critical-core contraction
 *       An interior load with plain po on both sides whose location
 *       is stored to nowhere in the cycle reads the initial value
 *       vacuously: it has no rf/co/fr edges and every fence or
 *       dependency bridge through it also runs through the bridging
 *       construct's own adjacent access.  Dropping it is the
 *       Shasha-Snir critical-cycle contraction; the representative
 *       lives in the shorter universe.
 *
 * Parity caveat, measured: the moves preserve what the models can
 * *order*, and the lowered witness conditions additionally pick one
 * concrete coherence completion -- the final-memory values orient
 * same-location store pairs that have no coe edge by walk order.
 * That orientation is a per-representative choice, not a class
 * property: it already differs between comm-ending rotations of one
 * and the same cycle in the seed's Rotation quotient (two rotations
 * of camp_data_fssb_coeb_data_rfea decide differently under
 * PerLocSC).  Full inherits exactly that and no more: at length <= 5,
 * 52 of 9,628 reduced members flip a verdict against their
 * representative, and for every one of them the verdict *sets* over
 * all comm-ending rotations of member and representative are equal
 * (zero at length <= 4; the symmetry test suite pins both).
 *
 * Reflection (reversing the walk) is deliberately NOT a quotient
 * move: reversing an edge list while staying inside the rf/co/fr
 * vocabulary describes a different test with different verdicts
 * (reversing LB's [po,rfe,po,rfe] yields SB's [po,fre,po,fre]; TSO
 * forbids LB and allows SB), and the true walk reversal needs inverse
 * relations the vocabulary cannot spell.  Only palindromic cycles
 * reflect onto themselves, and those are already rotation-identified.
 */

#ifndef GAM_CAMPAIGN_SYMMETRY_HH
#define GAM_CAMPAIGN_SYMMETRY_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "campaign/enumerate.hh"
#include "litmus/generator.hh"

namespace gam::campaign
{

/** Counters of one Full-canonicality sweep. */
struct SymmetryStats
{
    /** Cycles rejected because a thread's decoration assignment is
     *  not the lex-least member of its ppo-signature class. */
    uint64_t decorationDuplicates = 0;
    /** Cycles rejected because an interior plain-po load at a
     *  store-free location contracts away (the representative lives
     *  at a shorter length). */
    uint64_t contractible = 0;
};

/**
 * Per-thread ordering signature: the transitively closed event-pair
 * relations (bit i*8+j = event i ordered before event j) the thread's
 * decorations induce under the GAM-family and TSO pair semantics.
 * Exposed for the symmetry test suite.
 */
struct ThreadOrderSignature
{
    uint64_t gamFamily = 0;
    uint64_t tso = 0;

    bool operator==(const ThreadOrderSignature &) const = default;
};

/**
 * Signature of one thread of a cycle.  @p kinds / @p locs are the
 * thread's event kinds and (cycle-global) location labels in program
 * order; @p decorations the litmus::EdgeVariant code of each po-family
 * edge between consecutive events (V_PO, the fences V_FLL .. V_FSS,
 * V_ADDR, V_DATA, V_CTRL).
 */
ThreadOrderSignature
threadOrderSignature(const std::vector<litmus::CycleEventKind> &kinds,
                     const std::vector<int> &locs,
                     const std::vector<int> &decorations);

/**
 * Is @p edges the canonical member of its Full-equivalence class?
 * Assumes the spec is already rotation-canonical (as emitted by
 * enumerateCycles or returned by canonicalCycle).  The decoration
 * alphabet is the enumeration's: fences only where they fit their
 * events (litmus::fenceFits), and @p options.fences / options.deps
 * honoured so restricted universes stay closed under the quotient.
 * @p stats, when given, counts which rule rejected the cycle.
 */
bool isFullCanonical(const std::vector<litmus::CycleEdge> &edges,
                     int numLocations, const EnumerateOptions &options,
                     SymmetryStats *stats = nullptr);

/**
 * Normalize an arbitrary cycle spec to its Full-class representative:
 * rotation canonicalization, then the contraction fixpoint and
 * per-thread lex-least redecorations until stable.  Isomorphic specs
 * and verdict-equivalent decorations map to byte-identical results.
 * The redecoration alphabet is the default universe's (fences, deps,
 * fences only where they fit their events), so in-universe specs map
 * to in-universe representatives; a spec using a fence that does not
 * fit normalizes within its class but may keep that fence.  Returns nullopt
 * exactly when canonicalCycle() does (open walk, no communication
 * edge, bad location count).
 */
std::optional<CanonicalCycle>
canonicalCycleFull(const std::vector<litmus::CycleEdge> &edges,
                   int numLocations);

} // namespace gam::campaign

#endif // GAM_CAMPAIGN_SYMMETRY_HH
