/**
 * @file
 * Exhaustive, canonical relaxation-cycle enumeration.
 *
 * The random generator (litmus/generator.hh) draws *one* cycle per
 * seed; a campaign needs the complete, deterministic test universe up
 * to a bounded cycle length instead.  Following the diy7 methodology
 * (Herding Cats, PAPERS.md), this module enumerates every cycle over
 * the generator's edge alphabet (litmus::EdgeVariant) -- the external
 * communication relations rf/co/fr, plain program order, the four
 * basic fences LL/LS/SL/SS, and address/data/control dependencies,
 * with load+store conflicts becoming RMWs -- within the generator's
 * cycle budgets, and canonicalizes each one so isomorphic tests
 * collapse to a single representative *before* lowering.  The event
 * kinds, fence fitting and location walk it prunes and encodes with
 * are the generator's own (litmus/generator.hh), so every cycle it
 * emits follows the lowering's rules edge for edge:
 *
 *  - Thread rotation: a cycle has no distinguished start; of all
 *    rotations ending with a communication edge (the ones the lowering
 *    accepts verbatim), only the lexicographically least encoding is
 *    emitted.
 *  - Address renaming: event locations are restricted-growth labels
 *    (location k first appears only after 0..k-1), so any relabelling
 *    of addresses normalizes to the same encoding.
 *  - Value renaming: the deterministic lowering
 *    (litmus::testFromCycle) assigns store values by per-location
 *    counters, so value names never distinguish two cycles.
 *
 * Enumeration is a lexicographic depth-first search over plain arrays:
 * the emission order is a pure function of EnumerateOptions -- no
 * unordered-container iteration anywhere near it -- which is what
 * makes a campaign's --limit prefixes and its verify sample
 * reproducible across platforms and PRs (enumerateCycles asserts the
 * order it emits is strictly increasing).
 */

#ifndef GAM_CAMPAIGN_ENUMERATE_HH
#define GAM_CAMPAIGN_ENUMERATE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "litmus/generator.hh"

namespace gam::campaign
{

/** The canonical representative of one cycle-isomorphism class. */
struct CanonicalCycle
{
    /**
     * The canonical rotation's edges, ready for
     * litmus::testFromCycle(): the last edge is a communication edge,
     * so the lowering's own realisability rotation is the identity.
     */
    std::vector<litmus::CycleEdge> edges;
    /** Distinct locations the cycle touches, clamped to the 2..4 the
     *  lowering supports (a single-location cycle lowers with 2, the
     *  unused one is never named). */
    int numLocations = 2;
    /** 64-bit digest of the canonical encoding (cycle identity). */
    uint64_t key = 0;
    /**
     * Deterministic diy-style name spelling the canonical encoding:
     * one token per edge (rfe/coe/fre/po/fll/fls/fsl/fss/adr/dat/ctl)
     * suffixed with the head event's location label, e.g.
     * "camp_rfea_pob_freb_rfeb_poa_frea" for IRIW.  Unique per
     * canonical cycle.
     */
    std::string name;
    /**
     * litmus::fingerprint of the test testFromCycle(name, edges,
     * numLocations) lowers to.  Set only by enumerateCycles(), which
     * lowers every emitted cycle once to check it is realisable;
     * 0 on a cycle canonicalCycle() or canonicalCycleFull() built.
     * Distinct cycles can share it (a degenerate dependency edge can
     * lower to the same program), which is what the campaign dedupes.
     */
    uint64_t testFingerprint = 0;
};

/**
 * Which canonical form the enumeration quotients by.
 *
 *   Rotation  the PR 8 form: least communication-ending rotation
 *             under restricted-growth location labels.  One
 *             representative per cycle-level isomorphism class.
 *   Full      Rotation plus the verdict-preserving moves of
 *             campaign/symmetry.hh: per-thread decoration
 *             equivalence (equal ppo closures under the shipped pair
 *             semantics) and critical-core contraction.  One
 *             representative per class of tests no shipped model can
 *             tell apart; shrinks the length-<=6 universe ~4.3x.
 */
enum class CanonicalForm : uint8_t { Rotation, Full };

/**
 * Bounds of one exhaustive enumeration.  Threads, locations, loads and
 * stores are always bounded by the generator's cycle budgets, and a
 * fence edge only takes the kinds that fit the events beside it
 * (litmus::fenceFits), as the random generator draws them.
 */
struct EnumerateOptions
{
    /** Cycle length in edges (== events), clamped to
     *  litmus::MinCycleLength..MaxCycleLength. */
    int minLen = 3;
    int maxLen = 6;
    /** Include fence-decorated program-order edges. */
    bool fences = true;
    /** Include dependency-decorated program-order edges. */
    bool deps = true;
    /** Allow load+store type conflicts (lowered as AMOSWAP RMWs). */
    bool rmws = true;

    /** Which symmetry quotient the emitted universe represents. */
    CanonicalForm canonical = CanonicalForm::Rotation;
};

/** Counters of one enumerateCycles() sweep. */
struct EnumerateStats
{
    /** Canonical cycles emitted to the sink. */
    uint64_t emitted = 0;
    /** Complete cycles discarded as non-minimal rotations. */
    uint64_t rotationDuplicates = 0;
    /** Class representatives litmus::testFromCycle() rejected.  The
     *  search already keeps every cycle budget, so this counts only
     *  lowered programs LitmusTest::check() refuses: 0 in every
     *  universe the tests pin.  Only the cycles the symmetry check
     *  keeps are lowered, so emitted + unrealisable is the number of
     *  lowerings one sweep does. */
    uint64_t unrealisable = 0;
    /** CanonicalForm::Full only: rotation-canonical cycles rejected as
     *  non-canonical members of their verdict-equivalence class (see
     *  campaign/symmetry.hh for the split).  They are never lowered,
     *  so this counts realisable and unrealisable ones alike. */
    uint64_t symmetryDuplicates = 0;
};

/**
 * Enumerate every canonical cycle admitted by @p options, in a fixed
 * deterministic order (length-major, then lexicographic by canonical
 * encoding), invoking @p sink for each.  Each class representative is
 * lowered once; one whose lowering the generator rejects is skipped
 * and counted instead of emitted, so every emitted cycle is
 * guaranteed to lower -- testFromCycle(name, edges, numLocations) has
 * a value -- and carries that test's fingerprint in testFingerprint.
 *
 * Return @c false from @p sink to stop early (the stats then cover the
 * prefix enumerated so far).
 */
EnumerateStats
enumerateCycles(const EnumerateOptions &options,
                const std::function<bool(const CanonicalCycle &)> &sink);

/**
 * The canonicalization hook: normalize an arbitrary cycle spec (as
 * litmus::testFromCycle takes it) to its class representative.  Two
 * isomorphic specs -- rotations of one another, or relabellings of the
 * same location walk -- canonicalize to byte-identical results.
 * Returns nullopt when the spec is not a closed cycle the lowering
 * could accept (no communication edge, an open location walk, or a
 * location outside the 4 the lowering names).  Realisability budgets
 * (loads, stores, threads) are *not* checked here; testFromCycle
 * still has the last word.
 */
std::optional<CanonicalCycle>
canonicalCycle(const std::vector<litmus::CycleEdge> &edges,
               int numLocations);

} // namespace gam::campaign

#endif // GAM_CAMPAIGN_ENUMERATE_HH
