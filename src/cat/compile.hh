/**
 * @file
 * The static model compiler: from a checked cat model to an
 * incremental filter that matches the hand-written axioms.
 *
 * compileCatModel() analyzes a CatModel once and produces an immutable
 * CompiledPlan:
 *
 *  1. *Stratification.*  Live definitions (those an axiom transitively
 *     depends on) are split into dependency SCCs with a topological
 *     evaluation order.  A `let rec` group is refined by Tarjan's
 *     algorithm: members that never actually recurse evaluate directly
 *     (no fixpoint), real cycles iterate a least fixpoint confined to
 *     their own SCC.
 *
 *  2. *Per-node polarity.*  Every subexpression is classified by its
 *     co/fr dependence (exprPolarity() under SCC-refined slot
 *     polarities, sharper than the parser's group-coarse taint): only
 *     co and fr change between the coherence candidates of one
 *     read-from epoch, so anything Independent is a *constant* of the
 *     epoch.
 *
 *  3. *Constant folding.*  Maximal Independent subtrees inside
 *     co/fr-dependent definitions and axioms become fold slots,
 *     evaluated once per rf epoch and shared across every coherence
 *     candidate of the epoch (cat::FoldMap consulted by the shared
 *     evalCatExpr() core).
 *
 *  4. *Axiom fusion.*  Each axiom becomes one of five passes:
 *       Stable        co/fr-Independent: decided once per epoch.
 *       FusedAcyclic  acyclic over (constants | co | fr): maintained
 *                     as one incrementally-closed reachability
 *                     relation via cat::Rel::addClosedEdge -- the
 *                     same call the hand-written BuiltinAxiomFilter
 *                     makes.
 *       EdgeGuard     irreflexive (A; B) rewritten to
 *                     empty (A & B^-1): each new co/fr edge is checked
 *                     against the transposed other operand in O(1).
 *       Partial       Monotone but not fusible: partial evaluation on
 *                     the view (sound pruning), exact at leaves.
 *       Residual      NonMonotone: decided at complete leaves only.
 *
 * makeCompiledFilter() emits the plan as an
 * axiomatic::IncrementalFilter with fixed relation slots.  When every
 * axiom fuses (all shipped models do), the filter never rebuilds an
 * ExecView after beginRf(): pushStore() is pure bitset work and
 * accept() is O(1), which is what closes the interpreter gap to the
 * hand-coded checker.
 *
 * The plan is shared: one compile per model, one filter per
 * enumeration walk (filters own all mutable state, the plan is const).
 * CompiledPlan::describe() renders the whole analysis for
 * `gam-litmus model show --plan`.
 */

#ifndef GAM_CAT_COMPILE_HH
#define GAM_CAT_COMPILE_HH

#include <memory>
#include <string>
#include <vector>

#include "axiomatic/enumerate.hh"
#include "cat/eval.hh"
#include "cat/parser.hh"

namespace gam::cat
{

/** One evaluation step of the stratified definition order. */
struct Stratum
{
    /** The bindings of one dependency SCC, in definition order. */
    std::vector<const Binding *> bindings;
    /**
     * True for a real recursive SCC (least fixpoint from the empty
     * relation); false for a lone non-self-referencing binding, which
     * evaluates in one pass even when declared under `let rec`.
     */
    bool fixpoint = false;
    /** SCC-refined co/fr dependence (max over members). */
    Polarity polarity = Polarity::Independent;
};

/** One axiom lowered to its incremental evaluation strategy. */
struct CompiledAxiom
{
    enum class Pass {
        Stable,       ///< Independent: one verdict per rf epoch
        FusedAcyclic, ///< closed reachability over consts | co | fr
        EdgeGuard,    ///< empty (A & B^-1): per-edge O(1) checks
        Partial,      ///< Monotone fallback: partial eval on views
        Residual,     ///< NonMonotone: complete leaves only
    };

    /** Operand of an EdgeGuard: a per-epoch constant, or bare co/fr. */
    struct Operand
    {
        enum class Kind { Const, Co, Fr };
        Kind kind = Kind::Const;
        const Expr *expr = nullptr; ///< Const only
    };

    const Stmt *stmt = nullptr;
    Pass pass = Pass::Residual;
    /** Refined co/fr dependence of the checked expression. */
    Polarity polarity = Polarity::NonMonotone;

    // FusedAcyclic: the union, partitioned.
    std::vector<const Expr *> constParts;
    bool usesCo = false;
    bool usesFr = false;

    // EdgeGuard: fails iff exists (x, y) with X(x, y) and Y(y, x)
    // (or Y(x, y) when the guard came from a plain intersection).
    Operand guardX, guardY;
    bool guardYTransposed = false;
};

/** The immutable result of compiling one model. */
struct CompiledPlan
{
    const CatModel *model = nullptr;

    /** Live definitions in dependency-topological evaluation order. */
    std::vector<Stratum> strata;
    /** SCC-refined co/fr dependence per binding slot. */
    std::vector<Polarity> slotPolarity;
    /** Is the binding slot (transitively) reachable from an axiom? */
    std::vector<bool> slotLive;

    /**
     * Folded constant subtrees: fold k lives in unified slot
     * model->slotCount + k.  folds maps each subtree to its slot for
     * evalCatExpr().
     */
    std::vector<const Expr *> foldExprs;
    FoldMap folds;
    /** model->slotCount + foldExprs.size(). */
    int totalSlots = 0;

    std::vector<CompiledAxiom> axioms;
    /**
     * Every axiom is Stable, FusedAcyclic or EdgeGuard: after
     * beginRf() the filter never touches an ExecView again --
     * pushStore() is pure bitset maintenance and accept() is O(1).
     */
    bool fullyIncremental = false;

    /**
     * Human-readable plan: strata, polarity classification, constant
     * slots and fused axiom passes (`gam-litmus model show --plan`).
     */
    std::string describe() const;
};

/**
 * Compile @p model (which must outlive the plan).  Every call counts
 * one cat.compiles and traces a cat.compile span.
 */
std::shared_ptr<const CompiledPlan>
compileCatModel(const CatModel &model);

/**
 * An incremental filter executing @p plan; one per enumeration walk
 * (the filter owns all mutable state, the plan is shared and const).
 */
std::unique_ptr<axiomatic::IncrementalFilter>
makeCompiledFilter(std::shared_ptr<const CompiledPlan> plan);

/** Render @p e as cat source (parenthesized; plan dumps and lint). */
std::string exprToString(const Expr &e);

} // namespace gam::cat

#endif // GAM_CAT_COMPILE_HH
