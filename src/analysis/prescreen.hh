/**
 * @file
 * Sound static pre-screening of litmus queries: verdict bounds computed
 * from the test's static skeleton, with no candidate enumeration and no
 * machine exploration.
 *
 * Two analyses, both *sound* (they only claim what holds in every
 * execution any engine can produce) but incomplete (Unknown is always a
 * legal answer):
 *
 *  - **Value cover** (model-independent): a bounded-set abstract
 *    interpretation of the mini-ISA over the exact isa/semantics.hh
 *    operations.  Per-address universes of storable values are iterated
 *    to a fixpoint across threads; loads draw from the universe of
 *    every address they may access.  If a required final register or
 *    memory value lies outside its (non-saturated) abstract set, no
 *    execution can satisfy the condition: the behavior is *forbidden*
 *    under every model and engine.
 *
 *  - **No relaxed edge** (TSO / GAM0 / GAM): if every program-order
 *    adjacent pair of memory accesses is provably preserved program
 *    order under the model -- fences between them, syntactic
 *    dependencies, same-address ordering rules -- then po restricted to
 *    memory events is contained in ppo+, so the model's axiom
 *    `acyclic(ppo | co | (rf \ po) | fr)` coincides with SC's and the
 *    *entire outcome set* equals the SC outcome set.  decide() then
 *    answers the query by deciding the (much cheaper, and much more
 *    cache-friendly) SC query instead.  Threads containing branches
 *    contribute soundly only when they perform at most one memory
 *    access.
 *
 * What the pre-screen may decide: ValueCover may only assert
 * *forbidden* (it bounds the value space, it enumerates no outcomes);
 * ScDelegate yields the full exact SC outcome set.  What it may not
 * decide: anything about a user-supplied .cat model, or about runs with
 * the InstOrder axiom ablated -- harness::decide() gates it off for
 * those -- and anything about PerLocSC, for which screen() always
 * answers Unknown.  The value cover assumes out-of-thin-air candidates
 * are rejected, which holds only under the shipped models whose
 * ordering axiom spans locations, with that axiom intact; PerLocSC's
 * per-location axiom admits them (oota is allowed under it).
 */

#ifndef GAM_ANALYSIS_PRESCREEN_HH
#define GAM_ANALYSIS_PRESCREEN_HH

#include <memory>
#include <string>

#include "litmus/test.hh"
#include "model/kind.hh"

namespace gam::analysis
{

/** What a pre-screen concluded about a query. */
enum class PrescreenVerdict {
    /** No sound shortcut applies; run an engine. */
    Unknown,
    /**
     * The test condition requires a value no execution can produce:
     * forbidden under every model, with an empty witness set.
     */
    Forbidden,
    /**
     * Every po-adjacent memory pair is preserved program order under
     * the queried model: its outcome set equals SC's exactly.
     */
    ScEquivalent,
};

/** The result of prescreen(): a verdict and a short justification. */
struct PrescreenResult
{
    PrescreenVerdict verdict = PrescreenVerdict::Unknown;
    /** One-line human-readable justification of a non-Unknown verdict. */
    std::string detail;
};

/**
 * The model-independent half of prescreen(), computed once per test
 * and reusable across models: the abstract value-cover fixpoint and
 * its Forbidden verdict.  screen(model) then only runs the (cheap)
 * per-model preserved-program-order walk.  The batched decide
 * pipeline keys one of these per test, turning N prescreen() fixpoint
 * runs into one.  The fixpoint's register files are dropped once the
 * verdict is known; what stays is what screen() reads, each reachable
 * memory access with its address when the fixpoint pins it to one
 * value.  Holds a reference to @p test: must not outlive it.
 */
class PrescreenAnalysis
{
  public:
    explicit PrescreenAnalysis(const litmus::LitmusTest &test);
    ~PrescreenAnalysis();

    PrescreenAnalysis(const PrescreenAnalysis &) = delete;
    PrescreenAnalysis &operator=(const PrescreenAnalysis &) = delete;

    /** Exactly prescreen(test, model), with the fixpoint amortized. */
    PrescreenResult screen(model::ModelKind model) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/**
 * Statically pre-screen @p test under @p model.  Sound for every
 * engine deciding the builtin @p model with the InstOrder axiom
 * enforced; the caller is responsible for that gate (decide() applies
 * it).  Never enumerates candidates, and no abstract operation
 * allocates; cost is linear-ish in program size.
 */
PrescreenResult prescreen(const litmus::LitmusTest &test,
                          model::ModelKind model);

} // namespace gam::analysis

#endif // GAM_ANALYSIS_PRESCREEN_HH
