/**
 * @file
 * The cat model engine: deciding litmus tests from a memory model
 * written as data.
 *
 * A CatEngine pairs one litmus test with one parsed CatModel and
 * enumerates the outcomes the model's axioms accept.  Candidate
 * executions come from the enumeration walk the axiomatic checker
 * uses too (axiomatic::CandidateEnumerator, with the model as its one
 * filter lane), so the cat engine and the hand-coded checker see
 * byte-identical candidate streams -- any verdict difference is a
 * difference between the model file and the hand-coded axioms, which
 * is exactly what differential validation wants to measure.
 *
 * The models shipped in .cat files under models/ are also embedded into the
 * library at build time (the registry below), so Engine::Cat works
 * without any runtime file lookup; custom model files are loaded and
 * parsed by the frontends.
 */

#ifndef GAM_CAT_ENGINE_HH
#define GAM_CAT_ENGINE_HH

#include <optional>
#include <string>
#include <vector>

#include <memory>

#include "axiomatic/checker.hh"
#include "cat/parser.hh"
#include "litmus/outcome.hh"
#include "litmus/test.hh"
#include "model/kind.hh"

namespace gam::cat
{

struct CompiledPlan;

/** Cat-model enumeration for one litmus test. */
class CatEngine
{
  public:
    /**
     * How the model's axioms run against the candidate stream.
     *
     * Compiled (the default) runs the model through the static
     * compiler (cat/compile.hh): per-epoch constants, fused
     * incremental axioms, generic evaluation only where the analysis
     * could not specialize.  Interpreted is the pre-compiler pipeline
     * -- the generic Evaluator invoked through checkPartial() -- kept
     * as the differential reference.  Both decide identical outcome
     * sets by construction; cat_compile_test enforces it.
     */
    enum class Mode { Compiled, Interpreted };

    /**
     * @p options carries the shared candidate-builder knobs (OOTA
     * seed values); enforceInstOrder is meaningless here -- the model
     * file is the axioms.  @p test and @p model must outlive the
     * engine.
     */
    CatEngine(const litmus::LitmusTest &test, const CatModel &model,
              axiomatic::Options options = {},
              Mode mode = Mode::Compiled);

    /**
     * All outcomes the model's axioms accept, via the shared
     * incremental pruned search: axioms whose expressions are
     * Independent/Monotone in co and fr (cat::Polarity) veto partial
     * candidates early, the rest fall back to full evaluation at
     * complete leaves.  In Mode::Compiled the veto runs the compiled
     * plan's fused filters instead of generic expression evaluation.
     */
    litmus::OutcomeSet enumerate();

    /** The compiled plan (Mode::Compiled; compiles lazily). */
    const CompiledPlan &plan();

    /**
     * The pre-incremental pipeline: full evaluation of every complete
     * candidate, no pruning.  The reference side of differential
     * tests and the pruning benchmarks; identical outcome set to
     * enumerate() by construction.
     */
    litmus::OutcomeSet enumerateLegacy();

    /**
     * Is the test's asked-about condition reachable?  Seeds
     * undetermined-value candidates from the condition's constants,
     * mirroring axiomatic::Checker::isAllowed().
     */
    bool isAllowed();

    /** Counters of the last enumeration (shared Checker stats). */
    const axiomatic::CheckerStats &stats() const { return _stats; }

  private:
    const litmus::LitmusTest &test;
    const CatModel &model;
    axiomatic::Options options;
    Mode mode;
    /** Compiled on first use; immutable. */
    std::shared_ptr<const CompiledPlan> _plan;
    axiomatic::CheckerStats _stats;
};

/**
 * The models shipped with the library (.cat files under models/, embedded at
 * build time), parsed once, in name order.
 */
const std::vector<const CatModel *> &builtinCatModels();

/**
 * The builtin model named @p name (case-insensitive); nullptr when
 * unknown.  The recoverable lookup used by text frontends.
 */
const CatModel *findBuiltinCatModel(const std::string &name);

/**
 * The builtin cat model expressing @p kind.  Asserts
 * model::supportsEngine(kind, model::Engine::Cat): the registry and
 * the shipped model files must agree.
 */
const CatModel &builtinCatModel(model::ModelKind kind);

/**
 * The ModelKind @p model claims to express, matched by name against
 * the library's models (case-insensitive); nullopt for custom models.
 * Used by differential validation to pick the reference checker.
 */
std::optional<model::ModelKind> catModelKind(const CatModel &model);

} // namespace gam::cat

#endif // GAM_CAT_ENGINE_HH
