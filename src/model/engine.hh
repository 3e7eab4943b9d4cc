/**
 * @file
 * Verification engines and their per-model capabilities.
 *
 * The library decides "is this outcome allowed?" with three engines:
 * the axiomatic checker (axiomatic/checker.hh), the operational
 * explorer over the abstract machines (operational/), and the cat
 * model-DSL evaluator (cat/) over the model files.  Which engine
 * can decide which model -- and how faithfully -- is a property of the
 * *model*, so it lives here, next to ModelKind, as the single source
 * of truth.  Frontends (litmus runner, fuzzer, CLI, fence synthesis)
 * must consult supportsEngine() instead of hand-rolling their own
 * switches.
 */

#ifndef GAM_MODEL_ENGINE_HH
#define GAM_MODEL_ENGINE_HH

#include <optional>
#include <string>

#include "model/kind.hh"

namespace gam::model
{

/** The three ways this library can decide a model query. */
enum class Engine {
    /** Enumerate legal executions from the Figure 15 axioms. */
    Axiomatic,
    /** Exhaustively explore an abstract machine's state space. */
    Operational,
    /**
     * Evaluate a cat-DSL model file (src/cat/) over the same
     * candidate executions the axiomatic checker enumerates.  The
     * model is data: the builtin .cat files under models/ by default,
     * or any user-supplied file.  By default the model is *compiled*
     * (cat/compile.hh) into the same incremental filter shape as the
     * hand-coded checker -- stratified constants, fused acyclicity,
     * per-edge guards -- rather than interpreted per candidate; the
     * two modes decide identically (RunOptions::catCompile is the
     * differential-testing escape hatch).
     */
    Cat,
};

/** Engines in registry order. */
constexpr Engine allEngines[] = {Engine::Axiomatic, Engine::Operational,
                                 Engine::Cat};

/** Display name ("axiomatic" / "operational" / "cat"). */
std::string engineName(Engine engine);

/**
 * Inverse of engineName(); nullopt for unrecognised names.  The
 * recoverable lookup used by text frontends (CLI flags).
 */
std::optional<Engine> engineFromName(const std::string &name);

/**
 * Can @p engine decide @p model?
 *
 *  - Axiomatic: every model except Alpha*, which the paper defines
 *    only through its implementation (no axioms to check).
 *  - Operational: every model except PerLocSC, which exists as an
 *    axiomatic reference property only (no abstract machine).
 *  - Cat: the models shipped as cat files (.cat files under models/): SC, TSO,
 *    GAM0 and GAM.  ARM's SALdLdARM constraint compares the stores
 *    two loads read from, which the DSL's primitives do not express,
 *    and Alpha* and PerLocSC ship no file.  (Custom cat files can still
 *    be run against any test through cat::CatEngine directly.)
 */
constexpr bool
supportsEngine(ModelKind model, Engine engine)
{
    switch (engine) {
      case Engine::Axiomatic:
        return model != ModelKind::AlphaStar;
      case Engine::Operational:
        return model != ModelKind::PerLocSC;
      case Engine::Cat:
        return model == ModelKind::SC || model == ModelKind::TSO
            || model == ModelKind::GAM0 || model == ModelKind::GAM;
    }
    return false;
}

/**
 * Does @p engine decide by enumerating (rf, co) candidate executions
 * through the shared incremental pruned search
 * (axiomatic/enumerate.hh)?  True for the axiomatic checker and the
 * cat evaluator -- their Decisions carry meaningful enumeration
 * counters (Decision::enumStats: partial candidates pruned, subtrees
 * skipped, backtrack depth) and their statesVisited counts complete
 * candidates reached.  False for the operational explorer, whose
 * statesVisited counts machine states and whose enumStats stay zero.
 * Frontends use this to decide which rows of a verdict matrix can be
 * aggregated into pruning statistics.
 */
constexpr bool
engineUsesCandidateEnumeration(Engine engine)
{
    return engine == Engine::Axiomatic || engine == Engine::Cat;
}

/**
 * Is the operational engine's outcome set *equal* to the axiomatic
 * definition for @p model, rather than merely included in it?  The
 * paper proves equivalence for GAM (and our SC/TSO/GAM0 machines are
 * exact too), but defines no ARM abstract machine: ours is
 * deliberately conservative, so for ARM the operational set is a
 * subset of the axiomatic one (see operational/gam_machine.hh).
 * Differential checks must compare by inclusion, and only *forbidden*
 * operational verdicts may be recorded as ground truth.
 */
constexpr bool
operationalOutcomesExact(ModelKind model)
{
    return model != ModelKind::ARM;
}

} // namespace gam::model

#endif // GAM_MODEL_ENGINE_HH
