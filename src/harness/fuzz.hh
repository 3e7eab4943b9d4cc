/**
 * @file
 * Differential fuzzing of the paper's equivalence theorem.
 *
 * The fuzzer pushes streams of generated litmus tests (see
 * litmus/generator.hh) through both verification engines and
 * cross-checks their outcome sets: under SC, TSO, GAM0 and GAM the
 * operational explorer and the axiomatic checker must enumerate
 * exactly the same set; under ARM the operational machine is
 * deliberately conservative (see the note in operational/
 * gam_machine.hh), so the property is outcome-set inclusion instead of
 * equality.  Any divergence is shrunk to a minimal reproducer (threads
 * and instructions removed while the divergence persists) and pretty
 * printed in the litmus text format, ready to be pinned as a corpus
 * regression.
 *
 * Tests are checked concurrently on the shared ThreadPool with one
 * result slot per test, so reports are deterministic for a given
 * (seed, tests, models) triple regardless of scheduling.
 */

#ifndef GAM_HARNESS_FUZZ_HH
#define GAM_HARNESS_FUZZ_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/decision.hh"
#include "litmus/test.hh"
#include "model/engine.hh"
#include "model/kind.hh"

namespace gam::harness
{

/** Fuzzing-run configuration. */
struct FuzzOptions
{
    /** Number of generated tests to cross-check. */
    uint64_t tests = 1000;
    /**
     * Generator stream seed; test i is litmus::generateTest(seed, i),
     * a random cycle within the generator's budgets (2-4 threads, 3-6
     * edges, fences, dependencies and RMWs).
     */
    uint64_t seed = 1;
    /** Worker count; 0 means hardware concurrency. */
    unsigned threads = 0;
    /**
     * Explorer visited-state budget per (test, model).  A pair that
     * exceeds it is counted in FuzzReport::skippedBudget rather than
     * compared (the axiomatic side has no budget).  Sized so the
     * 4-thread cycles the generator now emits still explore to
     * completion.
     */
    uint64_t maxStates = 8'000'000;
    /** Models to cross-check (must have both engines; ARM: inclusion). */
    std::vector<model::ModelKind> models = {
        model::ModelKind::SC, model::ModelKind::TSO,
        model::ModelKind::GAM0, model::ModelKind::GAM,
        model::ModelKind::ARM,
    };
    /** Minimise divergent tests before reporting. */
    bool shrink = true;
    /**
     * The specification-side engine the operational explorer is
     * cross-checked against: the axiomatic checker (default) or the
     * cat engine over the builtin model files.  (model, engine)
     * pairs the spec engine cannot decide are skipped, so the cat
     * spec checks SC/TSO/GAM0/GAM and skips ARM.
     */
    model::Engine spec = model::Engine::Axiomatic;
};

/** One operational/axiomatic disagreement, minimised. */
struct FuzzDivergence
{
    uint64_t seed = 0;
    uint64_t index = 0;
    model::ModelKind model = model::ModelKind::GAM;
    /** The (shrunk) reproducer. */
    litmus::LitmusTest test;
    /** Outcome-set difference, one outcome per line. */
    std::string detail;
};

/** Aggregate result of one fuzzing run. */
struct FuzzReport
{
    uint64_t testsRun = 0;
    uint64_t checksRun = 0;
    uint64_t skippedBudget = 0;
    /** The spec engine the run compared the explorer against. */
    model::Engine spec = model::Engine::Axiomatic;
    /**
     * Aggregated enumeration counters of every spec-side decision
     * (cache hits replay the producing run's counters): how much
     * candidate space the incremental pruning saved the campaign.
     */
    axiomatic::CheckerStats specEnumStats;
    std::vector<FuzzDivergence> divergences;

    bool ok() const { return divergences.empty(); }

    /** Human-readable summary plus a reproducer per divergence. */
    std::string toString() const;
};

/**
 * Cross-check the operational explorer against @p spec (the axiomatic
 * checker or the cat engine) on one test under one model: nullopt when
 * the engines agree, otherwise a rendering of the outcome-set
 * difference.  Sets @p budget_exceeded (when given) instead of
 * comparing if exhaustive exploration did not fit in @p max_states.
 * Both the operational engine and @p spec must support @p model
 * (model::supportsEngine); whether the comparison is equality or
 * inclusion comes from model::operationalOutcomesExact().  The test
 * must have passed LitmusTest::check().  Outcome sets are obtained
 * through decide(), so repeated checks of the same test (shrinking,
 * re-rendering a divergence) hit the global DecisionCache -- and a
 * check whose budget is too small may still succeed when a complete
 * decision is already cached (cache keys ignore the budget).  When
 * @p spec_stats is given, the spec decision's enumeration counters
 * are merged into it.
 */
std::optional<std::string>
crossCheck(const litmus::LitmusTest &test, model::ModelKind model,
           uint64_t max_states, bool *budget_exceeded = nullptr,
           model::Engine spec = model::Engine::Axiomatic,
           axiomatic::CheckerStats *spec_stats = nullptr);

/** Run a differential fuzzing campaign. */
FuzzReport fuzzDifferential(const FuzzOptions &options = {});

} // namespace gam::harness

#endif // GAM_HARNESS_FUZZ_HH
