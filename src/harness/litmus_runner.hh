/**
 * @file
 * Litmus-test driver: batch verdict matrices over the unified
 * decide(Query) -> Decision API (harness/decision.hh).
 */

#ifndef GAM_HARNESS_LITMUS_RUNNER_HH
#define GAM_HARNESS_LITMUS_RUNNER_HH

#include <optional>
#include <string>
#include <vector>

#include "harness/decision.hh"
#include "litmus/test.hh"
#include "model/engine.hh"
#include "model/kind.hh"

namespace gam::harness
{

/** One (test, model, engine) verdict. */
struct LitmusVerdict
{
    std::string test;
    model::ModelKind model;
    model::Engine engine;
    bool allowed;
    /**
     * False when the operational state budget truncated exploration.
     * An allowed=true verdict is still conclusive (a witness was
     * reached); allowed=false is not, and is rendered as "truncated".
     */
    bool complete = true;
    /** The paper's verdict, when the test records one. */
    std::optional<bool> expected;
    /**
     * The decision's enumeration counters (zero for operational
     * rows); lets frontends aggregate pruning statistics over a
     * matrix (`gam-litmus run --stats`).
     */
    axiomatic::CheckerStats enumStats;
    /**
     * How the static pre-screen short-circuited the decision (None
     * when an engine ran); aggregated into the matrix `--stats`
     * hit-rate.
     */
    PrescreenKind prescreened = PrescreenKind::None;

    /** Is the verdict a definite answer (complete, or a witness)? */
    bool conclusive() const { return complete || allowed; }

    /** True when conclusive and matching, or when no claim is made. */
    bool matchesPaper() const
    {
        return !conclusive() || !expected.has_value()
            || *expected == allowed;
    }
};

/** Configuration of one verdict-matrix run. */
struct MatrixOptions
{
    /**
     * Engine selection per (test, model) job: a specific engine, Auto
     * (registry picks one), or -- the default, nullopt -- every engine
     * that supports the model (axiomatic/operational rows plus a cat
     * row for the models shipped as .cat files).  Unsupported (model,
     * engine) pairs are skipped.
     */
    std::optional<EngineSelect> engine;
    /** Per-query knobs (state budget, prescreen, ...). */
    RunOptions run;
    /** Thread-pool workers deciding tests; 0 = hardware concurrency. */
    unsigned poolThreads = 0;
    /** Decision cache; nullptr disables memoization. */
    DecisionCache *cache = &globalDecisionCache();
};

/**
 * Decide every test in @p tests under every model in @p models
 * (whether or not the test records a paper verdict; recorded verdicts
 * still show up in the expected column).  Each test's rows are one
 * decideBatch() call, and the tests run concurrently on a thread
 * pool, each verdict written to a pre-assigned slot, so the result
 * order is deterministic regardless of scheduling.  A test's
 * axiomatic rows share one walk, and a row the prescreen delegates to
 * SC finds its test's SC decision in the cache (or on that walk's SC
 * lane), with or without SC rows: the pool size does not change the
 * cache and engine work.  (Two equal tests in @p tests are still two
 * tasks, which may both decide one key.)
 */
std::vector<LitmusVerdict>
runLitmusMatrix(const std::vector<litmus::LitmusTest> &tests,
                const std::vector<model::ModelKind> &models,
                const MatrixOptions &options = {});

/**
 * Like the three-argument runLitmusMatrix(), but restricted to the
 * (test, model) pairs with a recorded paper verdict -- the matrix that
 * reproduces the paper's claims.
 */
std::vector<LitmusVerdict>
runPaperMatrix(const std::vector<litmus::LitmusTest> &tests,
               const MatrixOptions &options = {});

/**
 * Stamp expect verdicts onto @p test, derived by asking the axiomatic
 * checker whether the test's condition is reachable under each of
 * @p models, all in one decideBatch() call.  Lets `gam-litmus gen`
 * emit self-checking corpus files: re-running them cross-checks the
 * operational engine against the recorded axiomatic verdicts.  Models
 * without an axiomatic engine (Alpha*) are skipped, and so are
 * axiomatically-*allowed* verdicts of models whose operational
 * outcomes are conservative (ARM; see model::operationalOutcomesExact):
 * only 'forbidden' is sound to record for them.
 */
void annotateExpected(litmus::LitmusTest &test,
                      const std::vector<model::ModelKind> &models);

/** Render the verdict matrix, flagging mismatches with the paper. */
std::string formatLitmusMatrix(const std::vector<LitmusVerdict> &verdicts);

} // namespace gam::harness

#endif // GAM_HARNESS_LITMUS_RUNNER_HH
