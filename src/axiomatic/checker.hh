/**
 * @file
 * Axiomatic checker for GAM-family models (paper Section IV-A), SC,
 * TSO and the per-location-SC reference model.
 *
 * A program behavior <po, mo, rf> is legal when it satisfies the two
 * axioms of Figure 15:
 *
 *   InstOrder: I1 <ppo I2  =>  I1 <mo I2
 *   LoadValue: St[a]v -rf-> Ld[a]  =>  St[a]v =
 *       max_mo { St[a]v' | St[a]v' <mo Ld[a]  \/  St[a]v' <po Ld[a] }
 *
 * Instead of enumerating total memory orders (factorial), the checker
 * enumerates read-from maps and per-address coherence orders, derives
 * the ordering constraints the axioms impose, and accepts a candidate
 * iff the constraint graph is acyclic (any topological order is then a
 * witness mo; conversely every legal mo linearises the constraints), an
 * exact and standard reduction.
 *
 * Candidate production and search live in the shared enumeration core
 * (axiomatic/enumerate.hh); this file contributes the hand-coded
 * Figure-15 axioms in two forms:
 *
 *  - an IncrementalFilter that maintains the constraint closure online
 *    (one bitset reachability relation, extended edge by edge) so the
 *    pruned search can reject a partial candidate the moment a
 *    constraint cycle closes -- the default enumerate() path;
 *
 *  - the original enumerate-then-check pipeline, kept verbatim as
 *    enumerateLegacy() so differential tests and the pruning
 *    benchmarks can compare the two.
 *
 * Load values are computed from rf by a cross-thread fixpoint, so
 * dependencies through registers *and* memory (Figure 13c) resolve
 * naturally.  Candidates whose values stay undetermined encode
 * out-of-thin-air cycles; they are provably mo-cyclic under every model
 * here (all include full syntactic data dependencies in ppo), and can
 * optionally be value-seeded to demonstrate the rejection explicitly.
 */

#ifndef GAM_AXIOMATIC_CHECKER_HH
#define GAM_AXIOMATIC_CHECKER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "axiomatic/enumerate.hh"
#include "base/hashing.hh"
#include "litmus/outcome.hh"
#include "litmus/test.hh"
#include "model/kind.hh"
#include "model/ppo.hh"
#include "model/trace.hh"

namespace gam::axiomatic
{

/**
 * What one model's preservedProgramOrder() reads of one thread: the
 * thread's CandidateTables::shapeKey, or its rfShapeKey under ARM
 * (only SALdLdARM reads read-from sources), paired with the model.
 */
struct PpoKey
{
    uint64_t shape = 0;
    model::ModelKind model = model::ModelKind::SC;

    bool operator==(const PpoKey &) const = default;
};

struct PpoKeyHash
{
    size_t
    operator()(const PpoKey &k) const
    {
        return size_t(hashCombine(k.shape, uint64_t(k.model)));
    }
};

/**
 * Memoized model::preservedProgramOrder() results, materialized as
 * their edge lists over trace indices (the only form the built-in
 * filter consumes), keyed by exactly what each model's ppo reads
 * (PpoKey).  Across the rf candidates of one enumeration, and across
 * the tests of one campaign chunk, the same few thread shapes recur
 * thousands of times; recomputing their transitive closures would
 * dominate the filter's beginRf().  The fused walk computes each
 * candidate's keys once for all lanes (CandidateEnumerator::runMulti),
 * so only its lanes may use a cache.  Owned by the caller -- the
 * batched decide pipeline keeps one per batch -- single-threaded, and
 * unbounded: bounded in practice by the distinct shapes of the batch.
 * Every key ever looked up stays, so shapes.size() is also the number
 * of ppo computations.
 */
struct PpoCache
{
    std::unordered_map<PpoKey, std::vector<std::pair<size_t, size_t>>,
                       PpoKeyHash>
        shapes;
    /** Lookups served or computed (plain counter: single-threaded). */
    uint64_t lookups = 0;
};

/** Axiomatic enumeration for one litmus test under one model. */
class Checker
{
  public:
    Checker(const litmus::LitmusTest &test, model::ModelKind model,
            Options options = {});

    /**
     * All outcomes the axioms accept, via the incremental pruned
     * search (the hand-coded axioms as an IncrementalFilter).
     */
    litmus::OutcomeSet enumerate();

    /**
     * Enumerate with @p accept deciding candidate legality instead of
     * the built-in InstOrder/LoadValue/atomicity axioms.  Everything
     * else -- value-consistent read-from maps, per-address coherence
     * permutations, outcome recording -- is shared with enumerate(),
     * which is what makes engines layered on this (src/cat/) directly
     * comparable with the hand-coded checker.  A thin compatibility
     * wrapper over the enumeration core: @p accept sees the full
     * unpruned candidate stream, serially.  The `model` passed to the
     * constructor is ignored on this path: the filter embodies the
     * model.
     */
    litmus::OutcomeSet enumerateFiltered(const CandidateFilter &accept);

    /**
     * enumerate(), but over a caller-owned enumerator instead of a
     * fresh one.  The batched decide pipeline (harness::decideBatch)
     * builds one CandidateEnumerator per test and drives it once per
     * model, amortizing the CandidateBuilder arena -- static rf
     * feasibility, load/store site tables -- across every model in
     * the batch.  @p enumerator must have been constructed from this
     * checker's test with equivalent Options; each call resets the
     * enumerator's stats, so stats() reflects this run only.
     */
    litmus::OutcomeSet enumerateOn(CandidateEnumerator &enumerator);

    /**
     * Drive the incremental pruned search with a custom filter (one
     * per worker from @p factory); the engine entry point for models
     * that can judge partial candidates (cat::CatEngine).  The
     * constructor's `model` is ignored: the filter embodies the model.
     */
    litmus::OutcomeSet enumerateIncremental(const FilterFactory &factory);

    /**
     * The pre-incremental pipeline, unchanged: materialize every
     * complete (rf, co) candidate, then test the built-in axioms by
     * building the whole constraint graph and checking acyclicity.
     * Exists solely as the reference side of differential tests and
     * the pruning benchmarks.
     */
    litmus::OutcomeSet enumerateLegacy();

    /** enumerateLegacy() with @p accept instead of the built-ins. */
    litmus::OutcomeSet
    enumerateFilteredLegacy(const CandidateFilter &accept);

    /**
     * Is the test's asked-about condition reachable?  Seeds
     * undetermined-value candidates with the condition's constants so
     * OOTA-style queries are decided by the axioms, not by omission.
     */
    bool isAllowed();

    const CheckerStats &stats() const { return _stats; }

  private:
    /** Shared legacy enumeration loop; @p accept null = built-ins. */
    litmus::OutcomeSet enumerateLegacyImpl(const CandidateFilter *accept);

    /**
     * Check one (rf, co) candidate family -- built-in axioms or
     * @p accept -- and record accepted outcomes (legacy path).
     */
    void checkCandidate(const CandidateBuilder &builder,
                        const std::vector<CandidateBuilder::ThreadExec> &exec,
                        litmus::OutcomeSet &outcomes,
                        const CandidateFilter *accept, uint64_t rfEpoch);

    const litmus::LitmusTest &test;
    model::ModelKind model;
    Options options;
    CheckerStats _stats;
};

/**
 * Decide several models of one test over ONE shared enumeration pass
 * (CandidateEnumerator::runMulti): the rf-candidate stream, the value
 * fixpoint and the coherence walk are model-independent, so N models
 * cost one walk plus N built-in filters instead of N walks.  Verdicts
 * and outcome sets are exactly what N Checker::enumerate() calls
 * would produce; @p stats, when given, receives each model's
 * solo-equivalent counters.  @p ppoShapes, when given, memoizes
 * preservedProgramOrder() across the pass (and across passes sharing
 * the cache -- the batched decide pipeline keeps one per batch),
 * looked up by the thread shape keys the walk computes once per rf
 * candidate for all lanes.  The pass is serial:
 * Options::searchThreads is ignored.
 */
std::vector<litmus::OutcomeSet>
enumerateModels(CandidateEnumerator &enumerator,
                const std::vector<model::ModelKind> &models,
                bool enforceInstOrder,
                std::vector<CheckerStats> *stats = nullptr,
                PpoCache *ppoShapes = nullptr);

} // namespace gam::axiomatic

#endif // GAM_AXIOMATIC_CHECKER_HH
