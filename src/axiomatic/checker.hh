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
 * dominate the filter's beginRf().  The walk computes each
 * candidate's keys once for all lanes (CandidateEnumerator::run).
 * Owned by the caller -- the batched decide pipeline keeps one per
 * batch; Checker::enumerate() uses none -- single-threaded, and
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
     * search: a walk with one lane, the hand-coded axioms as an
     * IncrementalFilter.
     */
    litmus::OutcomeSet enumerate();

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
 * Decide several models of one test over ONE walk
 * (CandidateEnumerator::run) with one built-in filter lane per model,
 * each enforcing both Figure-15 axioms (the InstOrder ablation is
 * Checker's, through Options::enforceInstOrder):
 * the rf-candidate stream, the value fixpoint and the coherence walk
 * are model-independent, so N models cost one walk plus N filters
 * instead of N walks.  Verdicts, outcome sets and -- in @p stats,
 * when given -- each model's counters are exactly what N
 * Checker::enumerate() calls would produce.  @p ppoShapes, when
 * given, memoizes preservedProgramOrder() across the walk (and across
 * walks sharing the cache -- the batched decide pipeline keeps one
 * per batch), looked up by the thread shape keys the walk computes
 * once per rf candidate for all lanes.
 */
std::vector<litmus::OutcomeSet>
enumerateModels(CandidateEnumerator &enumerator,
                const std::vector<model::ModelKind> &models,
                std::vector<CheckerStats> *stats = nullptr,
                PpoCache *ppoShapes = nullptr);

} // namespace gam::axiomatic

#endif // GAM_AXIOMATIC_CHECKER_HH
