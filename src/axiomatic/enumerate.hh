/**
 * @file
 * The shared candidate-enumeration core for axiomatic-style engines.
 *
 * Both the hand-coded Figure-15 checker (axiomatic/checker.hh) and the
 * cat DSL engine (cat/engine.hh) decide a litmus test by scoring
 * *candidate executions*: a read-from map (which store each load reads)
 * plus one total coherence order per address.  This file owns the
 * machinery that produces those candidates:
 *
 *  - CandidateBuilder runs the cross-thread value fixpoint that turns
 *    one read-from guess into committed thread traces (or rejects it as
 *    value-inconsistent), and computes the static per-load feasible
 *    source sets that let the search skip read-from maps whose
 *    addresses can never match.
 *
 *  - CandidateEnumerator drives the one search, after herd-style tools
 *    (Alglave et al., Herding Cats): coherence orders grow one store
 *    at a time, the model's ordering constraints are maintained
 *    online, and the search backtracks the moment a partial candidate
 *    can no longer be completed legally -- pruning whole factorial
 *    subtrees instead of materializing them.  One serial walk judges
 *    one filter lane per model: a single engine run is a walk with
 *    one lane, the batched decide pipeline fuses a test's models into
 *    one walk.
 *
 *  - IncrementalFilter is how a model plugs into the pruned search:
 *    monotone "can any completion still pass?" callbacks at each
 *    extension step, plus an exact verdict at complete candidates.
 *    The hand-coded axioms implement it with an incrementally
 *    maintained constraint closure (checker.cc); the cat engine with
 *    monotone partial evaluation of the model file (cat/engine.cc).
 *
 * The enumerate-then-check pipeline this replaces survives as
 * Checker::enumerateLegacy() for differential validation and the
 * pruning benchmarks.
 */

#ifndef GAM_AXIOMATIC_ENUMERATE_HH
#define GAM_AXIOMATIC_ENUMERATE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "isa/instruction.hh"
#include "isa/mem_image.hh"
#include "litmus/outcome.hh"
#include "litmus/test.hh"
#include "model/kind.hh"
#include "model/trace.hh"

namespace gam::axiomatic
{

/** Checker knobs. */
struct Options
{
    /**
     * Drop the InstOrder axiom (keep LoadValue only).  Used to
     * demonstrate that LoadValue alone admits out-of-thin-air behaviors
     * (Section II-C): "allowing all load/store reorderings [by] simply
     * removing the InstOrderSC axiom ... would [make OOTA] legal".
     */
    bool enforceInstOrder = true;

    /**
     * Values to try for loads whose value stays undetermined because of
     * a cyclic rf (out-of-thin-air candidates).  Empty: such candidates
     * are discarded, which is sound for every supported model.
     */
    std::vector<isa::Value> seedValues;
};

/**
 * @p options with seedValues defaulted to the constants of @p test's
 * condition (when not already set): the seeding Checker::isAllowed()
 * applies so OOTA-style queries are decided by the axioms rather than
 * by omission.  Shared with harness::decide() so the two paths can
 * never diverge.
 */
Options withConditionSeeds(const litmus::LitmusTest &test,
                           Options options);

/** Counters describing one enumeration run. */
struct CheckerStats
{
    uint64_t rfCandidates = 0;      ///< read-from maps tried
    uint64_t valueConsistent = 0;   ///< ... passing the value fixpoint
    uint64_t coCandidates = 0;      ///< complete (rf, co) candidates checked
    uint64_t accepted = 0;          ///< ... that were legal

    // Incremental-search counters (zero on the legacy path).
    /** rf maps skipped outright by static address feasibility. */
    uint64_t rfStaticSkipped = 0;
    /** rf candidates whose whole coherence search was pruned upfront. */
    uint64_t rfPruned = 0;
    /** Partial coherence extensions rejected by the filter. */
    uint64_t partialsPruned = 0;
    /** Complete candidates never materialized thanks to the pruning. */
    uint64_t subtreesSkipped = 0;
    /** Deepest store placement a backtrack retreated from. */
    uint64_t maxBacktrackDepth = 0;

    /** this += other (maxBacktrackDepth by max): totals over runs. */
    void merge(const CheckerStats &other);
};

/** Encode (tid, static index) as a StoreId. */
constexpr model::StoreId
storeId(int tid, int idx)
{
    return static_cast<model::StoreId>(tid * 1024 + idx);
}

/** Decode a StoreId. */
constexpr std::pair<int, int>
storeIdParts(model::StoreId id)
{
    return {id / 1024, id % 1024};
}

/**
 * One memory event of a candidate execution: an executed load/store
 * with resolved address, in committed trace order per thread.  RMWs
 * are a single event that is both a load and a store.
 */
struct CandidateEvent
{
    int tid;
    int traceIdx;        ///< index into the thread's committed trace
    bool isStore;
    bool isLoad;         ///< RMWs are both
    isa::Addr addr;
    isa::Value value;    ///< value the event supplies to memory/readers
    model::StoreId sid;  ///< store side: own id (InitStore otherwise)
    model::StoreId rf;   ///< load side: read-from source (or InitStore)
};

/**
 * Lookup tables derived once per read-from candidate, next to its
 * event list (collectCandidateEvents()), and shared read-only by every
 * filter lane that judges the candidate -- so no lane rebuilds its own
 * store or trace-position index.  Storage is reused across the
 * candidates of one walk.
 */
struct CandidateTables
{
    /** Event index of the executed store @p sid; -1 when it did not
     *  execute. */
    int
    eventOfStore(model::StoreId sid) const
    {
        const auto [tid, idx] = storeIdParts(sid);
        return storeEvent[(*siteBase)[size_t(tid)] + size_t(idx)];
    }

    /** Event index of entry @p traceIdx of thread @p tid's trace; -1
     *  for a non-memory entry. */
    int
    eventAt(int tid, int traceIdx) const
    {
        return traceEvent[traceBase[size_t(tid)] + size_t(traceIdx)];
    }

    /** Per thread: its read-from map in the form
     *  model::preservedProgramOrder() takes. */
    std::vector<const model::RfMap *> rfTraces;

    /**
     * Per thread: a digest of everything a model's ppo reads of the
     * thread -- the executed instruction sequence and the resolved
     * addresses, never data values (model/ppo.cc) -- and the same
     * digest extended with the thread's read-from sources, which only
     * ARM's SALdLdARM reads (as StoreIds).  The plain digest does not
     * depend on the thread's position or on the test, so equal shapes
     * anywhere in a batch share it.  The walk
     * (CandidateEnumerator::run) fills both for every candidate, once
     * for all its lanes; built-in lanes given a PpoCache
     * (axiomatic/checker.hh) look ppo up by them.  Empty on the legacy
     * pipeline.
     */
    std::vector<uint64_t> shapeKey;
    std::vector<uint64_t> rfShapeKey;

    /** First flat index of each thread's static sites: the builder's
     *  CandidateBuilder::siteBase(), not a copy. */
    const std::vector<size_t> *siteBase = nullptr;
    /** First flat index of each thread's trace entries (one entry per
     *  thread, plus the total). */
    std::vector<size_t> traceBase;
    /** Event index per static site (stores only; -1 elsewhere). */
    std::vector<int> storeEvent;
    /** Event index per trace entry (-1 for non-memory entries). */
    std::vector<int> traceEvent;
};

/**
 * One candidate execution: the committed thread traces plus one
 * read-from map and per-address coherence orders.  This is the domain
 * over which relational (cat-style) model engines evaluate their
 * axioms; the hand-coded checker scores exactly the same candidates,
 * so engines built on the enumerator are verdict-comparable by
 * construction.
 *
 * During the incremental search the coherence orders are *prefixes*
 * (`complete == false`): every placed pair is final -- a store is only
 * ever appended after the existing prefix -- but unplaced stores are
 * absent.  Relations derived from coOrder on a partial candidate are
 * therefore monotone underapproximations of every completion.
 *
 * All references point into enumeration-owned storage and are valid
 * only for the duration of one filter callback.
 */
struct CandidateExecution
{
    /** All memory events, thread-major, trace order within a thread. */
    const std::vector<CandidateEvent> &events;
    /** Coherence order per address: event indices, first to last. */
    const std::map<isa::Addr, std::vector<int>> &coOrder;
    /** Committed per-thread traces (fences/branches included). */
    const std::vector<const model::Trace *> &traces;
    /** Store and trace-position indexes over events, plus the ppo
     *  shape keys (see CandidateTables); fixed within an epoch. */
    const CandidateTables &tables;
    /**
     * Increments once per read-from candidate.  events, traces,
     * tables and every event's rf are reused across the coherence
     * orders sharing an epoch -- only coOrder changes -- so callers
     * may cache trace-derived data (program order, dependencies) keyed
     * on it.
     */
    uint64_t rfEpoch;
    /** False while coOrder still holds prefixes (see above). */
    bool complete = true;
};

/**
 * Accept/reject one complete candidate execution.  Returning true
 * records the candidate's outcome exactly as the built-in axioms
 * would.
 */
using CandidateFilter = std::function<bool(const CandidateExecution &)>;

/**
 * A model's hooks into the incremental pruned search.  All three
 * predicate callbacks must be *monotone*: returning false asserts that
 * no completion of the partial candidate can pass, so the enumerator
 * may skip the whole subtree.  A filter that cannot prove anything
 * early simply returns true until accept().
 *
 * Callbacks arrive strictly nested: beginRf() once per value-consistent
 * read-from candidate, then pushStore()/popStore() bracketing each
 * coherence extension (popStore is called even when the matching
 * pushStore returned false, so filters can restore snapshots
 * unconditionally), and accept() at complete leaves.
 */
class IncrementalFilter
{
  public:
    virtual ~IncrementalFilter() = default;

    /**
     * A new read-from candidate; @p partial has empty coherence
     * orders.  False prunes every coherence completion.
     */
    virtual bool beginRf(const CandidateExecution &partial)
    {
        (void)partial;
        return true;
    }

    /**
     * Event @p eventIdx was appended to @p addr's coherence order (it
     * is the last entry).  False prunes the subtree rooted here.
     */
    virtual bool pushStore(const CandidateExecution &partial,
                           isa::Addr addr, int eventIdx)
    {
        (void)partial;
        (void)addr;
        (void)eventIdx;
        return true;
    }

    /** Backtrack the matching pushStore(). */
    virtual void popStore(const CandidateExecution &partial,
                          isa::Addr addr, int eventIdx)
    {
        (void)partial;
        (void)addr;
        (void)eventIdx;
    }

    /** Exact verdict for a complete candidate. */
    virtual bool accept(const CandidateExecution &candidate) = 0;
};

/**
 * Builds candidate executions for one litmus test: the value fixpoint
 * turning a read-from map into committed traces, and the static
 * feasibility analysis bounding each load's possible sources.
 *
 * Thread programs must be loop-free (forward branches only): then
 * every static instruction executes at most once and rf can be indexed
 * statically.
 */
class CandidateBuilder
{
  public:
    /**
     * A register file of known or unknown values in which every
     * register starts known and 0.  Two masks make reset() O(1).
     */
    class RegFile
    {
      public:
        void
        reset()
        {
            written = 0;
            unknown = 0;
        }

        std::optional<isa::Value>
        get(isa::Reg r) const
        {
            const uint64_t bit = uint64_t(1) << r;
            if (unknown & bit)
                return std::nullopt;
            return (written & bit) ? vals[size_t(r)] : isa::Value{0};
        }

        /** Writes to REG_ZERO are dropped. */
        void
        set(isa::Reg r, std::optional<isa::Value> v)
        {
            if (r == isa::REG_ZERO)
                return;
            const uint64_t bit = uint64_t(1) << r;
            if (v) {
                vals[size_t(r)] = *v;
                written |= bit;
                unknown &= ~bit;
            } else {
                unknown |= bit;
            }
        }

      private:
        static_assert(isa::NUM_REGS <= 64, "register masks are 64-bit");
        std::array<isa::Value, isa::NUM_REGS> vals{};
        uint64_t written = 0;
        uint64_t unknown = 0;
    };

    /** Per-thread symbolic execution state for one rf candidate. */
    struct ThreadExec
    {
        /** Reached the end of the program (no value-blocked branch). */
        bool complete = false;
        /** Static indices of executed instructions, in order. */
        std::vector<int> executedIdx;
        /** Committed trace (parallel to executedIdx). */
        model::Trace trace;
        /** rf per trace entry (loads only; InitStore elsewhere). */
        model::RfMap rfTrace;
        /** Final register values (all known when complete). */
        RegFile regs;
    };

    /**
     * computeExecution()'s working storage, owned by the caller: one
     * per walk, reused across its rf candidates, so the fixpoint
     * allocates nothing once warm and the builder stays const.
     */
    struct Scratch
    {
        /** Per static site: resolved address / data where known. */
        struct Site
        {
            bool executed = false;
            std::optional<isa::Value> addr;  ///< memory instructions
            std::optional<isa::Value> data;  ///< store data / loaded value
            std::optional<isa::Value> data2; ///< RMWs: value written
        };
        /** Every static site, thread-major (siteBase() numbering). */
        std::vector<Site> sites;
        /** One thread's sites in the fixpoint round under way. */
        std::vector<Site> next;
        /** Seeded value per load ordinal (value-cycle recovery). */
        std::vector<std::optional<isa::Value>> seeded;
        RegFile regs;
    };

    CandidateBuilder(const litmus::LitmusTest &test, Options options);

    /** Static load sites (tid, index), in enumeration order. */
    const std::vector<std::pair<int, int>> &loadSites() const
    {
        return _loadSites;
    }

    /** Static store sites as global StoreIds. */
    const std::vector<model::StoreId> &storeSites() const
    {
        return _storeSites;
    }

    /**
     * Feasible read-from sources per load (parallel to loadSites):
     * InitStore plus every store whose statically-known address can
     * match the load's.  Sources whose addresses are data-dependent on
     * loaded values stay in every list (the analysis is conservative);
     * the value fixpoint remains the exact judge.
     */
    const std::vector<std::vector<model::StoreId>> &rfChoices() const
    {
        return _rfChoices;
    }

    /**
     * Read-from maps the static analysis discards without trying:
     * (1 + #stores)^#loads minus the feasible product, saturated.
     */
    uint64_t rfStaticSkipped() const { return _rfStaticSkipped; }

    /**
     * Execute all threads to a value fixpoint under @p rf; false when
     * the map is value-inconsistent (wrong supplied value, unexecuted
     * source, unaligned address from a bogus guess, or an undetermined
     * value cycle no seed resolves).  @p out keeps its buffers across
     * calls and is meaningful only after a true return.
     */
    bool computeExecution(const std::vector<model::StoreId> &rf,
                          std::vector<ThreadExec> &out,
                          Scratch &scratch) const;

    /** First flat index of each thread's static sites (one entry per
     *  thread, plus the total). */
    const std::vector<size_t> &siteBase() const { return _siteBase; }

    /** Content digest of each static instruction (siteBase()
     *  numbering): the per-instruction part of a ppo shape key. */
    const std::vector<uint64_t> &siteHash() const { return _siteHash; }

    const litmus::LitmusTest &test() const { return _test; }

  private:
    void computeStaticFeasibility();

    const litmus::LitmusTest &_test;
    Options _options;
    std::vector<std::pair<int, int>> _loadSites;
    std::vector<model::StoreId> _storeSites;
    std::vector<std::vector<model::StoreId>> _rfChoices;
    uint64_t _rfStaticSkipped = 0;
    std::vector<size_t> _siteBase;
    std::vector<uint64_t> _siteHash;
    /** Ordinal in loadSites() per static site; -1 for non-loads. */
    std::vector<int> _loadOrdinal;
};

/**
 * The enumeration walk: the incremental pruned search every engine
 * decides through.  The rf-candidate stream, the value fixpoint and
 * the coherence DFS are filter-independent, so one walk judges any
 * number of filters -- one lane per model -- at the cost of one walk
 * plus one filter evaluation per lane.
 */
class CandidateEnumerator
{
  public:
    CandidateEnumerator(const litmus::LitmusTest &test, Options options);

    /**
     * Walk the test's candidates once, judged by @p filters; returns
     * one outcome set per filter, in order.  A single engine run is a
     * walk with one lane; the batched decide pipeline fuses a test's
     * models into one walk.
     *
     * Each filter receives exactly the callback sequence a walk with
     * it alone would have produced: a filter that vetoes a pushStore
     * still gets the matching popStore, then sees nothing from the
     * vetoed subtree (the walk continues there only for the filters
     * that accepted), and rejoins at the next sibling.  Each lane's
     * outcome set and counters -- in @p laneStats, when given -- are
     * therefore independent of the other lanes.  Every candidate's
     * CandidateTables carry the ppo shape keys, computed once for all
     * lanes.  The walk is serial: callers parallelize across tests.
     */
    std::vector<litmus::OutcomeSet>
    run(const std::vector<IncrementalFilter *> &filters,
        std::vector<CheckerStats> *laneStats = nullptr);

    /**
     * Counters of the last run: the shared walk's, plus every lane's
     * pruning and acceptance totals (so a one-lane run's are its
     * lane's).
     */
    const CheckerStats &stats() const { return _stats; }

  private:
    struct CandidateState;
    struct WalkCtx;

    /**
     * Derive @p st's per-candidate state -- events, tables, coherence
     * search order, subtree sizes -- from its freshly computed
     * execution, reusing the buffers of the previous candidate.
     */
    void prepareCandidate(CandidateState &st) const;

    /** Enumerate every feasible rf map, in odometer order. */
    void searchRf(WalkCtx &ctx) const;

    /** Coherence search for one value-consistent rf candidate. */
    void searchCoherence(WalkCtx &ctx) const;

    /** Recursive coherence extension over ctx.addrs[ai..]. */
    void descendCoherence(WalkCtx &ctx, size_t ai,
                          const CandidateExecution &partial) const;

    CandidateBuilder _builder;
    CheckerStats _stats;
};

/**
 * Alignment-tolerant initial-memory read (bogus rf guesses may compute
 * unaligned addresses; those candidates are discarded before any
 * outcome is recorded).  Shared by the walk's outcome recording and
 * the legacy checker path.
 */
isa::Value initialMemValue(const isa::MemImage &mem, isa::Addr addr);

/**
 * Collect the memory events of one execution computed by @p builder
 * into @p events (cleared first), thread-major in trace order, and
 * index them into @p tables (all but the ppo shape keys) -- the
 * candidate both the walk and the legacy pipeline hand to their
 * filters.  One definition so candidate *production* can never drift
 * between the path under test and its differential reference.
 */
void collectCandidateEvents(
    const CandidateBuilder &builder,
    const std::vector<CandidateBuilder::ThreadExec> &exec,
    std::vector<CandidateEvent> &events, CandidateTables &tables);

/**
 * Record one accepted candidate's outcome (observed registers from
 * @p exec, final memory from the last store of each coherence order)
 * into @p outcomes.  Shared by both enumeration paths, like
 * collectCandidateEvents().
 */
void recordCandidateOutcome(
    const litmus::LitmusTest &test,
    const std::vector<CandidateBuilder::ThreadExec> &exec,
    const std::vector<CandidateEvent> &events,
    const std::map<isa::Addr, std::vector<int>> &coOrder,
    litmus::OutcomeSet &outcomes);

} // namespace gam::axiomatic

#endif // GAM_AXIOMATIC_ENUMERATE_HH
