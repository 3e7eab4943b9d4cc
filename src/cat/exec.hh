/**
 * @file
 * Building the cat DSL's primitive sets and relations from one
 * enumerated candidate execution.
 *
 * Events are the committed memory accesses plus fences, thread-major
 * in committed trace order (branches and reg-to-reg computation are
 * not events: following herd, their effect is abstracted into the
 * addr/data/ctrl dependency relations, which are computed here by
 * register dataflow through the non-event instructions).
 *
 * Primitives:
 *   po    same-thread trace order (memory and fence events)
 *   rf    store -> load it supplies (reads of the initial memory have
 *         no rf edge; their semantics surface through fr)
 *   co    per-address total coherence order over stores
 *   fr    from-read: load -> every store coherence-after its source;
 *         a load reading the initial value precedes every same-address
 *         store.  Identity pairs (an RMW coherence-after its own
 *         source) are excluded.
 *   loc   distinct same-address memory events (symmetric)
 *   ext / int  distinct events of different / the same thread
 *   addr / data  register dataflow from a load into the address /
 *         data of a later memory event (through reg-to-reg ops only)
 *   ctrl  register dataflow from a load into a conditional branch,
 *         related to every event after that branch
 *   id    identity
 * Base sets: R W M F RMW and the per-kind fence sets FLL/FLS/FSL/FSS
 * (RMWs are in both R and W, matching the paper's classification).
 *
 * The trace-derived parts (everything but co and fr) are reused across
 * the coherence permutations of one read-from candidate, keyed on
 * CandidateExecution::rfEpoch.
 */

#ifndef GAM_CAT_EXEC_HH
#define GAM_CAT_EXEC_HH

#include <array>
#include <vector>

#include "axiomatic/checker.hh"
#include "cat/rel.hh"
#include "model/trace.hh"

namespace gam::cat
{

/** The evaluator's view of one candidate execution. */
struct ExecView
{
    size_t n = 0; ///< number of events (memory + fence)

    EventSet R, W, M, F, RMW, FLL, FLS, FSL, FSS;
    Rel po, rf, co, fr, loc, ext, int_, addr, data, ctrl, id;
};

/**
 * Builds ExecViews from the axiomatic checker's candidate stream,
 * caching the trace-derived relations per read-from epoch.
 */
class ExecBuilder
{
  public:
    /**
     * The view for @p candidate.  Valid until the next call; the
     * returned reference is into builder-owned storage.
     */
    const ExecView &view(const axiomatic::CandidateExecution &candidate);

    /**
     * View event index of candidate (memory) event @p candIdx, or -1
     * when it has none.  Valid for the candidate stream of the epoch
     * the last view() call belonged to; compiled filters
     * (cat/compile.hh) translate enumerator indices into the view's
     * event numbering through this.
     */
    int viewEventOfCand(size_t candIdx) const
    {
        return candIdx < eventOfCand.size()
            ? eventOfCand[candIdx] : -1;
    }

  private:
    void rebuildTraceLevel(const axiomatic::CandidateExecution &cand);
    void rebuildCoherence(const axiomatic::CandidateExecution &cand);

    /** One view event: a memory access or a fence. */
    struct EventInfo
    {
        int tid;
        int traceIdx;
        const model::TraceInstr *ti;
    };

    ExecView v;
    uint64_t epoch = ~uint64_t(0);
    bool any = false;
    /** rebuildTraceLevel()'s working storage, reused across epochs. */
    std::vector<EventInfo> events;
    std::array<EventSet, isa::NUM_REGS> flow;
    EventSet ctrlSrc, readFlow;
    /** Candidate (memory) event index -> our event index. */
    std::vector<int> eventOfCand;
    /** Our event index per trace entry, flattened like
     *  CandidateTables::traceBase; -1 for non-events. */
    std::vector<int> eventAt;
};

} // namespace gam::cat

#endif // GAM_CAT_EXEC_HH
