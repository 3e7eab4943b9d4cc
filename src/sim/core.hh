/**
 * @file
 * Cycle-level out-of-order uniprocessor (the OOOU of Section III-A).
 *
 * The pipeline models fetch (with gshare prediction and an L1I),
 * 4-wide rename/dispatch into ROB + reservation station + load/store
 * queues, 6-wide issue over the Table I function units, a load/store
 * unit with store-to-load forwarding and speculative load issue, and
 * 4-wide in-order commit with a post-commit store buffer draining into
 * the data cache hierarchy.
 *
 * The four evaluated models differ *only* through LsqPolicy:
 *
 *  - GAM    : same-address load-load kills + stalls (constraint SALdLd)
 *  - ARM    : stalls only (optimistic SALdLdARM, as in the paper)
 *  - GAM0   : neither
 *  - Alpha* : neither, plus load-load forwarding
 *
 * All models keep the universal ordering machinery: memory-order
 * violation squashes when a store address resolves under an already-
 * executed younger same-address load (Compute-Mem-Addr in Figure 17),
 * branch-misprediction squashes, and fence draining.
 */

#ifndef GAM_SIM_CORE_HH
#define GAM_SIM_CORE_HH

#include <deque>
#include <optional>

#include "mem/mem_system.hh"
#include "sim/bpred.hh"
#include "sim/params.hh"
#include "sim/trace_gen.hh"

namespace gam::sim
{

/** Counters reported by one simulation run (post-warmup). */
struct SimStats
{
    uint64_t cycles = 0;
    uint64_t committedUops = 0;
    uint64_t fetchedUops = 0;

    uint64_t branchMispredicts = 0;
    uint64_t condBranches = 0;
    uint64_t memOrderSquashes = 0;
    uint64_t saLdLdKills = 0;
    uint64_t saLdLdStalls = 0;
    uint64_t llForwards = 0;
    uint64_t llForwardsSavedMiss = 0;
    uint64_t storeForwards = 0;
    uint64_t loadsExecuted = 0;
    uint64_t storesCommitted = 0;

    uint64_t l1dLoadAccesses = 0;
    uint64_t l1dLoadMisses = 0;
    uint64_t l2Misses = 0;
    uint64_t l3Misses = 0;

    double upc() const
    {
        return cycles ? double(committedUops) / double(cycles) : 0.0;
    }
    /** Events per 1000 committed uops (the paper's Tables II/III unit). */
    double perKuops(uint64_t events) const
    {
        return committedUops ? 1000.0 * double(events)
                                   / double(committedUops)
                             : 0.0;
    }
};

/** One out-of-order core driven by a dynamic trace. */
class Core
{
  public:
    Core(const DynTrace &trace, model::ModelKind kind,
         CoreParams params = {}, mem::MemSystemParams mem_params = {});

    /**
     * Simulate until the trace commits fully or @p max_cycles elapse.
     * Statistics cover only commits after @p warmup_uops.
     */
    SimStats run(uint64_t warmup_uops = 0,
                 uint64_t max_cycles = UINT64_MAX);

  private:
    struct InFlight
    {
        uint64_t seq = 0;          ///< trace index (stable across squash)
        const DynUop *u = nullptr;

        bool inRs = false;         ///< occupying a reservation station
        bool issued = false;       ///< sent to a function unit / AGU
        bool execDone = false;
        uint64_t readyCycle = 0;   ///< result availability (scheduled)

        bool addrReady = false;
        uint64_t addrReadyCycle = 0;
        bool addrScanDone = false; ///< kill/violation scan performed
        bool memIssued = false;    ///< load obtained a data source
        int64_t fwdStoreSeq = -1;  ///< store it forwarded from (-1: mem)
        bool stallCounted = false;

        bool dataReady = false;    ///< store data captured
        uint64_t dataReadyCycle = 0;

        int64_t src1Seq = -1;      ///< producer of src1 (-1: committed)
        int64_t src2Seq = -1;
        bool mispredicted = false;
    };

    /** A committed store draining to the cache. */
    struct PendingStore
    {
        isa::Addr addr;
        isa::Value value;
        int64_t seq;
        bool issuedToMem = false;
        uint64_t doneCycle = 0;
    };

    bool producerReady(int64_t seq) const;

    void doFetch();
    void doRename();
    void doComplete();
    void doIssue();
    void doMemStage();
    void doCommit();

    /** Flush seq >= @p from, redirect fetch, rebuild the rename map. */
    void squash(uint64_t from);
    void rebuildRenameMap();

    /** Try to give a load a data source; returns true when sourced. */
    bool tryIssueLoad(InFlight &ld);

    const DynTrace &trace;
    CoreParams params;
    LsqPolicy policy;
    mem::MemSystem memsys;
    BranchPredictor bpred;

    uint64_t cycle = 0;
    uint64_t fetchCursor = 0;     ///< next trace index to fetch
    uint64_t fetchResumeCycle = 0;
    uint64_t lastFetchLine = UINT64_MAX;
    uint64_t fetchLineReady = 0;

    std::deque<uint64_t> fetchQueue; ///< trace indices awaiting rename
    std::deque<InFlight> rob;        ///< oldest first
    uint64_t headSeq = 0;            ///< seq of rob.front()

    int rsUsed = 0;
    int lqUsed = 0;
    int sqUsed = 0; ///< speculative + committed (post-commit pending)
    std::deque<PendingStore> sbQueue;

    std::array<int64_t, isa::NUM_REGS> renameMap;

    uint64_t divBusyUntil = 0;
    uint64_t fpDivBusyUntil = 0;

    SimStats stats;
    uint64_t warmupUops = 0;
    bool statsArmed = false;
    uint64_t statsStartCycle = 0;
    mem::CacheStats l1dBase; ///< L1D stats snapshot at warmup boundary
};

} // namespace gam::sim

#endif // GAM_SIM_CORE_HH
