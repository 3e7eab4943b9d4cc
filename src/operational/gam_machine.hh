/**
 * @file
 * The GAM abstract machine (paper Figures 16 and 17).
 *
 * Each processor holds a PC and an ROB; all processors share a
 * monolithic memory.  One step picks a processor and fires one rule:
 *
 *   Fetch, Execute-Reg-to-Reg, Execute-Branch, Execute-Fence,
 *   Execute-Load, Compute-Store-Data, Execute-Store, Compute-Mem-Addr.
 *
 * Rule guards and actions follow Figure 17 exactly, with two
 * parameterised deviations implementing the model variants of
 * Section III-E:
 *
 *  - GAM0 / ARM / Alpha*: Execute-Load skips not-done older loads in its
 *    backward search (no SALdLd stall) and Compute-Mem-Addr kills
 *    younger done loads only when a *store* address resolves.
 *  - ARM: when a load obtains its value, younger done same-address loads
 *    that read from a *different* store are killed (SALdLdARM).
 *  - Alpha*: a load may alternatively forward from the closest older
 *    done same-address load (load-load forwarding).
 *
 * Instructions are never removed from the ROB except by squashes, so a
 * terminal state (every instruction fetched and done) contains the
 * whole committed execution.  The ROB needs no capacity bound:
 * LitmusTest::check() admits forward branches only, so a ROB holds at
 * most one entry per instruction of its thread.
 *
 * A note on the ARM variant: the paper defines no abstract machine for
 * SALdLdARM, and Figure 17's early store execution is only compatible
 * with GAM's kill discipline (guards 3/4 of Execute-Store guarantee no
 * executed store can sit above a Compute-Mem-Addr kill point; the
 * SALdLdARM repair, which fires when an *older load* executes, has no
 * such guarantee).  Our ARM machine therefore delays a store while an
 * older done load is still killable.  This is sound (it reaches only
 * axiomatically-legal outcomes, checked in tests) but conservative: in
 * rare forwarding corners it cannot reach every outcome the SALdLdARM
 * axioms admit, so the equivalence property for ARM is outcome-set
 * inclusion rather than equality.
 */

#ifndef GAM_OPERATIONAL_GAM_MACHINE_HH
#define GAM_OPERATIONAL_GAM_MACHINE_HH

#include <cstdint>
#include <optional>
#include <map>
#include <string>
#include <vector>

#include "base/hashing.hh"
#include "isa/mem_image.hh"
#include "litmus/test.hh"
#include "model/kind.hh"
#include "model/trace.hh"

namespace gam::operational
{

/** Machine configuration. */
struct GamOptions
{
    model::ModelKind kind = model::ModelKind::GAM;
    /**
     * Exploration reduction: when a *local* rule is enabled -- Fetch,
     * Execute-Reg-to-Reg, Compute-Store-Data or Execute-Fence -- offer
     * only the first such rule instance.  These rules are
     * deterministic left-movers: their guards are monotone while the
     * entry lives (squashes only remove ROB suffixes), their actions
     * only append entries or set done/data bits, and no other rule's
     * guard is falsified by them, so firing them eagerly preserves the
     * reachable outcome set.  Validated against full exploration in
     * tests.
     */
    bool eagerLocal = true;
};

/** One step of the abstract machine. */
struct GamRule
{
    enum Kind : uint8_t {
        Fetch,
        ExecRegToReg,
        ExecBranch,
        ExecFence,
        ExecLoad,
        ComputeStoreData,
        ExecStore,
        ExecRmw,
        ComputeMemAddr,
    };

    uint8_t proc;
    Kind kind;
    /** ROB index for execute rules; unused for Fetch. */
    uint16_t idx;
    /**
     * Fetch of a conditional branch: 0 = predict fall-through,
     * 1 = predict taken.  ExecLoad under Alpha*: 1 = forward from an
     * older done load instead of the Figure 17 action.
     */
    uint8_t choice;
};

/** The abstract multiprocessor (OOO-MP) of the paper. */
class GamMachine
{
  public:
    GamMachine(const litmus::LitmusTest &test, GamOptions options = {});

    /** All rule instances whose guards hold in the current state. */
    std::vector<GamRule> enabledRules() const;

    /** Fire one enabled rule (guard is re-checked). */
    void fire(const GamRule &rule);

    /** Every instruction fetched and done on all processors. */
    bool terminal() const;

    /** Observable result (defined in terminal states). */
    litmus::Outcome outcome() const;

    /** Canonical state encoding for explorer memoisation. */
    std::string encode() const;

    /**
     * Stream the state words of encode() into @p h: the explorer's
     * allocation-free fingerprint path.
     */
    void hashInto(StateHasher &h) const;

  private:
    /** One ROB entry (Figure 16's fields). */
    struct Entry
    {
        uint16_t pc = 0;          ///< static instruction index
        bool done = false;
        bool addrAvail = false;
        bool dataAvail = false;
        isa::Value result = 0;    ///< load value / ALU result / target
        isa::Addr addr = 0;
        isa::Value data = 0;      ///< store data
        uint16_t predictedNext = 0;
        model::StoreId rfSrc = model::InitStore;
    };

    struct Proc
    {
        uint16_t pc = 0;
        std::vector<Entry> rob;
    };

    const isa::Instruction &instrAt(int proc, const Entry &e) const;

    /**
     * Value of register @p r as seen by ROB entry @p idx: the result of
     * the youngest older done writer, nullopt if that writer is not
     * done, or the initial value 0 if no writer exists.
     */
    std::optional<isa::Value> readReg(int proc, size_t idx,
                                      isa::Reg r) const;

    /** All of @p instr's registers in @p set are ready at @p idx. */
    bool regsReady(int proc, size_t idx,
                   const std::vector<isa::Reg> &set) const;

    bool loadGuard(int proc, size_t idx) const;
    bool loadAltGuard(int proc, size_t idx) const;
    bool storeGuard(int proc, size_t idx) const;
    bool rmwGuard(int proc, size_t idx) const;
    bool fenceGuard(int proc, size_t idx) const;
    /** ARM variant: an older load pair is still unresolved. */
    bool armPairHazard(int proc, size_t idx) const;

    void fireFetch(int proc, uint8_t choice);
    void fireExecLoad(int proc, size_t idx, uint8_t choice);
    void fireExecStore(int proc, size_t idx);
    void fireExecRmw(int proc, size_t idx);
    void fireComputeMemAddr(int proc, size_t idx);

    /** Kill ROB entries at and above @p from; reset the PC. */
    void squashFrom(int proc, size_t from, uint16_t new_pc);

    const litmus::LitmusTest &test;
    GamOptions options;
    std::vector<Proc> procs;
    isa::MemImage memory;
    /** Most recent store to have written each address. */
    std::map<isa::Addr, model::StoreId> lastWriter;
};

} // namespace gam::operational

#endif // GAM_OPERATIONAL_GAM_MACHINE_HH
