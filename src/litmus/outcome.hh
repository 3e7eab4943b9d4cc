/**
 * @file
 * Program outcomes: the observable result of one complete execution of a
 * multi-threaded program.  Both verification engines (the axiomatic
 * checker and the operational explorer) report sets of Outcomes, which
 * makes the paper's equivalence theorem directly testable: the two sets
 * must be equal.
 */

#ifndef GAM_LITMUS_OUTCOME_HH
#define GAM_LITMUS_OUTCOME_HH

#include <compare>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "isa/instruction.hh"
#include "isa/mem_image.hh"

namespace gam::litmus
{

/** Final value of one observed register of one thread. */
struct RegObservation
{
    int tid;
    isa::Reg reg;
    isa::Value value;

    auto operator<=>(const RegObservation &) const = default;
};

/** Final value of one observed memory word. */
struct MemObservation
{
    isa::Addr addr;
    isa::Value value;

    auto operator<=>(const MemObservation &) const = default;
};

/** One execution's observable result. Observations are kept sorted. */
struct Outcome
{
    std::vector<RegObservation> regs;
    std::vector<MemObservation> mem;

    /** Sort observations into canonical order (call before comparing). */
    void canonicalize();

    auto operator<=>(const Outcome &) const = default;

    /** e.g. "0:r1=1 1:r2=0 | [0x1000]=1". */
    std::string toString() const;
};

/** A set of outcomes, as enumerated by a verification engine. */
using OutcomeSet = std::set<Outcome>;

/**
 * Order-independent 64-bit digest of an outcome set (the std::set
 * iterates in its canonical order, so equal sets hash equally).  The
 * compact round-trip witness the persistent campaign store records
 * next to each verdict: a re-decided decision must reproduce both the
 * verdict and this digest exactly (campaign/store.hh).
 */
uint64_t outcomeSetHash(const OutcomeSet &outcomes);

} // namespace gam::litmus

#endif // GAM_LITMUS_OUTCOME_HH
