/**
 * @file
 * The in-order abstract machine of SC and TSO.
 *
 * SC (paper Figure 1) connects the processors directly to a monolithic
 * memory; one processor executes one instruction atomically per step.
 * TSO is the same machine with a FIFO store buffer per processor
 * (Section II-B's "atomic memory relaxed by a little"): a store enters
 * its processor's buffer, a Drain step writes the oldest buffered
 * store to memory, loads forward from the youngest matching entry of
 * their own buffer, and FenceSL (hence the full fence), RMWs and
 * termination wait for the buffer to drain.  Under SC a store writes
 * memory in its own step, so the buffers stay empty and no Drain rule
 * is ever enabled.
 */

#ifndef GAM_OPERATIONAL_INORDER_MACHINE_HH
#define GAM_OPERATIONAL_INORDER_MACHINE_HH

#include <array>
#include <string>
#include <vector>

#include "base/hashing.hh"
#include "isa/mem_image.hh"
#include "litmus/test.hh"
#include "model/kind.hh"

namespace gam::operational
{

/** A step of the in-order machine. */
struct InOrderRule
{
    enum Kind : uint8_t {
        Step,   ///< execute the next instruction of this processor
        Drain,  ///< write this processor's oldest buffered store to memory
    };

    uint8_t proc;
    Kind kind;
};

/** Lamport's SC multiprocessor, or TSO: SC plus FIFO store buffers. */
class InOrderMachine
{
  public:
    /** @p kind is ModelKind::SC or ModelKind::TSO. */
    InOrderMachine(const litmus::LitmusTest &test, model::ModelKind kind);

    std::vector<InOrderRule> enabledRules() const;
    void fire(const InOrderRule &rule);
    bool terminal() const;
    litmus::Outcome outcome() const;
    std::string encode() const;
    /** Allocation-free fingerprint path (same state as encode()). */
    void hashInto(StateHasher &h) const;

  private:
    struct Proc
    {
        uint16_t pc = 0;
        std::array<isa::Value, isa::NUM_REGS> regs{};
    };

    struct BufferedStore
    {
        uint8_t proc;
        isa::Addr addr;
        isa::Value value;
    };

    bool procDone(size_t p) const;
    /** Processor @p p has a store in its buffer. */
    bool buffering(size_t p) const;
    /** The next instruction is executable (FenceSL and RMWs wait for
     *  an empty buffer). */
    bool stepEnabled(size_t p) const;

    const litmus::LitmusTest &test;
    /** TSO: stores enter the buffers instead of memory. */
    bool storeBuffers;
    std::vector<Proc> procs;
    /**
     * Every processor's buffered stores, oldest first: a processor's
     * buffer is the subsequence tagged with it.  One vector for all
     * processors keeps Proc plain data, so copying a state allocates
     * nothing for the buffers while they are empty, and under SC they
     * always are.
     */
    std::vector<BufferedStore> buffered;
    isa::MemImage memory;
};

} // namespace gam::operational

#endif // GAM_OPERATIONAL_INORDER_MACHINE_HH
